//! The gate runner's one estimator and its one line format.
//!
//! Every row of `benches/gates.rs` measures two arms against each other with
//! [`paired`] and prints its figures through a [`Report`], one JSON object
//! per line on stdout:
//!
//! ```text
//! {"bench":"recovery","name":"tokens=1019/clean_overhead_percent",
//!  "value":0.81,"unit":"percent","timestamp":"1760916000","gate":"pass"}
//! ```
//!
//! * `bench` — the row.
//! * `name` — the figure, with any size or arm qualifier folded in.
//! * `value`/`unit` — the measurement (`ns`, `ratio`, `percent`, …).
//! * `timestamp` — wall-clock seconds when the run started; every line of
//!   one run carries the same stamp.
//! * `gate` — `"pass"`/`"fail"` for a figure checked against its bound,
//!   `null` for a plain measurement.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Two arms measured against each other by [`paired`].
#[derive(Debug, Clone, Copy)]
pub struct Paired {
    /// The best (minimum) ns of arm `a` over the measured rounds.
    pub a_ns: u128,
    /// The best (minimum) ns of arm `b` over the measured rounds.
    pub b_ns: u128,
    /// The median over the measured rounds of the round's `a / b` ratio.
    pub ratio: f64,
}

/// Measures arm `a` against arm `b`; each call of an arm runs it once and
/// returns its ns.
///
/// Warm-up rounds (a quarter of `rounds`, at least three) run both arms
/// first. Then each of `rounds` rounds runs both arms once, swapping which
/// goes first every round, so scheduler noise and frequency drift hit both
/// arms alike. A ratio of two minima rests on two lucky rounds, which on a
/// shared host swing by more than most bounds; the median of the per-round
/// ratios compares the arms under the same conditions in every round.
pub fn paired(rounds: u32, mut a: impl FnMut() -> u128, mut b: impl FnMut() -> u128) -> Paired {
    assert!(rounds > 0, "a pair needs at least one measured round");
    for _ in 0..rounds.div_ceil(4).max(3) {
        a();
        b();
    }
    let (mut a_ns, mut b_ns) = (u128::MAX, u128::MAX);
    let mut ratios = Vec::with_capacity(rounds as usize);
    for round in 0..rounds {
        let (x, y) = if round % 2 == 0 {
            let x = a();
            (x, b())
        } else {
            let y = b();
            (a(), y)
        };
        a_ns = a_ns.min(x);
        b_ns = b_ns.min(y);
        ratios.push(x as f64 / y as f64);
    }
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let ratio =
        if ratios.len() % 2 == 0 { (ratios[mid - 1] + ratios[mid]) / 2.0 } else { ratios[mid] };
    Paired { a_ns, b_ns, ratio }
}

/// Nanoseconds one call of `f` takes (its result goes through
/// [`black_box`](std::hint::black_box), so the work cannot be elided).
pub fn ns<R>(f: impl FnOnce() -> R) -> u128 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_nanos()
}

/// One line of the format (see the module docs).
fn line(
    bench: &str,
    name: &str,
    value: f64,
    unit: &str,
    timestamp: &str,
    gate: Option<bool>,
) -> String {
    let gate = match gate {
        None => "null",
        Some(true) => "\"pass\"",
        Some(false) => "\"fail\"",
    };
    format!(
        "{{\"bench\":\"{bench}\",\"name\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\",\
         \"timestamp\":\"{timestamp}\",\"gate\":{gate}}}"
    )
}

/// Prints one run's figures, every line stamped with the time the run
/// started, and remembers which gates failed. Names are plain identifiers;
/// they are not JSON-escaped.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    timestamp: String,
    failed: Vec<String>,
}

impl Report {
    /// Starts a run stamped with the current wall-clock second.
    pub fn new() -> Report {
        let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
        Report { bench: "", timestamp: secs.to_string(), failed: Vec::new() }
    }

    /// Names the row the following lines belong to.
    pub fn row(&mut self, bench: &'static str) {
        self.bench = bench;
    }

    /// Prints a figure. `gate` is `None` for a plain measurement, else
    /// whether the figure held its bound.
    pub fn figure(&mut self, name: &str, value: f64, unit: &str, gate: Option<bool>) {
        println!("{}", line(self.bench, name, value, unit, &self.timestamp, gate));
        if gate == Some(false) {
            self.failed.push(format!("{}/{name}", self.bench));
        }
    }

    /// Prints a plain measurement.
    pub fn record(&mut self, name: &str, value: f64, unit: &str) {
        self.figure(name, value, unit, None);
    }

    /// Prints both arms' best ns of `pair`, as `{prefix}/{arm}_ns`.
    pub fn bests(&mut self, prefix: &str, [a, b]: [&str; 2], pair: &Paired) {
        self.record(&format!("{prefix}/{a}_ns"), pair.a_ns as f64, "ns");
        self.record(&format!("{prefix}/{b}_ns"), pair.b_ns as f64, "ns");
    }

    /// The gates that failed so far, as `row/name`.
    pub fn failed(&self) -> &[String] {
        &self.failed
    }
}

impl Default for Report {
    fn default() -> Report {
        Report::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Runs [`paired`] with arms that log their calls and return scripted
    /// ns: arm `b` always 100, arm `a` its next scripted value.
    fn scripted(rounds: u32, a_ns: &[u128]) -> (Paired, Vec<char>) {
        let log = RefCell::new(Vec::new());
        let mut script = a_ns.iter().copied();
        let pair = paired(
            rounds,
            || {
                log.borrow_mut().push('a');
                script.next().expect("scripted value")
            },
            || {
                log.borrow_mut().push('b');
                100
            },
        );
        (pair, log.into_inner())
    }

    #[test]
    fn the_ratio_is_the_median_of_the_rounds() {
        // Three warm-up rounds, whose values must not count.
        let warm = [1, 1, 1];
        let (odd, _) = scripted(3, &[&warm[..], &[300, 100, 200]].concat());
        assert_eq!(odd.ratio, 2.0);
        let (even, _) = scripted(4, &[&warm[..], &[400, 100, 200, 300]].concat());
        assert_eq!(even.ratio, 2.5, "even counts take the mean of the middle two");
    }

    #[test]
    fn the_arms_swap_which_goes_first_every_round() {
        let (_, log) = scripted(4, &[1; 7]);
        let (warm, measured) = log.split_at(6);
        assert_eq!(warm.iter().collect::<String>(), "ababab");
        assert_eq!(measured.iter().collect::<String>(), "abbaabba");
    }

    #[test]
    fn each_best_is_the_minimum_of_its_measured_rounds() {
        let (pair, _) = scripted(3, &[1, 1, 1, 250, 120, 500]);
        assert_eq!((pair.a_ns, pair.b_ns), (120, 100), "warm-up values do not count");
    }

    #[test]
    fn records_follow_the_stable_schema() {
        let lines = [
            line("demo", "tokens=100/speed", 42.5, "tokens/s", "1700000000", None),
            line("demo", "tokens=100/speedup", 2.0, "ratio", "1700000000", Some(true)),
            line("demo", "tokens=100/overhead", 9.0, "percent", "1700000000", Some(false)),
        ];
        assert!(lines[0].starts_with("{\"bench\":\"demo\",\"name\":\"tokens=100/speed\""));
        assert!(lines[0].contains("\"value\":42.5,\"unit\":\"tokens/s\""));
        assert!(lines[0].ends_with("\"gate\":null}"));
        assert!(lines[1].ends_with("\"gate\":\"pass\"}"));
        assert!(lines[2].ends_with("\"gate\":\"fail\"}"));
        for line in &lines {
            assert!(line.contains("\"unit\":\"") && line.contains("\",\"timestamp\":\""));
            assert!(line.contains("\"timestamp\":\"1700000000\",\"gate\":"));
        }
    }

    #[test]
    fn a_report_remembers_its_failed_gates() {
        let mut report = Report::new();
        report.row("demo");
        report.record("plain", 1.0, "ratio");
        report.figure("held", 1.0, "ratio", Some(true));
        report.figure("broke", 0.5, "ratio", Some(false));
        assert_eq!(report.failed(), ["demo/broke"]);
    }
}
