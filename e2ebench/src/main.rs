//! The repository's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <pl0_recognize|pl0_edit|python_forest> --seed <n>
//!          --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: one client sends one request at a time
//! to a one-worker `ParseService` and waits for the answer. Every answer is
//! checked against the GLR backend. With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it serves the same inputs again
//! with spans recorded around every layer call and the service's own
//! observability on, and prints the per-layer split. Times are reported at
//! the reference host speed (see [`calib`]). The last line of standard
//! output is one JSON object; notes go to standard error. `PREDICTIONS.md`
//! holds the workloads' rationale and the per-layer prediction table.

mod calib;
mod edit;
mod forest;
mod inputs;
mod oracle;
mod recognize;
mod run;
mod stats;
mod trace;

use run::{Metric, Outcome, Plan};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A run stops serving new operations this long after it starts, so it
/// exits well inside three minutes even on a pathologically slow build.
const HARD_STOP: Duration = Duration::from_secs(150);

/// A workload: its name, the plan of a run from `--seed` and
/// `--seconds`, and the run itself.
struct Workload {
    name: &'static str,
    plan: fn(u64, u64) -> Plan,
    run: fn(&Plan) -> Outcome,
}

const WORKLOADS: [Workload; 3] = [
    Workload { name: "pl0_recognize", plan: recognize::plan, run: recognize::run },
    Workload { name: "pl0_edit", plan: edit::plan, run: edit::run },
    Workload { name: "python_forest", plan: forest::plan, run: forest::run },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(15).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn json_line(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.mismatches.is_empty(),
        out.tally.attempted,
        out.tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("e2ebench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let plan = Plan {
        trace: args.trace,
        deadline: Some(Instant::now() + HARD_STOP),
        ..(w.plan)(args.seed, args.seconds)
    };
    let out = (w.run)(&plan);
    for note in &out.notes {
        eprintln!("{note}");
    }
    let (probe_ns, scale) = (out.calibration_ns, calib::scale(out.calibration_ns));
    eprintln!("host calibration: {:.1} us median, times scaled by {scale:.4}", probe_ns / 1e3);
    let measured: Vec<Metric> = if args.trace {
        let mut layers = out.layers.clone();
        layers.set("host.calibration_us", probe_ns / 1e3);
        layers.metrics()
    } else {
        out.end_to_end.clone()
    };
    let metrics: Vec<Metric> = measured.iter().map(|m| m.at_reference_speed(scale)).collect();
    eprintln!("{:<36} {:>16} {:>16}", "metric", "as measured", "at reference");
    for (raw, m) in measured.iter().zip(&metrics) {
        eprintln!("{:<36} {:>16.4} {:>16.4} {}", m.name, raw.value, m.value, m.unit);
    }
    for m in out.mismatches.iter().take(20) {
        eprintln!("WRONG: {m}");
    }
    println!("{}", json_line(&out, &metrics));
    if out.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2ebench: {} wrong answers", out.mismatches.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run small enough for a debug build.
    fn small(w: &Workload, seed: u64) -> Outcome {
        let full = (w.plan)(seed, 1);
        let plan = Plan {
            ops: 4,
            cold_starts: 2,
            sizes: (full.sizes.0.min(150), full.sizes.1.min(300)),
            keystrokes: full.keystrokes.min(30),
            ..full
        };
        (w.run)(&plan)
    }

    #[test]
    fn a_seed_fixes_inputs_answers_and_layer_counts() {
        for w in &WORKLOADS {
            let (a, b, other) = (small(w, 5), small(w, 5), small(w, 6));
            let name = w.name;
            for out in [&a, &b, &other] {
                assert!(out.mismatches.is_empty(), "{name}: {:?}", out.mismatches);
                assert_eq!(out.tally.failed, 0, "{name}");
                assert!(out.tally.attempted > 0, "{name}");
            }
            assert_eq!(a.counts, b.counts, "{name}: same seed, same counts");
            assert_ne!(a.counts["inputs"], other.counts["inputs"], "{name}: new seed");
        }
    }

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let out = Outcome {
            tally: stats::Tally { attempted: 3, failed: 1 },
            mismatches: vec!["wrong".into()],
            ..Outcome::default()
        };
        let m = [Metric { name: "p50_us", unit: "us", value: 12.5 }];
        assert_eq!(
            json_line(&out, &m),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
        let listed = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for (name, unit) in run::END_TO_END.iter().chain(run::PER_LAYER) {
            assert!(listed(name), "{name} is not in BENCHMARK.json");
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
        for w in &WORKLOADS {
            assert!(listed(w.name), "workload {} is not in BENCHMARK.json", w.name);
        }
    }
}
