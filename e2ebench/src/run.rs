//! What the three workloads share: the run plan, one pass's raw
//! measurements, cold-start timing, and the reported metric set.

use crate::calib::Calibrator;
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use derp::lex::Lexeme;
use pwd_serve::{Input, ParseService};
use std::collections::BTreeMap;
use std::time::Instant;

/// Service configuration shared by every workload: one worker, as the
/// closed loop has one client (the host has 2 vCPUs).
pub fn service_config(backend: &str, observability: bool) -> pwd_serve::ServiceConfig {
    pwd_serve::ServiceConfig {
        workers: 1,
        backend: backend.to_string(),
        observability,
        ..pwd_serve::ServiceConfig::default()
    }
}

/// The lexemes of an input the benchmark built from lexemes.
pub fn lexemes(input: &Input) -> &[Lexeme] {
    match input {
        Input::Lexemes(l) => l,
        Input::Kinds(_) => unreachable!("the benchmark only submits lexemes"),
    }
}

/// How much one run does. The input set is fixed by the seed and `ops`,
/// not by a duration, so every run of a seed serves the same documents.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Seed of every input.
    pub seed: u64,
    /// Operations per pass: requests, or edit sessions on `pl0_edit`.
    pub ops: usize,
    /// In-process cold starts timed for `setup_s`.
    pub cold_starts: usize,
    /// Document sizes in tokens: the log-uniform range of the requests, or
    /// the size of each edited document on `pl0_edit` (the lower bound).
    pub sizes: (usize, usize),
    /// Keystrokes per edit session (`pl0_edit`).
    pub keystrokes: usize,
    /// Re-run the input set traced, after the untraced pass.
    pub trace: bool,
    /// Passes stop early here, so a pathologically slow build still exits.
    pub deadline: Option<Instant>,
}

impl Plan {
    /// The plan of an untraced run without a deadline: `ops_per_second`
    /// operations for each second of `seconds`.
    pub fn new(seed: u64, seconds: u64, ops_per_second: f64, sizes: (usize, usize)) -> Plan {
        Plan {
            seed,
            ops: (ops_per_second * seconds as f64).ceil() as usize,
            cold_starts: 300,
            sizes,
            keystrokes: 0,
            trace: false,
            deadline: None,
        }
    }

    /// Has the run's hard deadline passed?
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// FNV-1a, to fingerprint a pass's inputs and outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds a number in.
    pub fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Raw measurements of one pass over the input set.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of every successful interactive operation (ns): a request,
    /// or a keystroke on `pl0_edit`.
    pub op_ns: Vec<u64>,
    /// Whole-document verdicts: requests, or document opens.
    pub docs: u64,
    /// Σ tokens of whole-document verdicts.
    pub doc_tokens: u64,
    /// Σ time of those verdicts (ns).
    pub doc_ns: u64,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Every generated input.
    pub inputs: Digest,
    /// Every answer.
    pub outputs: Digest,
    /// Largest per-input engine arena seen (observability on only).
    pub arena_bytes: u64,
    /// Σ packed forest nodes (`python_forest`).
    pub forest_nodes: u64,
    /// The process's memory high-water mark when the pass ended (MiB).
    pub peak_rss_mib: f64,
}

/// Highest tail percentile reported: p99, which repeated within a tenth
/// across sizing runs; smaller runs step down by the ≥10-beyond rule.
const TAIL_CEILING: f64 = 99.0;

impl Pass {
    /// The end-to-end figures of this pass.
    pub fn figures(&self) -> Figures {
        let mut sorted = self.op_ns.clone();
        sorted.sort_unstable();
        Figures {
            tokens_per_s: stats::per_second(self.doc_tokens, self.doc_ns),
            p50_ns: if sorted.is_empty() { 0 } else { stats::percentile(&sorted, 50.0) },
            tail: stats::tail(&sorted, TAIL_CEILING),
        }
    }
}

/// End-to-end figures of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    /// Σ tokens ÷ Σ time of whole-document verdicts.
    pub tokens_per_s: f64,
    /// Median interactive-operation latency (ns).
    pub p50_ns: u64,
    /// Tail interactive-operation latency.
    pub tail: Option<stats::Tail>,
}

impl Figures {
    fn tail_ns(&self) -> u64 {
        self.tail.map_or(0, |t| t.value)
    }

    /// The figures at the reference host speed (see [`crate::calib`]).
    pub fn at_reference_speed(&self, scale: f64) -> Figures {
        let scaled = |ns: u64| (ns as f64 * scale) as u64;
        Figures {
            tokens_per_s: self.tokens_per_s / scale,
            p50_ns: scaled(self.p50_ns),
            tail: self.tail.map(|t| stats::Tail { value: scaled(t.value), ..t }),
        }
    }

    /// Tracing overhead of `traced` over `self`, in percent, for each of
    /// the three figures (positive = traced is slower). Compare figures at
    /// the reference speed, or host drift between the passes shows up as
    /// overhead.
    pub fn overhead_pct(&self, traced: &Figures) -> [(&'static str, f64); 3] {
        let pct =
            |base: f64, with: f64| if base > 0.0 { (with - base) / base * 100.0 } else { 0.0 };
        [
            ("trace.tokens_per_s_overhead_pct", pct(traced.tokens_per_s, self.tokens_per_s)),
            ("trace.p50_overhead_pct", pct(self.p50_ns as f64, traced.p50_ns as f64)),
            ("trace.tail_overhead_pct", pct(self.tail_ns() as f64, traced.tail_ns() as f64)),
        ]
    }
}

/// One timed in-process cold start.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColdStart {
    /// Building the lexer (ns).
    pub lexer_ns: u64,
    /// The first request, grammar compile and session fork included (ns).
    pub first_request_ns: u64,
    /// Everything from nothing to the first answer (ns).
    pub total_ns: u64,
}

/// Medians over repeated cold starts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Median cold start to the first answer (s).
    pub total_s: f64,
    /// Median lexer build (ms).
    pub lexer_ms: f64,
    /// Median first request (ms).
    pub first_request_ms: f64,
}

/// Times `n` cold starts and takes medians. `cold_start` returns its own
/// split and whether its first answer was right.
pub fn measure_setup(
    n: usize,
    cal: &mut Calibrator,
    mut cold_start: impl FnMut() -> (ColdStart, bool),
) -> (Setup, bool) {
    let mut all_right = true;
    let starts: Vec<ColdStart> = (0..n.max(1))
        .map(|_| {
            cal.tick();
            let (c, right) = cold_start();
            all_right &= right;
            c
        })
        .collect();
    let med = |f: fn(&ColdStart) -> u64| {
        stats::median(&starts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let setup = Setup {
        total_s: med(|c| c.total_ns) / 1e9,
        lexer_ms: med(|c| c.lexer_ns) / 1e6,
        first_request_ms: med(|c| c.first_request_ns) / 1e6,
    };
    (setup, all_right)
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The process's resident-memory high-water mark (MiB), from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Mean (µs) of the Prometheus histogram family `name` in a
/// `metrics_text()` document, summed over its label sets; 0 when absent.
pub fn histogram_mean_us(text: &str, name: &str) -> f64 {
    let series = |suffix: &str| -> f64 {
        let prefix = format!("{name}_{suffix}");
        text.lines()
            .filter(|l| l.starts_with(&prefix))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    let (sum, count) = (series("sum"), series("count"));
    if count > 0.0 {
        sum / count / 1e3
    } else {
        0.0
    }
}

/// A metric as printed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

impl Metric {
    /// The metric at the reference host speed (see [`crate::calib`]):
    /// times multiplied by `scale`, rates divided by it, and counts,
    /// ratios, sizes and the `host.` calibration itself as measured.
    pub fn at_reference_speed(self, scale: f64) -> Metric {
        let value = match self.unit {
            _ if self.name.starts_with("host.") => self.value,
            "ns" | "us" | "ms" | "s" => self.value * scale,
            "1/s" => self.value / scale,
            _ => self.value,
        };
        Metric { value, ..self }
    }
}

/// The end-to-end metrics, in output order, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tokens_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, in output order, with their units. A workload
/// whose path does not enter a layer call reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lex.ns_per_token", "ns"),
    ("lex.buffer_ns_per_token", "ns"),
    ("lex.relex_us", "us"),
    ("api.resolve_ns_per_token", "ns"),
    ("api.fixed_us", "us"),
    ("api.plain_feed_ns_per_token", "ns"),
    ("api.incremental_feed_ns_per_token", "ns"),
    ("api.splice_us", "us"),
    ("api.converged_ratio", "ratio"),
    ("api.refed_per_edit", "tokens"),
    ("api.rung_distance_per_edit", "tokens"),
    ("core.walk_ns_per_token", "ns"),
    ("core.start_us", "us"),
    ("core.slope_ns_per_token", "ns"),
    ("core.derive_ns_per_token", "ns"),
    ("core.auto_hit_ratio", "ratio"),
    ("core.auto_rows_built", "count"),
    ("core.auto_fallbacks", "count"),
    ("core.arena_bytes", "bytes"),
    ("core.derive_calls_per_token", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.template_shares", "count"),
    ("forest.ns_per_token", "ns"),
    ("forest.nodes_per_token", "count"),
    ("serve.overhead_us", "us"),
    ("serve.splice_overhead_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.execute_us", "us"),
    ("setup.lexer_ms", "ms"),
    ("setup.first_request_ms", "ms"),
    ("trace.tokens_per_s_overhead_pct", "%"),
    ("trace.p50_overhead_pct", "%"),
    ("trace.tail_overhead_pct", "%"),
    ("host.calibration_us", "us"),
];

/// Per-layer values by name; unset metrics print as 0.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a bug in this crate).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// A metric's value (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric, in output order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER.iter().map(|&(name, unit)| Metric { name, unit, value: self.get(name) }).collect()
    }
}

/// Sets the per-layer metrics every workload reads the same way: engine
/// counters from the service, the service's queue-wait/execute split from
/// its exposition, and the set-up split.
pub fn common_layers(l: &mut Layers, pass: &Pass, svc: &ParseService, setup: &Setup) {
    let memo = svc.metrics().memo;
    let text = svc.metrics_text();
    let tokens = pass.doc_tokens.max(1) as f64;
    l.set("core.auto_hit_ratio", memo.table_hit_ratio().unwrap_or(0.0));
    l.set("core.auto_rows_built", memo.auto_rows_built as f64);
    l.set("core.auto_fallbacks", memo.auto_fallbacks as f64);
    l.set("core.arena_bytes", pass.arena_bytes as f64);
    l.set("core.derive_calls_per_token", (memo.memo_hits + memo.memo_misses) as f64 / tokens);
    l.set("core.memo_hit_ratio", memo.hit_ratio().unwrap_or(0.0));
    l.set("core.template_shares", memo.template_shares as f64);
    l.set("serve.queue_wait_us", histogram_mean_us(&text, "pwd_serve_queue_wait_ns"));
    l.set("serve.execute_us", histogram_mean_us(&text, "pwd_serve_execute_ns"));
    l.set("setup.lexer_ms", setup.lexer_ms);
    l.set("setup.first_request_ms", setup.first_request_ms);
}

/// Sets the per-call start-up cost and per-token slope of the engine call
/// `span`, fitted over the pass's operations of different sizes.
pub fn engine_fit(l: &mut Layers, tr: &Tracer, span: &str) {
    if let Some((fixed_ns, slope_ns)) = tr.fit(span) {
        l.set("core.start_us", fixed_ns / 1e3);
        l.set("core.slope_ns_per_token", slope_ns);
    }
}

/// The note splitting a traced pass's operation time over the layers, and
/// counting its spans.
pub fn split_note(tr: &Tracer, parts: &[(&str, f64)], op_ns: f64) -> String {
    let split: Vec<String> = parts
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.1}%", ns / op_ns.max(1.0) * 100.0))
        .collect();
    format!("split of operation time: {} ({} spans)", split.join(", "), tr.spans().len())
}

/// Counts a run repeats exactly for a seed: the determinism contract.
pub type Counts = BTreeMap<&'static str, u64>;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed, over every pass.
    pub tally: Tally,
    /// Wrong answers.
    pub mismatches: Vec<String>,
    /// End-to-end metrics of the untraced pass.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of the traced pass (trace mode only).
    pub layers: Layers,
    /// Inputs, outputs and layer counts of the untraced pass.
    pub counts: Counts,
    /// Human-readable notes for standard error.
    pub notes: Vec<String>,
    /// Median of the calibration task while the reported pass ran (ns):
    /// the untraced pass and the cold starts before it, or the traced pass.
    pub calibration_ns: f64,
}

/// Assembles the end-to-end metrics of an untraced pass, as measured.
pub fn end_to_end(fig: &Figures, setup: &Setup, peak_rss_mib: f64) -> Vec<Metric> {
    let values = [
        fig.tokens_per_s,
        fig.p50_ns as f64 / 1e3,
        fig.tail_ns() as f64 / 1e3,
        setup.total_s,
        peak_rss_mib,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// The note describing a pass's figures.
pub fn figures_note(label: &str, fig: &Figures, pass: &Pass) -> String {
    let tail = fig.tail.map_or_else(
        || "tail: too few samples".to_string(),
        |t| {
            format!(
                "tail p{} = {:.1} us ({} of {} samples beyond)",
                t.percentile,
                t.value as f64 / 1e3,
                t.beyond,
                t.samples
            )
        },
    );
    format!(
        "{label}: {} ops, {:.0} tokens/s, p50 {:.1} us, {tail}, {} attempted, {} failed \
         (fail ratio {})",
        pass.op_ns.len(),
        fig.tokens_per_s,
        fig.p50_ns as f64 / 1e3,
        pass.tally.attempted,
        pass.tally.failed,
        pass.tally.fail_ratio()
    )
}

/// Writes a traced pass's spans and the service's metrics exposition
/// under `results/` of this package, noting where they went.
pub fn save_trace(
    workload: &str,
    seed: u64,
    tracer: &Tracer,
    exposition: &str,
    notes: &mut Vec<String>,
) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let spans = dir.join(format!("trace-{workload}-{seed}.json"));
    let prom = dir.join(format!("metrics-{workload}-{seed}.prom"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| tracer.write_chrome(&spans))
        .and_then(|()| std::fs::write(&prom, exposition));
    notes.push(match written {
        Ok(()) => format!("spans: {}, exposition: {}", spans.display(), prom.display()),
        Err(e) => format!("could not write the trace under {}: {e}", dir.display()),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_means_parse_the_exposition() {
        let text = "# TYPE pwd_serve_execute_ns histogram\n\
                    pwd_serve_execute_ns_bucket{le=\"+Inf\"} 4\n\
                    pwd_serve_execute_ns_sum{backend=\"pwd-dfa\",grammar=\"ab\"} 6000\n\
                    pwd_serve_execute_ns_count{backend=\"pwd-dfa\",grammar=\"ab\"} 3\n\
                    pwd_serve_execute_ns_sum{backend=\"pwd-dfa\",grammar=\"cd\"} 2000\n\
                    pwd_serve_execute_ns_count{backend=\"pwd-dfa\",grammar=\"cd\"} 1\n";
        assert_eq!(histogram_mean_us(text, "pwd_serve_execute_ns"), 2.0);
        assert_eq!(histogram_mean_us(text, "pwd_serve_queue_wait_ns"), 0.0);
    }

    #[test]
    fn setup_takes_medians_of_cold_starts() {
        let mut i = 0u64;
        let mut cal = Calibrator::new();
        let (s, right) = measure_setup(5, &mut cal, || {
            i += 1;
            let slow = if i == 3 { 1_000 } else { 1 };
            (
                ColdStart {
                    lexer_ns: 100_000 * slow,
                    first_request_ns: 1_000_000 * slow,
                    total_ns: 2_000_000 * slow,
                },
                true,
            )
        });
        assert!(right);
        assert_eq!((s.total_s, s.lexer_ms, s.first_request_ms), (0.002, 0.1, 1.0));
        let (_, right) = measure_setup(3, &mut cal, || (ColdStart::default(), false));
        assert!(!right);
    }

    #[test]
    fn layers_print_every_metric_in_order() {
        let mut l = Layers::default();
        l.set("core.walk_ns_per_token", 42.5);
        l.set("lex.ns_per_token", f64::NAN);
        let m = l.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m[0], Metric { name: "lex.ns_per_token", unit: "ns", value: 0.0 });
        assert_eq!(l.get("core.walk_ns_per_token"), 42.5);
    }

    #[test]
    fn reference_speed_scales_times_and_rates_only() {
        let m = |name, unit, value| Metric { name, unit, value };
        // A host running at 4/5 of the reference speed: scale 0.8.
        assert_eq!(m("p50_us", "us", 10.0).at_reference_speed(0.8).value, 8.0);
        assert_eq!(m("setup_s", "s", 2.0).at_reference_speed(0.8).value, 1.6);
        assert_eq!(m("tokens_per_s", "1/s", 100.0).at_reference_speed(0.8).value, 125.0);
        assert_eq!(m("peak_rss_mb", "MiB", 30.0).at_reference_speed(0.8).value, 30.0);
        assert_eq!(m("x", "%", 3.0).at_reference_speed(0.8).value, 3.0);
        assert_eq!(m("host.calibration_us", "us", 125.0).at_reference_speed(0.8).value, 125.0);
    }

    #[test]
    fn figures_scale_to_the_reference_speed() {
        let tail = stats::Tail { percentile: 99.0, value: 2000, beyond: 10, samples: 1000 };
        let f = Figures { tokens_per_s: 1000.0, p50_ns: 100, tail: Some(tail) };
        let r = f.at_reference_speed(0.5);
        assert_eq!((r.tokens_per_s, r.p50_ns, r.tail_ns()), (2000.0, 50, 1000));
    }

    #[test]
    fn overhead_is_traced_minus_untraced() {
        let base = Figures { tokens_per_s: 1000.0, p50_ns: 100, tail: None };
        let traced = Figures { tokens_per_s: 800.0, p50_ns: 110, tail: None };
        let o = base.overhead_pct(&traced);
        assert_eq!(o[0], ("trace.tokens_per_s_overhead_pct", 25.0));
        assert!((o[1].1 - 10.0).abs() < 1e-9);
        assert_eq!(o[2].1, 0.0);
    }
}
