//! Host-speed calibration.
//!
//! The shared 2-vCPU hosts this benchmark runs on change speed by a factor
//! of two to three within an hour, with almost no steal time to show for
//! it: the memory system slows down under the neighbours' load while plain
//! arithmetic does not. Two runs of the same code can then differ by more
//! than any useful regression bound. So a run also times a fixed task of
//! the benchmark's own, sharing no code with the program under test (hash a
//! fixed text word by word into a table), every few milliseconds between
//! operations, and reports its times at the reference host speed: scaled by
//! [`REFERENCE_NS`] ÷ the run's median sample. A change to the program
//! moves the workload's time and not the task's, so it shows in full; the
//! task's own speed is reported as `host.calibration_us`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The calibration task's median time on the reference host, by
/// definition: times are reported as if every run saw this median.
pub const REFERENCE_NS: f64 = 100_000.0;

/// Gap between samples.
const EVERY: Duration = Duration::from_millis(5);

/// Words in the calibration text.
const WORDS: usize = 2_000;

/// The probe task and its samples.
#[derive(Debug)]
pub struct Calibrator {
    text: String,
    table: HashMap<u64, u32>,
    samples: Vec<u64>,
    last: Option<Instant>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Builds the fixed text.
    pub fn new() -> Calibrator {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let text: Vec<String> = (0..WORDS).map(|_| format!("w{}", next() % 1_500)).collect();
        Calibrator {
            text: text.join(" "),
            table: HashMap::with_capacity(2 * WORDS),
            samples: Vec::new(),
            last: None,
        }
    }

    fn task(&mut self) -> u64 {
        self.table.clear();
        for w in self.text.split(' ') {
            let h = w.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            });
            *self.table.entry(h).or_insert(0) += 1;
        }
        black_box(self.table.len() as u64)
    }

    /// Times one sample (after an untimed warm-up run, so the sample does
    /// not depend on what the caches held before).
    pub fn sample(&mut self) {
        black_box(self.task());
        let t0 = Instant::now();
        black_box(self.task());
        self.samples.push(t0.elapsed().as_nanos() as u64);
        self.last = Some(Instant::now());
    }

    /// Takes a sample if the last one is more than a few milliseconds old.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Samples taken so far, to mark where a pass starts.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Median of the samples taken since `mark` (ns); 0 when none were.
    pub fn median_ns_since(&self, mark: usize) -> f64 {
        let v: Vec<f64> =
            self.samples[mark.min(self.samples.len())..].iter().map(|&s| s as f64).collect();
        crate::stats::median(&v)
    }
}

/// The factor that brings times measured while the task's median was
/// `median_ns` to the reference host speed (1 without a median).
pub fn scale(median_ns: f64) -> f64 {
    if median_ns > 0.0 {
        REFERENCE_NS / median_ns
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_taken_on_a_schedule() {
        let mut c = Calibrator::new();
        assert_eq!(c.median_ns_since(0), 0.0);
        assert_eq!(scale(0.0), 1.0);
        c.tick();
        c.tick();
        assert_eq!(c.mark(), 1, "the second tick came too soon");
        std::thread::sleep(EVERY);
        c.tick();
        assert_eq!(c.mark(), 2);
        let m = c.median_ns_since(0);
        assert!(m > 0.0 && c.median_ns_since(1) == c.samples[1] as f64);
        assert!((scale(m) * m - REFERENCE_NS).abs() < 1e-6);
    }

    #[test]
    fn the_task_is_deterministic() {
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        assert_eq!(a.task(), b.task());
        assert_eq!(a.text, b.text);
    }
}
