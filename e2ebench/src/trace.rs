//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name (the layer call, named `layer.call`), a start and an
//! end, the span that caused it, and the id of the operation it belongs
//! to. Spans are kept in memory and written out once, when the run ends,
//! as a Chrome trace (`chrome://tracing` or Perfetto). A tracer that is
//! off records nothing and reads no clock.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Handle of an open span; `None` when the tracer is off.
pub type SpanId = Option<usize>;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (request, keystroke or document open) it belongs to.
    pub request: u64,
    /// Work the span covered, in tokens (0 when not recorded).
    pub work: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`, and otherwise does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer { epoch: Instant::now(), spans: on.then(Vec::new) }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let now = self.spans.is_some().then(|| self.now())?;
        let spans = self.spans.as_mut()?;
        spans.push(Span { name, start: now, end: now, parent, request, work: 0 });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Tracer::open).
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            let now = self.now();
            if let Some(spans) = self.spans.as_mut() {
                spans[i].end = now;
            }
        }
    }

    /// Records the tokens a span's call covered.
    pub fn set_work(&mut self, id: SpanId, tokens: usize) {
        if let (Some(i), Some(spans)) = (id, self.spans.as_mut()) {
            spans[i].work = tokens as u64;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Total duration (ns) of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans().iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }

    /// Least-squares fit of the spans named `name` against the tokens they
    /// covered (their own work, else their parent's): the per-call fixed
    /// cost and the per-token slope, both in ns. `None` without at least
    /// two different token counts.
    pub fn fit(&self, name: &str) -> Option<(f64, f64)> {
        let spans = self.spans();
        let points: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let work = if s.work > 0 { s.work } else { s.parent.map_or(0, |p| spans[p].work) };
                (work as f64, (s.end - s.start) as f64)
            })
            .collect();
        let n = points.len() as f64;
        let (mx, my) = points.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x / n, b + y / n));
        let sxx: f64 = points.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
        let sxy: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
        (sxx > 0.0).then(|| {
            let slope = sxy / sxx;
            (my - slope * mx, slope)
        })
    }

    /// Writes the spans as a Chrome trace-event file (complete events,
    /// microsecond timestamps; `args` carry the span index, its parent, its
    /// operation id and its work in tokens).
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                w,
                "{sep}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"request\":{},\"work\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.request,
                s.work
            )?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("a.b", None, 1);
        assert_eq!(id, None);
        assert_eq!(t.time("c.d", id, 1, || 7), 7);
        t.close(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_their_operation() {
        let mut t = Tracer::new(true);
        let op = t.open("op", None, 3);
        t.time("lex.tokenize", op, 3, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.set_work(op, 40);
        t.close(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3 && s.end >= s.start));
        assert_eq!((spans[0].work, spans[1].work), (40, 0));
        assert!(t.total_ns("lex.tokenize") >= 2_000_000);
        assert!(t.total_ns("op") >= t.total_ns("lex.tokenize"));
    }
}
