//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, start, end, parent span, client batch id). Spans opened on
//! one thread nest: the innermost open span is the parent of the next, so
//! the benchmark's `Vfs` wrapper, called from inside a store epoch,
//! records its I/O as children of that epoch. Recording is switched on
//! only for the traced blocks of a `--trace 1` run; when off, a span
//! costs one atomic load. Spans stay in memory until the run ends.

use crate::stats::self_time;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const ROOT: usize = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: usize,
    pub batch: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }

    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Recorder {
    origin: Instant,
    on: AtomicBool,
    batch: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            batch: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Client batch id stamped on spans opened from now on.
    pub fn set_batch(&self, id: u64) {
        self.batch.store(id, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panic")
    }

    /// Run `f` inside a span named `name` (recorded only while on).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_idx(name, f).0
    }

    /// [`Recorder::span`], also returning the span's index (if recorded)
    /// so the caller can rename it once the outcome is known.
    pub fn span_idx<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        if !self.is_on() {
            return (f(), None);
        }
        let parent = OPEN.with(|o| o.borrow().last().copied().unwrap_or(ROOT));
        let idx = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start: 0,
                end: 0,
                parent,
                batch: self.batch.load(Ordering::Relaxed),
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(idx));
        let start = self.now();
        let r = f();
        let end = self.now();
        OPEN.with(|o| o.borrow_mut().pop());
        let mut spans = self.lock();
        spans[idx].start = start;
        spans[idx].end = end;
        (r, Some(idx))
    }

    pub fn rename(&self, idx: Option<usize>, name: &'static str) {
        if let Some(i) = idx {
            self.lock()[i].name = name;
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Durations in ms of every span named `name`.
pub fn ms_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Children of each span, by parent index.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut ch = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != ROOT {
            ch[s.parent].push(i);
        }
    }
    ch
}

/// Self time of every span, in nanoseconds.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let ch = children(spans);
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kids: Vec<(u64, u64)> = ch[i]
                .iter()
                .map(|&k| (spans[k].start, spans[k].end))
                .collect();
            self_time(s.start, s.end, &kids)
        })
        .collect()
}

/// Per span name: (count, total ms, self ms).
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ms();
        e.2 += own as f64 / 1e6;
    }
    out
}

/// Write every span as one JSON line, then the per-name self-time summary.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
            s.name, s.start, s.end, s.batch
        )?;
    }
    for (name, (n, total, own)) in summary(spans) {
        writeln!(
            w,
            "{{\"summary\":\"{name}\",\"count\":{n},\"total_ms\":{total:.6},\"self_ms\":{own:.6}}}"
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let r = Recorder::new();
        r.set_on(true);
        r.set_batch(7);
        r.span("outer", || {
            r.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        r.set_on(false);
        r.span("off", || ());
        let spans = r.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].batch, 7);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], spans[0].ns() - spans[1].ns());
        let sum = summary(&spans);
        assert_eq!(sum["inner"].0, 1);
        assert!(sum["outer"].2 < sum["outer"].1);
    }
}
