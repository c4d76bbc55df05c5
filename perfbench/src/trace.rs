//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Spans nest: each records its name,
//! start and end (ns since the shared origin), the span that was open when
//! it started, the run (repetition) it belongs to and the thread. A
//! layer's self time is its duration minus the durations of its direct
//! children, which never overlap because they ran on the same thread.
//! Nothing is written until the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run_until`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub run: u32,
    /// Thread that recorded it (0 = writer, 1 = reader).
    pub thread: u8,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// A per-thread span recorder. When off it records nothing, but
/// [`Tracer::exit`] still returns the measured duration, so the same code
/// measures traced and untraced runs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u8,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `thread`, timing relative to `origin`.
    pub fn new(on: bool, origin: Instant, thread: u8) -> Self {
        Tracer {
            on,
            origin,
            thread,
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A tracer for another thread, sharing this one's origin, state and
    /// repetition.
    pub fn sibling(&self, thread: u8) -> Tracer {
        let mut t = Tracer::new(self.on, self.origin, thread);
        t.run = self.run;
        t
    }

    /// Tag the spans that follow with repetition `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Open a span named `name`.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.on.then(|| {
            let at = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.open.last().copied(),
                run: self.run,
                thread: self.thread,
            });
            let i = self.spans.len() - 1;
            self.open.push(i);
            i
        });
        Open { index, started }
    }

    /// Close `span`; returns its duration in seconds.
    pub fn exit(&mut self, span: Open) -> f64 {
        let ended = Instant::now();
        if let Some(i) = span.index {
            self.spans[i].end_ns = ended.duration_since(self.origin).as_nanos() as u64;
            self.open.pop();
        }
        ended.duration_since(span.started).as_secs_f64()
    }

    /// Run `f` inside a span named `name`; returns its value and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let value = f();
        let secs = self.exit(open);
        (value, secs)
    }

    /// Move every span of `other` into this tracer (re-indexing parents).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per span name, seconds: each span's duration minus its
    /// direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.secs() - c).max(0.0);
        }
        out
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run, s.thread
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let outer = t.enter("outer");
        let (_, inner) = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        std::thread::sleep(std::time::Duration::from_millis(2));
        let total = t.exit(outer);
        let selfs = t.self_times();
        assert!(inner >= 0.005);
        assert!((selfs["outer"] + selfs["inner"] - total).abs() < 1e-3);
        assert!(selfs["outer"] < total - 0.004);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn off_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let (_, secs) = t.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        assert!(t.spans().is_empty());
    }
}
