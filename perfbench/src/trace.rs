//! Outside-in tracing: in-memory spans around calls into the workspace's
//! public API, a timing decorator for scheduler callbacks, and the
//! per-layer tallies derived from both.
//!
//! A span's *layer* is the part of its name before the first `.`
//! (`sweep.store_write` belongs to `sweep`). A span's self time is its
//! duration minus the time covered by its child spans and by any
//! aggregated inner time (scheduler callbacks are far too numerous to
//! record one span each, so the decorator sums them and the enclosing
//! `sim.run` span is charged the total as inner time).

use mss_core::{Decision, InfoTier, OnlineScheduler, SchedulerEvent, SimView};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Time inside this span charged to aggregated inner work that has no
    /// span of its own (scheduler callbacks).
    pub inner_ns: u64,
    /// Recorder (thread) the span was taken on.
    pub thread: usize,
}

/// Per-thread span recorder. Spans stay in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    thread: usize,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: usize) -> Self {
        Recorder {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's index.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, usize) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            inner_ns: 0,
            thread: self.thread,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// [`Recorder::span`] discarding the index.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.span(name, f).0
    }

    /// Total duration of the top-level spans: the time this thread spent
    /// busy inside traced calls.
    pub fn busy_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

/// Self seconds per span name over every recorder's spans.
pub fn self_seconds(recorders: &[Recorder]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for rec in recorders {
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in rec.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children + s.inner_ns);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
    }
    out
}

/// Writes `header` and then every span as one JSON line (`name`, `thread`,
/// `start_ns`, `end_ns`, `parent`, `inner_ns`), after the run has finished.
pub fn write_spans(
    path: &std::path::Path,
    header: &str,
    recorders: &[Recorder],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for rec in recorders {
        for s in &rec.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"inner_ns\":{}}}",
                s.name, s.thread, s.start_ns, s.end_ns, parent, s.inner_ns
            )?;
        }
    }
    out.flush()
}

/// Scheduler decorator timing `init` and `on_event`. It forwards
/// `poll_driven` and `min_tier`, so the engine elides exactly the callbacks
/// it would elide for the bare scheduler and decisions are unchanged.
pub struct Timed<'a> {
    inner: &'a mut dyn OnlineScheduler,
    pub ns: u64,
    pub calls: u64,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a mut dyn OnlineScheduler) -> Self {
        Timed {
            inner,
            ns: 0,
            calls: 0,
        }
    }
}

impl OnlineScheduler for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn init(&mut self, view: &SimView<'_>) {
        let t0 = Instant::now();
        self.inner.init(view);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
    }
    fn on_event(&mut self, view: &SimView<'_>, event: SchedulerEvent) -> Decision {
        let t0 = Instant::now();
        let d = self.inner.on_event(view, event);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        d
    }
    fn poll_driven(&self) -> bool {
        self.inner.poll_driven()
    }
    fn min_tier(&self) -> InfoTier {
        self.inner.min_tier()
    }
}
