//! In-memory spans recorded around the public calls the benchmark makes
//! into each layer, and the self-time arithmetic over them.
//!
//! A [`Recorder`] belongs to one thread and appends without locking;
//! recorders are merged into a [`Trace`] when their thread is done, and
//! the trace is written out once, when the run ends. Spans of one
//! request share its request id.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Every span name the benchmark records, one per public call it times
/// (plus the generator's own step and wait). Traced runs report each
/// one's self time, recorded or not, so every run prints the same
/// metrics.
pub const SPAN_NAMES: [&str; 11] = [
    "loadgen.step",
    "loadgen.wait",
    "net.send",
    "ctl.send",
    "server.stats",
    "amutex.stats",
    "store.get",
    "store.increment",
    "store.maintenance",
    "store.snapshots",
    "tsp.solve",
];

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was recorded around (e.g. `net.send`).
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// Request the span belongs to; 0 when it serves no single request.
    pub request: u64,
}

/// Per-thread span buffer.
pub struct Recorder {
    epoch: Instant,
    /// High bits of every id this recorder hands out, so ids from
    /// different threads never collide.
    id_base: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread number `thread` of a trace started at
    /// `epoch`.
    pub fn new(epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            epoch,
            id_base: (thread + 1) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Reserve a span id before the span ends, so its children can name
    /// it as their parent.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        self.id_base | self.next
    }

    /// Record a finished span under an id from [`Recorder::open`].
    pub fn close(&mut self, id: u64, name: &'static str, start_ns: u64, parent: u64, request: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            request,
        });
    }

    /// Time `f` as a span named `name`; returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open();
        let start = self.now();
        let out = f();
        self.close(id, name, start, parent, request);
        out
    }
}

/// Time `f` as a span when a recorder is present, or just run it.
pub fn maybe_span<R>(
    rec: Option<&mut Recorder>,
    name: &'static str,
    parent: u64,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.span(name, parent, request, f),
        None => f(),
    }
}

/// Aggregate over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns: each span's duration minus the part
    /// of it that its children cover.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, µs (0 with no spans).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// All spans of a run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Take over a finished thread's spans.
    pub fn absorb(&mut self, rec: Recorder) {
        self.spans.extend(rec.spans);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name duration and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// Write every span as one tab-separated line:
    /// `name start_ns end_ns id parent request`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tid\tparent\trequest")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-name aggregates over `spans`; see [`SelfTime`]. Children may
/// overlap each other (only their union is subtracted) and may spill
/// past their parent (only the part inside it is subtracted).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.remove(&s.id).unwrap_or_default();
        let own = dur - covered(kids, s.start_ns, s.end_ns).min(dur);
        let agg = out.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, id: u64, parent: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("step", 0, 100, 1, 0),
            span("send", 10, 40, 2, 1),
            span("wait", 50, 70, 3, 1),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["step"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["send"],
            SelfTime {
                count: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(t["wait"].self_ns, 20);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("root", 0, 100, 1, 0),
            span("a", 10, 60, 2, 1),
            span("b", 40, 80, 3, 1),
            span("c", 45, 50, 4, 1),
        ];
        // union of children = [10, 80) = 70
        assert_eq!(self_times(&spans)["root"].self_ns, 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("root", 100, 200, 1, 0),
            span("kid", 50, 150, 2, 1),
            span("late", 180, 400, 3, 1),
        ];
        // inside the parent: [100, 150) + [180, 200) = 70
        assert_eq!(self_times(&spans)["root"].self_ns, 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("root", 0, 100, 1, 0),
            span("mid", 0, 60, 2, 1),
            span("leaf", 10, 50, 3, 2),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 40);
        assert_eq!(t["mid"].self_ns, 20);
        assert_eq!(t["leaf"].self_ns, 40);
        assert_eq!(t["mid"].mean_self_us(), 0.02);
        assert_eq!(SelfTime::default().mean_self_us(), 0.0);
    }

    #[test]
    fn recorder_ids_are_unique_across_threads_and_nest() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0);
        let mut b = Recorder::new(epoch, 1);
        let parent = a.open();
        let start = a.now();
        a.span("child", parent, 7, || ());
        a.close(parent, "parent", start, 0, 7);
        b.span("other", 0, 0, || ());
        let mut trace = Trace::default();
        trace.absorb(a);
        trace.absorb(b);
        assert_eq!(trace.len(), 3);
        let ids: std::collections::BTreeSet<u64> = trace.spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3);
        let child = trace.spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!((child.parent, child.request), (parent, 7));
        assert_eq!(maybe_span(None, "x", 0, 0, || 5), 5);
    }
}
