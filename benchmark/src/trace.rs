//! Spans for the traced run: per-thread preallocated buffers, timer
//! calibration, per-layer self time, and the span file.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer; nothing inside the measured crates is instrumented.
//! A buffer that fills up counts the spans it drops instead of growing,
//! so tracing never allocates on the measured path.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is 0 for a root span.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A thread's span buffer, allocated before the thread starts measuring.
/// It keeps at most the capacity it was built with.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    capacity: usize,
    epoch: Instant,
    thread: u32,
    next_id: u64,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer for `thread` that keeps `capacity` spans, timing
    /// relative to `epoch`.
    pub fn new(thread: u32, epoch: Instant, capacity: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            capacity,
            epoch,
            thread,
            next_id: 0,
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, parent: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        self.next_id += 1;
        // Ids stay unique across threads: the thread number is the high part.
        let id = (u64::from(self.thread) + 1) << 40 | self.next_id;
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                id,
                parent,
                name,
                thread: self.thread,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        } else {
            self.dropped += 1;
        }
        id
    }

    /// Record a root span with no children.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.push(0, name, start, end);
    }

    /// Record a root span over `stamps[0]..stamps[last]` whose children
    /// run back to back: child `i` covers `stamps[i]..stamps[i + 1]`.
    pub fn record_chain(
        &mut self,
        root: &'static str,
        children: &[&'static str],
        stamps: &[Instant],
    ) {
        assert_eq!(stamps.len(), children.len() + 1, "one stamp per boundary");
        let id = self.push(0, root, stamps[0], stamps[stamps.len() - 1]);
        for (i, &name) in children.iter().enumerate() {
            self.push(id, name, stamps[i], stamps[i + 1]);
        }
    }

    /// Move this buffer's spans, and its count of dropped ones, into `log`.
    pub fn drain_into(&mut self, log: &mut SpanLog) {
        log.spans.append(&mut self.spans);
        log.dropped += std::mem::take(&mut self.dropped);
    }
}

/// The spans of every thread of a run.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
    /// Spans not kept because their thread's buffer was full.
    pub dropped: u64,
}

/// What the parts of a traced run share: the instant span times count
/// from, the cost of one timer reading, and the log spans go to.
#[derive(Debug)]
pub struct Tracer {
    pub epoch: Instant,
    pub timer_ns: f64,
    pub log: SpanLog,
}

impl Tracer {
    /// Start a traced run: calibrate the timer, empty log.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            timer_ns: calibrate_timer(),
            log: SpanLog::default(),
        }
    }
}

/// The cost of one `Instant::now()` in ns: the median over 31 batches
/// of the mean cost of back-to-back readings. Every span boundary pays
/// it once, so per-call costs subtract it.
pub fn calibrate_timer() -> f64 {
    const READS: u32 = 2_000;
    let mut batches: Vec<f64> = (0..31)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS + 1)
        })
        .collect();
    median(&mut batches)
}

/// The median of `values` (sorts them); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Time spent in one span name across a run.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it that child spans cover.
    pub self_ns: u64,
}

/// Per span name: count, total duration and self time. A span's self
/// time is its duration minus the union of its children's intervals
/// clipped to its own, so overlapping children are not counted twice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let (start, end) = (s.start_ns, s.end_ns.max(s.start_ns));
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += end - start;
        t.self_ns += end - start - covered;
    }
    out
}

/// Write the tracer's log as JSON to `path`: one object per span with
/// its id, parent, name, thread, start and end (ns since the epoch).
pub fn write_spans(path: &Path, workload: &str, tracer: &Tracer) -> std::io::Result<()> {
    let (log, timer_ns) = (&tracer.log, tracer.timer_ns);
    let mut json = String::with_capacity(log.spans.len() * 96 + 128);
    let _ = write!(
        json,
        "{{\"workload\": \"{workload}\", \"timer_ns\": {timer_ns}, \"dropped\": {}, \"spans\": [",
        log.dropped
    );
    for (i, s) in log.spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            json,
            "{sep}{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
        );
    }
    json.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            // Overlapping children count once: [10, 60).
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            // A child running past its parent is clipped to [90, 100).
            span(4, 1, "c", 90, 120),
            span(5, 2, "leaf", 15, 20),
            // A second root of the same name adds up.
            span(6, 0, "root", 200, 210),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["root"],
            LayerTime {
                count: 2,
                total_ns: 110,
                self_ns: 40 + 10
            }
        );
        assert_eq!(t["a"].self_ns, 25);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 30);
        assert_eq!(t["leaf"].self_ns, 5);
    }

    #[test]
    fn chains_link_children_and_full_buffers_drop() {
        let epoch = Instant::now();
        let mut buf = SpanBuf::new(3, epoch, 100);
        let stamps = [epoch, epoch, epoch];
        for _ in 0..34 {
            buf.record_chain("passage", &["lock", "unlock"], &stamps);
        }
        let mut log = SpanLog::default();
        buf.drain_into(&mut log);
        let spans = log.spans;
        assert_eq!(spans.len(), 100);
        assert_eq!(log.dropped, 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert_eq!(spans[0].thread, 3);
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len(), "span ids are unique");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
