//! In-memory spans recorded around calls into each layer.
//!
//! A span is a name, a start and an end on the recorder's clock, the span
//! that caused it, and the number of operations it covered (datagrams
//! encoded, layers permuted, ...), so a layer's cost per operation is
//! measured where the work happens. Spans stay in memory and are written
//! out once the run ends; nothing inside the program under test changes.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder; [`SpanId::NONE`] marks "no parent" and
/// spans opened past the recorder's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// No span.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span covers, e.g. `net.wire.encode`.
    pub name: &'static str,
    /// The enclosing span, or [`SpanId::NONE`].
    pub parent: SpanId,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch (0 while open).
    pub end_ns: u64,
    /// Operations the span covered.
    pub ops: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Summed durations of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans recorded.
    pub spans: u64,
    /// Summed durations.
    pub ns: u64,
    /// Summed durations minus the time their child spans cover.
    pub self_ns: u64,
    /// Summed operation counts.
    pub ops: u64,
}

/// A bounded in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Recorder {
    /// A recorder keeping at most `cap` spans; later ones are counted as
    /// dropped.
    pub fn new(epoch: Instant, cap: usize) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// A recorder that records nothing and never reads the clock — what
    /// untraced runs pass.
    pub fn disabled() -> Recorder {
        Recorder::new(Instant::now(), 0)
    }

    fn clock(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if self.cap == 0 {
            return SpanId::NONE;
        }
        let start_ns = self.clock();
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: 0,
            ops: 0,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes `id`, crediting it with `ops` operations.
    pub fn close(&mut self, id: SpanId, ops: u64) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.clock();
        if let Some(span) = self.spans.get_mut(id.0 as usize) {
            span.end_ns = end_ns;
            span.ops = ops;
        }
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the operation count to credit.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> (R, u64),
    ) -> R {
        let id = self.open(name, parent);
        let (out, ops) = f();
        self.close(id, ops);
        out
    }

    /// Every stored span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans opened past the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends `other`'s spans (recorded on the same epoch, e.g. by
    /// another client thread), re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != SpanId::NONE {
                span.parent = SpanId(span.parent.0 + base);
            }
            span
        }));
        self.dropped += other.dropped;
    }

    /// Per-name totals, with self time: a span's duration minus the part
    /// of it its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(c) = child_ns.get_mut(span.parent.0 as usize) {
                *c += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            t.spans += 1;
            t.ns += span.duration_ns();
            t.self_ns += span.duration_ns().saturating_sub(children);
            t.ops += span.ops;
        }
        out
    }

    /// Writes one JSON object per span (`id` is the index, `parent` is
    /// `-1` for a root).
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                -1
            } else {
                i64::from(s.parent.0)
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
                s.name, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recorder from hand-set intervals, bypassing the clock.
    fn fixed(spans: &[(&'static str, Option<u32>, u64, u64, u64)]) -> Recorder {
        let mut r = Recorder::new(Instant::now(), 64);
        for &(name, parent, start_ns, end_ns, ops) in spans {
            r.spans.push(Span {
                name,
                parent: parent.map_or(SpanId::NONE, SpanId),
                start_ns,
                end_ns,
                ops,
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // window [0,100) holds encode [10,40) and close [50,90); close
        // holds recover [60,70).
        let r = fixed(&[
            ("window", None, 0, 100, 1),
            ("encode", Some(0), 10, 40, 30),
            ("close", Some(0), 50, 90, 1),
            ("recover", Some(2), 60, 70, 1),
        ]);
        let t = r.totals();
        assert_eq!(t["window"].ns, 100);
        assert_eq!(t["window"].self_ns, 100 - 30 - 40);
        assert_eq!(t["close"].self_ns, 40 - 10);
        assert_eq!(t["encode"].self_ns, 30);
        assert_eq!(t["recover"].self_ns, 10);
        assert_eq!(t["encode"].ops, 30);
    }

    #[test]
    fn totals_sum_spans_of_one_name() {
        let r = fixed(&[
            ("window", None, 0, 10, 1),
            ("encode", Some(0), 1, 4, 2),
            ("window", None, 10, 30, 1),
            ("encode", Some(2), 12, 20, 5),
        ]);
        let t = r.totals();
        assert_eq!(t["window"].spans, 2);
        assert_eq!(t["window"].self_ns, (10 - 3) + (20 - 8));
        assert_eq!(t["encode"].ns, 11);
        assert_eq!(t["encode"].ops, 7);
    }

    #[test]
    fn capacity_drops_spans_but_keeps_earlier_ones_intact() {
        let mut r = Recorder::new(Instant::now(), 2);
        let a = r.open("a", SpanId::NONE);
        let b = r.open("b", a);
        let c = r.open("c", b);
        assert_eq!(c, SpanId::NONE);
        r.close(c, 1);
        r.close(b, 1);
        r.close(a, 1);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.dropped(), 1);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 8);
        let root = a.open("x", SpanId::NONE);
        a.close(root, 1);
        let mut b = Recorder::new(epoch, 8);
        let p = b.open("session", SpanId::NONE);
        let c = b.open("connect", p);
        b.close(c, 1);
        b.close(p, 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, SpanId(1));
        assert_eq!(a.totals()["session"].spans, 1);
    }
}
