//! In-memory spans and boundary counts, written out when the run ends.
//!
//! Spans are recorded from the benchmark's side, around its calls into each
//! layer (spans inside the library are a later change). A span names the
//! layer (`name`), the operation it belongs to (`op`: every span of one batch
//! shares it) and the span that caused it (`parent`, 0 for a root). `keys`
//! is the boundary count: how many keys crossed into the layer.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub op: u64,
    pub keys: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a new span; returns its result and the span's length
    /// in nanoseconds (never 0, so rates stay finite).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        keys: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns().max(start_ns + 1);
        self.push(name, parent, op, keys, start_ns, end_ns);
        (out, end_ns - start_ns)
    }

    /// Record a span whose interval was measured by the caller (a root span
    /// that encloses child spans recorded while it ran).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        keys: usize,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            keys: keys as u32,
            start_ns,
            end_ns,
        });
        self.count(name, keys as u64);
        id
    }

    /// Open a root span now; spans recorded before [`Self::close`] can name
    /// it as their parent.
    pub fn reserve(&mut self, name: &'static str, op: u64, keys: usize) -> u32 {
        let now = self.now_ns();
        self.push(name, 0, op, keys, now, now)
    }

    /// Close a span opened with [`Self::reserve`].
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median nanoseconds per key over every span called `name` (`NaN` when
    /// there is none).
    pub fn median_ns_per_key(&self, name: &str) -> f64 {
        let samples: Vec<f64> = self
            .spans
            .iter()
            .filter(|span| span.name == name && span.keys > 0)
            .map(|span| (span.end_ns - span.start_ns) as f64 / f64::from(span.keys))
            .collect();
        median(&samples)
    }

    /// Nanoseconds per key over all spans called `name` taken together —
    /// the figure a throughput is the inverse of.
    pub fn mean_ns_per_key(&self, name: &str) -> f64 {
        let (ns, keys) = self.spans.iter().filter(|span| span.name == name).fold(
            (0u64, 0u64),
            |(ns, keys), span| {
                (
                    ns + span.end_ns - span.start_ns,
                    keys + u64::from(span.keys),
                )
            },
        );
        ns as f64 / keys as f64
    }

    /// Median duration in nanoseconds over every span called `name`.
    pub fn median_ns(&self, name: &str) -> f64 {
        let samples: Vec<f64> = self
            .spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64)
            .collect();
        median(&samples)
    }

    /// Median over ladder batches of rung `outer`'s time per key minus rung
    /// `inner`'s: the outer rung's self time. Rungs pair up through `op`,
    /// which names the batch both were given.
    pub fn median_rung_self_ns_per_key(&self, outer: &str, inner: &str) -> f64 {
        let per_key = |span: &Span| (span.end_ns - span.start_ns) as f64 / f64::from(span.keys);
        let inner_by_op: BTreeMap<u64, f64> = self
            .spans
            .iter()
            .filter(|span| span.name == inner && span.keys > 0)
            .map(|span| (span.op, per_key(span)))
            .collect();
        let samples: Vec<f64> = self
            .spans
            .iter()
            .filter(|span| span.name == outer && span.keys > 0)
            .filter_map(|span| Some(per_key(span) - inner_by_op.get(&span.op)?))
            .collect();
        median(&samples)
    }

    /// Write every span and count as one JSON document.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"run\": {header},")?;
        writeln!(out, "\"counts\": {{")?;
        for (i, (name, n)) in self.counts.iter().enumerate() {
            let comma = if i + 1 < self.counts.len() { "," } else { "" };
            writeln!(out, "  \"{name}\": {n}{comma}")?;
        }
        writeln!(out, "}},\n\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"op\": {}, \"keys\": {}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.id, s.parent, s.name, s.op, s.keys, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_self_time_pairs_rungs_of_one_batch() {
        let mut tracer = Tracer::default();
        for (op, inner, outer) in [(1u64, 100u64, 150u64), (2, 100, 170), (3, 100, 190)] {
            let root = tracer.push("ladder", 0, op, 10, 0, 1_000);
            tracer.push("inner", root, op, 10, 0, inner);
            tracer.push("outer", root, op, 10, 0, outer);
        }
        // Differences 50, 70, 90 ns over 10 keys: the median is 7 ns/key.
        assert_eq!(tracer.median_rung_self_ns_per_key("outer", "inner"), 7.0);
    }

    #[test]
    fn reserved_roots_enclose_their_children() {
        let mut tracer = Tracer::default();
        let root = tracer.reserve("batch", 7, 4);
        tracer.span("inner", root, 7, 4, || std::hint::black_box(1 + 1));
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[0].op, spans[1].op);
    }
}
