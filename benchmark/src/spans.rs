//! In-memory spans around the benchmark's own calls into each layer.
//!
//! One span covers one phase of one burst (up to a few dozen operations), so
//! the two clock reads it costs are spread over the whole burst. Every span
//! feeds the per-name totals; only the first [`KEEP`] are kept for the span
//! file, which is written once, when the pass ends.

use netchain_telemetry::Json;
use std::io::Write;
use std::time::Instant;

/// Spans retained for `spans.jsonl` (the totals cover all of them).
const KEEP: usize = 20_000;

/// Handle of a recorded span, for naming it as a parent.
#[derive(Debug, Clone, Copy)]
pub struct SpanRef {
    id: u64,
    name: &'static str,
}

struct Span {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u64>,
    burst: u64,
    ops: u32,
}

/// Totals of every span that carried one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded.
    pub spans: u64,
    /// Operations those spans covered.
    pub ops: u64,
    /// Sum of their durations.
    pub ns: u64,
    /// Sum of the durations of spans naming one of these as parent.
    pub child_ns: u64,
}

impl Total {
    /// Mean duration per covered operation.
    pub fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops.max(1) as f64
    }

    /// Mean self time per covered operation: duration minus what the child
    /// spans account for.
    pub fn self_ns_per_op(&self) -> f64 {
        self.ns.saturating_sub(self.child_ns) as f64 / self.ops.max(1) as f64
    }
}

/// The recorder.
pub struct Spans {
    origin: Instant,
    next_id: u64,
    kept: Vec<Span>,
    totals: Vec<(&'static str, Total)>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            next_id: 0,
            kept: Vec::with_capacity(KEEP),
            totals: Vec::new(),
        }
    }

    fn total_mut(&mut self, name: &'static str) -> &mut Total {
        let idx = match self.totals.iter().position(|(n, _)| *n == name) {
            Some(idx) => idx,
            None => {
                self.totals.push((name, Total::default()));
                self.totals.len() - 1
            }
        };
        &mut self.totals[idx].1
    }

    /// Records a span that began at `start` and ends now, covering `ops`
    /// operations of burst `burst`.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanRef>,
        burst: u64,
        ops: usize,
        start: Instant,
    ) -> SpanRef {
        let end = Instant::now();
        let dur = end.duration_since(start).as_nanos() as u64;
        let id = self.next_id;
        self.next_id += 1;
        let total = self.total_mut(name);
        total.spans += 1;
        total.ops += ops as u64;
        total.ns += dur;
        if let Some(p) = parent {
            self.total_mut(p.name).child_ns += dur;
        }
        if self.kept.len() < KEEP {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.kept.push(Span {
                id,
                name,
                start_ns,
                end_ns: start_ns + dur,
                parent: parent.map(|p| p.id),
                burst,
                ops: ops as u32,
            });
        }
        SpanRef { id, name }
    }

    /// Totals of the spans named `name` (zeros if none was recorded).
    pub fn total(&self, name: &str) -> Total {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Total::default, |(_, t)| *t)
    }

    /// Per-operation time of `name`, 0 if the layer never ran.
    pub fn ns_per_op(&self, name: &str) -> f64 {
        let t = self.total(name);
        if t.ops == 0 {
            0.0
        } else {
            t.ns_per_op()
        }
    }

    /// Spans recorded (kept or not).
    pub fn recorded(&self) -> u64 {
        self.next_id
    }

    /// Writes the kept spans to `out`, one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str) -> std::io::Result<()> {
        for s in &self.kept {
            let line = Json::obj(vec![
                ("workload", Json::str(workload)),
                ("id", Json::U64(s.id)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, Json::U64)),
                ("burst_id", Json::U64(s.burst)),
                ("ops", Json::U64(u64::from(s.ops))),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        Ok(())
    }
}

/// Cost of recording one span (two clock reads and the bookkeeping), in
/// nanoseconds: what the traced pass adds to every phase it times.
pub fn span_overhead_ns() -> f64 {
    const N: usize = 200_000;
    let mut spans = Spans::new();
    let start = Instant::now();
    for i in 0..N {
        let t = Instant::now();
        spans.add("bench.span", None, i as u64, 1, t);
    }
    let total = start.elapsed().as_nanos() as f64;
    std::hint::black_box(spans.recorded());
    total / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut spans = Spans::new();
        let t = Instant::now();
        std::thread::sleep(Duration::from_millis(4));
        let parent = spans.add("shard.burst", None, 1, 32, t);
        let t = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        spans.add("wire.parse", Some(parent), 1, 32, t);
        let burst = spans.total("shard.burst");
        let parse = spans.total("wire.parse");
        assert_eq!((burst.spans, burst.ops, parse.ops), (1, 32, 32));
        assert_eq!(burst.child_ns, parse.ns);
        assert!(burst.self_ns_per_op() < burst.ns_per_op());
        assert_eq!(spans.ns_per_op("never.ran"), 0.0);
    }

    #[test]
    fn span_file_has_one_object_per_span_with_its_parent() {
        let mut spans = Spans::new();
        let parent = spans.add("shard.burst", None, 7, 2, Instant::now());
        spans.add("wire.parse", Some(parent), 7, 2, Instant::now());
        let mut out = Vec::new();
        spans.write_jsonl(&mut out, "fabric-read").unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(lines[1].get("burst_id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            lines[1].get("name").and_then(Json::as_str),
            Some("wire.parse")
        );
    }
}
