//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. The spans of
//! one request or one program share an `id`, name their parent span, are
//! kept in memory while the run measures, and are written out when it
//! ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// Request or program the span belongs to.
    pub id: u64,
    pub name: &'static str,
    /// Name of the enclosing span of the same id ("" for a root).
    pub parent: &'static str,
    pub start: Instant,
    pub end: Instant,
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn span(
        &mut self,
        id: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            name,
            parent,
            start,
            end,
        });
    }

    /// Self time per span name in microseconds: each span's duration
    /// minus the part of it that its child spans (same id, naming it as
    /// parent) cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<(u64, &'static str), Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in &self.spans {
            if !s.parent.is_empty() {
                children
                    .entry((s.id, s.parent))
                    .or_default()
                    .push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end.saturating_duration_since(s.start).as_secs_f64();
            let covered = children
                .get(&(s.id, s.name))
                .map_or(0.0, |c| covered_secs(s.start, s.end, c));
            *out.entry(s.name).or_default() += (total - covered).max(0.0) * 1e6;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                s.parent,
                ns(s.start),
                ns(s.end)
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`, in seconds.
fn covered_secs(lo: Instant, hi: Instant, intervals: &[(Instant, Instant)]) -> f64 {
    let mut iv: Vec<(Instant, Instant)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort();
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += (cb - ca).as_secs_f64();
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += (cb - ca).as_secs_f64();
    }
    total
}
