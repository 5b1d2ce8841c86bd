//! The benchmark's own span log: one span around each public call into the
//! program, kept in memory and written out when the traced run ends.
//!
//! Schema (one JSON object per span in `trace.json`):
//! `{"id", "name", "start_us", "end_us", "parent", "job"}` — `id` is the
//! span's index in the log, `parent` the id of the span that caused it (or
//! `null`), `job` the identifier shared by all spans of one job (or `null`
//! for set-up and post-run spans). Times are microseconds since the log was
//! created.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name (`setup`, `build`, `job`, `submit`, …).
    pub name: &'static str,
    /// Start, microseconds since the log's origin.
    pub start_us: f64,
    /// End, microseconds since the log's origin.
    pub end_us: f64,
    /// Id (log index) of the causing span.
    pub parent: Option<usize>,
    /// Job identifier shared by the spans of one job.
    pub job: Option<u64>,
}

/// In-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: Option<u64>,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span { name, start_us: us(start), end_us: us(end), parent, job });
        self.spans.len() - 1
    }

    /// The recorded spans, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total µs, self µs)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_us - s.start_us;
            e.2 += self_us;
        }
        out
    }

    /// The `trace.json` document: the span list plus per-name totals.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"schema\":\"nob-benchmark-trace-v1\",\"totals\":{");
        for (i, (name, (count, total, self_us))) in self.totals().into_iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{count},\"total_us\":{total:.3},\"self_us\":{self_us:.3}}}"
            );
        }
        out.push_str("},\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id > 0 { ",\n" } else { "" };
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (a
/// `submit` still returning while `wait` has begun) or stick out of the
/// parent; the covered part is the length of the *union* of the child
/// intervals clipped to the parent, so nothing is subtracted twice and
/// self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (s.start_us.max(spans[p].start_us), s.end_us.min(spans[p].end_us));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::MIN;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name, start_us, end_us, parent, job: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("job", 0.0, 100.0, None),
            span("submit", 10.0, 40.0, Some(0)),
            // Overlaps `submit` on [30, 40]: that stretch counts once.
            span("wait", 30.0, 90.0, Some(0)),
            // A grandchild is its parent's business, not the root's.
            span("inner", 35.0, 38.0, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20.0, 30.0, 57.0, 3.0]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_nested_children_ignored() {
        let spans = [
            span("p", 10.0, 20.0, None),
            span("early", 0.0, 12.0, Some(0)),
            span("late", 18.0, 30.0, Some(0)),
            span("contained", 11.0, 11.5, Some(0)),
            span("outside", 40.0, 50.0, Some(0)),
        ];
        // Covered: [10,12] ∪ [18,20] (the contained child lies inside the first).
        assert_eq!(self_times(&spans)[0], 6.0);
    }

    #[test]
    fn a_fully_covered_parent_has_zero_self_time() {
        let spans = [span("p", 0.0, 10.0, None), span("c", -5.0, 15.0, Some(0))];
        assert_eq!(self_times(&spans)[0], 0.0);
    }

    #[test]
    fn log_records_parents_and_serialises() {
        let mut log = SpanLog::default();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(40);
        let setup = log.record("setup", t0, t1, None, None);
        log.record("build", t0, t0 + std::time::Duration::from_micros(30), Some(setup), Some(3));
        assert_eq!(log.spans()[1].parent, Some(0));
        let json = log.to_json();
        assert!(json.contains("\"name\":\"build\""));
        assert!(json.contains("\"parent\":0,\"job\":3"));
        assert!(json.contains("\"setup\":{\"count\":1,\"total_us\":40.000,\"self_us\":10.000}"));
    }
}
