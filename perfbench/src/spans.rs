//! In-memory spans for the traced run, and self-time attribution.
//!
//! The benchmark opens its own spans around every call it makes into a
//! layer, and imports the program's `Telemetry` spans (`run`, `phase`,
//! `round`, `level`, `perturb`, `aggregate`, ...) onto the same clock.
//! Parents are assigned by interval containment, which is exact at
//! parallelism 1: every span then runs on one thread and nests.  A span's
//! self time is its duration minus the time its children cover.

use fedhh::telemetry::TraceEvent;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`discovery`, `node.handshake`, `round`, ...).
    pub name: String,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, once [`Tracer::link_parents`] ran.
    pub parent: Option<usize>,
    /// The discovery this span belongs to.
    pub discovery: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; nothing is written until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    discovery: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            discovery: 0,
        }
    }

    /// Tags every span recorded from now on with discovery `id`.
    pub fn set_discovery(&mut self, id: u64) {
        self.discovery = id;
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent: None,
            discovery: self.discovery,
        });
    }

    /// Imports the program's telemetry spans, prefixing their names with
    /// `prefix`.  `sink_created` is an instant taken just before the
    /// `Telemetry` sink was created, the origin of its microsecond offsets.
    /// That origin is known only to within the sink's construction, so
    /// imported spans are clamped into the current discovery's
    /// `discovery` span, when one was recorded: they all ran inside it.
    pub fn import(&mut self, events: &[TraceEvent], sink_created: Instant, prefix: &str) {
        let base = self.offset_ns(sink_created);
        let (low, high) = self
            .spans
            .iter()
            .rev()
            .find(|s| s.discovery == self.discovery && s.name == "discovery")
            .map_or((0, u64::MAX), |s| (s.start_ns, s.end_ns));
        for event in events {
            if let TraceEvent::Span {
                name,
                start_us,
                dur_us,
                ..
            } = event
            {
                let start_ns = (base + start_us * 1000).clamp(low, high);
                self.spans.push(Span {
                    name: format!("{prefix}{}", name.as_str()),
                    start_ns,
                    end_ns: (start_ns + dur_us * 1000).min(high),
                    parent: None,
                    discovery: self.discovery,
                });
            }
        }
    }

    /// Assigns every span the smallest span of the same discovery that
    /// encloses it; of two spans over the same interval, the one recorded
    /// first is the parent.  Imported spans carry microsecond offsets, so
    /// a child may overhang its parent by a few microseconds; it is
    /// clamped into the parent.
    pub fn link_parents(&mut self) {
        const SLACK_NS: u64 = 50_000;
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&self.spans[a], &self.spans[b]);
            (sa.discovery, sa.start_ns, std::cmp::Reverse(sa.end_ns)).cmp(&(
                sb.discovery,
                sb.start_ns,
                std::cmp::Reverse(sb.end_ns),
            ))
        });
        let mut stack: Vec<usize> = Vec::new();
        for idx in order {
            while let Some(&top) = stack.last() {
                let parent = &self.spans[top];
                let child = &self.spans[idx];
                if parent.discovery == child.discovery
                    && child.start_ns + SLACK_NS >= parent.start_ns
                    && child.start_ns < parent.end_ns
                    && child.end_ns <= parent.end_ns + SLACK_NS
                {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                let (start, end) = (self.spans[top].start_ns, self.spans[top].end_ns);
                let child = &mut self.spans[idx];
                child.parent = Some(top);
                child.start_ns = child.start_ns.clamp(start, end);
                child.end_ns = child.end_ns.clamp(child.start_ns, end);
            }
            stack.push(idx);
        }
    }

    /// Self time per span name, summed over every span, in nanoseconds.
    /// Call [`Tracer::link_parents`] first.
    pub fn self_time_ns(&self) -> BTreeMap<String, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            *out.entry(span.name.clone()).or_insert(0) += span.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }
}

/// The layer a span's self time is attributed to.  `run` and `phase` are
/// the program's whole-run wrappers and the benchmark's `discovery` span
/// wraps those: time spent in them and in no child is the mechanism
/// driver's unattributed residual.  Spans of the federation's party ranks
/// (`rank.` prefix) run beside the coordinator's and are listed apart.
pub fn layer_of(span: &str) -> String {
    if let Some(rank_span) = span.strip_prefix("rank.") {
        return format!("{} (ranks)", layer_of(rank_span));
    }
    match span {
        "discovery" | "run" | "phase" => "mechanisms (unattributed)",
        "round" => "session",
        "level" => "estimator",
        "perturb" | "aggregate" => "fo",
        "aggregate.merge" => "server",
        "wire.encode" | "transport.send" => "wire",
        "node.handshake" => "node",
        "datasets.population" | "datasets.enroll" => "datasets",
        "epoch" => "epoch",
        "checkpoint.write" => "checkpoint",
        _ => "other",
    }
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        let t0 = tracer.origin;
        let at = |us: u64| t0 + std::time::Duration::from_micros(us);
        tracer.record("discovery", at(0), at(100));
        tracer.record("round", at(10), at(60));
        tracer.record("level", at(20), at(50));
        tracer.link_parents();
        let selfs = tracer.self_time_ns();
        assert_eq!(selfs["discovery"], 50_000);
        assert_eq!(selfs["round"], 20_000);
        assert_eq!(selfs["level"], 30_000);
    }

    #[test]
    fn imported_spans_nest_under_their_discovery() {
        use fedhh::telemetry::SpanName;
        let mut tracer = Tracer::new();
        let t0 = tracer.origin;
        let at = |us: u64| t0 + std::time::Duration::from_micros(us);
        tracer.record("discovery", at(10), at(110));
        // The sink's origin is known late by 2 µs, so the program's span
        // seems to start before the discovery it ran in.
        let epoch = TraceEvent::Span {
            name: SpanName::Epoch,
            idx: 0,
            start_us: 7,
            dur_us: 100,
        };
        tracer.import(&[epoch], at(1), "");
        tracer.link_parents();
        let selfs = tracer.self_time_ns();
        assert_eq!(selfs["discovery"], 0);
        assert_eq!(selfs["epoch"], 100_000);
    }
}
