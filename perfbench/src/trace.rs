//! Host-clock spans recorded from the benchmark's own code.
//!
//! Every measured operation opens one root span; each call into a layer
//! made on its behalf opens a child span carrying the same op id. A
//! span's self time is its duration minus its children's. Spans are
//! aggregated per name as they close (durations for percentiles, self
//! time, and the simulated-clock [`FlashStats`] delta the call caused),
//! and the first [`Tracer::KEEP`] are kept in memory for the Chrome
//! trace written when the run ends.

use pdl_flash::FlashStats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-name aggregate of closed spans.
#[derive(Clone, Debug, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
    /// Summed simulated-clock delta of the calls (layer-store spans only).
    pub flash: FlashStats,
    /// Most user-context page reads one call made.
    pub max_user_reads: u64,
    /// Most user-context page programs one call made.
    pub max_user_writes: u64,
    /// Durations of the calls during which a block was erased.
    pub erasing_ns: Vec<u64>,
}

struct Open {
    name: &'static str,
    start: Instant,
    children_ns: u64,
}

/// The span recorder of one client thread.
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    op: u64,
    stack: Vec<Open>,
    aggs: BTreeMap<&'static str, SpanAgg>,
    kept: Vec<pdl_obs::Span>,
    dropped: u64,
}

impl Tracer {
    /// Spans kept for the trace file; later ones are counted as dropped.
    pub const KEEP: usize = 20_000;

    /// A recorder whose timestamps are relative to `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            recording: false,
            op: 0,
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            kept: Vec::new(),
            dropped: 0,
        }
    }

    /// Start or stop recording (a new tracer starts stopped), so calls
    /// made through an already installed wrapper during warm-up or
    /// verification stay out of the measured phase's spans.
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "recording toggled with open spans");
        self.recording = on;
    }

    /// Open the root span of the next operation.
    pub fn begin_op(&mut self, name: &'static str) {
        if !self.recording {
            return;
        }
        debug_assert!(self.stack.is_empty(), "root span opened inside another span");
        self.op += 1;
        self.enter(name);
    }

    /// Open a span (a child of the innermost open one, if any).
    pub fn enter(&mut self, name: &'static str) {
        if !self.recording {
            return;
        }
        self.stack.push(Open { name, start: Instant::now(), children_ns: 0 });
    }

    /// Close the innermost span; returns its duration in ns (0 while
    /// not recording).
    pub fn exit(&mut self) -> u64 {
        self.exit_with(None)
    }

    /// Close the innermost span, attributing `flash` (the simulated-clock
    /// delta the call caused) to it.
    pub fn exit_with(&mut self, flash: Option<FlashStats>) -> u64 {
        if !self.recording {
            return 0;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.children_ns);
        agg.durations_ns.push(dur);
        if let Some(f) = flash {
            agg.flash += f;
            agg.max_user_reads = agg.max_user_reads.max(f.user.reads);
            agg.max_user_writes = agg.max_user_writes.max(f.user.writes);
            if f.total().erases > 0 {
                agg.erasing_ns.push(dur);
            }
        }
        if self.kept.len() < Self::KEEP {
            self.kept.push(pdl_obs::Span {
                name: open.name,
                ctx: layer_of(open.name),
                lane: 0,
                start_us: open.start.duration_since(self.epoch).as_micros() as u64,
                dur_us: dur / 1_000,
                block: self.stack.len() as u64,
                id: self.op,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    pub fn agg(&self, name: &str) -> SpanAgg {
        self.aggs.get(name).cloned().unwrap_or_default()
    }

    /// Every aggregate, by span name.
    pub fn aggs(&self) -> &BTreeMap<&'static str, SpanAgg> {
        &self.aggs
    }

    /// Spans recorded in total (kept + dropped).
    pub fn span_count(&self) -> u64 {
        self.kept.len() as u64 + self.dropped
    }

    /// Chrome trace-event JSON of the kept spans (the span's `id` is its
    /// op id, `block` its nesting depth).
    pub fn chrome_trace(&self) -> String {
        pdl_obs::chrome_trace(&[pdl_obs::TraceTrack {
            name: "host".to_string(),
            spans: self.kept.clone(),
            dropped_spans: self.dropped,
        }])
    }
}

/// The layer a span name belongs to: its prefix up to the first `.`.
fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.begin_op("ignored");
        assert_eq!(t.exit(), 0, "a new tracer is not recording");
        t.set_recording(true);
        t.begin_op("op");
        t.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        let total = t.exit();
        let op = t.agg("op");
        let child = t.agg("child");
        assert_eq!(op.total_ns, total);
        assert_eq!(op.self_ns + child.total_ns, total);
        assert!(child.total_ns >= 2_000_000);
        assert_eq!(t.span_count(), 2);
        assert!(pdl_obs::json::parse(&t.chrome_trace()).is_ok());
    }
}
