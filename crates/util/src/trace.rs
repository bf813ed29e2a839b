//! Deterministic span tracing with per-stage latency breakdown.
//!
//! Every sampled filesystem operation opens a **root span**; each layer the
//! op crosses records child spans — middleware cloud ops (ring / patch /
//! descriptor / content, with cache hit/miss and retry/backoff annotations),
//! the cluster front door (fault-plan decisions), per-replica node access
//! (device, quorum vote, handoff scan), and gossip/merge hops. Span timing is
//! **virtual time** taken from the owning [`crate::cost::OpCtx`] — never the
//! wall clock — so traces replay byte-identically for a fixed seed and the
//! h2lint `determinism` rule holds.
//!
//! Closed root traces land in a bounded per-middleware ring buffer
//! ([`TraceCollector`]) guarded by a sampling knob (`H2Config::trace_sample`,
//! default off). Two export formats:
//!
//! * [`trace_json`] — compact JSON for the API `op=trace` route;
//! * [`chrome_trace_json`] — chrome://tracing "trace event" JSON that opens
//!   directly in Perfetto (`ph: "X"` complete events, µs timestamps).
//!
//! Closing a sampled trace also feeds the per-stage histograms
//! (`stage_ring_ms`, `stage_content_ms`, `stage_quorum_ms`,
//! `stage_backoff_ms`) surfaced on the `op=metrics` route.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::metrics::MetricsRegistry;

/// Stage label for root spans opened by the filesystem layer.
pub const STAGE_OP: &str = "op";
/// Stage label for middleware cloud ops (ring/patch/descriptor/content).
pub const STAGE_MW: &str = "mw";
/// Stage label for middleware ring resolution (cache consult + overlay);
/// not mapped to a `stage_*` histogram — its cloud fetch child already is.
pub const STAGE_RESOLVE: &str = "resolve";
/// Stage label for retry backoff waits charged by `RetryPolicy`.
pub const STAGE_BACKOFF: &str = "backoff";
/// Stage label for cluster-level ObjectStore entry points.
pub const STAGE_CLOUD: &str = "cloud";
/// Stage label for replica-set reads/writes (quorum wait).
pub const STAGE_QUORUM: &str = "quorum";
/// Stage label for individual replica accesses within a quorum.
pub const STAGE_REPLICA: &str = "replica";
/// Stage label for namespace merge cycles.
pub const STAGE_MERGE: &str = "merge";
/// Stage label for gossip application hops.
pub const STAGE_GOSSIP: &str = "gossip";
/// Stage label for live-rebalance migration work (per-partition
/// copy-then-flip by the cluster's background migrator).
pub const STAGE_MIGRATE: &str = "migrate";

/// Counter: partitions the migrator has flipped to their new assignment.
pub const MIGRATION_PARTS_MOVED: &str = "migration_parts_moved";
/// Counter: object replicas the migrator copied onto newly assigned
/// devices.
pub const MIGRATION_KEYS_COPIED: &str = "migration_keys_copied";
/// Counter: reads during a rebalance that were rescued by consulting the
/// *old* ring's assignment as handoffs (data not yet flipped).
pub const MIGRATION_READ_RESCUES: &str = "migration_read_rescues";
/// Counter: writes dual-applied to the old assignment while their
/// partition was still pending migration.
pub const MIGRATION_DUAL_WRITES: &str = "migration_dual_writes";

/// Counter: reads whose handoff scan fired as a parallel hedge wave
/// (hedged replica reads only).
pub const HEDGED_READS: &str = "hedged_reads";
/// Counter: CAS blocks physically written (fresh content).
pub const CAS_BLOCKS_WRITTEN: &str = "cas_blocks_written";
/// Counter: CAS block puts that shared an already-live block.
pub const CAS_BLOCKS_SHARED: &str = "cas_blocks_shared";
/// Counter: logical bytes CAS dedup avoided re-writing.
pub const DEDUP_BYTES_SAVED: &str = "dedup_bytes_saved";

/// Histogram fed from closed `mw` ring/patch/descriptor spans.
pub const STAGE_RING_MS: &str = "stage_ring_ms";
/// Histogram fed from closed `mw` content spans.
pub const STAGE_CONTENT_MS: &str = "stage_content_ms";
/// Histogram fed from closed `quorum` spans.
pub const STAGE_QUORUM_MS: &str = "stage_quorum_ms";
/// Histogram fed from closed `backoff` spans.
pub const STAGE_BACKOFF_MS: &str = "stage_backoff_ms";

/// Per-trace span cap: a pathological op (deep COPY fan-out under faults)
/// cannot balloon a single trace; further child spans are dropped while the
/// open/close stack stays balanced.
const MAX_SPANS_PER_TRACE: usize = 4096;

/// One recorded interval (or instant, when `dur` is zero) inside a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id unique within the trace (0 is "no parent").
    pub id: u32,
    /// Id of the enclosing span; 0 for the root.
    pub parent: u32,
    /// Stage taxonomy label (one of the `STAGE_*` constants).
    pub stage: &'static str,
    /// Human-readable name (op name, cloud verb, …).
    pub name: String,
    /// Virtual-time offset of the span start from the op context's origin.
    pub start: Duration,
    /// Virtual duration (zero for instant annotations).
    pub dur: Duration,
    /// Error rendering when the spanned body failed.
    pub err: Option<String>,
    /// Key/value annotations (ring key, cache hit/miss, fault decision, …).
    pub notes: Vec<(&'static str, String)>,
}

/// Per-operation span buffer carried inside an `OpCtx` while a trace is live.
///
/// Open spans form a stack; `open`/`close` must pair up, which the
/// `OpCtx::span` closure API guarantees structurally.
#[derive(Debug, Clone, Default)]
pub struct TraceBuf {
    spans: Vec<Span>,
    /// Stack of indices into `spans` for currently-open spans.
    /// `usize::MAX` marks an open that was dropped by the per-trace cap.
    open: Vec<usize>,
}

impl TraceBuf {
    pub fn new() -> Self {
        TraceBuf::default()
    }

    /// Open a new span starting at virtual time `start`.
    pub fn open(&mut self, stage: &'static str, name: &str, start: Duration) {
        if self.spans.len() >= MAX_SPANS_PER_TRACE {
            self.open.push(usize::MAX);
            return;
        }
        let parent = self.innermost_open_id();
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u32 + 1,
            parent,
            stage,
            name: name.to_string(),
            start,
            dur: Duration::ZERO,
            err: None,
            notes: Vec::new(),
        });
        self.open.push(idx);
    }

    /// Close the innermost open span at virtual time `end`.
    pub fn close(&mut self, end: Duration, err: Option<String>) {
        if let Some(idx) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(idx) {
                span.dur = end.saturating_sub(span.start);
                span.err = err;
            }
        }
    }

    /// Attach a note to the innermost open span (dropped when none is open).
    pub fn note(&mut self, key: &'static str, value: String) {
        if let Some(&idx) = self.open.last() {
            if let Some(span) = self.spans.get_mut(idx) {
                span.notes.push((key, value));
            }
        }
    }

    /// Record a closed child span in one shot (used for instants and for
    /// pre-measured intervals like backoff waits).
    pub fn event(
        &mut self,
        stage: &'static str,
        name: &str,
        start: Duration,
        dur: Duration,
        notes: Vec<(&'static str, String)>,
    ) {
        if self.spans.len() >= MAX_SPANS_PER_TRACE {
            return;
        }
        let parent = self.innermost_open_id();
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u32 + 1,
            parent,
            stage,
            name: name.to_string(),
            start,
            dur,
            err: None,
            notes,
        });
    }

    /// Close any spans still open (defensive) and return the recorded spans.
    pub fn finish(mut self, end: Duration, err: Option<String>) -> Vec<Span> {
        // The root carries the op outcome; inner leftovers close clean.
        while self.open.len() > 1 {
            self.close(end, None);
        }
        self.close(end, err);
        self.spans
    }

    fn innermost_open_id(&self) -> u32 {
        self.open
            .iter()
            .rev()
            .find(|&&i| i != usize::MAX)
            .and_then(|&i| self.spans.get(i))
            .map_or(0, |s| s.id)
    }
}

/// One sampled operation: its spans plus a per-collector sequence number.
#[derive(Debug, Clone)]
pub struct RootTrace {
    /// Monotone per-collector sequence (newer = larger).
    pub seq: u64,
    /// Middleware node that served the op.
    pub node: u16,
    /// Spans in open order; `spans[0]` is the root.
    pub spans: Vec<Span>,
}

/// Bounded per-middleware ring buffer of sampled traces.
///
/// Sampling is deterministic: the n-th candidate op is sampled iff
/// `floor((n+1)·rate) > floor(n·rate)`, so a given rate yields the same
/// evenly-spaced subset on every run — no RNG, no wall clock.
#[derive(Debug)]
pub struct TraceCollector {
    sample: f64,
    cap: usize,
    node: u16,
    seen: AtomicU64,
    sampled: AtomicU64,
    ring: Mutex<VecDeque<RootTrace>>,
}

/// Default ring-buffer capacity (root traces retained per middleware).
pub const DEFAULT_TRACE_CAP: usize = 256;

impl TraceCollector {
    pub fn new(sample: f64, cap: usize, node: u16) -> Self {
        TraceCollector {
            sample: sample.clamp(0.0, 1.0),
            cap,
            node,
            seen: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether this collector can ever sample.
    pub fn enabled(&self) -> bool {
        self.sample > 0.0 && self.cap > 0
    }

    /// Middleware node this collector belongs to.
    pub fn node(&self) -> u16 {
        self.node
    }

    /// Deterministically decide whether the next candidate op is sampled
    /// (and advance the candidate counter).
    pub fn sample_next(&self) -> bool {
        if !self.enabled() {
            return false;
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        let s = self.sample;
        (((n + 1) as f64) * s).floor() > ((n as f64) * s).floor()
    }

    /// Store a finished trace, evicting the oldest beyond capacity, and fold
    /// its closed spans into the per-stage histograms.
    pub fn offer(&self, spans: Vec<Span>, metrics: &MetricsRegistry) {
        if spans.is_empty() || self.cap == 0 {
            return;
        }
        record_stage_histograms(&spans, metrics);
        let seq = self.sampled.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        ring.push_back(RootTrace {
            seq,
            node: self.node,
            spans,
        });
        while ring.len() > self.cap {
            ring.pop_front();
        }
    }

    /// Most recent `n` traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<RootTrace> {
        let ring = self.ring.lock();
        ring.iter().rev().take(n).cloned().collect()
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Map a closed span onto the per-stage histogram it feeds, if any.
fn stage_metric(span: &Span) -> Option<&'static str> {
    match span.stage {
        STAGE_BACKOFF => Some(STAGE_BACKOFF_MS),
        STAGE_QUORUM => Some(STAGE_QUORUM_MS),
        STAGE_MW => {
            if span.name.ends_with("_content") {
                Some(STAGE_CONTENT_MS)
            } else {
                // fetch_ring / put_ring / submit_patch / fetch_patch /
                // delete_patch / put_descriptor / get_descriptor — all
                // metadata-plane traffic against the ring.
                Some(STAGE_RING_MS)
            }
        }
        _ => None,
    }
}

/// Fold the closed spans of one trace into the `stage_*` histograms.
pub fn record_stage_histograms(spans: &[Span], metrics: &MetricsRegistry) {
    for span in spans {
        if let Some(name) = stage_metric(span) {
            metrics.record(name, span.dur);
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn span_json(span: &Span) -> String {
    let mut s = format!(
        "{{\"id\": {}, \"parent\": {}, \"stage\": \"{}\", \"name\": \"{}\", \
         \"start_us\": {}, \"dur_us\": {}",
        span.id,
        span.parent,
        json_escape(span.stage),
        json_escape(&span.name),
        span.start.as_micros(),
        span.dur.as_micros(),
    );
    if let Some(err) = &span.err {
        s.push_str(&format!(", \"err\": \"{}\"", json_escape(err)));
    }
    if !span.notes.is_empty() {
        let notes: Vec<String> = span
            .notes
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        s.push_str(&format!(", \"notes\": {{{}}}", notes.join(", ")));
    }
    s.push('}');
    s
}

/// Render traces for the API `op=trace` route.
pub fn trace_json(traces: &[RootTrace]) -> String {
    let items: Vec<String> = traces
        .iter()
        .map(|t| {
            let spans: Vec<String> = t.spans.iter().map(span_json).collect();
            format!(
                "{{\"seq\": {}, \"node\": {}, \"op\": \"{}\", \"spans\": [{}]}}",
                t.seq,
                t.node,
                t.spans
                    .first()
                    .map_or(String::new(), |s| json_escape(&s.name)),
                spans.join(", ")
            )
        })
        .collect();
    format!("{{\"traces\": [{}]}}\n", items.join(", "))
}

/// Render traces as chrome://tracing "trace event" JSON (Perfetto-openable).
///
/// Each span becomes a complete (`ph: "X"`) event; `pid` is the middleware
/// node, `tid` the trace sequence number, timestamps are virtual-time µs from
/// the op start. Notes and outcome land in `args`.
pub fn chrome_trace_json(traces: &[RootTrace]) -> String {
    let mut events: Vec<String> = Vec::new();
    for t in traces {
        for span in &t.spans {
            let mut args: Vec<String> = span
                .notes
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
                .collect();
            match &span.err {
                Some(err) => args.push(format!("\"outcome\": \"error: {}\"", json_escape(err))),
                None => args.push("\"outcome\": \"ok\"".to_string()),
            }
            events.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{{}}}}}",
                json_escape(&span.name),
                json_escape(span.stage),
                span.start.as_micros(),
                span.dur.as_micros(),
                t.node,
                t.seq,
                args.join(", ")
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn sample_spans() -> Vec<Span> {
        let mut buf = TraceBuf::new();
        buf.open(STAGE_OP, "op_write", ms(0));
        buf.open(STAGE_MW, "fetch_ring", ms(0));
        buf.note("cache", "miss".to_string());
        buf.close(ms(10), None);
        buf.event(
            STAGE_BACKOFF,
            "put_content",
            ms(10),
            ms(5),
            vec![("attempt", "1".to_string())],
        );
        buf.open(STAGE_MW, "put_content", ms(15));
        buf.close(ms(40), None);
        buf.finish(ms(40), None)
    }

    #[test]
    fn spans_nest_and_time_from_virtual_clock() {
        let spans = sample_spans();
        assert_eq!(spans.len(), 4);
        let root = &spans[0];
        assert_eq!(root.parent, 0);
        assert_eq!(root.name, "op_write");
        assert_eq!(root.dur, ms(40));
        let ring = &spans[1];
        assert_eq!(ring.parent, root.id);
        assert_eq!(ring.dur, ms(10));
        assert_eq!(ring.notes, vec![("cache", "miss".to_string())]);
        let backoff = &spans[2];
        assert_eq!(backoff.parent, root.id);
        assert_eq!(backoff.stage, STAGE_BACKOFF);
        assert_eq!(backoff.dur, ms(5));
    }

    #[test]
    fn finish_closes_leaked_spans_and_tags_root_error() {
        let mut buf = TraceBuf::new();
        buf.open(STAGE_OP, "op_read", ms(0));
        buf.open(STAGE_MW, "fetch_ring", ms(1));
        // fetch_ring never closed — e.g. an error propagated past it.
        let spans = buf.finish(ms(7), Some("NotFound".to_string()));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].err.as_deref(), Some("NotFound"));
        assert_eq!(spans[1].err, None);
        assert_eq!(spans[1].dur, ms(6));
    }

    #[test]
    fn span_cap_keeps_stack_balanced() {
        let mut buf = TraceBuf::new();
        buf.open(STAGE_OP, "flood", ms(0));
        for i in 0..(MAX_SPANS_PER_TRACE + 100) {
            buf.open(STAGE_MW, "child", ms(i as u64));
            buf.close(ms(i as u64 + 1), None);
        }
        let spans = buf.finish(ms(99_999), None);
        assert_eq!(spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(spans[0].dur, ms(99_999)); // root closed by finish, not a leak
    }

    #[test]
    fn sampling_is_deterministic_and_evenly_spaced() {
        let c = TraceCollector::new(0.25, 16, 0);
        let picks: Vec<bool> = (0..16).map(|_| c.sample_next()).collect();
        assert_eq!(picks.iter().filter(|&&p| p).count(), 4);
        // Same rate on a fresh collector reproduces the same pattern.
        let c2 = TraceCollector::new(0.25, 16, 0);
        let picks2: Vec<bool> = (0..16).map(|_| c2.sample_next()).collect();
        assert_eq!(picks, picks2);

        let full = TraceCollector::new(1.0, 16, 0);
        assert!((0..50).all(|_| full.sample_next()));
        let off = TraceCollector::new(0.0, 0, 0);
        assert!((0..50).all(|_| !off.sample_next()));
    }

    #[test]
    fn ring_buffer_is_bounded_and_newest_first() {
        let c = TraceCollector::new(1.0, 3, 7);
        let m = MetricsRegistry::new();
        for i in 0..10u64 {
            let mut buf = TraceBuf::new();
            buf.open(STAGE_OP, &format!("op{i}"), ms(0));
            c.offer(buf.finish(ms(1), None), &m);
        }
        assert_eq!(c.len(), 3);
        let recent = c.recent(8);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].spans[0].name, "op9");
        assert_eq!(recent[2].spans[0].name, "op7");
        assert!(recent[0].seq > recent[2].seq);
        assert_eq!(recent[0].node, 7);
    }

    #[test]
    fn stage_histograms_map_span_taxonomy() {
        let m = MetricsRegistry::new();
        record_stage_histograms(&sample_spans(), &m);
        assert_eq!(m.histogram(STAGE_RING_MS).count(), 1); // fetch_ring
        assert_eq!(m.histogram(STAGE_CONTENT_MS).count(), 1); // put_content
        assert_eq!(m.histogram(STAGE_BACKOFF_MS).count(), 1);
        // Root op spans feed the per-op histograms elsewhere, not stage_*.
        assert!(m.render().contains("stage_ring_ms"));
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let c = TraceCollector::new(1.0, 4, 2);
        let m = MetricsRegistry::new();
        c.offer(sample_spans(), &m);
        let json = chrome_trace_json(&c.recent(4));
        assert!(json.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"cat\": \"backoff\""));
        assert!(json.contains("\"pid\": 2"));
        assert!(json.contains("\"outcome\": \"ok\""));
        // Balanced braces/brackets outside string literals.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for ch in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match ch {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn trace_json_reports_root_op_names() {
        let c = TraceCollector::new(1.0, 4, 0);
        let m = MetricsRegistry::new();
        c.offer(sample_spans(), &m);
        let json = trace_json(&c.recent(4));
        assert!(json.contains("\"op\": \"op_write\""));
        assert!(json.contains("\"stage\": \"mw\""));
        assert!(json.contains("\"notes\": {\"cache\": \"miss\"}"));
    }
}
