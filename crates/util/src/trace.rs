//! Deterministic span tracing and the per-stage split of virtual time.
//!
//! Every charge an [`crate::cost::OpCtx`] takes lands in exactly one
//! time-owning [`Stage`], the innermost enclosing one, so an op's
//! [`StageTimes`] sum to its `elapsed()`: a ring fetch's quorum wait is
//! ring time, once. Each op's or maintenance pass's non-zero slots feed the
//! `stage_*_ms` histograms on `op=metrics` ([`StageHistograms`]), traced or
//! not; `stage_quorum_ms` is retired.
//!
//! Sampled ops also keep their span tree: middleware cloud ops (cache
//! hit/miss, retry/backoff), the cluster front door (fault-plan
//! decisions), per-replica node access (device, quorum vote, handoff
//! scan), and gossip/merge hops. Span timing is **virtual time** taken
//! from the owning `OpCtx` — never the wall clock — so traces replay
//! byte-identically for a fixed seed and the h2lint `determinism` rule
//! holds. Notes are typed [`Note`] values, formatted only at export.
//!
//! Closed root traces land in a bounded per-middleware ring buffer
//! ([`TraceCollector`]) guarded by a sampling knob (`H2Config::trace_sample`,
//! default off). Two export formats:
//!
//! * [`trace_json`] — compact JSON for the API `op=trace` route;
//! * [`chrome_trace_json`] — chrome://tracing "trace event" JSON that opens
//!   directly in Perfetto (`ph: "X"` complete events, µs timestamps).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::id::NamespaceId;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::{lock_rank, OrderedMutex};

/// What a span's work is for. The first six stages ([`Stage::OWNERS`])
/// own virtual time: a charge lands in the innermost of them that
/// encloses it. The rest — ring resolution, the cluster's entry points,
/// replica-set (quorum) waits, single replica accesses and rebalance
/// migration — annotate the trace tree only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The op itself: root spans, and whatever no other stage claims.
    Op,
    /// Middleware NameRing traffic: ring, patch and descriptor objects.
    Ring,
    /// Middleware content traffic: file objects, CAS blocks, branches and
    /// manifests.
    Content,
    /// Retry backoff waits charged by `RetryPolicy`.
    Backoff,
    /// Namespace merge cycles.
    Merge,
    /// Gossip application and resync passes.
    Gossip,
    Resolve,
    Cloud,
    Quorum,
    Replica,
    Migrate,
}

impl Stage {
    /// The stages that own time, in [`StageTimes`] slot order: their
    /// declaration order, so `stage as usize` is the slot.
    pub const OWNERS: [Stage; 6] = [
        Stage::Op,
        Stage::Ring,
        Stage::Content,
        Stage::Backoff,
        Stage::Merge,
        Stage::Gossip,
    ];

    /// The exported stage label (JSON `stage`, chrome-trace `cat`). Ring
    /// and content are both middleware cloud ops: `mw`.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Op => "op",
            Stage::Ring | Stage::Content => "mw",
            Stage::Backoff => "backoff",
            Stage::Merge => "merge",
            Stage::Gossip => "gossip",
            Stage::Resolve => "resolve",
            Stage::Cloud => "cloud",
            Stage::Quorum => "quorum",
            Stage::Replica => "replica",
            Stage::Migrate => "migrate",
        }
    }

    /// The histogram this stage's time feeds. The op slot has none: it is
    /// the remainder, and the per-kind latency histograms carry it.
    pub fn histogram(self) -> Option<&'static str> {
        match self {
            Stage::Ring => Some(STAGE_RING_MS),
            Stage::Content => Some(STAGE_CONTENT_MS),
            Stage::Backoff => Some(STAGE_BACKOFF_MS),
            Stage::Merge => Some(STAGE_MERGE_MS),
            Stage::Gossip => Some(STAGE_GOSSIP_MS),
            _ => None,
        }
    }
}

/// Virtual time split by time-owning stage, one slot per
/// [`Stage::OWNERS`] entry, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes([u64; Stage::OWNERS.len()]);

impl StageTimes {
    /// Time spent in `stage` (zero for a stage that owns none).
    pub fn get(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.0.get(stage as usize).copied().unwrap_or(0))
    }

    /// Sum over every slot.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.0.iter().sum())
    }

    /// Add `d` to `stage`'s slot; `stage` must own time.
    pub(crate) fn charge(&mut self, stage: Stage, d: Duration) {
        self.0[stage as usize] += d.as_nanos() as u64;
    }

    /// Add `other` slot by slot.
    pub fn add(&mut self, other: &StageTimes) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// Slot-by-slot difference from an earlier reading.
    pub fn since(&self, earlier: &StageTimes) -> StageTimes {
        StageTimes(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

/// The stage histograms of one registry, looked up once.
#[derive(Debug)]
pub struct StageHistograms([Option<Arc<Histogram>>; Stage::OWNERS.len()]);

impl StageHistograms {
    pub fn new(metrics: &MetricsRegistry) -> Self {
        StageHistograms(Stage::OWNERS.map(|s| s.histogram().map(|name| metrics.histogram(name))))
    }

    /// Record one op's or pass's time in each stage it spent any in.
    pub fn record(&self, times: &StageTimes) {
        for (h, ns) in self.0.iter().zip(times.0) {
            if let Some(h) = h.as_ref().filter(|_| ns > 0) {
                h.record(Duration::from_nanos(ns));
            }
        }
    }
}

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

/// Histogram of each op's or pass's NameRing time.
pub const STAGE_RING_MS: &str = "stage_ring_ms";
/// Histogram of each op's or pass's content time.
pub const STAGE_CONTENT_MS: &str = "stage_content_ms";
/// Retired: quorum time belongs to the access that waits on it, so
/// nothing feeds this histogram. The name stays exported for the
/// reports that still read it (as 0).
pub const STAGE_QUORUM_MS: &str = "stage_quorum_ms";
/// Histogram of each op's or pass's retry backoff time.
pub const STAGE_BACKOFF_MS: &str = "stage_backoff_ms";
/// Histogram of each merge pass's own time.
pub const STAGE_MERGE_MS: &str = "stage_merge_ms";
/// Histogram of each gossip or resync pass's own time.
pub const STAGE_GOSSIP_MS: &str = "stage_gossip_ms";

/// Per-trace span cap: a pathological op (deep COPY fan-out under faults)
/// cannot balloon a single trace; further child spans are dropped while the
/// open/close stack stays balanced.
const MAX_SPANS_PER_TRACE: usize = 4096;

/// A span note's value: typed at record time, formatted only at export.
#[derive(Debug, Clone, PartialEq)]
pub enum Note {
    U64(u64),
    Str(&'static str),
    Text(Arc<str>),
    Ns(NamespaceId),
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::U64(v) => v.fmt(f),
            Note::Str(v) => f.write_str(v),
            Note::Text(v) => f.write_str(v),
            Note::Ns(v) => v.fmt(f),
        }
    }
}

/// One recorded interval (or instant, when `dur` is zero) inside a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id unique within the trace (0 is "no parent").
    pub id: u32,
    /// Id of the enclosing span; 0 for the root.
    pub parent: u32,
    pub stage: Stage,
    /// Op name, cloud verb, …
    pub name: &'static str,
    /// Virtual-time offset of the span start from the op context's origin.
    pub start: Duration,
    /// Virtual duration (zero for instant annotations).
    pub dur: Duration,
    /// Error rendering when the spanned body failed.
    pub err: Option<String>,
    /// Key/value annotations (ring key, cache hit/miss, fault decision, …).
    pub notes: Vec<(&'static str, Note)>,
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
    /// Open a new span starting at virtual time `start`.
    pub fn open(&mut self, stage: Stage, name: &'static str, start: Duration) {
        let idx = self.instant(stage, name, start, Vec::new());
        self.open.push(idx.unwrap_or(usize::MAX));
    }

    /// Close the innermost open span at virtual time `end`.
    pub fn close(&mut self, end: Duration, err: Option<String>) {
        if let Some(span) = self.open.pop().and_then(|i| self.spans.get_mut(i)) {
            span.dur = end.saturating_sub(span.start);
            span.err = err;
        }
    }

    /// Attach a note to the innermost open span (dropped when none is open).
    pub fn note(&mut self, key: &'static str, value: Note) {
        if let Some(span) = self.open.last().and_then(|&i| self.spans.get_mut(i)) {
            span.notes.push((key, value));
        }
    }

    /// Record a zero-duration child span at virtual time `start` under the
    /// innermost open one (an instant, unless [`Self::open`] keeps it
    /// open). `None` past the per-trace cap.
    pub fn instant(
        &mut self,
        stage: Stage,
        name: &'static str,
        start: Duration,
        notes: Vec<(&'static str, Note)>,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS_PER_TRACE {
            return None;
        }
        let parent = self.innermost_open_id();
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u32 + 1,
            parent,
            stage,
            name,
            start,
            dur: Duration::ZERO,
            err: None,
            notes,
        });
        Some(idx)
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
    ring: OrderedMutex<VecDeque<RootTrace>>,
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
            ring: OrderedMutex::new(lock_rank::LEAF, "trace.ring", VecDeque::new()),
        }
    }

    /// Deterministically decide whether the next candidate op is sampled
    /// (and advance the candidate counter).
    pub fn sample_next(&self) -> bool {
        if self.sample <= 0.0 || self.cap == 0 {
            return false;
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        let s = self.sample;
        (((n + 1) as f64) * s).floor() > ((n as f64) * s).floor()
    }

    /// Store a finished trace, evicting the oldest beyond capacity.
    pub fn offer(&self, spans: Vec<Span>) {
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

fn note_json(key: &str, value: &Note) -> String {
    let value = json_escape(&value.to_string());
    format!("\"{}\": \"{value}\"", json_escape(key))
}

fn span_json(span: &Span) -> String {
    let mut s = format!(
        "{{\"id\": {}, \"parent\": {}, \"stage\": \"{}\", \"name\": \"{}\", \
         \"start_us\": {}, \"dur_us\": {}",
        span.id,
        span.parent,
        span.stage.label(),
        json_escape(span.name),
        span.start.as_micros(),
        span.dur.as_micros(),
    );
    if let Some(err) = &span.err {
        s.push_str(&format!(", \"err\": \"{}\"", json_escape(err)));
    }
    if !span.notes.is_empty() {
        let notes: Vec<String> = span.notes.iter().map(|(k, v)| note_json(k, v)).collect();
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
                    .map_or(String::new(), |s| json_escape(s.name)),
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
            let mut args: Vec<String> = span.notes.iter().map(|(k, v)| note_json(k, v)).collect();
            match &span.err {
                Some(err) => args.push(format!("\"outcome\": \"error: {}\"", json_escape(err))),
                None => args.push("\"outcome\": \"ok\"".to_string()),
            }
            events.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
                 \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{{}}}}}",
                json_escape(span.name),
                span.stage.label(),
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
        let mut buf = TraceBuf::default();
        buf.open(Stage::Op, "op_write", ms(0));
        buf.open(Stage::Ring, "fetch_ring", ms(0));
        buf.note("cache", Note::Str("miss"));
        buf.close(ms(10), None);
        buf.open(Stage::Backoff, "put_content", ms(10));
        buf.note("retry", Note::U64(1));
        buf.close(ms(15), None);
        buf.instant(Stage::Replica, "read", ms(15), vec![("dev", Note::U64(3))]);
        buf.open(Stage::Content, "put_content", ms(15));
        buf.close(ms(40), None);
        buf.finish(ms(40), None)
    }

    #[test]
    fn spans_nest_and_time_from_virtual_clock() {
        let spans = sample_spans();
        assert_eq!(spans.len(), 5);
        let root = &spans[0];
        assert_eq!(root.parent, 0);
        assert_eq!(root.name, "op_write");
        assert_eq!(root.dur, ms(40));
        let ring = &spans[1];
        assert_eq!(ring.parent, root.id);
        assert_eq!(ring.dur, ms(10));
        assert_eq!(ring.notes, vec![("cache", Note::Str("miss"))]);
        let backoff = &spans[2];
        assert_eq!(backoff.parent, root.id);
        assert_eq!(backoff.stage, Stage::Backoff);
        assert_eq!(backoff.dur, ms(5));
        let instant = &spans[3];
        assert_eq!((instant.parent, instant.dur), (root.id, Duration::ZERO));
        assert_eq!(instant.notes, vec![("dev", Note::U64(3))]);
    }

    #[test]
    fn finish_closes_leaked_spans_and_tags_root_error() {
        let mut buf = TraceBuf::default();
        buf.open(Stage::Op, "op_read", ms(0));
        buf.open(Stage::Ring, "fetch_ring", ms(1));
        // fetch_ring never closed — e.g. an error propagated past it.
        let spans = buf.finish(ms(7), Some("NotFound".to_string()));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].err.as_deref(), Some("NotFound"));
        assert_eq!(spans[1].err, None);
        assert_eq!(spans[1].dur, ms(6));
    }

    #[test]
    fn span_cap_keeps_stack_balanced() {
        let mut buf = TraceBuf::default();
        buf.open(Stage::Op, "flood", ms(0));
        for i in 0..(MAX_SPANS_PER_TRACE + 100) {
            buf.open(Stage::Ring, "child", ms(i as u64));
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
        let names = [
            "op0", "op1", "op2", "op3", "op4", "op5", "op6", "op7", "op8", "op9",
        ];
        for name in names {
            let mut buf = TraceBuf::default();
            buf.open(Stage::Op, name, ms(0));
            c.offer(buf.finish(ms(1), None));
        }
        let recent = c.recent(8);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].spans[0].name, "op9");
        assert_eq!(recent[2].spans[0].name, "op7");
        assert!(recent[0].seq > recent[2].seq);
        assert_eq!(recent[0].node, 7);
    }

    #[test]
    fn stage_histograms_map_span_taxonomy() {
        // Ring and content spans both export as `mw`; only the stages that
        // own time have a slot, and only the op slot has no histogram.
        assert_eq!(Stage::Ring.label(), Stage::Content.label());
        assert_eq!(Stage::OWNERS.map(|s| s as usize), [0, 1, 2, 3, 4, 5]);
        assert!(Stage::Quorum.histogram().is_none());
        let m = MetricsRegistry::new();
        let hists = StageHistograms::new(&m);
        let mut times = StageTimes::default();
        times.charge(Stage::Op, ms(4));
        times.charge(Stage::Ring, ms(10));
        times.charge(Stage::Content, ms(25));
        assert_eq!(times.total(), ms(39));
        assert_eq!(times.since(&StageTimes::default()), times);
        hists.record(&times);
        assert_eq!(m.histogram(STAGE_RING_MS).mean(), ms(10));
        assert_eq!(m.histogram(STAGE_CONTENT_MS).mean(), ms(25));
        // Zero slots record nothing, but every histogram is registered.
        assert_eq!(m.histogram(STAGE_BACKOFF_MS).count(), 0);
        assert!(m.render().contains(STAGE_GOSSIP_MS));
        assert!(!m.render().contains(STAGE_QUORUM_MS));
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_trace_json_is_well_formed() {
        let c = TraceCollector::new(1.0, 4, 2);
        c.offer(sample_spans());
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
        c.offer(sample_spans());
        let json = trace_json(&c.recent(4));
        assert!(json.contains("\"op\": \"op_write\""));
        assert!(json.contains("\"stage\": \"mw\""));
        assert!(json.contains("\"notes\": {\"cache\": \"miss\"}"));
        assert!(json.contains("\"notes\": {\"dev\": \"3\"}"));
    }
}
