//! Virtual-time cost accounting — the stand-in for the paper's rack.
//!
//! The paper measures "operation time … excluding the round trip time",
//! i.e. how long the storage system itself takes to execute a filesystem
//! operation, on a 9-server rack (1 Gbps LAN, 15k-RPM SAS disks). We cannot
//! reproduce the rack, so every backend primitive charges a calibrated
//! latency to an [`OpCtx`] instead; the accumulated virtual duration plays
//! the role of the measured operation time. Because the *sequence* of
//! primitives is exactly what each design (H2, Swift CH+DB, DP, …) would
//! issue, complexity shapes and crossovers are preserved, and the calibrated
//! constants put magnitudes in the same range the paper reports.
//!
//! Calibration anchors taken from §5.3:
//! * Swift file access ≈ 10 ms (one ring lookup + one small GET);
//! * H2 file access ≈ 15 ms per directory level (≈ 61 ms at the average
//!   depth d = 4);
//! * LISTing 1000 files ≈ 0.35 s (detail fetches fan out in parallel);
//! * COPYing 1000 files ≈ 10 s (≈ 10 ms per copied object);
//! * MKDIR on H2Cloud/Dropbox ≈ 150–200 ms, Swift markedly faster.

use std::time::Duration;

use crate::error::{H2Error, Result};

/// Classes of backend primitives we count (the paper's PUT/GET/DELETE plus
/// the auxiliary operations its baselines rely on). The counts drive the
/// empirical Table 1 reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimKind {
    /// Object GET.
    Get,
    /// Object PUT.
    Put,
    /// Object DELETE.
    Delete,
    /// Object HEAD (metadata only).
    Head,
    /// Server-side object copy (Swift `X-Copy-From` style).
    Copy,
    /// File-path DB point query (binary search, O(log N)).
    DbQuery,
    /// File-path DB insert/update/delete of one record.
    DbUpdate,
    /// RPC to a metadata/index server (DP, single-index baselines).
    IndexRpc,
}

impl PrimKind {
    pub const ALL: [PrimKind; 8] = [
        PrimKind::Get,
        PrimKind::Put,
        PrimKind::Delete,
        PrimKind::Head,
        PrimKind::Copy,
        PrimKind::DbQuery,
        PrimKind::DbUpdate,
        PrimKind::IndexRpc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            PrimKind::Get => "GET",
            PrimKind::Put => "PUT",
            PrimKind::Delete => "DELETE",
            PrimKind::Head => "HEAD",
            PrimKind::Copy => "COPY",
            PrimKind::DbQuery => "DB-QUERY",
            PrimKind::DbUpdate => "DB-UPDATE",
            PrimKind::IndexRpc => "INDEX-RPC",
        }
    }
}

/// Per-operation counters of backend primitives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendCounts {
    pub gets: u64,
    pub puts: u64,
    pub deletes: u64,
    pub heads: u64,
    pub copies: u64,
    pub db_queries: u64,
    pub db_updates: u64,
    pub index_rpcs: u64,
}

impl BackendCounts {
    pub fn total(&self) -> u64 {
        self.gets
            + self.puts
            + self.deletes
            + self.heads
            + self.copies
            + self.db_queries
            + self.db_updates
            + self.index_rpcs
    }

    pub fn bump(&mut self, kind: PrimKind) {
        match kind {
            PrimKind::Get => self.gets += 1,
            PrimKind::Put => self.puts += 1,
            PrimKind::Delete => self.deletes += 1,
            PrimKind::Head => self.heads += 1,
            PrimKind::Copy => self.copies += 1,
            PrimKind::DbQuery => self.db_queries += 1,
            PrimKind::DbUpdate => self.db_updates += 1,
            PrimKind::IndexRpc => self.index_rpcs += 1,
        }
    }

    pub fn get(&self, kind: PrimKind) -> u64 {
        match kind {
            PrimKind::Get => self.gets,
            PrimKind::Put => self.puts,
            PrimKind::Delete => self.deletes,
            PrimKind::Head => self.heads,
            PrimKind::Copy => self.copies,
            PrimKind::DbQuery => self.db_queries,
            PrimKind::DbUpdate => self.db_updates,
            PrimKind::IndexRpc => self.index_rpcs,
        }
    }

    pub fn add(&mut self, other: &BackendCounts) {
        self.gets += other.gets;
        self.puts += other.puts;
        self.deletes += other.deletes;
        self.heads += other.heads;
        self.copies += other.copies;
        self.db_queries += other.db_queries;
        self.db_updates += other.db_updates;
        self.index_rpcs += other.index_rpcs;
    }
}

/// Latency constants of the simulated rack.
///
/// All values are *service* latencies inside the cloud (the paper excludes
/// client RTT; see [`RttModel`] for the α analysis).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Fixed per-primitive cost: proxy handling + one LAN round trip +
    /// request parsing.
    pub request_overhead: Duration,
    /// Media read for a small object (metadata-sized).
    pub disk_read: Duration,
    /// Media write for a small object (journal + commit).
    pub disk_write: Duration,
    /// Additional transfer+media time per KiB moved.
    pub per_kib: Duration,
    /// Server-side copy of one object (read+write absorbed on the storage
    /// node, cheaper than GET+PUT through the proxy).
    pub server_copy: Duration,
    /// File-path DB: fixed query cost…
    pub db_base: Duration,
    /// …plus this much per log2(N) step of the binary search.
    pub db_per_log2: Duration,
    /// File-path DB single-record write.
    pub db_update: Duration,
    /// One RPC to a metadata/index server (DP / namenode baselines); index
    /// lookups are memory-resident, so this is cheap.
    pub index_rpc: Duration,
    /// Middleware CPU time per processed child entry (parsing NameRing
    /// tuples, building listings).
    pub per_entry_cpu: Duration,
    /// Middleware processing per lookup level (hashing the decorated
    /// path, locating the tuple, HTTP plumbing inside the H2Middleware).
    pub lookup_cpu: Duration,
    /// Lookup level served from the middleware's parsed-ring cache: a hash
    /// probe on an in-memory map — no ring GET, no parse, no store-side
    /// plumbing. Charged instead of `lookup_cpu` on a cache hit.
    pub cached_lookup_cpu: Duration,
    /// Middleware processing per patch submission or merge cycle (file
    /// descriptor bookkeeping, formatter work, Keystone re-validation) —
    /// the overhead that puts H2Cloud's MKDIR in the paper's 150–200 ms
    /// band while Swift stays in the tens of ms.
    pub patch_cycle_cpu: Duration,
    /// Middleware processing on the patch *submission* side only: descriptor
    /// bookkeeping and patch-object formatting, without the merge-side
    /// formatter/re-validation work. Submission used to charge the full
    /// `patch_cycle_cpu` as well, double-counting the cycle overhead that the
    /// merge charges again when it folds the chain; group-commit splits the
    /// two so batched submissions pay only the publication share.
    pub patch_submit_cpu: Duration,
    /// Full-path resolve-cache probe: one hash lookup plus an epoch
    /// fingerprint check against the per-namespace version stamps. Charged
    /// once per resolve when the path cache is enabled — on a hit it
    /// *replaces* the per-level lookup charges entirely.
    pub path_cache_cpu: Duration,
    /// Fan-out width for batched backend calls (bounded client pool).
    pub parallelism: usize,
    /// If true, replica writes are charged as parallel (quorum waits on the
    /// slowest of concurrent writes, modelled as 1× + small skew) rather
    /// than serial.
    pub parallel_replicas: bool,
}

impl CostModel {
    /// Constants calibrated against the §5.3 anchors (see module docs).
    pub fn rack_default() -> Self {
        CostModel {
            request_overhead: Duration::from_micros(3_000),
            disk_read: Duration::from_micros(6_500),
            disk_write: Duration::from_micros(9_000),
            per_kib: Duration::from_nanos(12_000), // ≈ 12 µs/KiB ≈ 1 Gbps + media
            server_copy: Duration::from_micros(9_500),
            db_base: Duration::from_micros(500),
            db_per_log2: Duration::from_micros(120),
            db_update: Duration::from_micros(1_800),
            index_rpc: Duration::from_micros(450),
            per_entry_cpu: Duration::from_micros(12),
            lookup_cpu: Duration::from_micros(4_500),
            cached_lookup_cpu: Duration::from_micros(300),
            patch_cycle_cpu: Duration::from_micros(15_000),
            patch_submit_cpu: Duration::from_micros(4_500),
            path_cache_cpu: Duration::from_micros(40),
            parallelism: 32,
            parallel_replicas: true,
        }
    }

    /// A zero-latency model: only primitive *counts* matter (used by the
    /// Table 1 complexity fits and by most unit tests).
    pub fn zero() -> Self {
        CostModel {
            request_overhead: Duration::ZERO,
            disk_read: Duration::ZERO,
            disk_write: Duration::ZERO,
            per_kib: Duration::ZERO,
            server_copy: Duration::ZERO,
            db_base: Duration::ZERO,
            db_per_log2: Duration::ZERO,
            db_update: Duration::ZERO,
            index_rpc: Duration::ZERO,
            per_entry_cpu: Duration::ZERO,
            lookup_cpu: Duration::ZERO,
            cached_lookup_cpu: Duration::ZERO,
            patch_cycle_cpu: Duration::ZERO,
            patch_submit_cpu: Duration::ZERO,
            path_cache_cpu: Duration::ZERO,
            parallelism: 32,
            parallel_replicas: true,
        }
    }

    /// Cost of a GET returning `size` bytes.
    pub fn get_cost(&self, size: usize) -> Duration {
        self.request_overhead + self.disk_read + self.transfer(size)
    }

    /// Cost of a PUT of `size` bytes (per replica; see `parallel_replicas`).
    pub fn put_cost(&self, size: usize) -> Duration {
        self.request_overhead + self.disk_write + self.transfer(size)
    }

    pub fn delete_cost(&self) -> Duration {
        self.request_overhead + self.disk_write
    }

    pub fn head_cost(&self) -> Duration {
        self.request_overhead + self.disk_read
    }

    pub fn copy_cost(&self, size: usize) -> Duration {
        self.request_overhead + self.server_copy + self.transfer(size) / 4
    }

    /// Binary-search query against a DB of `records` rows.
    pub fn db_query_cost(&self, records: u64) -> Duration {
        let log2 = 64 - records.max(1).leading_zeros() as u64;
        self.db_base + self.db_per_log2 * log2 as u32
    }

    pub fn db_update_cost(&self) -> Duration {
        self.db_base + self.db_update
    }

    pub fn index_rpc_cost(&self) -> Duration {
        self.index_rpc
    }

    fn transfer(&self, size: usize) -> Duration {
        // Round up to whole KiB so tiny objects still pay one unit.
        let kib = (size as u64).div_ceil(1024);
        Duration::from_nanos(self.per_kib.as_nanos() as u64 * kib)
    }
}

/// Per-operation context: accumulates virtual time and primitive counts.
///
/// Passed explicitly through every layer (no thread-locals) so tests and the
/// figures harness stay deterministic, and so batched fan-out can be modelled
/// where it actually happens.
#[derive(Debug, Clone)]
pub struct OpCtx {
    pub model: std::sync::Arc<CostModel>,
    elapsed: Duration,
    counts: BackendCounts,
    /// Depth of `parallel(..)` nesting; inside a parallel section,
    /// `charge` contributions are collected by the section instead.
    batch: Option<BatchState>,
    /// Live span buffer when this op was sampled for tracing (boxed so the
    /// untraced fast path only pays a null check).
    trace: Option<Box<crate::trace::TraceBuf>>,
}

#[derive(Debug, Clone)]
struct BatchState {
    /// Durations of items completed so far in this batch.
    items: Vec<Duration>,
    /// Their running total, kept so [`OpCtx::vnow`] is O(1): every nested
    /// section opens with it, once per item of a wide fan-out.
    done: Duration,
    /// Time charged to the currently open item.
    current: Duration,
    /// Virtual time at which the section opened (for span timing).
    base: Duration,
}

impl OpCtx {
    pub fn new(model: std::sync::Arc<CostModel>) -> Self {
        OpCtx {
            model,
            elapsed: Duration::ZERO,
            counts: BackendCounts::default(),
            batch: None,
            trace: None,
        }
    }

    /// Zero-latency context for tests that only assert counts/semantics.
    pub fn for_test() -> Self {
        OpCtx::new(std::sync::Arc::new(CostModel::zero()))
    }

    /// Total virtual time consumed by the operation so far.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Primitive counters.
    pub fn counts(&self) -> BackendCounts {
        self.counts
    }

    /// Record a primitive invocation of `kind` costing `d`.
    pub fn charge(&mut self, kind: PrimKind, d: Duration) {
        self.counts.bump(kind);
        self.charge_time(d);
    }

    /// Charge CPU/other time without bumping a primitive counter.
    pub fn charge_time(&mut self, d: Duration) {
        match &mut self.batch {
            Some(b) => b.current += d,
            None => self.elapsed += d,
        }
    }

    /// Run `k` homogeneous sub-operations that the client issues with
    /// bounded fan-out ([`CostModel::parallelism`] at a time). `f` is called
    /// `k` times to perform (and charge) each item; wall time is
    /// `ceil(k / parallelism) × max-item-per-wave`, approximated by packing
    /// the recorded item durations greedily into waves.
    pub fn parallel<F>(&mut self, k: usize, mut f: F) -> Result<()>
    where
        F: FnMut(&mut OpCtx, usize) -> Result<()>,
    {
        if k == 0 {
            return Ok(());
        }
        let base = self.vnow();
        let prev = self.batch.take();
        self.batch = Some(BatchState {
            items: Vec::with_capacity(k),
            done: Duration::ZERO,
            current: Duration::ZERO,
            base,
        });
        let mut result = Ok(());
        for i in 0..k {
            if let Err(e) = f(self, i) {
                result = Err(e);
                break;
            }
            let b = self.batch.as_mut().expect("batch state present");
            let d = std::mem::take(&mut b.current);
            b.items.push(d);
            b.done += d;
        }
        let b = self.batch.take().expect("batch state present");
        self.batch = prev;
        // Even on error, time already spent is spent.
        let wall = Self::pack_waves(&b.items, self.model.parallelism) + b.current;
        self.charge_time(wall);
        result.map_err(|e: H2Error| e)
    }

    /// Wall time of executing `items` with `width` workers: greedy LPT-free
    /// packing in submission order (client streams requests into a bounded
    /// pool), i.e. each wave takes the max of its `width` members.
    fn pack_waves(items: &[Duration], width: usize) -> Duration {
        let width = width.max(1);
        items
            .chunks(width)
            .map(|wave| wave.iter().copied().max().unwrap_or(Duration::ZERO))
            .sum()
    }

    /// Fold another context's spend into this one (serially).
    pub fn absorb(&mut self, other: &OpCtx) {
        self.counts.add(&other.counts);
        self.charge_time(other.elapsed);
    }

    // ---- span tracing ----------------------------------------------------
    //
    // Spans observe virtual time; they never charge it, so a traced run
    // accumulates exactly the same `elapsed()` as an untraced one. Inside a
    // `parallel` section items are drawn serialized (each item's spans start
    // where the previous item's ended) — a readable approximation of the
    // fan-out; the section total still uses wave packing.

    /// Current virtual time, including any in-flight `parallel` section.
    pub fn vnow(&self) -> Duration {
        match &self.batch {
            None => self.elapsed,
            Some(b) => b.base + b.done + b.current,
        }
    }

    /// Whether this op is currently being traced.
    pub fn trace_active(&self) -> bool {
        self.trace.is_some()
    }

    /// Start tracing this op with a root span (used by the sampling layer;
    /// no-op spans everywhere else stay free because `trace` is `None`).
    pub fn begin_trace(&mut self, stage: &'static str, name: &str) {
        let mut buf = crate::trace::TraceBuf::new();
        buf.open(stage, name, self.vnow());
        self.trace = Some(Box::new(buf));
    }

    /// Close the root span (and any leaked children) and hand back the
    /// recorded spans; `None` when the op was not traced.
    pub fn end_trace(&mut self, err: Option<String>) -> Option<Vec<crate::trace::Span>> {
        let buf = self.trace.take()?;
        let end = self.vnow();
        Some(buf.finish(end, err))
    }

    /// Run `f` inside a child span named `name` at stage `stage`. When the
    /// op is untraced this is a direct call with zero overhead beyond the
    /// null check; when traced, the span records virtual start/duration and
    /// the error rendering of a failed result.
    pub fn span<T, F>(&mut self, stage: &'static str, name: &str, f: F) -> Result<T>
    where
        F: FnOnce(&mut OpCtx) -> Result<T>,
    {
        if self.trace.is_none() {
            return f(self);
        }
        let start = self.vnow();
        if let Some(buf) = &mut self.trace {
            buf.open(stage, name, start);
        }
        let result = f(self);
        let end = self.vnow();
        if let Some(buf) = &mut self.trace {
            buf.close(end, result.as_ref().err().map(|e| e.to_string()));
        }
        result
    }

    /// Attach a note to the innermost open span. The value closure only runs
    /// when the op is traced, so formatting costs nothing on the fast path.
    pub fn span_note<F>(&mut self, key: &'static str, value: F)
    where
        F: FnOnce() -> String,
    {
        if let Some(buf) = &mut self.trace {
            buf.note(key, value());
        }
    }

    /// Record an instant (zero-duration) child span with notes; the notes
    /// closure only runs when the op is traced.
    pub fn span_instant<F>(&mut self, stage: &'static str, name: &str, notes: F)
    where
        F: FnOnce() -> Vec<(&'static str, String)>,
    {
        if let Some(buf) = &mut self.trace {
            let at = match &self.batch {
                None => self.elapsed,
                Some(b) => b.base + b.done + b.current,
            };
            buf.event(stage, name, at, Duration::ZERO, notes());
        }
    }

    /// Charge `d` of virtual time (like [`OpCtx::charge_time`]) and record a
    /// child span covering exactly that interval — used for retry backoff
    /// waits, where the wait *is* the time charged.
    pub fn span_charge(&mut self, stage: &'static str, name: &str, d: Duration) {
        let start = self.vnow();
        self.charge_time(d);
        if let Some(buf) = &mut self.trace {
            buf.event(stage, name, start, d, Vec::new());
        }
    }
}

/// Client↔cloud round-trip-time model for the paper's α analysis.
///
/// The paper PINGed Dropbox from Santa Cruz: 24–83 ms, mean 58 ms. We use a
/// deterministic triangular-ish sampler over the same support with the same
/// mean (drawn from a seeded RNG supplied by the caller).
#[derive(Debug, Clone)]
pub struct RttModel {
    pub min_ms: f64,
    pub mode_ms: f64,
    pub max_ms: f64,
}

impl RttModel {
    /// The paper's measured Dropbox RTT distribution.
    pub fn paper_dropbox() -> Self {
        // Triangular(min, mode, max) has mean (min+mode+max)/3; choosing
        // mode = 67 ms gives mean (24+67+83)/3 = 58 ms as measured.
        RttModel {
            min_ms: 24.0,
            mode_ms: 67.0,
            max_ms: 83.0,
        }
    }

    pub fn mean_ms(&self) -> f64 {
        (self.min_ms + self.mode_ms + self.max_ms) / 3.0
    }

    /// Sample one RTT given a uniform draw `u ∈ [0, 1)`.
    pub fn sample_ms(&self, u: f64) -> f64 {
        let (a, c, b) = (self.min_ms, self.mode_ms, self.max_ms);
        let fc = (c - a) / (b - a);
        if u < fc {
            a + ((b - a) * (c - a) * u).sqrt()
        } else {
            b - ((b - a) * (b - c) * (1.0 - u)).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ctx() -> OpCtx {
        OpCtx::new(Arc::new(CostModel::rack_default()))
    }

    #[test]
    fn charge_accumulates_time_and_counts() {
        let mut c = ctx();
        let m = c.model.clone();
        c.charge(PrimKind::Get, m.get_cost(100));
        c.charge(PrimKind::Put, m.put_cost(100));
        assert_eq!(c.counts().gets, 1);
        assert_eq!(c.counts().puts, 1);
        assert_eq!(c.counts().total(), 2);
        assert!(c.elapsed() > Duration::ZERO);
    }

    #[test]
    fn swift_file_access_anchor_is_about_10ms() {
        // One small GET ≈ the paper's ~10 ms Swift file access.
        let m = CostModel::rack_default();
        let ms = m.get_cost(512).as_secs_f64() * 1e3;
        assert!((8.0..14.0).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn parallel_batches_cap_wall_time() {
        let mut c = ctx();
        let m = c.model.clone();
        let per = m.get_cost(256);
        // 64 identical GETs with width 32 → 2 waves → 2 × per-item.
        c.parallel(64, |ctx, _| {
            let d = ctx.model.get_cost(256);
            ctx.charge(PrimKind::Get, d);
            Ok(())
        })
        .unwrap();
        let want = per * 2;
        assert_eq!(c.elapsed(), want);
        assert_eq!(c.counts().gets, 64);
    }

    #[test]
    fn nested_parallel_sections_compose() {
        let mut c = ctx();
        c.parallel(2, |ctx, _| {
            ctx.parallel(2, |ctx2, _| {
                ctx2.charge(PrimKind::Head, Duration::from_millis(1));
                Ok(())
            })
        })
        .unwrap();
        assert_eq!(c.counts().heads, 4);
        // 2 inner items fit in one wave → 1 ms per inner section; 2 outer
        // items fit in one wave → 1 ms total.
        assert_eq!(c.elapsed(), Duration::from_millis(1));
    }

    #[test]
    fn parallel_propagates_errors_but_keeps_spend() {
        let mut c = ctx();
        let r = c.parallel(10, |ctx, i| {
            ctx.charge(PrimKind::Get, Duration::from_millis(1));
            if i == 3 {
                Err(H2Error::NotFound("x".into()))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
        assert_eq!(c.counts().gets, 4); // items 0..=3 ran
        assert!(c.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn db_query_cost_grows_logarithmically() {
        let m = CostModel::rack_default();
        let c1k = m.db_query_cost(1_000);
        let c1m = m.db_query_cost(1_000_000);
        assert!(c1m > c1k);
        // log2(1e6)/log2(1e3) ≈ 2 → roughly 2× the variable part.
        let var1k = (c1k - m.db_base).as_nanos() as f64;
        let var1m = (c1m - m.db_base).as_nanos() as f64;
        assert!((var1m / var1k - 2.0).abs() < 0.1);
    }

    #[test]
    fn rtt_model_matches_paper_support_and_mean() {
        let m = RttModel::paper_dropbox();
        assert!((m.mean_ms() - 58.0).abs() < 0.5);
        for i in 0..1000 {
            let u = i as f64 / 1000.0;
            let s = m.sample_ms(u);
            assert!((m.min_ms..=m.max_ms).contains(&s), "sample {s}");
        }
        // Empirical mean of the inverse-CDF over a uniform grid ≈ mean.
        let mean: f64 = (0..10_000)
            .map(|i| m.sample_ms(i as f64 / 10_000.0))
            .sum::<f64>()
            / 10_000.0;
        assert!((mean - 58.0).abs() < 1.0, "empirical mean {mean}");
    }

    #[test]
    fn absorb_is_serial_composition() {
        let mut a = ctx();
        let mut b = ctx();
        a.charge(PrimKind::Get, Duration::from_millis(2));
        b.charge(PrimKind::Put, Duration::from_millis(3));
        a.absorb(&b);
        assert_eq!(a.elapsed(), Duration::from_millis(5));
        assert_eq!(a.counts().puts, 1);
    }

    #[test]
    fn spans_observe_but_never_charge_virtual_time() {
        let mut traced = ctx();
        let mut plain = ctx();
        let body = |c: &mut OpCtx| {
            c.charge(PrimKind::Get, Duration::from_millis(7));
            Ok::<(), H2Error>(())
        };
        traced.begin_trace("op", "READ");
        traced.span("mw", "fetch_ring", body).unwrap();
        traced.span_charge("backoff", "fetch_ring", Duration::from_millis(3));
        plain.span("mw", "fetch_ring", body).unwrap();
        plain.span_charge("backoff", "fetch_ring", Duration::from_millis(3));
        assert_eq!(traced.elapsed(), plain.elapsed());
        assert_eq!(traced.counts(), plain.counts());

        let spans = traced.end_trace(None).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "READ");
        assert_eq!(spans[0].dur, Duration::from_millis(10));
        assert_eq!(spans[1].dur, Duration::from_millis(7));
        assert_eq!(spans[2].stage, "backoff");
        assert_eq!(spans[2].start, Duration::from_millis(7));
        assert_eq!(spans[2].dur, Duration::from_millis(3));
        assert!(traced.end_trace(None).is_none());
        assert!(plain.end_trace(None).is_none());
    }

    #[test]
    fn vnow_is_monotone_inside_parallel_sections() {
        let mut c = ctx();
        c.charge_time(Duration::from_millis(10));
        c.begin_trace("op", "LIST");
        let mut seen = Vec::new();
        c.parallel(3, |ctx, i| {
            ctx.span("cloud", &format!("GET{i}"), |ctx| {
                ctx.charge(PrimKind::Get, Duration::from_millis(2));
                Ok(())
            })?;
            seen.push(ctx.vnow());
            Ok(())
        })
        .unwrap();
        // Items are drawn serialized: 12, 14, 16 ms from a 10 ms base.
        assert_eq!(
            seen,
            vec![
                Duration::from_millis(12),
                Duration::from_millis(14),
                Duration::from_millis(16)
            ]
        );
        let spans = c.end_trace(None).unwrap();
        assert_eq!(spans[1].start, Duration::from_millis(10));
        assert_eq!(spans[2].start, Duration::from_millis(12));
        assert_eq!(spans[3].start, Duration::from_millis(14));
        // Wave packing still applies to the charged total (3 fit one wave).
        assert_eq!(c.elapsed(), Duration::from_millis(12));
    }

    #[test]
    fn span_errors_propagate_and_are_recorded() {
        let mut c = OpCtx::for_test();
        c.begin_trace("op", "READ");
        let r: Result<()> = c.span("mw", "fetch_ring", |_| Err(H2Error::NotFound("f".into())));
        assert!(r.is_err());
        c.span_note("after", || "note lands on root".to_string());
        c.span_instant("replica", "read", || vec![("dev", "3".to_string())]);
        let spans = c.end_trace(r.err().map(|e| e.to_string())).unwrap();
        assert!(spans[1].err.as_deref().unwrap_or("").contains("f"));
        assert_eq!(spans[0].notes[0].0, "after");
        assert_eq!(spans[2].stage, "replica");
        assert!(spans[0].err.is_some());
    }

    #[test]
    fn untraced_span_helpers_are_inert() {
        let mut c = OpCtx::for_test();
        assert!(!c.trace_active());
        let mut ran = false;
        c.span_note("k", || {
            ran = true;
            String::new()
        });
        c.span_instant("replica", "x", || {
            ran = true;
            Vec::new()
        });
        assert!(!ran, "note/instant closures must not run untraced");
        c.span("mw", "fetch_ring", |c| {
            c.charge(PrimKind::Get, Duration::ZERO);
            Ok(())
        })
        .unwrap();
        assert_eq!(c.counts().gets, 1);
    }

    #[test]
    fn zero_model_charges_nothing() {
        let mut c = OpCtx::for_test();
        let m = c.model.clone();
        c.charge(PrimKind::Get, m.get_cost(1 << 20));
        assert_eq!(c.elapsed(), Duration::ZERO);
        assert_eq!(c.counts().gets, 1);
    }
}
