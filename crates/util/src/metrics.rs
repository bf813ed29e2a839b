//! Lightweight metrics: lock-free counters and log-bucketed latency
//! histograms — the "system monitoring" the paper lists among the
//! H2Middleware's modules (§4.2).
//!
//! Histograms bucket durations into log2(microsecond) octaves, each
//! subdivided 8 ways: exact below 8 µs, then ≤12.5% relative error up to
//! ~4 hours in 256 buckets. An earlier pure-log2 layout quantised the
//! whole sub-millisecond range into three representable values (0.51 /
//! 1.02 / 2.05 ms) — useless once cached resolves pushed hot-path
//! latencies under a millisecond, and p99s could legally wobble by a
//! whole bucket (2×) between identical runs.
//! All updates are relaxed atomics: safe to hammer from every thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::{lock_rank, OrderedRwLock};

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave: each octave `[2^o, 2^(o+1))` splits into 8
/// equal-width buckets, bounding relative error at 1/8.
const SUBDIV: u64 = 1 << SUB_BITS;
const BUCKETS: usize = 256;

/// A latency histogram with subdivided-log2(µs) buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    fn bucket_of(d: Duration) -> usize {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        if us < SUBDIV {
            // One bucket per microsecond below the first subdivided octave.
            return us as usize;
        }
        let o = 63 - u64::from(us.leading_zeros()); // octave; o >= SUB_BITS
        let sub = (us - (1 << o)) >> (o - u64::from(SUB_BITS));
        (((o - u64::from(SUB_BITS)) * SUBDIV + SUBDIV + sub) as usize).min(BUCKETS - 1)
    }

    /// Lower bound of a bucket, in microseconds.
    fn bucket_floor_us(i: usize) -> u64 {
        let i = i as u64;
        if i < SUBDIV {
            return i;
        }
        let o = u64::from(SUB_BITS) + (i - SUBDIV) / SUBDIV;
        let sub = (i - SUBDIV) % SUBDIV;
        (1 << o) + (sub << (o - u64::from(SUB_BITS)))
    }

    pub fn record(&self, d: Duration) {
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(
            d.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_us.load(Ordering::Relaxed) / n)
    }

    /// Approximate percentile (bucket lower bound): p in [0, 1].
    pub fn percentile(&self, p: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let target = ((n as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Duration::from_micros(Self::bucket_floor_us(i));
            }
        }
        Duration::from_micros(Self::bucket_floor_us(BUCKETS - 1))
    }

    /// Consistent point-in-time view of the distribution.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }

    /// `count / mean / p50 / p95 / p99` on one line.
    pub fn render(&self) -> String {
        let s = self.summary();
        format!(
            "n={} mean={} p50={} p95={} p99={}",
            s.count,
            crate::fmt::millis(s.mean),
            crate::fmt::millis(s.p50),
            crate::fmt::millis(s.p95),
            crate::fmt::millis(s.p99),
        )
    }
}

/// One histogram's headline numbers, as sampled by [`Histogram::summary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    pub count: u64,
    pub mean: Duration,
    pub p50: Duration,
    pub p95: Duration,
    pub p99: Duration,
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named family of histograms (one per operation kind) plus plain event
/// counters (cache hits, requests saved, …).
#[derive(Debug)]
pub struct MetricsRegistry {
    entries: OrderedRwLock<BTreeMap<String, Arc<Histogram>>>,
    counters: OrderedRwLock<BTreeMap<String, Arc<Counter>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            entries: OrderedRwLock::new(lock_rank::LEAF, "metrics.histograms", BTreeMap::new()),
            counters: OrderedRwLock::new(lock_rank::LEAF, "metrics.counters", BTreeMap::new()),
        }
    }

    /// Get (or create) the histogram for `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.entries.read().get(name) {
            return h.clone();
        }
        self.entries
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Record one observation.
    pub fn record(&self, name: &str, d: Duration) {
        self.histogram(name).record(d);
    }

    /// Get (or create) the counter for `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Current value of a counter (0 if it was never created).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.read().get(name).map_or(0, |c| c.get())
    }

    /// Snapshot of all (name, value) counter pairs, name-sorted.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect()
    }

    /// All entries rendered one per line in a single name-sorted stream
    /// (histograms and counters interleaved), so responses diff stably
    /// across runs and in CI logs.
    pub fn render(&self) -> String {
        let mut lines: Vec<(String, String)> = Vec::new();
        for (name, h) in self.entries.read().iter() {
            lines.push((name.clone(), format!("{name:<16} {}\n", h.render())));
        }
        for (name, c) in self.counters.read().iter() {
            lines.push((name.clone(), format!("{name:<16} {}\n", c.get())));
        }
        lines.sort_by(|a, b| a.0.cmp(&b.0));
        lines.into_iter().map(|(_, l)| l).collect()
    }

    /// Snapshot of (name, count) pairs.
    pub fn counts(&self) -> Vec<(String, u64)> {
        self.entries
            .read()
            .iter()
            .map(|(n, h)| (n.clone(), h.count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_monotone_subdivided_log2() {
        // Exact below 8 µs: one bucket per microsecond.
        for us in 0..8u64 {
            assert_eq!(Histogram::bucket_of(Duration::from_micros(us)), us as usize);
        }
        // Octave starts land on exact floors.
        assert_eq!(Histogram::bucket_of(Duration::from_micros(8)), 8);
        assert_eq!(Histogram::bucket_of(Duration::from_micros(16)), 16);
        assert_eq!(Histogram::bucket_of(Duration::from_micros(1024)), 64);
        // Sub-buckets split each octave 8 ways: 1.5 ms sits 4/8 into the
        // [1024, 2048) µs octave.
        assert_eq!(Histogram::bucket_of(Duration::from_micros(1500)), 67);
        // Very large values clamp into the last bucket.
        assert_eq!(
            Histogram::bucket_of(Duration::from_secs(1 << 40)),
            BUCKETS - 1
        );
        // Monotone, and every floor maps back to its own bucket with
        // bounded (≤ 1/8) relative error.
        for i in 0..BUCKETS {
            let floor = Histogram::bucket_floor_us(i);
            assert_eq!(Histogram::bucket_of(Duration::from_micros(floor)), i);
            if i + 1 < BUCKETS {
                let next = Histogram::bucket_floor_us(i + 1);
                assert!(next > floor, "floors not increasing at {i}");
                assert!(
                    floor < SUBDIV || (next - floor) * SUBDIV <= floor,
                    "bucket {i} wider than 12.5%: [{floor}, {next})"
                );
            }
        }
    }

    #[test]
    fn count_mean_percentiles() {
        let h = Histogram::new();
        for ms in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 1000] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        // Mean = (9×10 + 1000)/10 = 109 ms.
        assert_eq!(h.mean(), Duration::from_millis(109));
        // p50 sits in the 10 ms bucket (floor 8.192 ms).
        let p50 = h.percentile(0.50);
        assert!(
            p50 >= Duration::from_millis(8) && p50 < Duration::from_millis(17),
            "{p50:?}"
        );
        // p99+ lands in the 1 s bucket.
        assert!(h.percentile(0.995) >= Duration::from_millis(500));
        assert_eq!(h.percentile(0.0), h.percentile(0.0001));
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.percentile(0.99), Duration::ZERO);
        assert!(h.render().starts_with("n=0"));
    }

    #[test]
    fn summary_matches_point_queries_and_renders_p95() {
        let h = Histogram::new();
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, h.mean());
        assert_eq!(s.p50, h.percentile(0.50));
        assert_eq!(s.p95, h.percentile(0.95));
        assert_eq!(s.p99, h.percentile(0.99));
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "{s:?}");
        // p95 over 1..100 ms lands in the 64 ms bucket, well above p50.
        assert!(s.p95 >= Duration::from_millis(64), "{:?}", s.p95);
        assert!(h.render().contains("p95="), "{}", h.render());
    }

    #[test]
    fn registry_aggregates_and_renders() {
        let m = MetricsRegistry::new();
        m.record("MKDIR", Duration::from_millis(130));
        m.record("MKDIR", Duration::from_millis(140));
        m.record("READ", Duration::from_millis(10));
        let counts = m.counts();
        assert_eq!(counts.len(), 2);
        assert!(counts.contains(&("MKDIR".to_string(), 2)));
        let out = m.render();
        assert!(out.contains("MKDIR"));
        assert!(out.contains("READ"));
        assert!(out.lines().count() == 2);
    }

    #[test]
    fn counters_accumulate_and_render() {
        let m = MetricsRegistry::new();
        m.counter("cache_hits").add(3);
        m.counter("cache_hits").incr();
        m.counter("cache_misses").incr();
        assert_eq!(m.counter_value("cache_hits"), 4);
        assert_eq!(m.counter_value("cache_misses"), 1);
        assert_eq!(m.counter_value("never_touched"), 0);
        assert_eq!(
            m.counter_values(),
            vec![
                ("cache_hits".to_string(), 4),
                ("cache_misses".to_string(), 1)
            ]
        );
        let out = m.render();
        assert!(out.contains("cache_hits"), "{out}");
        assert!(out.contains("4"), "{out}");
    }

    #[test]
    fn render_is_one_name_sorted_stream() {
        let m = MetricsRegistry::new();
        // Deliberately chosen so a histogram name sorts between two counter
        // names: a blocked (histograms-then-counters) render would not be
        // globally sorted.
        m.record("m_hist", Duration::from_millis(5));
        m.counter("a_counter").incr();
        m.counter("z_counter").incr();
        let out = m.render();
        let names: Vec<&str> = out
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(names, vec!["a_counter", "m_hist", "z_counter"]);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        // Two renders diff identically.
        assert_eq!(out, m.render());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        m.record("op", Duration::from_micros(i));
                    }
                });
            }
        });
        assert_eq!(m.histogram("op").count(), 4000);
    }
}
