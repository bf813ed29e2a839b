//! From what a run recorded to named metric values, and their rendering:
//! the result line the driver reads, the table a person reads, and the
//! record file `compare` and `selfcheck` read.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Duration;

use h2cloud::middleware::{
    GETS_SAVED, NEG_CACHE_HITS, PATH_CACHE_HITS, PATH_CACHE_MISSES, RING_CACHE_HITS,
    RING_CACHE_MISSES,
};
use h2util::retry::OP_RETRIES;
use h2util::trace::{STAGE_BACKOFF_MS, STAGE_CONTENT_MS, STAGE_QUORUM_MS, STAGE_RING_MS};

use crate::model::Kind;
use crate::names::{self, Def};
use crate::probes::Spread;
use crate::run::{Client, Fail, Run};
use crate::sut::CLIENTS;
use crate::workloads::SLICE_OPS;

// Counters the facade folds in from the cluster under literal names.
const HEDGED_READS: &str = "hedged_reads";
const HANDOFF_SCANS_SKIPPED: &str = "handoff_scans_skipped";
const CAS_BLOCKS_WRITTEN: &str = "cas_blocks_written";
const CAS_BLOCKS_SHARED: &str = "cas_blocks_shared";

pub type Values = Vec<(String, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn total<T>(clients: &[Client], f: impl Fn(&Client) -> T) -> T
where
    T: std::iter::Sum<T>,
{
    clients.iter().map(f).sum()
}

/// Operations inside the window.
pub fn window_ops(run: &Run) -> u64 {
    total(&run.clients, |c| c.tally.ops)
}

/// Operations and checks attempted, and how many of them failed.
pub fn attempted_failed(run: &Run) -> (u64, u64) {
    (
        window_ops(run) + run.verdict.attempted,
        total(&run.clients, |c| c.tally.failed) + run.verdict.failed,
    )
}

/// The first failure of the run, if any, for the person reading stderr.
pub fn first_failure(run: &Run) -> Option<&str> {
    run.clients
        .iter()
        .find_map(|c| c.tally.first_failure.as_deref())
        .or(run.verdict.first_failure.as_deref())
}

/// Throughput of one typical pass over the accounts. Rounds visit the
/// accounts in turn; for each account take the median wall time (replay
/// plus maintenance) of its rounds, and divide the operations of one pass
/// by the sum. A round that lost a scheduler tick to something else on the
/// box does not move its account's median, and an account that is slower
/// than the others — a flat directory, say — still counts in full.
fn ops_per_s(rounds: &[(u64, u64)], accounts: usize) -> f64 {
    let (mut ops, mut ns) = (0.0, 0.0);
    for account in 0..accounts.min(rounds.len()) {
        let mut visits: Vec<u64> = rounds
            .iter()
            .skip(account)
            .step_by(accounts)
            .map(|r| r.0 + r.1)
            .collect();
        visits.sort_unstable();
        let mid = visits.len() / 2;
        ns += if visits.len() % 2 == 1 {
            visits[mid] as f64
        } else {
            (visits[mid - 1] + visits[mid]) as f64 / 2.0
        };
        ops += (CLIENTS * SLICE_OPS) as f64;
    }
    ratio(ops * 1e9, ns)
}

/// Exact 99th percentile of every operation's modelled time, in ms: the
/// sorted per-operation values, no buckets.
fn vlat_p99_ms(clients: &[Client]) -> f64 {
    let mut all: Vec<u32> = clients
        .iter()
        .flat_map(|c| c.tally.vus.iter().copied())
        .collect();
    if all.is_empty() {
        return 0.0;
    }
    let rank = (all.len() * 99).div_ceil(100) - 1;
    let (_, p99, _) = all.select_nth_unstable(rank);
    f64::from(*p99) / 1e3
}

/// The end-to-end metrics of a measured run. `setups` holds every set-up
/// the process made; the median is reported.
pub fn end_to_end(run: &Run, setups: &[Duration], accounts: usize) -> Values {
    let ops = window_ops(run) as f64;
    let (attempted, failed) = attempted_failed(run);
    let vns = total(&run.clients, |c| c.tally.vns) as f64;
    let reqs = total(&run.clients, |c| c.tally.counts.total()) + run.window.maintenance.reqs;
    let mut setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    setup.sort_by(f64::total_cmp);
    vec![
        (
            names::OPS_PER_S.into(),
            ops_per_s(&run.window.rounds, accounts),
        ),
        (names::VLAT_MS_MEAN.into(), ratio(vns / 1e6, ops)),
        (names::REQS_PER_OP.into(), ratio(reqs as f64, ops)),
        (
            names::MAINT_VMS_PER_OP.into(),
            ratio(run.window.maintenance.virtual_time.as_secs_f64() * 1e3, ops),
        ),
        (
            names::STORED_BYTES_PER_LIVE_BYTE.into(),
            run.window.stored_bytes_per_live_byte,
        ),
        (
            names::STORED_OBJECTS_PER_ENTRY.into(),
            run.window.stored_objects_per_entry,
        ),
        (
            names::OK_OP_SHARE.into(),
            1.0 - ratio(failed as f64, attempted as f64),
        ),
        (names::SETUP_S.into(), setup[setup.len() / 2]),
        (
            names::PEAK_RSS_MB.into(),
            run.window.peak_rss_kb as f64 / 1024.0,
        ),
    ]
}

/// The `op=metrics` text, parsed: counters by name, and for each histogram
/// its total (count × mean) in milliseconds.
#[derive(Debug, Default)]
struct Snapshot {
    counters: HashMap<String, f64>,
    totals_ms: HashMap<String, f64>,
}

impl Snapshot {
    fn parse(text: &str) -> Snapshot {
        let mut snap = Snapshot::default();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            let (Some(name), Some(first)) = (words.next(), words.next()) else {
                continue;
            };
            if let Ok(v) = first.parse::<f64>() {
                snap.counters.insert(name.to_string(), v);
            } else if let (Some(n), Some(mean), Some(unit)) = (
                first.strip_prefix("n=").and_then(|n| n.parse::<f64>().ok()),
                words
                    .next()
                    .and_then(|w| w.strip_prefix("mean=")?.parse::<f64>().ok()),
                words.next(),
            ) {
                let ms = if unit == "s" { mean * 1e3 } else { mean };
                snap.totals_ms.insert(name.to_string(), n * ms);
            }
        }
        snap
    }
}

/// Growth of counters and histogram totals across the window.
struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    fn count(&self, name: &str) -> f64 {
        let at = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0.0);
        at(&self.after) - at(&self.before)
    }

    fn total_ms(&self, name: &str) -> f64 {
        let at = |s: &Snapshot| s.totals_ms.get(name).copied().unwrap_or(0.0);
        (at(&self.after) - at(&self.before)).max(0.0)
    }
}

fn percentile(sorted: &[u32], p: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => f64::from(sorted[((n * p).div_ceil(100)).clamp(1, n) - 1]),
    }
}

/// The per-layer metrics of a traced run. `untraced_ns_per_op` is the
/// replay time per operation of the same rounds with every tracer off;
/// `probes` are the layer probes' results; `replicas` is the cluster's
/// replica count.
pub fn per_layer(
    run: &Run,
    untraced_ns_per_op: f64,
    probes: &[(&'static str, Spread)],
    replicas: usize,
) -> Values {
    let mut out: Values = probes
        .iter()
        .map(|(name, s)| (name.to_string(), s.median))
        .collect();
    let probe = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s.median)
    };
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    let clients = &run.clients;
    let win = &run.window;
    let ops = window_ops(run) as f64;
    let delta = Delta {
        before: Snapshot::parse(&win.metrics_before),
        after: Snapshot::parse(&win.metrics_after),
    };
    let share = |hits: &str, misses: &str| {
        let h = delta.count(hits);
        ratio(h, h + delta.count(misses))
    };

    put(
        names::MW_PATH_CACHE_HIT_RATIO,
        share(PATH_CACHE_HITS, PATH_CACHE_MISSES),
    );
    put(
        names::MW_RING_CACHE_HIT_RATIO,
        share(RING_CACHE_HITS, RING_CACHE_MISSES),
    );
    for (name, counter) in [
        (names::MW_NEG_CACHE_HITS_PER_OP, NEG_CACHE_HITS),
        (names::MW_GETS_SAVED_PER_OP, GETS_SAVED),
        (names::MW_OP_RETRIES_PER_OP, OP_RETRIES),
        (names::CLUSTER_HEDGED_READS_PER_OP, HEDGED_READS),
        (names::CLUSTER_HANDOFF_SKIPS_PER_OP, HANDOFF_SCANS_SKIPPED),
    ] {
        put(name, ratio(delta.count(counter), ops));
    }
    let writes = total(clients, |c| c.tally.content_writes()) as f64;
    let (written, shared) = (
        delta.count(CAS_BLOCKS_WRITTEN),
        delta.count(CAS_BLOCKS_SHARED),
    );
    put(names::CAS_BLOCKS_WRITTEN_PER_WRITE, ratio(written, writes));
    put(names::CAS_BLOCKS_SHARED_PER_WRITE, ratio(shared, writes));
    put(names::CAS_DEDUP_RATIO, ratio(shared, written + shared));

    let stages = [
        (names::STAGE_RING_SHARE, STAGE_RING_MS),
        (names::STAGE_CONTENT_SHARE, STAGE_CONTENT_MS),
        (names::STAGE_QUORUM_SHARE, STAGE_QUORUM_MS),
        (names::STAGE_BACKOFF_SHARE, STAGE_BACKOFF_MS),
    ];
    let staged: f64 = stages.iter().map(|(_, h)| delta.total_ms(h)).sum();
    for (name, hist) in stages {
        put(name, ratio(delta.total_ms(hist), staged));
    }

    let m = &win.maintenance;
    let wall = (win.replay_ns() + m.wall_ns()) as f64;
    let mutations = total(clients, |c| c.tally.mutations()) as f64;
    put(
        names::LAYER_MAINT_CPU_SHARE,
        ratio(m.wall_ns() as f64, wall),
    );
    put(names::GC_CPU_SHARE, ratio(m.gc_ns as f64, wall));
    put(
        names::LAYER_GOSSIP_DELIVERIES_PER_MUTATION,
        ratio(m.deliveries as f64, mutations),
    );
    put(
        names::LAYER_MAINT_REQS_PER_MUTATION,
        ratio(m.reqs as f64, mutations),
    );
    put(
        names::LAYER_MAINT_VMS_PER_MUTATION,
        ratio(m.virtual_time.as_secs_f64() * 1e3, mutations),
    );
    let passes = m.gc_passes as f64;
    put(
        names::GC_OBJECTS_DELETED_PER_PASS,
        ratio(m.gc_objects_deleted as f64, passes),
    );
    put(
        names::GC_TUPLES_COMPACTED_PER_PASS,
        ratio(m.gc_tuples_compacted as f64, passes),
    );

    // Per kind: median wall time, mean modelled time, mean requests. A
    // kind the workload's mix leaves out reads 0.
    let mut all_wall: Vec<u32> = Vec::new();
    for kind in Kind::ALL {
        let k = kind as usize;
        let mut wall: Vec<u32> = clients
            .iter()
            .flat_map(|c| &c.tally.op_spans)
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns)
            .collect();
        wall.sort_unstable();
        let n = total(clients, |c| c.tally.by_kind[k].ops) as f64;
        put(&names::fs_cpu_us(kind), percentile(&wall, 50) / 1e3);
        put(
            &names::fs_vms(kind),
            ratio(total(clients, |c| c.tally.by_kind[k].vns) as f64 / 1e6, n),
        );
        put(
            &names::fs_reqs(kind),
            ratio(total(clients, |c| c.tally.by_kind[k].reqs) as f64, n),
        );
        all_wall.extend(wall);
    }
    all_wall.sort_unstable();
    put(names::FS_ALL_CPU_US_P50, percentile(&all_wall, 50) / 1e3);
    put(names::FS_ALL_CPU_US_P99, percentile(&all_wall, 99) / 1e3);
    put(names::FS_ALL_VMS_P99, vlat_p99_ms(clients));

    put(
        names::PROC_ALLOCS_PER_OP,
        ratio(total(clients, |c| c.tally.allocs) as f64, ops),
    );
    put(
        names::PROC_ALLOC_BYTES_PER_OP,
        ratio(total(clients, |c| c.tally.alloc_bytes) as f64, ops),
    );
    put(
        names::PROC_BUF_DEEP_COPIES_PER_OP,
        ratio(
            (win.buf_after.deep_copies - win.buf_before.deep_copies) as f64,
            ops,
        ),
    );
    put(
        names::PROC_BUF_SHALLOW_CLONES_PER_OP,
        ratio(
            (win.buf_after.shallow_clones - win.buf_before.shallow_clones) as f64,
            ops,
        ),
    );

    // Attribution by subtraction from outside: what the probes say the
    // store calls of the traced operations cost, against what the
    // operations cost; and what the node, ring and hash calls under one
    // cluster PUT and GET cost, against the cluster calls. The residual is
    // the share spent above that layer.
    let prims =
        |f: fn(&h2util::BackendCounts) -> u64| total(clients, |c| f(&c.tally.counts)) as f64;
    let (get_ns, put_ns) = (probe(names::CLUSTER_GET_NS), probe(names::CLUSTER_PUT_NS));
    let store_ns = prims(|c| c.gets) * get_ns
        + prims(|c| c.puts) * put_ns
        + prims(|c| c.heads) * probe(names::CLUSTER_HEAD_NS)
        + prims(|c| c.deletes) * probe(names::CLUSTER_DELETE_NS)
        + prims(|c| c.copies) * (get_ns + put_ns);
    let op_ns: f64 = all_wall.iter().map(|ns| f64::from(*ns)).sum();
    put(
        names::ATTR_FS_ABOVE_STORE_SHARE,
        1.0 - ratio(store_ns, op_ns),
    );
    let below = replicas as f64 * (probe(names::NODE_PUT_NS) + probe(names::NODE_PROBE_NS))
        + 2.0 * (probe(names::RING_LOOKUP_NS) + probe(names::HASH_KEY_NS));
    put(
        names::ATTR_CLUSTER_ABOVE_NODE_SHARE,
        1.0 - ratio(below, put_ns + get_ns),
    );
    put(
        names::TRACE_OVERHEAD_SHARE,
        ratio(win.replay_ns() as f64 / ops, untraced_ns_per_op) - 1.0,
    );
    out
}

/// Pair `values` with `defs`, in `defs`' order; a metric missing on either
/// side is a bug in this crate.
fn aligned<'a>(defs: &'a [Def], values: &Values) -> Result<Vec<(&'a Def, f64)>, Fail> {
    if values.len() != defs.len() {
        return Err(format!("{} values for {} metrics", values.len(), defs.len()).into());
    }
    defs.iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .ok_or_else(|| format!("metric {} was not computed", d.name))?
                .1;
            Ok((d, if v.is_finite() { v } else { 0.0 }))
        })
        .collect()
}

/// The single-line JSON object the driver reads.
pub fn result_line(
    defs: &[Def],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<String, Fail> {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (d, v)) in aligned(defs, values)?.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// One line per metric for a person: name, value, unit, and for a probe
/// the spread over its batches.
pub fn table(
    defs: &[Def],
    values: &Values,
    probes: &[(&'static str, Spread)],
) -> Result<String, Fail> {
    let mut out = String::new();
    for (d, v) in aligned(defs, values)? {
        let _ = write!(out, "  {:<40} {v:>16.4} {}", d.name, d.unit);
        if let Some((_, s)) = probes.iter().find(|(n, _)| *n == d.name) {
            let _ = write!(out, "   (min {:.4}, max {:.4})", s.min, s.max);
        }
        out.push('\n');
    }
    Ok(out)
}

/// Tab-separated records, one per metric: what `compare` and `selfcheck`
/// read back.
pub fn records(defs: &[Def], values: &Values, workload: &str, seed: u64) -> Result<String, Fail> {
    let mut out = String::new();
    for (d, v) in aligned(defs, values)? {
        let _ = writeln!(out, "{workload}\t{seed}\t{}\t{v}\t{}", d.name, d.unit);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_text_parses_counters_and_histogram_totals() {
        let text = "READ             n=4 mean=12.5 ms p50=12.0 ms p95=13.0 ms p99=13.0 ms\n\
                    path_cache_hits  42\n\
                    stage_ring_ms    n=10 mean=1.50 s p50=1.00 s p95=2.00 s p99=2.00 s\n";
        let s = Snapshot::parse(text);
        assert_eq!(s.counters["path_cache_hits"], 42.0);
        assert_eq!(s.totals_ms["READ"], 50.0);
        assert_eq!(s.totals_ms["stage_ring_ms"], 15_000.0);
    }

    #[test]
    fn throughput_sums_each_accounts_median_round() {
        // Two accounts, visited in turn: the first takes 1 ms a round, the
        // second 3 ms. One stalled round of each does not move the result;
        // the slower account counts in full.
        let mut rounds: Vec<(u64, u64)> = (0..10)
            .map(|r| {
                if r % 2 == 0 {
                    (900_000, 100_000)
                } else {
                    (3_000_000, 0)
                }
            })
            .collect();
        rounds[4].0 += 4_000_000;
        rounds[7].0 += 4_000_000;
        let pass = (2 * CLIENTS * SLICE_OPS) as f64;
        assert_eq!(ops_per_s(&rounds, 2), pass * 1e9 / 4e6);
        // Fewer rounds than accounts: only the visited ones count.
        assert_eq!(ops_per_s(&rounds[..1], 2), pass / 2.0 * 1e9 / 1e6);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let defs = names::end_to_end();
        let values: Values = defs.iter().map(|d| (d.name.clone(), 1.5)).collect();
        let line = result_line(&defs, &values, 10, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        assert!(result_line(&defs, &values[1..].to_vec(), 10, 0).is_err());
    }
}
