//! Every metric the benchmark reports: name, unit, direction and — for
//! the end-to-end ones — the bound by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json` is generated from these tables
//! (`h2perf manifest`), so the two cannot drift.

use crate::model::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median; end-to-end metrics only.
    pub bound: Option<f64>,
}

// ----- end to end ------------------------------------------------------------

pub const OPS_PER_S: &str = "ops_per_s";
pub const VLAT_MS_MEAN: &str = "vlat_ms_mean";
pub const REQS_PER_OP: &str = "reqs_per_op";
pub const MAINT_VMS_PER_OP: &str = "maint_vms_per_op";
pub const STORED_BYTES_PER_LIVE_BYTE: &str = "stored_bytes_per_live_byte";
pub const STORED_OBJECTS_PER_ENTRY: &str = "stored_objects_per_entry";
pub const OK_OP_SHARE: &str = "ok_op_share";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

const END_TO_END: [(&str, &str, Better, f64); 9] = [
    (OPS_PER_S, "ops/s", Better::Higher, 0.15),
    (VLAT_MS_MEAN, "ms", Better::Lower, 0.03),
    (REQS_PER_OP, "count", Better::Lower, 0.05),
    (MAINT_VMS_PER_OP, "ms", Better::Lower, 0.08),
    (STORED_BYTES_PER_LIVE_BYTE, "ratio", Better::Lower, 0.10),
    (STORED_OBJECTS_PER_ENTRY, "ratio", Better::Lower, 0.10),
    (OK_OP_SHARE, "ratio", Better::Higher, 0.001),
    (SETUP_S, "s", Better::Lower, 0.25),
    (PEAK_RSS_MB, "MiB", Better::Lower, 0.15),
];

pub fn end_to_end() -> Vec<Def> {
    END_TO_END
        .iter()
        .map(|&(name, unit, better, bound)| Def {
            name: name.to_string(),
            unit,
            better,
            bound: Some(bound),
        })
        .collect()
}

// ----- per layer -------------------------------------------------------------

pub const HASH_KEY_NS: &str = "hash.key_ns";
pub const HASH_BLOCK_MB_S: &str = "hash.block_mb_s";
pub const CHUNKER_BYTES_MB_S: &str = "chunker.bytes_mb_s";
pub const CHUNKER_SIM_NS_PER_CHUNK: &str = "chunker.sim_ns_per_chunk";
pub const RING_LOOKUP_NS: &str = "ring.lookup_ns";
pub const NAMERING_PARSE_SMALL_NS: &str = "namering.parse_small_ns";
pub const NAMERING_PARSE_NS_PER_ENTRY: &str = "namering.parse_ns_per_entry";
pub const NAMERING_FORMAT_NS_PER_ENTRY: &str = "namering.format_ns_per_entry";
pub const NAMERING_MERGE_NS_PER_ENTRY: &str = "namering.merge_ns_per_entry";
pub const NODE_PUT_NS: &str = "node.put_ns";
pub const NODE_GET_NS: &str = "node.get_ns";
pub const NODE_PROBE_NS: &str = "node.probe_ns";
pub const CLUSTER_PUT_NS: &str = "cluster.put_ns";
pub const CLUSTER_GET_NS: &str = "cluster.get_ns";
pub const CLUSTER_HEAD_NS: &str = "cluster.head_ns";
pub const CLUSTER_DELETE_NS: &str = "cluster.delete_ns";
pub const CLUSTER_HEDGED_READS_PER_OP: &str = "cluster.hedged_reads_per_op";
pub const CLUSTER_HANDOFF_SKIPS_PER_OP: &str = "cluster.handoff_skips_per_op";
pub const MW_PATH_CACHE_HIT_RATIO: &str = "middleware.path_cache_hit_ratio";
pub const MW_NEG_CACHE_HITS_PER_OP: &str = "middleware.neg_cache_hits_per_op";
pub const MW_RING_CACHE_HIT_RATIO: &str = "middleware.ring_cache_hit_ratio";
pub const MW_GETS_SAVED_PER_OP: &str = "middleware.gets_saved_per_op";
pub const MW_OP_RETRIES_PER_OP: &str = "middleware.op_retries_per_op";
pub const MW_READ_RING_WARM_NS: &str = "middleware.read_ring_warm_ns";
pub const MW_READ_RING_COLD_NS: &str = "middleware.read_ring_cold_ns";
pub const MW_SUBMIT_PATCH_NS: &str = "middleware.submit_patch_ns";
pub const MW_MERGE_US_PER_PATCH: &str = "middleware.merge_us_per_patch";
pub const MW_GOSSIP_APPLY_US_PER_MSG: &str = "middleware.gossip_apply_us_per_msg";
pub const LAYER_MAINT_CPU_SHARE: &str = "layer.maint_cpu_share";
pub const LAYER_GOSSIP_DELIVERIES_PER_MUTATION: &str = "layer.gossip_deliveries_per_mutation";
pub const LAYER_MAINT_REQS_PER_MUTATION: &str = "layer.maint_reqs_per_mutation";
pub const LAYER_MAINT_VMS_PER_MUTATION: &str = "layer.maint_vms_per_mutation";
pub const GC_CPU_SHARE: &str = "gc.cpu_share";
pub const GC_OBJECTS_DELETED_PER_PASS: &str = "gc.objects_deleted_per_pass";
pub const GC_TUPLES_COMPACTED_PER_PASS: &str = "gc.tuples_compacted_per_pass";
pub const CAS_BLOCKS_WRITTEN_PER_WRITE: &str = "cas.blocks_written_per_write";
pub const CAS_BLOCKS_SHARED_PER_WRITE: &str = "cas.blocks_shared_per_write";
pub const CAS_DEDUP_RATIO: &str = "cas.dedup_ratio";
pub const FS_ALL_CPU_US_P50: &str = "fs.all.cpu_us_p50";
pub const FS_ALL_CPU_US_P99: &str = "fs.all.cpu_us_p99";
pub const FS_ALL_VMS_P99: &str = "fs.all.vms_p99";
pub const STAGE_RING_SHARE: &str = "stage.ring_share";
pub const STAGE_CONTENT_SHARE: &str = "stage.content_share";
pub const STAGE_QUORUM_SHARE: &str = "stage.quorum_share";
pub const STAGE_BACKOFF_SHARE: &str = "stage.backoff_share";
pub const PROC_ALLOCS_PER_OP: &str = "proc.allocs_per_op";
pub const PROC_ALLOC_BYTES_PER_OP: &str = "proc.alloc_bytes_per_op";
pub const PROC_BUF_DEEP_COPIES_PER_OP: &str = "proc.buf_deep_copies_per_op";
pub const PROC_BUF_SHALLOW_CLONES_PER_OP: &str = "proc.buf_shallow_clones_per_op";
pub const ATTR_FS_ABOVE_STORE_SHARE: &str = "attr.fs_above_store_share";
pub const ATTR_CLUSTER_ABOVE_NODE_SHARE: &str = "attr.cluster_above_node_share";
pub const TRACE_OVERHEAD_SHARE: &str = "trace.overhead_share";

use Better::{Higher, Lower};

const PER_LAYER: [(&str, &str, Better); 52] = [
    (HASH_KEY_NS, "ns", Lower),
    (HASH_BLOCK_MB_S, "MB/s", Higher),
    (CHUNKER_BYTES_MB_S, "MB/s", Higher),
    (CHUNKER_SIM_NS_PER_CHUNK, "ns", Lower),
    (RING_LOOKUP_NS, "ns", Lower),
    (NAMERING_PARSE_SMALL_NS, "ns", Lower),
    (NAMERING_PARSE_NS_PER_ENTRY, "ns", Lower),
    (NAMERING_FORMAT_NS_PER_ENTRY, "ns", Lower),
    (NAMERING_MERGE_NS_PER_ENTRY, "ns", Lower),
    (NODE_PUT_NS, "ns", Lower),
    (NODE_GET_NS, "ns", Lower),
    (NODE_PROBE_NS, "ns", Lower),
    (CLUSTER_PUT_NS, "ns", Lower),
    (CLUSTER_GET_NS, "ns", Lower),
    (CLUSTER_HEAD_NS, "ns", Lower),
    (CLUSTER_DELETE_NS, "ns", Lower),
    (CLUSTER_HEDGED_READS_PER_OP, "count", Lower),
    (CLUSTER_HANDOFF_SKIPS_PER_OP, "count", Higher),
    (MW_PATH_CACHE_HIT_RATIO, "ratio", Higher),
    (MW_NEG_CACHE_HITS_PER_OP, "count", Higher),
    (MW_RING_CACHE_HIT_RATIO, "ratio", Higher),
    (MW_GETS_SAVED_PER_OP, "count", Higher),
    (MW_OP_RETRIES_PER_OP, "count", Lower),
    (MW_READ_RING_WARM_NS, "ns", Lower),
    (MW_READ_RING_COLD_NS, "ns", Lower),
    (MW_SUBMIT_PATCH_NS, "ns", Lower),
    (MW_MERGE_US_PER_PATCH, "us", Lower),
    (MW_GOSSIP_APPLY_US_PER_MSG, "us", Lower),
    (LAYER_MAINT_CPU_SHARE, "ratio", Lower),
    (LAYER_GOSSIP_DELIVERIES_PER_MUTATION, "count", Lower),
    (LAYER_MAINT_REQS_PER_MUTATION, "count", Lower),
    (LAYER_MAINT_VMS_PER_MUTATION, "ms", Lower),
    (GC_CPU_SHARE, "ratio", Lower),
    (GC_OBJECTS_DELETED_PER_PASS, "count", Higher),
    (GC_TUPLES_COMPACTED_PER_PASS, "count", Higher),
    (CAS_BLOCKS_WRITTEN_PER_WRITE, "count", Lower),
    (CAS_BLOCKS_SHARED_PER_WRITE, "count", Higher),
    (CAS_DEDUP_RATIO, "ratio", Higher),
    (FS_ALL_CPU_US_P50, "us", Lower),
    (FS_ALL_CPU_US_P99, "us", Lower),
    (FS_ALL_VMS_P99, "ms", Lower),
    (STAGE_RING_SHARE, "ratio", Lower),
    (STAGE_CONTENT_SHARE, "ratio", Lower),
    (STAGE_QUORUM_SHARE, "ratio", Lower),
    (STAGE_BACKOFF_SHARE, "ratio", Lower),
    (PROC_ALLOCS_PER_OP, "count", Lower),
    (PROC_ALLOC_BYTES_PER_OP, "count", Lower),
    (PROC_BUF_DEEP_COPIES_PER_OP, "count", Lower),
    (PROC_BUF_SHALLOW_CLONES_PER_OP, "count", Lower),
    (ATTR_FS_ABOVE_STORE_SHARE, "ratio", Lower),
    (ATTR_CLUSTER_ABOVE_NODE_SHARE, "ratio", Lower),
    (TRACE_OVERHEAD_SHARE, "ratio", Lower),
];

/// `fs.<kind>.cpu_us`: median wall time of one operation of that kind.
pub fn fs_cpu_us(kind: Kind) -> String {
    format!("fs.{}.cpu_us", kind.label())
}

/// `fs.<kind>.vms`: mean modelled time of one operation of that kind.
pub fn fs_vms(kind: Kind) -> String {
    format!("fs.{}.vms", kind.label())
}

/// `fs.<kind>.reqs`: mean backend requests of one operation of that kind.
pub fn fs_reqs(kind: Kind) -> String {
    format!("fs.{}.reqs", kind.label())
}

pub fn per_layer() -> Vec<Def> {
    let def = |name: String, unit, better| Def {
        name,
        unit,
        better,
        bound: None,
    };
    let mut defs: Vec<Def> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| def(name.to_string(), unit, better))
        .collect();
    for kind in Kind::ALL {
        defs.push(def(fs_cpu_us(kind), "us", Lower));
        defs.push(def(fs_vms(kind), "ms", Lower));
        defs.push(def(fs_reqs(kind), "count", Lower));
    }
    defs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let defs: Vec<Def> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128);
        let mut seen = std::collections::HashSet::new();
        for d in &defs {
            assert!(seen.insert(d.name.clone()), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.bound.is_none_or(|b| (0.0..=0.25).contains(&b)));
        }
    }
}
