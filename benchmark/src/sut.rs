//! The system under test. Every workload runs the same program with the
//! same configuration; only the input varies.

use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2util::NodeId;
use swiftsim::ClusterConfig;

/// Client threads. Fixed: the box has two cores, and a result that depends
/// on threads names their number (see the README).
pub const CLIENTS: usize = 2;

/// Middlewares in the layer. Client `c` talks to middlewares `c` and
/// `c + CLIENTS` only.
pub const MIDDLEWARES: usize = 2 * CLIENTS;

/// ROADMAP's `Tuned` profile: every optimisation on, deferred maintenance,
/// the paper's 8-node 3-replica rack, no faults. This function is the only
/// place in the benchmark that names a configuration knob, so a change to
/// `H2Config` has one call site to keep compiling. `trace_sample` is 0 for
/// the measured run and 1 for the traced one.
pub fn tuned(trace_sample: f64) -> H2Config {
    H2Config {
        middlewares: MIDDLEWARES,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::default(),
        cache_capacity: 1024,
        trace_sample,
        group_commit: true,
        path_cache: true,
        neg_cache: true,
        hedged_reads: true,
        cas: true,
    }
}

/// Name for account `index` of `client` that the layer's own sticky
/// routing sends to middleware `client` or `client + CLIENTS`, alternating
/// by `index`. Clients then share the cluster and the gossip fabric but
/// never a cache or a namespace allocator, which is what makes the
/// modelled numbers repeat exactly with two threads.
pub fn account_name(fs: &H2Cloud, client: usize, index: usize) -> String {
    let want = NodeId((client + CLIENTS * (index % 2) + 1) as u16);
    (0u32..)
        .map(|k| format!("c{client}k{index}-{k}"))
        .find(|name| fs.layer().mw_for_account(name).node() == want)
        .expect("some suffix routes to the wanted middleware")
}
