//! Shared utilities for the H2Cloud reproduction.
//!
//! This crate hosts the foundational pieces every other crate builds on:
//!
//! * [`error`] — the common [`error::H2Error`] type.
//! * [`hash`] — deterministic 64/128-bit hashing (XXH64) used for ring
//!   placement and content addressing.
//! * [`clock`] — hybrid logical timestamps (Unix millis + logical counter +
//!   node id) that order concurrent NameRing updates deterministically.
//! * [`id`] — namespace UUIDs in the paper's `seq.node.timestamp` form.
//! * [`cost`] — the virtual-time cost model ([`cost::CostModel`],
//!   [`cost::OpCtx`]) that replaces the paper's rack-scale wall-clock
//!   measurements with calibrated, deterministic latency accounting.
//! * [`lockorder`] — rank-carrying [`lockorder::OrderedMutex`] /
//!   [`lockorder::OrderedRwLock`] newtypes, the workspace's one lock type,
//!   that validate the [`lock_rank`] hierarchy at runtime (debug builds /
//!   `lock-order-validation` feature) and recover from poisoning instead
//!   of unwrapping.
//! * [`faults`] — deterministic request-level fault injection
//!   ([`faults::FaultPlan`] / [`faults::FaultInjector`]) for the chaos
//!   harness.
//! * [`retry`] — capped-exponential-backoff [`retry::RetryPolicy`] with
//!   deterministic jitter, charging virtual time on the client path and
//!   sleeping through the clock facade on background threads.
//! * [`trace`] — deterministic span tracing ([`trace::TraceCollector`],
//!   chrome-trace export) with per-stage latency breakdown, timed by the
//!   virtual clock in [`cost::OpCtx`].
//! * [`chunker`] — FastCDC-style content-defined chunking for the CAS
//!   content plane (real-byte gear cutter + digest-seeded simulated
//!   schedule).
//! * [`lru`] — a bounded LRU map backing the middleware's NameRing cache.
//! * [`buf`] — reference-counted [`buf::SharedBuf`] payload buffers with
//!   process-wide shallow/deep copy accounting for the content path.
//! * [`rng`] — seeded random-number helpers and the distributions used by the
//!   workload generator.
//! * [`fmt`] — small formatting helpers (byte sizes, durations).

pub mod buf;
pub mod chunker;
pub mod clock;
pub mod cost;
pub mod error;
pub mod faults;
pub mod fmt;
pub mod hash;
pub mod id;
pub mod lockorder;
pub mod lru;
pub mod metrics;
pub mod retry;
pub mod rng;
pub mod trace;

pub use buf::SharedBuf;
pub use clock::{HybridClock, Timestamp};
pub use cost::{BackendCounts, CostModel, OpCtx, PrimKind, RttModel};
pub use error::{H2Error, Result};
pub use faults::{FaultDecision, FaultInjector, FaultPlan, FaultSpec, FaultStats, OpClass};
pub use hash::{hash128, hash64, Digest128, WordBuild};
pub use id::{NamespaceId, NodeId};
pub use lockorder::{OrderedMutex, OrderedRwLock};
pub use lru::LruCache;
pub use retry::RetryPolicy;
pub use trace::{RootTrace, Span, TraceCollector};

/// The workspace lock hierarchy, outermost first: the one rank table. Every
/// [`OrderedMutex`]/[`OrderedRwLock`] is built with one of these ranks, and
/// both the runtime validator ([`lockorder`]) and h2lint (which infers its
/// copy from the construction sites) check that a thread only acquires
/// ranks above every rank it holds. DESIGN.md "Concurrency model" lists
/// the locks of each tier; the gaps leave room for new ones.
pub mod lock_rank {
    /// `Cluster::topology_ops`, held across a whole migration.
    pub const TOPOLOGY_OPS: u16 = 10;
    /// A ring's merge gate, held across a merge cycle's cloud requests.
    pub const MERGE_GATE: u16 = 20;
    /// A baseline filesystem's own state, held across one op's requests.
    pub const BASELINE_STATE: u16 = 30;
    /// Per-key write stripe (`Cluster::op_locks`); never two at once.
    pub const OP_STRIPE: u16 = 100;
    /// A storage node's replica-map stripe (`StorageNode::stripes`).
    pub const NODE_STRIPE: u16 = 200;
    /// Proxy map shards (`Cluster::{containers,catalog}`).
    pub const MAP_SHARD: u16 = 300;
    /// CAS block refcount shards (`Cluster::cas_ref`).
    pub const CAS_REFCOUNT: u16 = 400;
    /// The middleware's ring-cache and path-cache stripes.
    pub const CACHE_STRIPE: u16 = 800;
    /// Taken last and never held while taking another lock.
    pub const LEAF: u16 = 900;
}
