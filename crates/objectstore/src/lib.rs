//! `swiftsim` — an OpenStack-Swift-like object storage cloud, simulated.
//!
//! The paper deploys H2Cloud on a 9-server OpenStack Swift rack: one proxy
//! node and eight storage nodes keeping three replicas of every object
//! (§5.1). This crate reproduces that substrate in-process:
//!
//! * [`object`] — accounts, containers, object keys and payloads.
//! * [`key`] — ring keys that carry their placement hash, and the maps
//!   keyed by them.
//! * [`node`] — a storage node: one in-memory device holding replicas.
//! * [`container`] — the per-container sorted listing DB, i.e. exactly the
//!   "file-path DB (with SQLite or MySQL)" that OpenStack Swift bolts onto
//!   Consistent Hash to speed up LIST and COPY (§2, Figure 3). Containers
//!   can be created *without* an index, which is how H2Cloud runs — no DB.
//! * [`cluster`] — the proxy: ring placement, quorum writes, replica/handoff
//!   reads, server-side COPY, failure injection and replica repair.
//!
//! Every primitive charges calibrated virtual latency to the caller's
//! [`h2util::OpCtx`] and bumps the corresponding [`h2util::PrimKind`]
//! counter; the filesystem layers above never talk to storage except
//! through [`ObjectStore`].

pub mod cluster;
pub mod container;
pub mod key;
pub mod node;
pub mod object;

pub use cluster::{Cluster, ClusterConfig};
pub use container::{ContainerIndex, IndexRecord, ListEntry, ListOptions};
pub use h2ring::DeviceId;
pub use node::{ReplicaProbe, StorageNode};
pub use object::{Meta, Object, ObjectInfo, ObjectKey, Payload};

use h2util::{OpCtx, Result};

/// The flat object-cloud interface: the PUT/GET/DELETE (+HEAD/COPY/LIST)
/// primitives the paper's designs are allowed to use.
pub trait ObjectStore: Send + Sync {
    /// Store `payload` (with user metadata) under `key`, replacing any
    /// previous version.
    fn put(&self, ctx: &mut OpCtx, key: &ObjectKey, payload: Payload, meta: Meta) -> Result<()>;

    /// Fetch the object at `key`.
    fn get(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<Object>;

    /// Fetch metadata only.
    fn head(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<ObjectInfo>;

    /// Remove the object at `key`. Removing a missing object is NotFound.
    fn delete(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<()>;

    /// Server-side copy (Swift `X-Copy-From`): duplicates payload+meta.
    fn copy(&self, ctx: &mut OpCtx, src: &ObjectKey, dst: &ObjectKey) -> Result<()>;

    /// Page through a container's sorted listing. Errors for containers
    /// created without an index.
    fn list(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        container: &str,
        opts: &ListOptions,
    ) -> Result<Vec<ListEntry>>;

    /// Does the object exist? (HEAD that maps NotFound to `false`.)
    fn exists(&self, ctx: &mut OpCtx, key: &ObjectKey) -> Result<bool> {
        match self.head(ctx, key) {
            Ok(_) => Ok(true),
            Err(h2util::H2Error::NotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }
}
