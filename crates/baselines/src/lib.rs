//! Baseline cloud filesystems — every data structure the paper's Table 1
//! analyses, implemented against the same [`swiftsim`] object cloud and the
//! same [`h2fsapi::CloudFs`] interface as H2Cloud, so one harness measures
//! them all:
//!
//! | module               | Table 1 row                                   |
//! |----------------------|-----------------------------------------------|
//! | [`swift_fs`]         | Consistent Hash, and CH + file-path DB (OpenStack Swift) |
//! | [`dp`]               | Dynamic Partition (the paper's stand-in for Dropbox), and with one index server [`DpFs::single_index`] the Single Index Server (GFS/HDFS namenode) |
//! | [`static_partition`] | Static Partition (AFS)                        |
//! | [`cumulus`]          | Compressed Snapshot (Cumulus)                 |
//! | [`cas`]              | Content Addressable Storage (multi-layer index) |
//!
//! The index-server designs (`dp` in both shapes, `static_partition`) keep
//! their metadata in a separate in-memory index ([`tree::TreeIndex`]) and
//! report it via `StoreStats::index_records` — exactly the state H2Cloud
//! exists to eliminate.

use std::collections::HashMap;

use h2fsapi::{FileContent, FsPath};
use h2util::{H2Error, OrderedMutex, Result};
use swiftsim::Payload;

pub mod cas;
pub mod cumulus;
pub mod dp;
pub mod static_partition;
pub mod swift_fs;
pub mod tree;

pub use cas::CasFs;
pub use cumulus::CumulusFs;
pub use dp::DpFs;
pub use static_partition::StaticPartitionFs;
pub use swift_fs::SwiftFs;

/// A baseline's per-account state, keyed by account name, behind one lock.
pub(crate) type AccountMap<S> = OrderedMutex<HashMap<String, S>>;

/// Run `f` on `account`'s state in `map` under the map's lock; an account
/// the map does not hold is `NoSuchAccount`.
pub(crate) fn with_account<S, T>(
    map: &AccountMap<S>,
    account: &str,
    f: impl FnOnce(&mut S) -> Result<T>,
) -> Result<T> {
    let mut accounts = map.lock();
    let state = accounts
        .get_mut(account)
        .ok_or_else(|| H2Error::NoSuchAccount(account.to_string()))?;
    f(state)
}

/// The object payload a baseline stores for `content` written at `path`.
/// Simulated content takes its identity from the path, shared content from
/// its seed, so equal seeds mean equal bytes.
pub(crate) fn to_payload(content: FileContent, path: &FsPath) -> Payload {
    match content {
        FileContent::Inline(v) => Payload::Inline(v.into_bytes()),
        FileContent::Simulated(n) => Payload::simulated(n, &path.to_string()),
        FileContent::SimulatedShared { size, seed } => {
            Payload::simulated(size, &format!("shared:{seed}"))
        }
    }
}

/// The file content a stored payload reads back as.
pub(crate) fn to_content(payload: Payload) -> FileContent {
    match payload {
        Payload::Inline(b) => FileContent::Inline(h2util::SharedBuf::from_bytes(b)),
        Payload::Simulated { size, .. } => FileContent::Simulated(size),
    }
}
