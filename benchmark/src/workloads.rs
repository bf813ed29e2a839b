//! The five workloads. Each is an input to the same program (see
//! `sut::tuned`): a starting tree, an operation mix, and how targets are
//! picked. README.md says what each one is for; the `why` lines here are
//! the ones `BENCHMARK.json` carries.

use crate::model::{Account, Kind, Mix, Naming, Shape, Sizes, Tree, KINDS};
use crate::rng::Fingerprint;
use crate::sut::CLIENTS;

/// Operations one client replays per round, between two maintenance
/// passes.
pub const SLICE_OPS: usize = 2048;

/// Rounds of every client's stream that the pinned fingerprint covers
/// (after the starting tree).
pub const PINNED_ROUNDS: usize = 8;

/// The seed the pins below were taken with.
pub const PINNED_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub accounts_per_client: usize,
    /// Operations per account in the untimed warm-up pass that ends
    /// set-up.
    pub warm_ops: usize,
    /// Run `gc::collect` on the accounts just visited after every round.
    /// Needed wherever the mix deletes under fresh names: without it
    /// tombstones pile up and the run never reaches a steady state.
    pub gc: bool,
    /// Storage device 0 is down from the end of set-up to the end of the
    /// measured window, then brought back and repaired.
    pub degraded: bool,
    /// Fingerprint of the op stream for [`PINNED_SEED`].
    pub pin: u128,
}

const fn mix(weights: &[(Kind, f64)]) -> Mix {
    let mut m = [0.0; KINDS];
    let mut i = 0;
    while i < weights.len() {
        m[weights[i].0 as usize] = weights[i].1;
        i += 1;
    }
    m
}

/// The 98/2 metadata mix of sync clients and schedulers: probes of an
/// existing corpus with a trickle of ingest.
const META_MIX: Mix = mix(&[
    (Kind::Stat, 68.0),
    (Kind::StatAbsent, 15.0),
    (Kind::List, 9.0),
    (Kind::Read, 6.0),
    (Kind::Write, 1.8),
    (Kind::Mkdir, 0.2),
]);

/// The paper's everyday-user traffic, writes beside reads.
const CHURN_MIX: Mix = mix(&[
    (Kind::Stat, 20.0),
    (Kind::Read, 28.0),
    (Kind::List, 12.0),
    (Kind::ListDetailed, 6.0),
    (Kind::Write, 8.0),
    (Kind::Overwrite, 8.0),
    (Kind::Delete, 8.0),
    (Kind::Mv, 4.0),
    (Kind::Mkdir, 3.0),
    (Kind::Copy, 2.0),
    (Kind::Rmdir, 1.0),
]);

/// Editing and re-uploading large files.
const CONTENT_MIX: Mix = mix(&[
    (Kind::Read, 45.0),
    (Kind::Append, 15.0),
    (Kind::Overwrite, 12.0),
    (Kind::WriteShared, 12.0),
    (Kind::Delete, 10.0),
    (Kind::Write, 3.0),
    (Kind::Stat, 3.0),
]);

const META_SLOTS: Naming = Naming::Slots {
    files: 64,
    dirs: 16,
};

const CHURN: Workload = Workload {
    name: "churn",
    why: "everyday-user mix with writes, moves and deletes: patch submit, merge, gossip and GC carry it, so a read gain paid for by writes or maintenance shows",
    shape: Shape {
        mix: CHURN_MIX,
        tree: Tree::Light {
            base_dirs: 4,
            made_dirs: 4,
            files: 250,
            flat_every: 4,
            flat_files: 4096,
        },
        naming: Naming::Fresh,
        zipf: None,
        sizes: Sizes::Mixture,
    },
    accounts_per_client: 16,
    warm_ops: 256,
    gc: true,
    degraded: false,
    pin: 0x76df0f36ec8ae18fcc8b387bfc9cdd88,
};

pub const ALL: [Workload; 5] = [
    Workload {
        name: "meta_hot",
        why: "98/2 metadata mix, Zipf 1.1 over depth-12 paths that fit every cache: the fs op shell and the path cache do the work, the store almost none",
        shape: Shape {
            mix: META_MIX,
            tree: Tree::Chains {
                chains: 24,
                depth: 12,
                files_per_leaf: 4,
                file_bytes: 4096,
                ingest_dirs: 4,
            },
            naming: META_SLOTS,
            zipf: Some(1.1),
            sizes: Sizes::Small,
        },
        accounts_per_client: 4,
        warm_ops: 2048,
        gc: true,
        degraded: false,
        pin: 0x1a91d1e5acf76fcfe76defaaaea82af8,
    },
    Workload {
        name: "meta_cold",
        why: "same mix and depth, uniform over far more paths than the ring and path caches hold: the O(d) walk through cluster GET, ring lookup and NameRing parse does the work",
        shape: Shape {
            mix: META_MIX,
            tree: Tree::Chains {
                chains: 2048,
                depth: 12,
                files_per_leaf: 4,
                file_bytes: 4096,
                ingest_dirs: 4,
            },
            naming: META_SLOTS,
            zipf: None,
            sizes: Sizes::Small,
        },
        accounts_per_client: 1,
        warm_ops: 2048,
        gc: false,
        degraded: false,
        pin: 0x765f9087f3fbb59e686a148028eaa45f,
    },
    CHURN,
    Workload {
        name: "content",
        why: "reads, appends, overwrites and shared uploads of 8-64 MiB files: chunker, hash, manifests and refcounts of the CAS plane do the work, resolve almost none",
        shape: Shape {
            mix: CONTENT_MIX,
            tree: Tree::Volumes { dirs: 4, files: 48 },
            naming: Naming::Fresh,
            zipf: None,
            sizes: Sizes::Large,
        },
        accounts_per_client: 2,
        warm_ops: 256,
        gc: true,
        degraded: false,
        pin: 0x2bfbe6e7d801e8c976850c6bd9fa529a,
    },
    Workload {
        name: "churn_degraded",
        why: "churn's exact op stream with one storage device down: the same quorum layer through handoff and second-wave reads, so a healthy-path shortcut that taxes the degraded path shows",
        degraded: true,
        ..CHURN
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The models of one client's accounts, as set-up builds them.
    pub fn accounts(&self, seed: u64, client: usize, names: &[String]) -> Vec<Account> {
        names
            .iter()
            .enumerate()
            .map(|(index, name)| Account::new(name.clone(), self.shape, seed, client, index))
            .collect()
    }

    /// 128-bit fingerprint of the load for `seed`: every account's starting
    /// tree, then the first [`PINNED_ROUNDS`] slices of every client. It is
    /// a function of the generator alone (no system is built), so a pin
    /// that moves means the load moved.
    pub fn fingerprint(&self, seed: u64) -> u128 {
        let mut fp = Fingerprint::default();
        let names = vec![String::new(); self.accounts_per_client];
        for client in 0..CLIENTS {
            let mut accounts = self.accounts(seed, client, &names);
            for a in &accounts {
                let (dirs, files) = a.spec();
                for d in &dirs {
                    fp.bytes(d.to_string().as_bytes());
                }
                for (f, size) in &files {
                    fp.bytes(f.to_string().as_bytes());
                    fp.word(*size);
                }
            }
            for round in 0..PINNED_ROUNDS {
                let a = &mut accounts[round % self.accounts_per_client];
                for _ in 0..SLICE_OPS {
                    a.next_op().fingerprint(&mut fp);
                }
            }
        }
        fp.value()
    }
}
