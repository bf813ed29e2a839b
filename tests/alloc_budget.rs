//! Allocation budgets for the request path.
//!
//! Real CPU per operation is mostly allocation and cache misses, and the
//! count of allocations — unlike wall time — repeats exactly on every
//! machine. This binary installs a counting allocator and pins an upper
//! bound on what one warm object request, one STAT, one detailed LIST and
//! the NameRing codec may allocate, so a regression fails tier-1 instead of
//! waiting for the benchmark.
//! Counts are per thread: each test measures only what its own thread
//! does, so the harness may run the tests side by side.
//!
//! The budgets are the counts measured when they were last lowered; they
//! are the same in debug and release.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use h2cloud::formatter::{namering_from_str, namering_to_string};
use h2cloud::{H2Cloud, H2Config, MaintenanceMode, NameRing, Tuple};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::{CostModel, NamespaceId, NodeId, OpCtx, Timestamp};
use swiftsim::{Cluster, ClusterConfig, Meta, ObjectKey, ObjectStore, Payload};

struct Counting;

thread_local! {
    // `const` initialiser and no destructor: touching the cell from inside
    // the allocator can neither allocate nor run after thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches a thread-local
// `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.get();
    let out = f();
    let n = ALLOCS.get() - before;
    drop(out);
    n
}

fn assert_budget(what: &str, measured: u64, budget: u64) {
    println!("{what}: {measured} allocations (budget {budget})");
    assert!(
        measured <= budget,
        "{what} allocated {measured} times, budget {budget}"
    );
}

/// GET, HEAD and overwriting PUT of a file object with non-empty meta on
/// the paper's rack (8 devices, 3 replicas), every replica in place.
fn cluster_budgets(hedged: bool, get: u64, head: u64, put: u64) {
    let c = Cluster::new(ClusterConfig {
        cost: Arc::new(CostModel::zero()),
        ..ClusterConfig::default()
    });
    c.set_hedged_reads(hedged);
    c.create_account("alice").unwrap();
    c.create_container("alice", "h2", false).unwrap();
    let key = ObjectKey::new("alice", "h2", "06.01.1469346604539::report.txt");
    let payload = Payload::from_string("x".repeat(4096));
    let meta = Meta::from([("content-type".to_string(), "h2/file".to_string())]);
    let mut ctx = OpCtx::for_test();
    c.put(&mut ctx, &key, payload.clone(), meta.clone())
        .unwrap();
    let shape = if hedged { "hedged" } else { "serial" };
    let n = allocs_in(|| c.get(&mut ctx, &key).unwrap());
    assert_budget(&format!("warm {shape} Cluster::get"), n, get);
    let n = allocs_in(|| c.head(&mut ctx, &key).unwrap());
    assert_budget(&format!("warm {shape} Cluster::head"), n, head);
    let n = allocs_in(|| {
        c.put(&mut ctx, &key, payload.clone(), meta.clone())
            .unwrap()
    });
    assert_budget(&format!("warm {shape} Cluster::put"), n, put);
}

#[test]
fn warm_cluster_requests_stay_within_budget() {
    // GET and HEAD: the ring key. PUT: the ring key and the version's
    // record.
    cluster_budgets(false, 1, 1, 2);
}

#[test]
fn warm_hedged_cluster_requests_stay_within_budget() {
    // A parallel wave allocates nothing: the same as serial.
    cluster_budgets(true, 1, 1, 2);
}

/// The benchmark's profile (every optimisation on), untraced.
fn tuned(cache_capacity: usize) -> H2Cloud {
    H2Cloud::new(H2Config {
        mode: MaintenanceMode::Deferred,
        cache_capacity,
        ..H2Config::tuned()
    })
}

/// A file at depth 12, statted once so every cache that is on is warm.
fn depth_12_file(fs: &H2Cloud, ctx: &mut OpCtx) -> FsPath {
    fs.create_account(ctx, "alice").unwrap();
    let mut dir = String::new();
    for level in 0..11 {
        dir.push_str(&format!("/d{level}"));
        fs.mkdir(ctx, "alice", &FsPath::parse(&dir).unwrap())
            .unwrap();
    }
    let file = FsPath::parse(&format!("{dir}/report.txt")).unwrap();
    fs.write(ctx, "alice", &file, FileContent::Simulated(4096))
        .unwrap();
    fs.quiesce();
    assert_eq!(file.components().len(), 12);
    assert_eq!(fs.stat(ctx, "alice", &file).unwrap().size, 4096);
    file
}

#[test]
fn warm_stat_stays_within_budget() {
    let fs = tuned(1024);
    let mut ctx = OpCtx::new(fs.cost_model());
    let file = depth_12_file(&fs, &mut ctx);
    let n = allocs_in(|| fs.stat(&mut ctx, "alice", &file).unwrap());
    // A path-cache hit makes no object request: all of this is the `fs`
    // op shell — the key factory's account name, the path text the probe
    // hashes, and the entry name handed back.
    assert_budget("warm depth-12 STAT (path-cache hit)", n, 3);
}

#[test]
fn cold_depth_12_stat_stays_within_budget() {
    // No ring cache, hence no path cache and no store into one: every
    // level GETs and parses its NameRing, as under the paper's profile.
    let fs = tuned(0);
    let mut ctx = OpCtx::new(fs.cost_model());
    let file = depth_12_file(&fs, &mut ctx);
    let n = allocs_in(|| fs.stat(&mut ctx, "alice", &file).unwrap());
    // 12 ring GETs (the ring key each) and their parses.
    assert_budget("cold depth-12 STAT, caches off", n, 62);
}

/// Two depth-12 chains imported in bulk, two files in each leaf directory.
/// The import writes every ring through to the ring cache but resolves
/// nothing, so the path cache starts empty: caches on, entries absent.
fn imported_chains(fs: &H2Cloud, ctx: &mut OpCtx) -> [[FsPath; 2]; 2] {
    fs.create_account(ctx, "alice").unwrap();
    let mut dirs = Vec::new();
    let mut files = Vec::new();
    let chains = ["d", "e"].map(|stem| {
        let mut dir = String::new();
        for level in 0..11 {
            dir.push_str(&format!("/{stem}{level}"));
            dirs.push(FsPath::parse(&dir).unwrap());
        }
        ["report.txt", "notes.txt"].map(|name| {
            let file = FsPath::parse(&format!("{dir}/{name}")).unwrap();
            files.push((file.clone(), 4096));
            file
        })
    });
    fs.bulk_import(ctx, "alice", &dirs, &files).unwrap();
    fs.quiesce();
    chains
}

#[test]
fn first_walk_and_sibling_stat_stay_within_budget() {
    // What the benchmark's `meta_cold` runs once its tree has outgrown the
    // path cache: the caches are on and the entry is absent, so the resolve
    // walks (every ring from the ring cache here) and stores what it
    // found; a file next to one already resolved finds its directory.
    let fs = tuned(1024);
    let mut ctx = OpCtx::new(fs.cost_model());
    let [[warmup, _], [file, sibling]] = imported_chains(&fs, &mut ctx);
    // The first resolve on a thread sets up its reusable buffers.
    fs.stat(&mut ctx, "alice", &warmup).unwrap();
    // Fill the path cache (8 192 entries), as such a tree has: from here
    // on a store evicts instead of growing a stripe.
    for i in 0..12_000 {
        let absent = FsPath::parse(&format!("/absent-{i}")).unwrap();
        fs.stat(&mut ctx, "alice", &absent).unwrap_err();
    }
    let n = allocs_in(|| fs.stat(&mut ctx, "alice", &file).unwrap());
    // The op shell's 3, the fingerprint being gathered, and two stored
    // entries: a path and a shared fingerprint each.
    assert_budget("first depth-12 STAT, caches on (walk, 2 stores)", n, 8);
    let n = allocs_in(|| fs.stat(&mut ctx, "alice", &sibling).unwrap());
    // The op shell's 3 and one stored entry.
    assert_budget("sibling depth-12 STAT (parent hit, 1 store)", n, 5);
}

#[test]
fn list_detailed_of_a_flat_directory_stays_within_budget() {
    // The benchmark's flat directory, listed with every child's stamp.
    let fs = tuned(1024);
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, "alice").unwrap();
    let flat = FsPath::parse("/flat").unwrap();
    let files: Vec<(FsPath, u64)> = (0..4096)
        .map(|i| (FsPath::parse(&format!("/flat/f{i:04}")).unwrap(), 4096))
        .collect();
    fs.bulk_import(&mut ctx, "alice", std::slice::from_ref(&flat), &files)
        .unwrap();
    fs.quiesce();
    // The first listing resolves the directory and warms the buffers.
    assert_eq!(
        fs.list_detailed(&mut ctx, "alice", &flat).unwrap().len(),
        4096
    );
    let n = allocs_in(|| fs.list_detailed(&mut ctx, "alice", &flat).unwrap());
    // One name per entry handed back; the rest is per listing: the op
    // shell, the child list, the one key buffer the HEADs share, the
    // stamps and the entries.
    assert_budget("warm LIST -l of a 4 096-child directory", n, 4096 + 13);
}

/// The size of the benchmark's flat directories: 4 096 children, mostly
/// files, some directories, some tombstones.
fn flat_ring() -> NameRing {
    let stamp = |i: usize| Timestamp::new(1_700_000_000_000 + i as u64, i as u32 % 7, NodeId(3));
    let mut ring = NameRing::new();
    for i in 0..4096 {
        let tuple = match i % 16 {
            0 => Tuple::dir(
                stamp(i),
                NamespaceId::new(i as u64, NodeId(2), 1_469_346_604_539),
            ),
            1 => Tuple::file(stamp(i), 4096).tombstone(stamp(i + 1)),
            _ => Tuple::file(stamp(i), 1 << (i % 24)),
        };
        ring.apply(&format!("file-{i:05}.dat"), tuple);
    }
    ring
}

#[test]
fn namering_codec_and_clone_stay_within_budget() {
    // One sorted arena per ring: the names in one string, the tuples in one
    // vector. Parsing a body in Formatter order appends to both.
    let ring = flat_ring();
    let body = namering_to_string(&ring);
    let n = allocs_in(|| namering_from_str(&body).unwrap());
    assert_budget("parse a 4 096-entry NameRing", n, 2);
    let n = allocs_in(|| ring.clone());
    assert_budget("clone a 4 096-entry NameRing", n, 2);
    // The output's exact length is computed first.
    let n = allocs_in(|| namering_to_string(&ring));
    assert_budget("format a 4 096-entry NameRing", n, 1);
    // A write's patch names a child the ring already holds.
    let mut patch = NameRing::new();
    patch.apply(
        "file-02048.dat",
        Tuple::file(Timestamp::new(1_800_000_000_000, 0, NodeId(1)), 7),
    );
    let mut target = ring.clone();
    let n = allocs_in(|| target.merge_from(&patch));
    assert_budget("merge a 1-tuple patch into a 4 096-entry NameRing", n, 0);
    assert_eq!(
        target.get("file-02048.dat").unwrap().child,
        patch.iter().next().unwrap().1.child
    );
}
