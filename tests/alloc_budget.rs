//! Allocation budgets for the request path.
//!
//! Real CPU per operation is mostly allocation and cache misses, and the
//! count of allocations — unlike wall time — repeats exactly on every
//! machine. This binary installs a counting allocator and pins an upper
//! bound on what one warm object request and one STAT may allocate, so a
//! regression fails tier-1 instead of waiting for the benchmark driver.
//! Counts are per thread: each test measures only what its own thread
//! does, so the harness may run the tests side by side.
//!
//! The budgets are the counts measured when they were last lowered; they
//! are the same in debug and release and under every feature set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::{CostModel, OpCtx};
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
    // Reads also pay `OpCtx::parallel`'s per-wave duration list.
    cluster_budgets(true, 2, 2, 2);
}

/// The benchmark's profile (every optimisation on), untraced.
fn tuned(cache_capacity: usize) -> H2Cloud {
    H2Cloud::new(H2Config {
        middlewares: 1,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::default(),
        cache_capacity,
        trace_sample: 0.0,
        group_commit: true,
        path_cache: true,
        neg_cache: true,
        hedged_reads: true,
        cas: true,
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
    // 12 ring GETs (2 each, hedged) and their parses.
    assert_budget("cold depth-12 STAT, caches off", n, 74);
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
