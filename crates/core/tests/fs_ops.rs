//! End-to-end semantics of the H2Cloud filesystem (single middleware,
//! eager maintenance, zero-latency cost model).

use h2cloud::check::fsck;
use h2cloud::{H2Cloud, H2Config};
use h2fsapi::{CloudFs, EntryKind, FileContent, FsPath};
use h2util::OpCtx;

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

fn setup() -> (H2Cloud, OpCtx) {
    let fs = H2Cloud::new(H2Config::for_test());
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "alice").unwrap();
    (fs, ctx)
}

#[test]
fn fresh_account_has_empty_root() {
    let (fs, mut ctx) = setup();
    assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    let st = fs.stat(&mut ctx, "alice", &p("/")).unwrap();
    assert_eq!(st.kind, EntryKind::Directory);
}

#[test]
fn unknown_account_is_rejected() {
    let (fs, mut ctx) = setup();
    assert_eq!(
        fs.list(&mut ctx, "bob", &p("/")).unwrap_err().code(),
        "no-such-account"
    );
}

#[test]
fn mkdir_then_list_shows_child() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/home")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/home/ubuntu")).unwrap();
    assert_eq!(fs.list(&mut ctx, "alice", &p("/")).unwrap(), ["home"]);
    assert_eq!(fs.list(&mut ctx, "alice", &p("/home")).unwrap(), ["ubuntu"]);
}

#[test]
fn mkdir_requires_parent_and_uniqueness() {
    let (fs, mut ctx) = setup();
    assert_eq!(
        fs.mkdir(&mut ctx, "alice", &p("/a/b")).unwrap_err().code(),
        "not-found"
    );
    fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
    assert_eq!(
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap_err().code(),
        "already-exists"
    );
    assert_eq!(
        fs.mkdir(&mut ctx, "alice", &p("/")).unwrap_err().code(),
        "already-exists"
    );
}

#[test]
fn write_read_roundtrip() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/docs")).unwrap();
    fs.write(
        &mut ctx,
        "alice",
        &p("/docs/report.txt"),
        FileContent::from_str("quarterly numbers"),
    )
    .unwrap();
    let back = fs.read(&mut ctx, "alice", &p("/docs/report.txt")).unwrap();
    assert_eq!(back, FileContent::from_str("quarterly numbers"));
    let st = fs.stat(&mut ctx, "alice", &p("/docs/report.txt")).unwrap();
    assert_eq!(st.kind, EntryKind::File);
    assert_eq!(st.size, 17);
}

#[test]
fn write_overwrites_and_updates_size() {
    let (fs, mut ctx) = setup();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("aa"))
        .unwrap();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("aaaa"))
        .unwrap();
    assert_eq!(fs.stat(&mut ctx, "alice", &p("/f")).unwrap().size, 4);
    assert_eq!(fs.list(&mut ctx, "alice", &p("/")).unwrap().len(), 1);
}

#[test]
fn simulated_large_files_roundtrip_by_size() {
    let (fs, mut ctx) = setup();
    fs.write(
        &mut ctx,
        "alice",
        &p("/video.mkv"),
        FileContent::Simulated(5 << 30),
    )
    .unwrap();
    match fs.read(&mut ctx, "alice", &p("/video.mkv")).unwrap() {
        FileContent::Simulated(n) => assert_eq!(n, 5 << 30),
        other => panic!("expected simulated content, got {other:?}"),
    }
}

#[test]
fn write_to_dir_path_fails() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    assert_eq!(
        fs.write(&mut ctx, "alice", &p("/d"), FileContent::from_str("x"))
            .unwrap_err()
            .code(),
        "is-a-directory"
    );
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/d")).unwrap_err().code(),
        "is-a-directory"
    );
}

#[test]
fn path_through_file_is_not_a_directory() {
    let (fs, mut ctx) = setup();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("x"))
        .unwrap();
    assert_eq!(
        fs.write(
            &mut ctx,
            "alice",
            &p("/f/child"),
            FileContent::from_str("y")
        )
        .unwrap_err()
        .code(),
        "not-a-directory"
    );
    assert_eq!(
        fs.list(&mut ctx, "alice", &p("/f")).unwrap_err().code(),
        "not-a-directory"
    );
}

#[test]
fn delete_file_then_gone() {
    let (fs, mut ctx) = setup();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("x"))
        .unwrap();
    fs.delete_file(&mut ctx, "alice", &p("/f")).unwrap();
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/f")).unwrap_err().code(),
        "not-found"
    );
    assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    // Recreate with the same name works (tombstone overridden).
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("new"))
        .unwrap();
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/f")).unwrap(),
        FileContent::from_str("new")
    );
}

#[test]
fn rename_is_move_within_parent() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/dir")).unwrap();
    fs.write(
        &mut ctx,
        "alice",
        &p("/dir/old"),
        FileContent::from_str("x"),
    )
    .unwrap();
    fs.mv(&mut ctx, "alice", &p("/dir/old"), &p("/dir/new"))
        .unwrap();
    assert_eq!(fs.list(&mut ctx, "alice", &p("/dir")).unwrap(), ["new"]);
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/dir/new")).unwrap(),
        FileContent::from_str("x")
    );
}

#[test]
fn move_directory_preserves_subtree() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/src")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/src/sub")).unwrap();
    fs.write(
        &mut ctx,
        "alice",
        &p("/src/sub/deep.txt"),
        FileContent::from_str("payload"),
    )
    .unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/dst")).unwrap();
    fs.mv(&mut ctx, "alice", &p("/src"), &p("/dst/moved"))
        .unwrap();
    assert_eq!(fs.list(&mut ctx, "alice", &p("/")).unwrap(), ["dst"]);
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/dst/moved/sub/deep.txt"))
            .unwrap(),
        FileContent::from_str("payload")
    );
    assert!(fs.stat(&mut ctx, "alice", &p("/src")).is_err());
}

#[test]
fn move_rejects_cycles_and_conflicts() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/a/b")).unwrap();
    assert_eq!(
        fs.mv(&mut ctx, "alice", &p("/a"), &p("/a/b/inside"))
            .unwrap_err()
            .code(),
        "invalid-path"
    );
    fs.mkdir(&mut ctx, "alice", &p("/c")).unwrap();
    assert_eq!(
        fs.mv(&mut ctx, "alice", &p("/a"), &p("/c"))
            .unwrap_err()
            .code(),
        "already-exists"
    );
    // Moving to itself is a no-op.
    fs.mv(&mut ctx, "alice", &p("/a"), &p("/a")).unwrap();
    assert!(fs.stat(&mut ctx, "alice", &p("/a")).is_ok());
}

#[test]
fn copy_file_duplicates_content() {
    let (fs, mut ctx) = setup();
    fs.write(
        &mut ctx,
        "alice",
        &p("/orig"),
        FileContent::from_str("body"),
    )
    .unwrap();
    fs.copy(&mut ctx, "alice", &p("/orig"), &p("/dup")).unwrap();
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/dup")).unwrap(),
        FileContent::from_str("body")
    );
    // Independent copies: deleting one keeps the other.
    fs.delete_file(&mut ctx, "alice", &p("/orig")).unwrap();
    assert!(fs.read(&mut ctx, "alice", &p("/dup")).is_ok());
}

#[test]
fn copy_directory_is_deep_and_independent() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/tree")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/tree/nested")).unwrap();
    for i in 0..5 {
        fs.write(
            &mut ctx,
            "alice",
            &p(&format!("/tree/nested/f{i}")),
            FileContent::from_str(&format!("data{i}")),
        )
        .unwrap();
    }
    fs.copy(&mut ctx, "alice", &p("/tree"), &p("/clone"))
        .unwrap();
    for i in 0..5 {
        assert_eq!(
            fs.read(&mut ctx, "alice", &p(&format!("/clone/nested/f{i}")))
                .unwrap(),
            FileContent::from_str(&format!("data{i}"))
        );
    }
    // Mutating the clone leaves the original intact.
    fs.delete_file(&mut ctx, "alice", &p("/clone/nested/f0"))
        .unwrap();
    assert!(fs.read(&mut ctx, "alice", &p("/tree/nested/f0")).is_ok());
}

#[test]
fn list_detailed_reports_kinds_and_sizes() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    fs.write(&mut ctx, "alice", &p("/big"), FileContent::Simulated(1000))
        .unwrap();
    let entries = fs.list_detailed(&mut ctx, "alice", &p("/")).unwrap();
    assert_eq!(entries.len(), 2);
    let big = entries.iter().find(|e| e.name == "big").unwrap();
    assert_eq!(big.kind, EntryKind::File);
    assert_eq!(big.size, 1000);
    let d = entries.iter().find(|e| e.name == "d").unwrap();
    assert_eq!(d.kind, EntryKind::Directory);
}

#[test]
fn rmdir_removes_whole_populated_directory() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/full")).unwrap();
    for i in 0..20 {
        fs.write(
            &mut ctx,
            "alice",
            &p(&format!("/full/f{i}")),
            FileContent::from_str("x"),
        )
        .unwrap();
    }
    fs.rmdir(&mut ctx, "alice", &p("/full")).unwrap();
    assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    assert!(fs.list(&mut ctx, "alice", &p("/full")).is_err());
    assert_eq!(
        fs.rmdir(&mut ctx, "alice", &p("/")).unwrap_err().code(),
        "invalid-path"
    );
}

#[test]
fn rmdir_on_file_fails() {
    let (fs, mut ctx) = setup();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("x"))
        .unwrap();
    assert_eq!(
        fs.rmdir(&mut ctx, "alice", &p("/f")).unwrap_err().code(),
        "not-a-directory"
    );
    assert_eq!(
        fs.delete_file(&mut ctx, "alice", &p("/"))
            .unwrap_err()
            .code(),
        "is-a-directory"
    );
}

#[test]
fn file_access_cost_grows_with_depth() {
    // The O(d) regular lookup: deeper files take more ring GETs.
    let fs = H2Cloud::new(H2Config {
        cluster: swiftsim::ClusterConfig {
            cost: std::sync::Arc::new(h2util::CostModel::rack_default()),
            ..swiftsim::ClusterConfig::default()
        },
        ..H2Config::default()
    });
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, "a").unwrap();
    let mut path = String::new();
    for i in 0..8 {
        path.push_str(&format!("/d{i}"));
        fs.mkdir(&mut ctx, "a", &p(&path)).unwrap();
    }
    fs.write(
        &mut ctx,
        "a",
        &p(&format!("{path}/leaf")),
        FileContent::from_str("x"),
    )
    .unwrap();

    let mut shallow_ctx = OpCtx::new(fs.cost_model());
    fs.stat(&mut shallow_ctx, "a", &p("/d0")).unwrap();
    let mut deep_ctx = OpCtx::new(fs.cost_model());
    fs.stat(&mut deep_ctx, "a", &p(&format!("{path}/leaf")))
        .unwrap();
    assert!(
        deep_ctx.elapsed() > shallow_ctx.elapsed() * 5,
        "depth-9 lookup ({:?}) should dwarf depth-1 ({:?})",
        deep_ctx.elapsed(),
        shallow_ctx.elapsed()
    );
    // GET count scales with depth: d rings.
    assert_eq!(deep_ctx.counts().gets, 9);
}

#[test]
fn quick_relative_access_is_one_get() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/deep")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/deep/deeper")).unwrap();
    fs.write(
        &mut ctx,
        "alice",
        &p("/deep/deeper/target"),
        FileContent::from_str("found"),
    )
    .unwrap();
    // Discover the parent namespace once via the regular method…
    let mw = fs.layer().mw_for_account("alice");
    let keys = h2cloud::H2Keys::new("alice");
    let mut walk = OpCtx::for_test();
    let root = mw
        .read_ring(&mut walk, &keys, h2util::NamespaceId::ROOT)
        .unwrap();
    let deep_ns = match root.get("deep").unwrap().child {
        h2cloud::ChildRef::Dir { ns } => ns,
        _ => unreachable!(),
    };
    let deep = mw.read_ring(&mut walk, &keys, deep_ns).unwrap();
    let deeper_ns = match deep.get("deeper").unwrap().child {
        h2cloud::ChildRef::Dir { ns } => ns,
        _ => unreachable!(),
    };
    // …then the quick method is exactly one GET.
    let mut quick = OpCtx::for_test();
    let content = fs
        .read_relative(&mut quick, "alice", deeper_ns, "target")
        .unwrap();
    assert_eq!(content, FileContent::from_str("found"));
    // Still depth-independent with the CAS plane on — but a content read
    // is then manifest + leaf instead of a single whole object.
    let expected = if mw.cas_active() { 2 } else { 1 };
    assert_eq!(quick.counts().gets, expected);
    assert_eq!(quick.counts().total(), expected);
}

#[test]
fn rmdir_is_o1_in_backend_ops() {
    let (fs, mut ctx) = setup();
    for &n in &[10usize, 100] {
        let dir = format!("/dir{n}");
        fs.mkdir(&mut ctx, "alice", &p(&dir)).unwrap();
        for i in 0..n {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("{dir}/f{i}")),
                FileContent::from_str("x"),
            )
            .unwrap();
        }
    }
    let mut small = OpCtx::for_test();
    fs.rmdir(&mut small, "alice", &p("/dir10")).unwrap();
    let mut large = OpCtx::for_test();
    fs.rmdir(&mut large, "alice", &p("/dir100")).unwrap();
    assert_eq!(
        small.counts().total(),
        large.counts().total(),
        "RMDIR backend ops must not depend on n"
    );
}

#[test]
fn storage_stats_count_h2_overhead_objects() {
    let (fs, mut ctx) = setup();
    let base = fs.storage_stats().objects; // root ring
    fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    // +2: descriptor + the new directory's NameRing.
    assert_eq!(fs.storage_stats().objects, base + 2);
    fs.write(&mut ctx, "alice", &p("/d/f"), FileContent::from_str("x"))
        .unwrap();
    // +1 content object — or, on the CAS plane, a manifest plus one leaf
    // block (the tiny file fits a single chunk).
    let content_objects = if fs.layer().mw(0).cas_active() { 2 } else { 1 };
    assert_eq!(fs.storage_stats().objects, base + 2 + content_objects);
    assert!(!fs.uses_separate_index());
    assert_eq!(fs.storage_stats().index_records, 0);
}

// ----- content planes --------------------------------------------------------
//
// `H2Config::cas` picks how a file's bytes are stored: whole (one object per
// file, the paper profile) or as a CAS block tree. Each test below names the
// plane it runs on, so it holds on every feature leg.

/// Bigger than any single transfer unit and aligned to none of them.
const BIG: u64 = 2 * (4 << 20) + 4097;

fn setup_plane(cas: bool) -> (H2Cloud, OpCtx) {
    let fs = H2Cloud::new(H2Config {
        cas,
        ..H2Config::for_test()
    });
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "alice").unwrap();
    (fs, ctx)
}

/// Patterned inline content, so any mis-ordered or mis-sliced block changes
/// the bytes.
fn patterned(len: usize) -> FileContent {
    let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    FileContent::Inline(h2util::SharedBuf::from_slice(&bytes))
}

#[test]
fn big_inline_content_round_trips_on_both_planes() {
    for cas in [false, true] {
        let (fs, mut ctx) = setup_plane(cas);
        let content = patterned(BIG as usize);
        fs.write(&mut ctx, "alice", &p("/blob"), content.clone())
            .unwrap();
        assert_eq!(fs.read(&mut ctx, "alice", &p("/blob")).unwrap(), content);
        assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
    }
}

#[test]
fn copy_and_move_big_files_on_both_planes() {
    for cas in [false, true] {
        let (fs, mut ctx) = setup_plane(cas);
        let content = patterned(BIG as usize);
        fs.mkdir(&mut ctx, "alice", &p("/src")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/dst")).unwrap();
        fs.write(&mut ctx, "alice", &p("/src/a"), content.clone())
            .unwrap();
        fs.copy(&mut ctx, "alice", &p("/src/a"), &p("/dst/b"))
            .unwrap();
        assert_eq!(fs.read(&mut ctx, "alice", &p("/src/a")).unwrap(), content);
        assert_eq!(fs.read(&mut ctx, "alice", &p("/dst/b")).unwrap(), content);
        fs.mv(&mut ctx, "alice", &p("/src/a"), &p("/dst/c"))
            .unwrap();
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/src/a")).unwrap_err().code(),
            "not-found"
        );
        assert_eq!(fs.read(&mut ctx, "alice", &p("/dst/c")).unwrap(), content);
        // Directory copy drags big children along.
        fs.copy(&mut ctx, "alice", &p("/dst"), &p("/dup")).unwrap();
        assert_eq!(fs.read(&mut ctx, "alice", &p("/dup/b")).unwrap(), content);
        assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
    }
}

#[test]
fn stat_of_a_big_file_is_one_head_on_both_planes() {
    for cas in [false, true] {
        let (fs, mut ctx) = setup_plane(cas);
        fs.write(&mut ctx, "alice", &p("/big"), FileContent::Simulated(BIG))
            .unwrap();
        assert_eq!(fs.stat(&mut ctx, "alice", &p("/big")).unwrap().size, BIG);
        // The object at the content key answers with the logical size —
        // its own length when whole, the manifest's meta under CAS.
        let mut head = OpCtx::for_test();
        let (size, _) = fs
            .stat_relative(&mut head, "alice", h2util::NamespaceId::ROOT, "big")
            .unwrap();
        assert_eq!(size, BIG, "cas={cas}");
        assert_eq!(head.counts().heads, 1, "cas={cas}");
        assert_eq!(head.counts().total(), 1, "cas={cas}");
    }
}

/// The paper profile: a file is one object, however big — so Figure 14's
/// object count has no term that grows with file bytes.
#[test]
fn whole_plane_moves_a_big_file_as_exactly_one_object() {
    let (fs, _) = setup_plane(false);
    let base = fs.storage_stats().objects; // root ring
    let mw = fs.layer().mw_for_account("alice");
    let keys = h2cloud::H2Keys::new("alice");
    let root = h2util::NamespaceId::ROOT;
    let size = 24 << 20;

    let mut put = OpCtx::for_test();
    let payload = swiftsim::Payload::simulated(size, "/big");
    mw.put_content(&mut put, &keys, root, "big", payload)
        .unwrap();
    assert_eq!((put.counts().puts, put.counts().total()), (1, 1));
    assert_eq!(fs.storage_stats().objects, base + 1);

    let mut get = OpCtx::for_test();
    let back = mw.get_content(&mut get, &keys, root, "big").unwrap();
    assert_eq!(back.len(), size);
    assert_eq!((get.counts().gets, get.counts().total()), (1, 1));

    let mut del = OpCtx::for_test();
    mw.delete_content(&mut del, &keys, root, "big").unwrap();
    assert_eq!((del.counts().deletes, del.counts().total()), (1, 1));
    assert_eq!(fs.storage_stats().objects, base);
}

/// What the whole plane gives up and who gets it back: the same 24 MiB read
/// is one long GET when the file is whole, and a bounded parallel wave of
/// ~1 MiB leaves (after one manifest GET) under CAS.
#[test]
fn cas_plane_reads_a_big_file_in_less_virtual_time_than_whole() {
    let read_cost = |cas: bool| {
        let fs = H2Cloud::new(H2Config {
            cas,
            ..H2Config::default()
        });
        let model = fs.cost_model();
        let mut ctx = OpCtx::new(model.clone());
        fs.create_account(&mut ctx, "alice").unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/big"),
            FileContent::Simulated(24 << 20),
        )
        .unwrap();
        let mut read = OpCtx::new(model.clone());
        fs.read(&mut read, "alice", &p("/big")).unwrap();
        (read.elapsed(), read.counts().gets, model)
    };
    let (whole, whole_gets, model) = read_cost(false);
    let (cas, cas_gets, _) = read_cost(true);
    // Whole: the root ring (unless a cache holds it) + exactly one GET that
    // carries every byte.
    assert!(whole_gets <= 2, "{whole_gets}");
    assert!(whole >= model.get_cost(24 << 20));
    // CAS: many GETs, overlapped.
    assert!(cas_gets > whole_gets);
    assert!(
        cas * 2 < whole,
        "leaf-wave read {cas:?} should be well under the single GET {whole:?}"
    );
}

/// A resolve level served from the parsed-ring cache charges the in-memory
/// `cached_lookup_cpu`, not the full uncached `lookup_cpu` + ring GET; a
/// path-cache hit replaces the whole walk with one `path_cache_cpu` probe.
/// The caches under test are named explicitly, so the pinned charges hold
/// whatever the feature flags make the defaults.
#[test]
fn cached_resolve_is_cheaper_than_uncached() {
    // Cost of the second STAT of a depth-2 file (the first one fills
    // whichever caches are on).
    let stat_cost = |cache_capacity: usize, path_cache: bool| {
        let fs = H2Cloud::new(H2Config {
            cache_capacity,
            path_cache,
            neg_cache: false,
            ..H2Config::default()
        });
        let model = fs.cost_model();
        let mut ctx = OpCtx::new(model.clone());
        fs.create_account(&mut ctx, "alice").unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.write(&mut ctx, "alice", &p("/a/f"), FileContent::Simulated(64))
            .unwrap();
        fs.stat(&mut ctx, "alice", &p("/a/f")).unwrap();
        let mut stat_ctx = OpCtx::new(model.clone());
        fs.stat(&mut stat_ctx, "alice", &p("/a/f")).unwrap();
        (stat_ctx.elapsed(), stat_ctx.counts().gets, model)
    };
    let (warm, warm_gets, model) = stat_cost(64, false);
    let (cold, cold_gets, _) = stat_cost(0, false);
    let (pathed, pathed_gets, _) = stat_cost(64, true);
    // Ring cache only: both levels come out of the cache (write-through
    // keeps it fresh) — no ring GETs, one in-memory charge per level.
    assert_eq!(warm_gets, 0);
    assert_eq!(warm, model.cached_lookup_cpu * 2);
    // No cache: one ring GET per level.
    assert_eq!(cold_gets, 2);
    assert!(warm < cold, "{warm:?} !< {cold:?}");
    // Path cache: the full path hits, so the walk never starts.
    assert_eq!(pathed_gets, 0);
    assert_eq!(pathed, model.path_cache_cpu);
    assert!(pathed < warm, "{pathed:?} !< {warm:?}");
}

// ----- resolve caches on a tree larger than they are ----------------------

/// Every knob on, two Eager middlewares, and a ring cache of 8 rings — one
/// per stripe, so a depth-12 chain (12 rings) cannot stay cached.
fn tuned_small_caches() -> H2Cloud {
    H2Cloud::new(H2Config {
        middlewares: 2,
        mode: h2cloud::MaintenanceMode::Eager,
        cluster: swiftsim::ClusterConfig::tiny(),
        cache_capacity: 8,
        trace_sample: 0.0,
        group_commit: true,
        path_cache: true,
        neg_cache: true,
        hedged_reads: true,
        cas: true,
    })
}

/// Push every ring out of `mw`'s ring cache by reading rings that do not
/// exist (each is cached as an empty ring). No path is resolved, so the
/// path cache and the epochs of real rings are untouched: this is
/// eviction, not invalidation.
fn evict_all_rings(mw: &h2cloud::H2Middleware) {
    let keys = h2cloud::H2Keys::new("alice");
    let mut ctx = OpCtx::for_test();
    for seq in 0..64 {
        let nowhere = h2util::NamespaceId::new(10_000 + seq, h2util::NodeId(99), 1);
        assert!(mw.read_ring(&mut ctx, &keys, nowhere).unwrap().is_empty());
    }
}

/// Push every entry out of the path cache behind `view` the same way:
/// STATs of absent names in the root directory, each of which stores a
/// negative entry and reads no ring but the root's.
fn evict_all_paths(view: &dyn CloudFs) {
    let mut ctx = OpCtx::for_test();
    for i in 0..256 {
        let absent = p(&format!("/absent-{i}"));
        assert!(view.stat(&mut ctx, "alice", &absent).is_err());
    }
}

/// Requests one STAT of `path` makes through `view`, and what it returned.
fn stat_requests(view: &dyn CloudFs, path: &str) -> (u64, h2util::Result<u64>) {
    let mut ctx = OpCtx::for_test();
    let size = view.stat(&mut ctx, "alice", &p(path)).map(|e| e.size);
    (ctx.counts().total(), size)
}

#[test]
fn resolve_caches_outlive_the_ring_cache_on_a_deep_chain() {
    let fs = tuned_small_caches();
    let a = fs.via(0);
    let b = fs.via(1);
    let unchanged = || {
        fs.metrics()
            .counter_value(h2cloud::middleware::RING_REFETCH_UNCHANGED)
    };
    let mut ctx = OpCtx::for_test();
    a.create_account(&mut ctx, "alice").unwrap();
    let mut dir = String::new();
    for level in 0..11 {
        dir.push_str(&format!("/d{level}"));
        a.mkdir(&mut ctx, "alice", &p(&dir)).unwrap();
    }
    for (name, size) in [("a.txt", 4096), ("b.txt", 512)] {
        a.write(
            &mut ctx,
            "alice",
            &p(&format!("{dir}/{name}")),
            FileContent::Simulated(size),
        )
        .unwrap();
    }
    let file = |name: &str| format!("{dir}/{name}");
    // B hears of all this now, which also moves its clock past A's: what B
    // writes further down is newer than anything A wrote.
    fs.quiesce();

    // A cold STAT walks all 12 levels: one ring GET each. Every ring comes
    // back with the stamp A's own write left, so no epoch moves and what
    // the walk stores is valid from the start.
    evict_all_paths(&a);
    evict_all_rings(a.middleware());
    let before = unchanged();
    assert_eq!(stat_requests(&a, &file("a.txt")), (12, Ok(4096)));
    assert_eq!(unchanged() - before, 12);

    // A sibling finds the parent directory cached: at most the leaf ring.
    let (reqs, size) = stat_requests(&a, &file("b.txt"));
    assert!(reqs <= 1, "sibling STAT made {reqs} requests");
    assert_eq!(size, Ok(512));

    // The path entries outlive the rings they were built from.
    evict_all_rings(a.middleware());
    assert_eq!(stat_requests(&a, &file("a.txt")), (0, Ok(4096)));

    // The stale guard. B rewrites the leaf ring — a.txt grows, c.txt
    // appears — and none of its gossip is delivered. Once A's copy of that
    // ring is evicted, A's next lookup beneath it refetches, sees a stamp
    // it does not remember, and bumps: c.txt is answered from the new ring
    // and the entry holding a.txt's old size dies with the old epoch.
    for (name, size) in [("a.txt", 8192), ("c.txt", 64)] {
        b.write(
            &mut ctx,
            "alice",
            &p(&file(name)),
            FileContent::Simulated(size),
        )
        .unwrap();
    }
    evict_all_rings(a.middleware());
    let before = unchanged();
    assert_eq!(stat_requests(&a, &file("c.txt")), (1, Ok(64)));
    assert_eq!(
        unchanged(),
        before,
        "a rewritten ring is not an unchanged refetch"
    );
    assert_eq!(stat_requests(&a, &file("a.txt")), (0, Ok(8192)));
}
