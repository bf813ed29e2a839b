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
    for cas in [false, true] {
        let (fs, mut ctx) = setup_plane(cas);
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
        // The same with the CAS plane on: a file shorter than one leaf is
        // one whole object there too.
        assert_eq!(quick.counts().gets, 1, "cas={cas}");
        assert_eq!(quick.counts().total(), 1, "cas={cas}");
    }
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
    for cas in [false, true] {
        let (fs, mut ctx) = setup_plane(cas);
        let base = fs.storage_stats().objects; // root ring
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        // +2: descriptor + the new directory's NameRing.
        assert_eq!(fs.storage_stats().objects, base + 2);
        fs.write(&mut ctx, "alice", &p("/d/f"), FileContent::from_str("x"))
            .unwrap();
        // +1 content object on either plane: a file shorter than one leaf
        // is one whole object, with no block tree.
        assert_eq!(fs.storage_stats().objects, base + 3, "cas={cas}");
        assert!(!fs.uses_separate_index());
        assert_eq!(fs.storage_stats().index_records, 0);
    }
}

// ----- content planes --------------------------------------------------------
//
// `H2Config::cas` picks how a file's bytes are stored: whole (one object per
// file, the paper profile) or as a CAS block tree (the tuned profile). Each
// test below names the plane it runs on.

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
/// The caches under test are named explicitly on top of the paper profile.
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
        cluster: swiftsim::ClusterConfig::tiny(),
        cache_capacity: 8,
        ..H2Config::tuned()
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
    // B holds none of these rings, so their gossip costs it nothing. Its
    // clock passes A's when it reads them on its way down: what B writes
    // further down is newer than anything A wrote.
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

/// A ring B read and then lost to eviction is still B's: its path entries
/// outlive the copy, so a rewrite whose gossip B never hears must be
/// repaired by `resync`, though B keeps no descriptor for the ring.
#[test]
fn resync_repairs_a_ring_read_and_then_evicted() {
    let fs = tuned_small_caches();
    let a = fs.via(0);
    let b = fs.via(1);
    let mut ctx = OpCtx::for_test();
    a.create_account(&mut ctx, "alice").unwrap();
    a.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    a.write(&mut ctx, "alice", &p("/d/f"), FileContent::Simulated(4096))
        .unwrap();
    fs.quiesce();

    assert_eq!(stat_requests(&b, "/d/f").1, Ok(4096));
    assert_eq!(stat_requests(&b, "/d/f"), (0, Ok(4096)));
    evict_all_rings(b.middleware());
    a.write(&mut ctx, "alice", &p("/d/f"), FileContent::Simulated(8192))
        .unwrap();
    assert!(!a.middleware().take_outbox().is_empty());
    fs.layer().resync().unwrap();
    assert_eq!(stat_requests(&b, "/d/f").1, Ok(8192));
}

/// Path-cache hits so far, across the middlewares of `fs`.
fn path_hits(fs: &H2Cloud) -> u64 {
    fs.metrics()
        .counter_value(h2cloud::middleware::PATH_CACHE_HITS)
}

/// GC's invalidation removes a ring record B keeps no descriptor in; the
/// record B's next read makes draws a fresh epoch. A path entry built on
/// the old record must die with it, though the new record has seen as many
/// bumps as the old one had when the entry was stored: epochs come from
/// one counter per middleware, not one per record.
#[test]
fn a_remade_ring_record_cannot_revalidate_an_old_path_entry() {
    let fs = tuned_small_caches();
    let a = fs.via(0);
    let b = fs.via(1);
    let mut ctx = OpCtx::for_test();
    a.create_account(&mut ctx, "alice").unwrap();
    a.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    a.write(&mut ctx, "alice", &p("/d/f"), FileContent::Simulated(64))
        .unwrap();
    fs.quiesce();
    // The first STAT fetches `/d`'s ring, so what it stores is born
    // invalid; the second stores an entry that holds, and the third hits.
    for _ in 0..2 {
        assert_eq!(stat_requests(&b, "/d/f").1, Ok(64));
    }
    let hits = path_hits(&fs);
    assert_eq!(stat_requests(&b, "/d/f"), (0, Ok(64)));
    assert_eq!(path_hits(&fs) - hits, 1);

    let keys = h2cloud::H2Keys::new("alice");
    let d = b
        .middleware()
        .get_descriptor(&mut ctx, &keys, h2util::NamespaceId::ROOT, "d")
        .unwrap()
        .ns;
    b.middleware().invalidate_ring("alice", d);
    a.delete_file(&mut ctx, "alice", &p("/d/f")).unwrap();
    let drop_all = h2cloud::layer::GossipFaults {
        drop_every: 1,
        duplicate_every: 0,
    };
    fs.layer().pump_with_faults(drop_all).unwrap();
    assert!(b.list(&mut ctx, "alice", &p("/d")).unwrap().is_empty());
    assert!(matches!(
        b.stat(&mut ctx, "alice", &p("/d/f")),
        Err(h2util::H2Error::NotFound(_))
    ));
}

/// Every account's root is the namespace `ROOT`, but epochs are kept per
/// account: a MKDIR at one account's root leaves another account's path
/// entries on the same middleware valid.
#[test]
fn a_root_write_in_one_account_keeps_another_accounts_path_entries() {
    let fs = H2Cloud::new(H2Config::for_test());
    let mut ctx = OpCtx::for_test();
    for account in ["alice", "bob"] {
        fs.create_account(&mut ctx, account).unwrap();
    }
    fs.mkdir(&mut ctx, "bob", &p("/d")).unwrap();
    fs.write(&mut ctx, "bob", &p("/d/f"), FileContent::Simulated(64))
        .unwrap();
    let stat_is_a_hit = || {
        let hits = path_hits(&fs);
        let mut ctx = OpCtx::for_test();
        assert_eq!(fs.stat(&mut ctx, "bob", &p("/d/f")).unwrap().size, 64);
        path_hits(&fs) - hits == 1
    };
    assert!((0..3).any(|_| stat_is_a_hit()), "bob's entry never held");
    fs.mkdir(&mut ctx, "alice", &p("/x")).unwrap();
    assert!(
        stat_is_a_hit(),
        "alice's root write invalidated bob's entry"
    );
}

/// Bulk import adds a directory to one that exists: the new directory's
/// parent resolves like a file's.
#[test]
fn bulk_import_adds_a_directory_to_an_existing_one() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    fs.bulk_import(&mut ctx, "alice", &[p("/d/x")], &[(p("/d/x/f"), 3)])
        .unwrap();
    fs.quiesce();
    assert_eq!(fs.list(&mut ctx, "alice", &p("/d")).unwrap(), ["x"]);
    assert_eq!(fs.list(&mut ctx, "alice", &p("/d/x")).unwrap(), ["f"]);
    assert_eq!(fs.stat(&mut ctx, "alice", &p("/d/x/f")).unwrap().size, 3);
}

// ----- maintenance cost of a large flat directory ---------------------------

/// 64 mutations into a bulk-imported 4 096-file directory under the tuned
/// profile with four Deferred middlewares on the paper's rack, then the
/// gossip pump and a GC pass. Every request and every modelled nanosecond
/// is pinned: how a NameRing is held in memory may change what maintenance
/// costs in CPU, never what it asks of the store or what it models.
#[test]
fn flat_directory_maintenance_requests_and_virtual_time_are_pinned() {
    use h2util::{BackendCounts, Timestamp};
    use std::time::Duration;

    let fs = H2Cloud::new(H2Config {
        mode: h2cloud::MaintenanceMode::Deferred,
        middlewares: 4,
        cluster: swiftsim::ClusterConfig::default(),
        ..H2Config::tuned()
    });
    let mut setup = OpCtx::new(fs.cost_model());
    fs.create_account(&mut setup, "alice").unwrap();
    let files: Vec<(FsPath, u64)> = (0..4096)
        .map(|i| (p(&format!("/flat/f{i:04}")), 4096))
        .collect();
    fs.bulk_import(&mut setup, "alice", &[p("/flat")], &files)
        .unwrap();
    fs.quiesce();

    let mut ops = OpCtx::new(fs.cost_model());
    for i in 0..32 {
        fs.write(
            &mut ops,
            "alice",
            &p(&format!("/flat/new{i:02}")),
            FileContent::Simulated(512),
        )
        .unwrap();
        fs.delete_file(&mut ops, "alice", &p(&format!("/flat/f{:04}", i * 97)))
            .unwrap();
    }
    let delivered = fs.layer().pump().unwrap();
    let mut gc = OpCtx::new(fs.cost_model());
    let horizon = Timestamp::new(u64::MAX, 0, h2util::NodeId(0));
    let report = h2cloud::gc::collect(&fs, &mut gc, "alice", horizon).unwrap();
    let listed = fs.list(&mut OpCtx::for_test(), "alice", &p("/flat"));
    assert_eq!(listed.unwrap().len(), 4096);

    assert_eq!(delivered, 3);
    assert_eq!(
        report,
        h2cloud::gc::GcReport {
            tuples_compacted: 32,
            objects_deleted: 0,
            rings_rewritten: 1,
            deletes_skipped: 32,
        }
    );
    let counts = |gets, puts, deletes| BackendCounts {
        gets,
        puts,
        deletes,
        ..BackendCounts::default()
    };
    // Each write is one whole content object (512 bytes are shorter than
    // a leaf) and a patch; each delete a patch and one content delete. A
    // leaf and a manifest per file cost 128 PUTs, 64 DELETEs and
    // 2 605.996 ms: 32 × 12.012 ms (a sub-KiB PUT) + 32 × 12 ms (a block
    // reclaim) more. Each patch PUT re-sends its segment's whole body: the
    // 28th to 32nd submits of each 32-submit segment pass 1 KiB, ten
    // 12 µs transfer units more than one object per submit's 1 837.612 ms.
    assert_eq!(ops.counts(), counts(0, 96, 32));
    assert_eq!(ops.elapsed(), Duration::from_nanos(1_837_732_000));
    // The ring comes from the ring cache. The content deletes were eager,
    // and each marked its tombstone reclaimed before the owner's merge
    // wrote it, so the pass sends no content DELETE: only the ring's PUT.
    // Re-deleting the 32 absent objects cost one more 12 ms wave
    // (25.776 ms), and a serial pass 31 × 12 ms beyond that.
    assert_eq!(gc.counts(), counts(0, 1, 0));
    assert_eq!(gc.elapsed(), Duration::from_nanos(13_776_000));
    // The owner merges the 64 submits' two segments in one cycle of
    // 52.088 ms: 15 ms of cycle CPU, the ring's GET and PUT (25.088 ms
    // together) and one wave of 2 segment DELETEs (12 ms); it reads no
    // patch back. Deleting them in turn would cost 12 ms more, and one
    // object per submit 64 DELETEs in two waves, 12 ms more. Before it,
    // set-up's quiesce merged bulk import's one patch, `/flat`'s tuple in
    // the root: a GET, a PUT and a DELETE, 48.524 ms. No peer holds the
    // ring — none read or wrote it — so the gossip each receives costs it
    // nothing.
    let spend: Vec<(Duration, BackendCounts)> = fs
        .layer()
        .middlewares()
        .iter()
        .map(|m| m.background_spend())
        .collect();
    let peer = (Duration::ZERO, counts(0, 0, 0));
    let owner = (Duration::from_nanos(100_612_000), counts(2, 2, 3));
    assert_eq!(spend, [peer, owner, peer, peer]);
}

/// `rmdir` of a directory holding three files and a subdirectory of three
/// more, then a GC pass, under the tuned profile on the paper's rack. The
/// pass deletes what a serial walk deleted — the report and every request
/// are pinned — while each dead ring's children go as one wave.
#[test]
fn gc_of_a_removed_tree_reclaims_each_ring_in_one_wave() {
    use h2util::{BackendCounts, Timestamp};
    use std::time::Duration;

    let fs = H2Cloud::new(H2Config::tuned());
    let mut setup = OpCtx::new(fs.cost_model());
    fs.create_account(&mut setup, "alice").unwrap();
    fs.mkdir(&mut setup, "alice", &p("/d")).unwrap();
    fs.mkdir(&mut setup, "alice", &p("/d/sub")).unwrap();
    for i in 0..3 {
        let (f, g) = (format!("/d/f{i}"), format!("/d/sub/g{i}"));
        fs.write(&mut setup, "alice", &p(&f), FileContent::Simulated(4 << 20))
            .unwrap();
        fs.write(&mut setup, "alice", &p(&g), FileContent::Simulated(2 << 20))
            .unwrap();
    }
    fs.rmdir(&mut setup, "alice", &p("/d")).unwrap();
    let mut gc = OpCtx::new(fs.cost_model());
    let horizon = Timestamp::new(u64::MAX, 0, h2util::NodeId(0));
    let report = h2cloud::gc::collect(&fs, &mut gc, "alice", horizon).unwrap();

    assert_eq!(
        report,
        h2cloud::gc::GcReport {
            tuples_compacted: 1,
            objects_deleted: 10,
            rings_rewritten: 1,
            deletes_skipped: 0,
        }
    );
    // The root ring's rewrite; then 6 manifests, 12 leaf blocks, 2 rings
    // and 2 descriptors.
    assert_eq!(
        gc.counts(),
        BackendCounts {
            puts: 1,
            deletes: 22,
            ..BackendCounts::default()
        }
    );
    assert_eq!(fs.cluster().cas_live_blocks(), 0);
    assert_eq!(fs.storage_stats().objects, 1);
    // The root ring's rewrite (12.012 ms); for each dead ring, one wave of
    // its children (a file's manifest delete and its one release wave,
    // 2 × 12 ms) and the ring's delete (12 ms); then /d's descriptor
    // (12 ms). A serial walk spent 12.012 + 22 × 12 = 276.012 ms.
    assert_eq!(
        gc.elapsed(),
        Duration::from_nanos(12_012_000 + 2 * (24_000_000 + 12_000_000) + 12_000_000)
    );
}

// ----- detailed listing of a large flat directory ---------------------------

/// A detailed LIST of a bulk-imported directory of 4 096 files and four
/// subdirectories under the tuned profile with four Deferred middlewares on
/// the paper's rack: healthy, with device 0 down (the handoff wave) and
/// under a seeded fault plan. Every request, every modelled nanosecond,
/// every fault draw and the error that aborts the faulted listing are
/// pinned: how the per-child HEADs are issued may change what a listing
/// costs in CPU, never what it asks of the store or what it models.
#[test]
fn flat_directory_list_detailed_requests_and_virtual_time_are_pinned() {
    use h2util::faults::{FaultPlan, FaultSpec, FaultStats};
    use h2util::BackendCounts;
    use std::time::Duration;

    let fs = H2Cloud::new(H2Config {
        mode: h2cloud::MaintenanceMode::Deferred,
        middlewares: 4,
        cluster: swiftsim::ClusterConfig::default(),
        ..H2Config::tuned()
    });
    let mut setup = OpCtx::new(fs.cost_model());
    fs.create_account(&mut setup, "alice").unwrap();
    let mut dirs = vec![p("/flat")];
    dirs.extend((0..4).map(|i| p(&format!("/flat/sub{i}"))));
    let mut files: Vec<(FsPath, u64)> = (0..4096)
        .map(|i| (p(&format!("/flat/f{i:04}")), 4096))
        .collect();
    files.push((p("/flat/sub0/inner"), 512));
    fs.bulk_import(&mut setup, "alice", &dirs, &files).unwrap();
    fs.quiesce();

    let heads = |heads| BackendCounts {
        heads,
        ..BackendCounts::default()
    };
    // One listing: its spend, and the sum of the stamps it reports.
    let list = || {
        let mut ctx = OpCtx::new(fs.cost_model());
        let got = fs.list_detailed(&mut ctx, "alice", &p("/flat"));
        let got = got.map(|entries| {
            let dirs = entries
                .iter()
                .filter(|e| e.kind == EntryKind::Directory)
                .count();
            let stamps: u64 = entries.iter().map(|e| e.modified_ms).sum();
            (entries.len(), dirs, stamps)
        });
        (got, ctx.counts(), ctx.elapsed())
    };

    // Healthy: the ring comes from the ring cache, one HEAD per child.
    let (got, counts, elapsed) = list();
    // Each imported file's content is one write stamp (a leaf and a
    // manifest took two), so file i's stamp is i + 1 lower than it was and
    // the sum 4096 · 4097 / 2 = 8 390 656 lower.
    assert_eq!(got.unwrap(), (4100, 4, 6_560_000_008_411_150));
    assert_eq!(counts, heads(4100));
    assert_eq!(elapsed, Duration::from_nanos(1_275_040_000));

    // Device 0 down: the children it holds a replica of scan the handoffs.
    let dev0 = h2ring::DeviceId(0);
    fs.cluster().set_node_down(dev0, true);
    let (got, counts, elapsed) = list();
    fs.cluster().set_node_down(dev0, false);
    assert_eq!(got.unwrap(), (4100, 4, 6_560_000_008_411_150));
    assert_eq!(counts, heads(4100));
    assert_eq!(elapsed, Duration::from_nanos(1_274_740_000));
    assert_eq!(fs.cluster().fault_stats(), None);

    // 5 % of requests fail up front, 5 % run slow and 5 % of replica reads
    // fail: the first failed HEAD aborts the listing.
    let spec = FaultSpec::errors(0.05).with_slow(0.05, Duration::from_millis(3));
    fs.cluster()
        .set_fault_plan(Some(FaultPlan::uniform(42, spec).with_replica_errors(0.05)));
    let (got, counts, elapsed) = list();
    let err = got.unwrap_err();
    assert_eq!(
        err.to_string(),
        "unavailable: injected head fault for /alice/h2/01.02.1600000000000::f0053"
    );
    assert_eq!(counts, heads(54));
    assert_eq!(elapsed, Duration::from_nanos(83_740_000));
    assert_eq!(
        fs.cluster().fault_stats(),
        Some(FaultStats {
            draws: 213,
            errors: 1,
            slowdowns: 6,
            torn: 0,
            replica_errors: 3,
        })
    );
}

// ----- MOVE under a failing store --------------------------------------------

/// A MOVE renames before it deletes: when every PUT fails, its patches
/// never land, so the MOVE fails and changes nothing visible. The source
/// keeps its name and its content, on the paper and the tuned profile,
/// for a file and a directory, and the destination's copied content and
/// new descriptor, which no tuple names, are reclaimed at once.
#[test]
fn a_move_renames_before_it_deletes() {
    use h2util::faults::{FaultPlan, FaultSpec, OpClass};

    let profiles = [("paper", H2Config::default()), ("tuned", H2Config::tuned())];
    for (profile, config) in profiles {
        let fs = H2Cloud::new(H2Config {
            cluster: swiftsim::ClusterConfig::tiny(),
            ..config
        });
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        for dir in ["/a", "/a/d", "/b"] {
            fs.mkdir(&mut ctx, "alice", &p(dir)).unwrap();
        }
        for (file, text) in [("/a/f", "kept"), ("/a/d/g", "deep")] {
            let content = FileContent::from_str(text);
            fs.write(&mut ctx, "alice", &p(file), content).unwrap();
        }
        let failing = FaultPlan::new(1).set(OpClass::Put, FaultSpec::errors(1.0));
        fs.cluster().set_fault_plan(Some(failing));
        for (from, to) in [("/a/f", "/b/g"), ("/a/d", "/b/e")] {
            let err = fs.mv(&mut ctx, "alice", &p(from), &p(to)).unwrap_err();
            assert_eq!(err.code(), "unavailable", "{profile}: mv {from} {to}");
        }
        fs.cluster().set_fault_plan(None);

        assert_eq!(fs.list(&mut ctx, "alice", &p("/a")).unwrap(), ["d", "f"]);
        assert!(fs.list(&mut ctx, "alice", &p("/b")).unwrap().is_empty());
        for (file, text) in [("/a/f", "kept"), ("/a/d/g", "deep")] {
            let read = fs.read(&mut ctx, "alice", &p(file));
            assert_eq!(
                read.unwrap(),
                FileContent::from_str(text),
                "{profile}: {file}"
            );
        }
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert!(report.is_clean(), "{profile}: {report:?}");
        let keys = h2cloud::H2Keys::new("alice");
        let mw = fs.layer().mw_for_account("alice");
        let b = mw.get_descriptor(&mut ctx, &keys, h2util::NamespaceId::ROOT, "b");
        let b = b.unwrap().ns;
        let copy = fs.read_relative(&mut ctx, "alice", b, "g").unwrap_err();
        assert_eq!(copy.code(), "not-found", "{profile}: /b/g's content");
        let desc = mw.get_descriptor(&mut ctx, &keys, b, "e").unwrap_err();
        assert_eq!(desc.code(), "not-found", "{profile}: /b/e's descriptor");
    }
}

// ----- Eager submits under a failing store -----------------------------------

/// An Eager submit reports its patch, not the merge after it: with every
/// DELETE failing, a file delete's patch lands and its merge fails at the
/// patch's delete. The DELETE is acknowledged — `/a` no longer lists `h` —
/// so it returns `Ok`, and the failed merge is counted and left to the
/// next cycle: once the faults clear and the layer quiesces, the ring
/// object holds the tombstone. On the paper and the tuned profile.
#[test]
fn an_eager_submit_reports_its_patch_not_its_merge() {
    use h2cloud::middleware::MERGE_FAILURES;
    use h2util::faults::{FaultPlan, FaultSpec, OpClass};

    let profiles = [("paper", H2Config::default()), ("tuned", H2Config::tuned())];
    for (profile, config) in profiles {
        let fs = H2Cloud::new(H2Config {
            cluster: swiftsim::ClusterConfig::tiny(),
            ..config
        });
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "alice").unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        let h = FileContent::from_str("h");
        fs.write(&mut ctx, "alice", &p("/a/h"), h).unwrap();
        let failing = FaultPlan::new(1).set(OpClass::Delete, FaultSpec::errors(1.0));
        fs.cluster().set_fault_plan(Some(failing));
        let deleted = fs.delete_file(&mut ctx, "alice", &p("/a/h"));
        deleted.unwrap_or_else(|e| panic!("{profile}: {e}"));
        assert!(fs.list(&mut ctx, "alice", &p("/a")).unwrap().is_empty());
        fs.cluster().set_fault_plan(None);
        let mw = fs.layer().mw_for_account("alice");
        assert!(mw.metrics().counter_value(MERGE_FAILURES) >= 1, "{profile}");
        fs.quiesce();

        let keys = h2cloud::H2Keys::new("alice");
        let a = mw.get_descriptor(&mut ctx, &keys, h2util::NamespaceId::ROOT, "a");
        let ring = mw.fetch_global_ring(&mut ctx, &keys, a.unwrap().ns);
        let h = ring.unwrap().get_raw("h").copied();
        assert!(h.is_some_and(|t| t.deleted), "{profile}: {h:?}");
        let report = fsck(&fs, &mut ctx, "alice").unwrap();
        assert!(report.is_clean(), "{profile}: {report:?}");
    }
}
