//! Workload replay across systems: generated user filesystems and traces
//! drive every backend; final state must match the model, bulk import must
//! equal slow per-op population, and the headline complexity differences
//! must be visible in backend-op counts.

use h2baselines::SwiftFs;
use h2cloud::{H2Cloud, H2Config};
use h2fsapi::{CloudFs, FsPath};
use h2util::rng::rng;
use h2util::OpCtx;
use h2workload::{FsSpec, Trace, TraceMix, UserProfile};
use swiftsim::{Cluster, ClusterConfig};

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

#[test]
fn bulk_import_equals_slow_population_on_h2() {
    let spec = FsSpec::generate(&mut rng(5), UserProfile::Light, 0.5);

    let fast = H2Cloud::new(H2Config::for_test());
    let mut ctx = OpCtx::for_test();
    fast.create_account(&mut ctx, "u").unwrap();
    spec.populate(&fast, &mut ctx, "u").unwrap();

    let slow = H2Cloud::new(H2Config::for_test());
    let mut ctx2 = OpCtx::for_test();
    slow.create_account(&mut ctx2, "u").unwrap();
    spec.populate_slow(&slow, &mut ctx2, "u").unwrap();

    // Same tree, recursively.
    let mut stack = vec![FsPath::root()];
    while let Some(dir) = stack.pop() {
        let mut a = fast.list_detailed(&mut ctx, "u", &dir).unwrap();
        let mut b = slow.list_detailed(&mut ctx2, "u", &dir).unwrap();
        a.sort_by(|x, y| x.name.cmp(&y.name));
        b.sort_by(|x, y| x.name.cmp(&y.name));
        assert_eq!(a.len(), b.len(), "{dir}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.size, y.size);
            if x.kind == h2fsapi::EntryKind::Directory {
                stack.push(dir.child(&x.name).unwrap());
            }
        }
    }
    // Same object count in the cloud (a descriptor + ring per dir, one
    // object per file, one root ring).
    assert_eq!(fast.storage_stats().objects, slow.storage_stats().objects);
}

#[test]
fn heavy_user_filesystem_hosts_and_operates() {
    let spec = FsSpec::generate(&mut rng(8), UserProfile::Heavy, 0.1);
    let fs = H2Cloud::new(H2Config::for_test());
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "heavy").unwrap();
    spec.populate(&fs, &mut ctx, "heavy").unwrap();

    let model = spec.to_model();
    if fs.layer().mw(0).cas_active() {
        // CAS plane: one manifest per file, plus the deduplicated block set
        // (leaves and branches) that the cluster's refcount index tracks.
        // Pinning objects against `cas_live_blocks` proves no block leaked
        // outside the refcount discipline during a bulk import.
        assert_eq!(
            fs.storage_stats().objects,
            spec.files.len() as u64
                + fs.cluster().cas_live_blocks()
                + 2 * spec.dirs.len() as u64
                + 1
        );
    } else {
        // One object per file whatever its size, 2 per dir (descriptor +
        // NameRing), plus the root ring.
        assert_eq!(
            fs.storage_stats().objects,
            spec.files.len() as u64 + 2 * spec.dirs.len() as u64 + 1
        );
    }
    // Spot-check twenty files.
    for (path, size) in model.all_files().into_iter().take(20) {
        let st = fs.stat(&mut ctx, "heavy", &path).unwrap();
        assert_eq!(st.size, size, "{path}");
    }
    // Directory ops on the populated tree work.
    let deepest = model
        .all_dirs()
        .into_iter()
        .max_by_key(|d| d.depth())
        .unwrap();
    assert!(deepest.depth() >= 5, "heavy profile too shallow");
    fs.mkdir(&mut ctx, "heavy", &deepest.child("fresh").unwrap())
        .unwrap();
    assert!(fs
        .list(&mut ctx, "heavy", &deepest)
        .unwrap()
        .contains(&"fresh".to_string()));
}

#[test]
fn replay_reports_show_complexity_gap_between_swift_and_h2() {
    // One directory of 200 files, then RMDIR: Swift's backend-op count
    // scales with n, H2Cloud's does not — Table 1 in two numbers.
    let spec = FsSpec::flat_dir(&p("/big"), 200, 1024);

    let h2 = H2Cloud::new(H2Config::for_test());
    let mut ctx = OpCtx::for_test();
    h2.create_account(&mut ctx, "u").unwrap();
    spec.populate(&h2, &mut ctx, "u").unwrap();
    let mut h2_rm = OpCtx::for_test();
    h2.rmdir(&mut h2_rm, "u", &p("/big")).unwrap();

    let swift = SwiftFs::new(Cluster::new(ClusterConfig::tiny()), true);
    let mut ctx2 = OpCtx::for_test();
    swift.create_account(&mut ctx2, "u").unwrap();
    spec.populate(&swift, &mut ctx2, "u").unwrap();
    let mut sw_rm = OpCtx::for_test();
    swift.rmdir(&mut sw_rm, "u", &p("/big")).unwrap();

    assert!(
        sw_rm.counts().total() >= 200,
        "Swift RMDIR must touch every object, used {} ops",
        sw_rm.counts().total()
    );
    assert!(
        h2_rm.counts().total() <= 15,
        "H2 RMDIR must be O(1), used {} ops",
        h2_rm.counts().total()
    );
}

#[test]
fn long_mixed_trace_replays_identically_on_h2_and_swift() {
    let mut model_gen = h2workload::ModelFs::new();
    let trace = Trace::generate(&mut rng(99), &mut model_gen, 400, &TraceMix::default());

    let systems: Vec<Box<dyn CloudFs>> = vec![
        Box::new(H2Cloud::new(H2Config::for_test())),
        Box::new(SwiftFs::new(Cluster::new(ClusterConfig::tiny()), true)),
    ];
    let mut final_listings: Vec<Vec<String>> = Vec::new();
    for fs in &systems {
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "u").unwrap();
        let results = trace
            .replay(
                fs.as_ref(),
                "u",
                std::sync::Arc::new(h2util::CostModel::zero()),
            )
            .unwrap();
        assert_eq!(results.len(), trace.ops.len());
        fs.quiesce();
        let mut names = fs.list(&mut ctx, "u", &FsPath::root()).unwrap();
        names.sort();
        final_listings.push(names);
    }
    assert_eq!(
        final_listings[0], final_listings[1],
        "H2 and Swift disagree after replaying the same trace"
    );
}
