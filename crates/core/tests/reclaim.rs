//! What GC reclaims after a node's own DELETE: a tombstone whose object
//! the foreground already deleted is marked reclaimed, so GC compacts it
//! without a second DELETE; one whose DELETE failed stays unmarked, and GC
//! deletes what the foreground missed. Deferred accounts on the paper's
//! rack, on the paper and the tuned profile.

use std::time::Duration;

use h2cloud::check::fsck;
use h2cloud::gc::{self, GcReport};
use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::faults::{FaultPlan, FaultSpec, OpClass};
use h2util::{BackendCounts, NodeId, OpCtx, Timestamp};

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

fn far_future() -> Timestamp {
    Timestamp::new(u64::MAX, 0, NodeId(0))
}

fn profiles() -> [(&'static str, H2Config); 2] {
    let deferred = |config: H2Config| H2Config {
        mode: MaintenanceMode::Deferred,
        ..config
    };
    [
        ("paper", deferred(H2Config::default())),
        ("tuned", deferred(H2Config::tuned())),
    ]
}

/// Every DELETE fails while `f` runs.
fn deletes_failing<T>(fs: &H2Cloud, f: impl FnOnce() -> T) -> T {
    let failing = FaultPlan::new(1).set(OpClass::Delete, FaultSpec::errors(1.0));
    fs.cluster().set_fault_plan(Some(failing));
    let out = f();
    fs.cluster().set_fault_plan(None);
    out
}

/// Files written into `/d`.
const FILES: usize = 8;

/// What one GC pass over the account spent and left.
struct Pass {
    report: GcReport,
    counts: BackendCounts,
    elapsed: Duration,
    objects: u64,
}

/// Write [`FILES`] files into `/d`, delete all but the last and MOVE that
/// one to `/g`, with every DELETE failing during the delete of `/d/f0`
/// when `fail_first`; then run the pump and one GC pass at a far horizon.
fn delete_all_but_one_and_collect(config: H2Config, fail_first: bool) -> Pass {
    let fs = H2Cloud::new(config);
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, "alice").unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    let file = |i: usize| p(&format!("/d/f{i}"));
    for i in 0..FILES {
        let content = FileContent::Simulated(4096);
        fs.write(&mut ctx, "alice", &file(i), content).unwrap();
    }
    for i in 0..FILES - 1 {
        let mut delete = || fs.delete_file(&mut ctx, "alice", &file(i));
        if i == 0 && fail_first {
            deletes_failing(&fs, delete).unwrap();
        } else {
            delete().unwrap();
        }
    }
    fs.mv(&mut ctx, "alice", &file(FILES - 1), &p("/g"))
        .unwrap();
    fs.quiesce();
    let mut gc = OpCtx::new(fs.cost_model());
    let report = gc::collect(&fs, &mut gc, "alice", far_future()).unwrap();
    assert_eq!(fs.list(&mut ctx, "alice", &p("/")).unwrap(), ["d", "g"]);
    assert!(fs.list(&mut ctx, "alice", &p("/d")).unwrap().is_empty());
    let audit = fsck(&fs, &mut ctx, "alice").unwrap();
    assert!(audit.is_clean(), "{:?}", audit.violations);
    Pass {
        report,
        counts: gc.counts(),
        elapsed: gc.elapsed(),
        objects: fs.cluster().object_count(),
    }
}

fn counts(gets: u64, puts: u64, deletes: u64) -> BackendCounts {
    BackendCounts {
        gets,
        puts,
        deletes,
        ..BackendCounts::default()
    }
}

/// Each DELETE and the MOVE deleted its file's content before the pump
/// merged its tombstone, and marked it reclaimed: GC compacts the eight
/// tombstones with the ring's PUT and sends no content DELETE. Without the
/// mark it sent eight, one 12 ms wave more.
#[test]
fn gc_sends_no_delete_for_content_a_delete_removed() {
    // The paper profile keeps no ring cache: the walk GETs the root and
    // `/d`, the compaction `/d` again (9.512 ms each, sub-KiB). The tuned
    // profile's ring cache serves all three. `/d`'s compacted ring is
    // empty: its PUT is 12.012 ms.
    let pinned = [
        (counts(3, 1, 0), 2 * 9_512_000 + 9_512_000 + 12_012_000),
        (counts(0, 1, 0), 12_012_000),
    ];
    for ((profile, config), (want, nanos)) in profiles().into_iter().zip(pinned) {
        let pass = delete_all_but_one_and_collect(config, false);
        let report = GcReport {
            tuples_compacted: FILES,
            objects_deleted: 0,
            rings_rewritten: 1,
            deletes_skipped: FILES,
        };
        assert_eq!(pass.report, report, "{profile}");
        assert_eq!(pass.counts, want, "{profile}");
        assert_eq!(pass.elapsed, Duration::from_nanos(nanos), "{profile}");
    }
}

/// A delete whose content DELETE failed leaves its tombstone unmarked: GC
/// sends exactly that one content DELETE, and the account ends with the
/// objects of a run where nothing failed.
#[test]
fn gc_deletes_what_a_failed_delete_left() {
    for (profile, config) in profiles() {
        let clean = delete_all_but_one_and_collect(config.clone(), false);
        let pass = delete_all_but_one_and_collect(config, true);
        let report = GcReport {
            tuples_compacted: FILES,
            objects_deleted: 1,
            rings_rewritten: 1,
            deletes_skipped: FILES - 1,
        };
        assert_eq!(pass.report, report, "{profile}");
        assert_eq!(pass.counts.deletes, 1, "{profile}");
        assert_eq!(pass.counts.puts, 1, "{profile}");
        assert_eq!(pass.objects, clean.objects, "{profile}");
    }
}

/// A directory MOVE whose DELETE of the old descriptor fails leaves that
/// descriptor behind under a tombstone whose namespace lives on under the
/// new name. GC deletes it: the account ends with the objects of a run
/// where nothing failed, and fsck finds both clean.
#[test]
fn gc_deletes_the_descriptor_a_failed_move_left() {
    for (profile, config) in profiles() {
        let run = |fail: bool| {
            let fs = H2Cloud::new(H2Config {
                cluster: swiftsim::ClusterConfig::tiny(),
                ..config.clone()
            });
            let mut ctx = OpCtx::for_test();
            fs.create_account(&mut ctx, "alice").unwrap();
            for dir in ["/a", "/a/d"] {
                fs.mkdir(&mut ctx, "alice", &p(dir)).unwrap();
            }
            let content = FileContent::from_str("kept");
            fs.write(&mut ctx, "alice", &p("/a/d/f"), content).unwrap();
            fs.quiesce();
            let mut mv = || fs.mv(&mut ctx, "alice", &p("/a/d"), &p("/e"));
            if fail {
                deletes_failing(&fs, mv).unwrap();
            } else {
                mv().unwrap();
            }
            fs.quiesce();
            gc::collect(&fs, &mut ctx, "alice", far_future()).unwrap();
            let kept = fs.read(&mut ctx, "alice", &p("/e/f")).unwrap();
            assert_eq!(kept, FileContent::from_str("kept"), "{profile}");
            let audit = fsck(&fs, &mut ctx, "alice").unwrap();
            assert!(audit.is_clean(), "{profile}: {:?}", audit.violations);
            fs.cluster().object_count()
        };
        assert_eq!(run(true), run(false), "{profile}");
    }
}
