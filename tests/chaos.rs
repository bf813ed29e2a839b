//! Chaos suite: the full H2 stack driven against the request-level fault
//! plane (`h2util::faults`) with retry/backoff in the loop.
//!
//! Everything here is deterministic: faults are drawn from a seeded
//! injector, clocks are hybrid-logical, and the driver is single-threaded —
//! so a failing run replays exactly from its seed. Each scenario:
//!
//! 1. drives writes/deletes through three Deferred-mode middlewares while
//!    errors, latency inflation and torn writes are injected;
//! 2. records which operations the client saw acknowledged;
//! 3. clears the fault plan, quiesces maintenance and repairs replicas;
//! 4. asserts every middleware's view converged to exactly the acknowledged
//!    state — nothing lost, nothing resurrected.
//!
//! Every convergence and replay leg runs on both profiles: the paper's and
//! the tuned one (group commit, hedged reads and the CAS plane on), each
//! with the ring cache off so reads through any middleware see the cloud.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::faults::{FaultPlan, FaultSpec, FaultStats};
use h2util::{retry, OpCtx};
use swiftsim::ClusterConfig;

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

/// A profile: its name and its constructor.
type Profile = (&'static str, fn() -> H2Config);

const PROFILES: [Profile; 2] = [("paper", H2Config::default), ("tuned", H2Config::tuned)];

/// Three Deferred middlewares over a zero-latency rack, on `profile` with
/// the ring cache off.
fn config(profile: Profile) -> H2Config {
    H2Config {
        middlewares: 3,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig {
            cost: Arc::new(h2util::CostModel::zero()),
            ..ClusterConfig::default()
        },
        cache_capacity: 0,
        ..profile.1()
    }
}

fn h2(profile: Profile) -> H2Cloud {
    H2Cloud::new(config(profile))
}

/// Everything a chaos run produces — two runs with the same seed must
/// compare equal on all of it.
#[derive(Debug, PartialEq)]
struct ChaosOutcome {
    /// Per-operation acknowledgements, in driving order.
    acks: Vec<(String, bool)>,
    /// Final listing of `/chaos`, identical on every middleware.
    listing: Vec<String>,
    /// Final file contents keyed by name.
    contents: BTreeMap<String, FileContent>,
    /// Injector accounting.
    faults: FaultStats,
    /// `op_retries` / `op_gave_up` counter values.
    retries: u64,
    gave_up: u64,
}

/// Drive one deterministic chaos run at the given error rate. `rate` feeds
/// error, slowdown and replica-fault probabilities; torn writes run at half
/// of it.
fn run_chaos(profile: Profile, seed: u64, rate: f64) -> ChaosOutcome {
    run_chaos_with(profile, seed, rate, false)
}

/// [`run_chaos`] with an optional live rebalance woven through the fault
/// window: a device is added a third of the way in (migrator throttled to a
/// few partitions per op, so most of the run works against a
/// partially-moved ring) and a founding device is drained two thirds in —
/// all while errors, torn writes and replica faults are being injected.
fn run_chaos_with(profile: Profile, seed: u64, rate: f64, rebalance: bool) -> ChaosOutcome {
    let label = profile.0;
    let fs = h2(profile);
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.mkdir(&mut ctx, "team", &p("/chaos")).unwrap();
    fs.quiesce();

    let spec = FaultSpec::errors(rate)
        .with_slow(rate, Duration::from_millis(2))
        .with_torn(rate / 2.0);
    fs.cluster().set_fault_plan(Some(
        FaultPlan::uniform(seed, spec).with_replica_errors(rate),
    ));

    // Ops on a given name always route through the same middleware, so
    // same-name overwrites are ordered by that middleware's monotone clock
    // and "last acknowledged op wins" is the ground truth. One caveat: a
    // FAILED overwrite is indeterminate, not invisible — §3.3.3(b) streams
    // content before the tuple, so the content object may already hold the
    // new bytes when the patch submission fails. Each name therefore maps
    // to the set of values it may legally hold.
    let mut possible: BTreeMap<String, std::collections::BTreeSet<String>> = BTreeMap::new();
    let mut acks: Vec<(String, bool)> = Vec::new();
    let mut drained = false;
    for i in 0..120usize {
        if rebalance {
            if i == 40 {
                // Swap the ring under fire but do NOT finish the migration:
                // the following ops interleave with pending partitions.
                fs.cluster().add_node(0, 1.0).unwrap();
            }
            if i == 80 {
                // Finish what the add started (replica faults may leave
                // blocked partitions behind; they stay pending and reads
                // fall back to the old assignment), then drain device 0.
                fs.cluster().migrate_all();
                if !fs.cluster().migration_active() {
                    fs.cluster().drain_node(swiftsim::DeviceId(0)).unwrap();
                    drained = true;
                }
            }
            if i > 40 {
                fs.cluster().migrate_step(4);
            }
        }
        let slot = i % 24;
        let mw = slot % 3;
        let name = format!("f{slot:02}");
        let path = format!("/chaos/{name}");
        let mut c = OpCtx::for_test();
        if i >= 96 && slot % 4 == 0 {
            // Late rounds delete some slots to exercise tombstones under
            // injected faults.
            let ok = fs.via(mw).delete_file(&mut c, "team", &p(&path)).is_ok();
            acks.push((format!("del {name}"), ok));
            if ok {
                // Tombstone-first delete: an acked delete removed the name;
                // a failed one changed nothing visible.
                possible.remove(&name);
            }
        } else {
            let value = format!("v{i}");
            let ok = fs
                .via(mw)
                .write(&mut c, "team", &p(&path), FileContent::from_str(&value))
                .is_ok();
            acks.push((format!("put {name}"), ok));
            if ok {
                possible.insert(name, [value].into());
            } else if let Some(values) = possible.get_mut(&name) {
                // Failed overwrite of an existing name: the content object
                // may or may not have been replaced before the failure.
                values.insert(value);
            }
        }
        if i % 10 == 9 {
            // Mid-run maintenance under fire. Failures are tolerated here —
            // restored patch chains and the final clean quiesce reconcile.
            let _ = fs.layer().pump();
        }
    }

    // Snapshot injector accounting before the plan (and its stats) is
    // cleared for the clean phase.
    let faults = fs.cluster().fault_stats().expect("plan was active");

    // Clean phase: no more injection, drain maintenance, repair replicas.
    fs.cluster().set_fault_plan(None);
    if rebalance {
        // With the injector off every partition can move; the drain that a
        // blocked migration deferred mid-run lands now.
        fs.cluster().migrate_all();
        if !drained {
            fs.cluster().drain_node(swiftsim::DeviceId(0)).unwrap();
            fs.cluster().migrate_all();
        }
        assert!(
            !fs.cluster().migration_active(),
            "migration must complete once faults clear ({label}, seed {seed})"
        );
        fs.layer().resync().unwrap();
    }
    fs.quiesce();
    fs.cluster().repair();

    let listing: Vec<String> = {
        let mut c = OpCtx::for_test();
        fs.via(0).list(&mut c, "team", &p("/chaos")).unwrap()
    };
    // Every middleware sees the same namespace...
    for mw in 1..3 {
        let mut c = OpCtx::for_test();
        assert_eq!(
            fs.via(mw).list(&mut c, "team", &p("/chaos")).unwrap(),
            listing,
            "middleware {mw} diverged ({label}, seed {seed}, rate {rate})"
        );
    }
    // ...which is exactly the acknowledged state: no lost updates, no
    // resurrected deletes.
    let expected_names: Vec<String> = possible.keys().cloned().collect();
    assert_eq!(
        listing, expected_names,
        "acked state mismatch ({label}, seed {seed}, rate {rate})"
    );
    let mut contents = BTreeMap::new();
    for (name, values) in &possible {
        let mut per_mw = Vec::new();
        for mw in 0..3 {
            let mut c = OpCtx::for_test();
            let got = fs
                .via(mw)
                .read(&mut c, "team", &p(&format!("/chaos/{name}")))
                .unwrap_or_else(|e| panic!("acked {name} unreadable on mw {mw}: {e}"));
            per_mw.push(got);
        }
        assert!(
            per_mw.windows(2).all(|w| w[0] == w[1]),
            "{name} differs across middlewares"
        );
        assert!(
            values.iter().any(|v| per_mw[0] == FileContent::from_str(v)),
            "{name} holds a value no op ever wrote"
        );
        contents.insert(name.clone(), per_mw.remove(0));
    }

    let m = fs.layer().mw(0).metrics().clone();
    ChaosOutcome {
        acks,
        listing,
        contents,
        faults,
        retries: m.counter_value(retry::OP_RETRIES),
        gave_up: m.counter_value(retry::OP_GAVE_UP),
    }
}

#[test]
fn chaos_at_five_percent_converges_with_no_give_ups() {
    for profile in PROFILES {
        let out = run_chaos(profile, 0xC0FFEE, 0.05);
        assert!(out.faults.errors + out.faults.replica_errors > 0, "{out:?}");
        // The retry budget (5 attempts) absorbs a 5% error rate completely.
        assert_eq!(out.gave_up, 0, "{}: {out:?}", profile.0);
        assert!(out.retries > 0, "faults at 5% must have caused retries");
        // Every client-acknowledged op is reflected in the final state (the
        // run_chaos assertions), and the namespace is non-trivial.
        assert!(!out.listing.is_empty());
    }
}

#[test]
fn chaos_at_one_percent_converges() {
    for profile in PROFILES {
        let out = run_chaos(profile, 0xBEE, 0.01);
        assert_eq!(out.gave_up, 0, "{}: {out:?}", profile.0);
        assert!(!out.listing.is_empty());
    }
}

#[test]
fn chaos_at_ten_percent_converges_even_if_ops_fail() {
    // At 10% some client ops may exhaust their retries and fail — that is
    // allowed; what matters is that failed ops are invisible and acked ops
    // are durable (asserted inside run_chaos).
    for profile in PROFILES {
        let out = run_chaos(profile, 0xD00D, 0.10);
        assert!(out.faults.errors > 0, "{out:?}");
        assert!(!out.listing.is_empty());
    }
}

#[test]
fn traced_chaos_run_exports_valid_chrome_trace() {
    // Tracing every op through a faulty run must yield a chrome://tracing-
    // loadable export in which the injected failures are visible: backoff
    // intervals from the retry layer and per-replica votes from the quorum
    // paths.
    let fs = H2Cloud::new(H2Config {
        trace_sample: 1.0,
        ..config(PROFILES[0])
    });
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team").unwrap();
    fs.mkdir(&mut ctx, "team", &p("/chaos")).unwrap();
    fs.quiesce();
    let spec = FaultSpec::errors(0.10).with_slow(0.10, Duration::from_millis(2));
    fs.cluster().set_fault_plan(Some(
        FaultPlan::uniform(0xFACADE, spec).with_replica_errors(0.10),
    ));
    for i in 0..60usize {
        let mut c = OpCtx::for_test();
        let path = p(&format!("/chaos/f{:02}", i % 12));
        let _ = fs.via(i % 3).write(
            &mut c,
            "team",
            &path,
            FileContent::from_str(&format!("v{i}")),
        );
        let mut c = OpCtx::for_test();
        let _ = fs.via(i % 3).read(&mut c, "team", &path);
    }
    fs.cluster().set_fault_plan(None);

    let traces = fs.recent_traces(usize::MAX);
    assert!(!traces.is_empty(), "sampling at 1.0 collected nothing");
    let json = h2util::trace::chrome_trace_json(&traces);
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"displayTimeUnit\""), "{json}");
    // Injected faults left their marks: retry backoffs and replica votes.
    for cat in ["op", "mw", "cloud", "quorum", "replica", "backoff"] {
        assert!(
            json.contains(&format!("\"cat\": \"{cat}\"")),
            "no {cat} events in the export"
        );
    }
    assert!(json.contains("\"vote\""), "replica votes missing");
    assert!(json.contains("retry"), "retry annotations missing");
    // Structurally valid JSON: braces and brackets balance outside strings.
    let (mut braces, mut brackets, mut in_str, mut esc) = (0i64, 0i64, false, false);
    for ch in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match ch {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => braces += 1,
            '}' if !in_str => braces -= 1,
            '[' if !in_str => brackets += 1,
            ']' if !in_str => brackets -= 1,
            _ => {}
        }
        assert!(braces >= 0 && brackets >= 0, "negative nesting");
    }
    assert_eq!((braces, brackets, in_str), (0, 0, false), "unbalanced JSON");
}

#[test]
fn chaos_with_live_rebalance_at_five_percent_loses_no_acks() {
    // The tentpole property: a live rebalance (add + throttled migration +
    // drain) woven through a 5% fault window must not lose a single
    // acknowledged operation — run_chaos_with asserts acked state ==
    // converged state on every middleware. The counters prove the run
    // actually exercised the moving ring rather than racing past it.
    for profile in PROFILES {
        let out = run_chaos_with(profile, 0x5CA1E, 0.05, true);
        assert!(out.faults.errors + out.faults.replica_errors > 0, "{out:?}");
        assert_eq!(out.gave_up, 0, "{}: {out:?}", profile.0);
        assert!(!out.listing.is_empty());
    }
}

#[test]
fn chaos_rebalance_replays_byte_identically_from_its_seed() {
    // Migration copies use the repair path (no injector draws), so a live
    // rebalance must not perturb the deterministic replay guarantee.
    for profile in PROFILES {
        let a = run_chaos_with(profile, 0xB07ED, 0.05, true);
        let b = run_chaos_with(profile, 0xB07ED, 0.05, true);
        assert_eq!(
            a, b,
            "{}: same seed + same rebalance must replay exactly",
            profile.0
        );
    }
}

#[test]
fn fault_window_then_resync_reconverges_without_writes() {
    // Regression for the post-fault re-convergence gap: gossip dropped
    // during a fault window used to leave a middleware's untouched rings
    // stale FOREVER — nothing would ever re-announce them, and the old
    // workaround was to write fresh data into every directory just to force
    // a re-flood. The anti-entropy sweep (`H2Layer::resync`) must close the
    // gap with no new writes at all.
    for profile in PROFILES {
        let fs = h2(profile);
        let mut ctx = OpCtx::for_test();
        fs.create_account(&mut ctx, "team").unwrap();
        for d in ["a", "b", "c"] {
            fs.mkdir(&mut ctx, "team", &p(&format!("/{d}"))).unwrap();
        }
        fs.quiesce();
        // Fault window: each middleware writes into its own directory while a
        // third of gossip is dropped and replicas misbehave.
        fs.cluster()
            .set_fault_plan(Some(FaultPlan::uniform(0x57A1E, FaultSpec::errors(0.05))));
        for (i, d) in ["a", "b", "c"].iter().enumerate() {
            for f in 0..4 {
                let mut c = OpCtx::for_test();
                fs.via(i)
                    .write(
                        &mut c,
                        "team",
                        &p(&format!("/{d}/f{f}")),
                        FileContent::from_str(&format!("{d}{f}")),
                    )
                    .unwrap();
            }
            let _ = fs.layer().pump_with_faults(h2cloud::layer::GossipFaults {
                drop_every: 3,
                duplicate_every: 4,
            });
        }
        fs.cluster().set_fault_plan(None);
        // No writes from here on: the sweep alone must reconverge every view.
        fs.layer().resync().unwrap();
        let mut c = OpCtx::for_test();
        let reference = fs.via(0).list(&mut c, "team", &p("/")).unwrap();
        assert_eq!(reference, vec!["a", "b", "c"]);
        for mw in 0..3 {
            for d in ["a", "b", "c"] {
                let mut c = OpCtx::for_test();
                assert_eq!(
                    fs.via(mw)
                        .list(&mut c, "team", &p(&format!("/{d}")))
                        .unwrap(),
                    vec!["f0", "f1", "f2", "f3"],
                    "{}: middleware {mw} still stale on /{d} after resync",
                    profile.0
                );
            }
        }
    }
}

#[test]
fn chaos_replays_byte_identically_from_its_seed() {
    for profile in PROFILES {
        let a = run_chaos(profile, 0x5EED, 0.07);
        let b = run_chaos(profile, 0x5EED, 0.07);
        assert_eq!(
            a, b,
            "{}: same seed must replay the same run exactly",
            profile.0
        );
        // And a different seed actually takes a different path. The retry
        // budget can absorb every fault at this rate, so client-visible acks
        // may match — the injector accounting must still differ.
        let c = run_chaos(profile, 0x5EED + 1, 0.07);
        assert_ne!(
            (a.faults, a.retries),
            (c.faults, c.retries),
            "{}: different seeds should draw different faults",
            profile.0
        );
    }
}
