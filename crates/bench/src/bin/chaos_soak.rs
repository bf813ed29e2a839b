//! Nightly chaos soak: one seeded fault-injection run per invocation.
//!
//! The CI soak job sweeps this binary over many seeds (`H2_CHAOS_SEED`,
//! decimal or `0x`-hex). Each invocation soaks its seed twice, once on the
//! paper profile and once on the tuned one: each run drives the full
//! three-middleware Deferred stack through a write/delete/rebalance storm
//! at a 5% fault rate with tracing on, then verifies the convergence
//! contract the chaos test suite pins: every middleware holds exactly the
//! acknowledged state — nothing lost, nothing resurrected, acked contents
//! readable everywhere.
//!
//! On success it prints a one-line summary per profile and exits 0. On any
//! loss it writes the failing seed and profile (`failing_seed.txt`) and the
//! run's full chrome://tracing export (`chrome_trace.json`) into
//! `--out <dir>` (default `soak-artifacts/`) so the nightly job can upload
//! them, and exits 1. Runs are deterministic: replaying the failing seed
//! locally reproduces the run event-for-event.
//!
//! ```bash
//! H2_CHAOS_SEED=0xC0FFEE cargo run --release -p h2bench --bin chaos_soak
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::faults::{FaultPlan, FaultSpec};
use h2util::OpCtx;
use swiftsim::ClusterConfig;

const RATE: f64 = 0.05;
const OPS: usize = 120;

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// One deterministic soak run. `Err` carries a human-readable description
/// of the first convergence violation found.
fn soak(seed: u64, fs: &H2Cloud) -> Result<String, String> {
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "team")
        .map_err(|e| format!("create_account: {e}"))?;
    fs.mkdir(&mut ctx, "team", &p("/chaos"))
        .map_err(|e| format!("mkdir: {e}"))?;
    fs.quiesce();

    let spec = FaultSpec::errors(RATE)
        .with_slow(RATE, Duration::from_millis(2))
        .with_torn(RATE / 2.0);
    fs.cluster().set_fault_plan(Some(
        FaultPlan::uniform(seed, spec).with_replica_errors(RATE),
    ));

    // Same ground-truth bookkeeping as the chaos test suite: a failed
    // overwrite is indeterminate (content may have streamed before the
    // tuple failed), so each name maps to the set of values it may hold.
    let mut possible: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut acked = 0usize;
    let mut drained = false;
    for i in 0..OPS {
        // A live rebalance woven through the fault window: add a device a
        // third of the way in (migrator throttled), drain a founder two
        // thirds in.
        if i == 40 {
            fs.cluster()
                .add_node(0, 1.0)
                .map_err(|e| format!("add_node: {e}"))?;
        }
        if i == 80 {
            fs.cluster().migrate_all();
            if !fs.cluster().migration_active() {
                fs.cluster()
                    .drain_node(swiftsim::DeviceId(0))
                    .map_err(|e| format!("drain_node: {e}"))?;
                drained = true;
            }
        }
        if i > 40 {
            fs.cluster().migrate_step(4);
        }

        let slot = i % 24;
        let mw = slot % 3;
        let name = format!("f{slot:02}");
        let path = format!("/chaos/{name}");
        let mut c = OpCtx::for_test();
        if i >= 96 && slot % 4 == 0 {
            if fs.via(mw).delete_file(&mut c, "team", &p(&path)).is_ok() {
                acked += 1;
                possible.remove(&name);
            }
        } else {
            let value = format!("v{i}");
            if fs
                .via(mw)
                .write(&mut c, "team", &p(&path), FileContent::from_str(&value))
                .is_ok()
            {
                acked += 1;
                possible.insert(name, [value].into());
            } else if let Some(values) = possible.get_mut(&name) {
                values.insert(value);
            }
        }
        if i % 10 == 9 {
            let _ = fs.layer().pump();
        }
    }

    let faults = fs.cluster().fault_stats().ok_or("fault plan vanished")?;

    // Clean phase: clear the injector, finish the rebalance, settle.
    fs.cluster().set_fault_plan(None);
    fs.cluster().migrate_all();
    if !drained {
        fs.cluster()
            .drain_node(swiftsim::DeviceId(0))
            .map_err(|e| format!("late drain: {e}"))?;
        fs.cluster().migrate_all();
    }
    if fs.cluster().migration_active() {
        return Err("migration did not complete after faults cleared".into());
    }
    fs.layer().resync().map_err(|e| format!("resync: {e}"))?;
    fs.quiesce();
    fs.cluster().repair();

    // Verify: identical listings on every middleware, equal to the acked
    // namespace; every acked file readable everywhere with a value some
    // op actually wrote.
    let listing: Vec<String> = {
        let mut c = OpCtx::for_test();
        fs.via(0)
            .list(&mut c, "team", &p("/chaos"))
            .map_err(|e| format!("final list: {e}"))?
    };
    for mw in 1..3 {
        let mut c = OpCtx::for_test();
        let got = fs
            .via(mw)
            .list(&mut c, "team", &p("/chaos"))
            .map_err(|e| format!("final list via {mw}: {e}"))?;
        if got != listing {
            return Err(format!("middleware {mw} namespace diverged"));
        }
    }
    let expected: Vec<String> = possible.keys().cloned().collect();
    if listing != expected {
        return Err(format!(
            "acked-state mismatch: expected {expected:?}, got {listing:?}"
        ));
    }
    for (name, values) in &possible {
        let mut per_mw = Vec::new();
        for mw in 0..3 {
            let mut c = OpCtx::for_test();
            let got = fs
                .via(mw)
                .read(&mut c, "team", &p(&format!("/chaos/{name}")))
                .map_err(|e| format!("acked {name} unreadable on mw {mw}: {e}"))?;
            per_mw.push(got);
        }
        if !per_mw.windows(2).all(|w| w[0] == w[1]) {
            return Err(format!("{name} differs across middlewares"));
        }
        if !values.iter().any(|v| per_mw[0] == FileContent::from_str(v)) {
            return Err(format!("{name} holds a value no op ever wrote"));
        }
    }
    // The soak must have actually injected faults and landed writes.
    if faults.errors + faults.replica_errors == 0 {
        return Err("injector fired no faults — vacuous run".into());
    }
    if listing.is_empty() {
        return Err("no acked files survived — vacuous run".into());
    }
    Ok(format!(
        "{acked}/{OPS} acked, {} files, {} errors injected",
        listing.len(),
        faults.errors + faults.replica_errors,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "soak-artifacts".to_string());
    let seed = std::env::var("H2_CHAOS_SEED")
        .ok()
        .as_deref()
        .and_then(parse_seed)
        .unwrap_or(0xC0FFEE);

    // Tracing at 1.0 so a failing run ships its full event timeline; the
    // ring cache off, so reads through any middleware see the cloud.
    for (profile, cfg) in [("paper", H2Config::default()), ("tuned", H2Config::tuned())] {
        let fs = H2Cloud::new(H2Config {
            middlewares: 3,
            mode: MaintenanceMode::Deferred,
            cluster: ClusterConfig {
                cost: Arc::new(h2util::CostModel::zero()),
                ..ClusterConfig::default()
            },
            cache_capacity: 0,
            trace_sample: 1.0,
            ..cfg
        });
        match soak(seed, &fs) {
            Ok(summary) => println!("chaos-soak OK: seed {seed:#x}, {profile} profile: {summary}"),
            Err(why) => {
                eprintln!("chaos-soak FAILED: seed {seed:#x}, {profile} profile: {why}");
                if let Err(e) = std::fs::create_dir_all(&out_dir) {
                    eprintln!("cannot create {out_dir}: {e}");
                    std::process::exit(1);
                }
                let seed_file = format!("{out_dir}/failing_seed.txt");
                let trace_file = format!("{out_dir}/chrome_trace.json");
                let _ = std::fs::write(
                    &seed_file,
                    format!("H2_CHAOS_SEED={seed:#x}\nprofile {profile}\n{why}\n"),
                );
                let traces = fs.recent_traces(usize::MAX);
                let _ = std::fs::write(&trace_file, h2util::trace::chrome_trace_json(&traces));
                eprintln!("wrote {seed_file} and {trace_file}");
                std::process::exit(1);
            }
        }
    }
}
