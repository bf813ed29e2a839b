//! Tiny runs of every workload against the real system: no operation
//! fails, every check passes, modelled metrics repeat bit for bit, and the
//! traced run reports every per-layer metric and writes its trace.

use h2perf::bench::{self, Outcome};
use h2perf::manifest::benchmark_json;
use h2perf::names;
use h2perf::run::Stop;
use h2perf::workloads;

/// Modelled metrics: functions of the op stream alone when the number of
/// rounds is fixed.
const MODELLED: [&str; 6] = [
    names::VLAT_MS_MEAN,
    names::REQS_PER_OP,
    names::MAINT_VMS_PER_OP,
    names::STORED_BYTES_PER_LIVE_BYTE,
    names::STORED_OBJECTS_PER_ENTRY,
    names::OK_OP_SHARE,
];

fn quick(w: &workloads::Workload) -> Outcome {
    // More rounds than accounts where that is cheap, so accounts are
    // revisited after their garbage was collected.
    let rounds = (w.accounts_per_client + 2).min(6);
    bench::measured(w, 11, Stop::Rounds(rounds), (1, 1)).unwrap()
}

fn value(o: &Outcome, name: &str) -> f64 {
    o.values.iter().find(|(n, _)| n == name).unwrap().1
}

#[test]
fn every_workload_runs_clean_and_repeats_bit_for_bit() {
    for w in workloads::ALL {
        let (a, b) = (quick(&w), quick(&w));
        for o in [&a, &b] {
            assert_eq!(o.failed, 0, "{}: {:?}", w.name, o.first_failure);
            assert!(o.attempted > 0);
            assert_eq!(o.values.len(), names::end_to_end().len());
            for (name, v) in &o.values {
                assert!(v.is_finite() && *v > 0.0, "{} {name} = {v}", w.name);
            }
        }
        for name in MODELLED {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&b, name).to_bits(),
                "{} {name}: {} vs {}",
                w.name,
                value(&a, name),
                value(&b, name)
            );
        }
    }
}

#[test]
fn the_degraded_run_replays_churn_through_the_second_wave() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("degraded");
    let run = |name| bench::traced(&workloads::by_name(name).unwrap(), 11, 0.4, &dir).unwrap();
    let (healthy, degraded) = (run("churn"), run("churn_degraded"));
    assert_eq!(degraded.failed, 0, "{:?}", degraded.first_failure);
    // Same operations, same answers, same modelled requests; the reads that
    // find a device down go out in a second wave.
    let hedged = |o: &Outcome| value(o, names::CLUSTER_HEDGED_READS_PER_OP);
    assert!(hedged(&degraded) > 2.0 * hedged(&healthy));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_traced_run_reports_every_per_layer_metric_and_writes_a_trace() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced");
    let w = workloads::by_name("content").unwrap();
    let o = bench::traced(&w, 11, 0.4, &dir).unwrap();
    assert_eq!(o.failed, 0, "{:?}", o.first_failure);
    let defs = names::per_layer();
    assert_eq!(o.values.len(), defs.len());
    for d in &defs {
        assert!(value(&o, &d.name).is_finite(), "{}", d.name);
    }
    // What the content workload is for shows in its layer numbers.
    assert!(value(&o, names::CAS_BLOCKS_WRITTEN_PER_WRITE) > 1.0);
    assert!(value(&o, names::CAS_DEDUP_RATIO) > 0.0);
    assert!(value(&o, &names::fs_cpu_us(h2perf::model::Kind::Append)) > 0.0);
    let trace = std::fs::read_to_string(dir.join("content.trace.json")).unwrap();
    for span in [
        "\"run\"",
        "\"round\"",
        "\"slice\"",
        "\"append\"",
        "\"maintenance\"",
        "\"gc\"",
    ] {
        assert!(trace.contains(span), "no {span} span");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).unwrap();
    assert_eq!(
        on_disk,
        benchmark_json(),
        "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh manifest`"
    );
    assert!(on_disk.len() <= 64 << 10);
    for w in workloads::ALL {
        assert!(
            w.why.len() <= 200 && !w.why.contains(['\n', '"']),
            "{}",
            w.name
        );
    }
}
