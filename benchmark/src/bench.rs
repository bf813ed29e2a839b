//! The two kinds of run: measured (tracing off, the end-to-end metrics)
//! and traced (the per-layer metrics, and a trace file).

use std::path::Path;
use std::time::Duration;

use crate::names;
use crate::probes::{probe_all, Spread};
use crate::report::{self, Values};
use crate::run::{run, Fail, Run, Stop, SPAN_FILE_ROUNDS};
use crate::spans::{chrome_trace, Recorder, Span};
use crate::workloads::{Workload, SLICE_OPS};

/// A measured run sets up at least `SETUPS.0` times, and goes on — up to
/// `SETUPS.1` times — until set-up has taken 1.5 s in all:
/// a set-up of 50 ms needs more repetitions than one of a second before
/// its median holds still. All but the last system are built, warmed up,
/// timed and dropped.
pub const SETUPS: (usize, usize) = (3, 9);
const SETUP_SECONDS: f64 = 1.5;

/// Share of `--seconds` the traced run spends in each of its two windows;
/// set-up twice and the layer probes take the rest.
const TRACED_WINDOW_SHARE: f64 = 0.25;

/// What a run hands back: the metric values, the operations and checks
/// attempted and failed, and the first failure if there was one.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Batch spread of each layer probe (traced runs).
    pub probes: Vec<(&'static str, Spread)>,
}

fn outcome(run: &Run, values: Values, probes: Vec<(&'static str, Spread)>) -> Outcome {
    let (attempted, failed) = report::attempted_failed(run);
    Outcome {
        values,
        attempted,
        failed,
        first_failure: report::first_failure(run).map(str::to_string),
        probes,
    }
}

/// Set up repeatedly (see [`SETUPS`]; `setups` is the range to stay in),
/// measure on the last system, check its outputs.
pub fn measured(
    w: &Workload,
    seed: u64,
    stop: Stop,
    setups: (usize, usize),
) -> Result<Outcome, Fail> {
    let mut times: Vec<Duration> = Vec::new();
    while times.len() + 1 < setups.0
        || (times.len() + 1 < setups.1
            && times.iter().sum::<Duration>().as_secs_f64() < SETUP_SECONDS)
    {
        times.push(run(w, seed, 0.0, false, None)?.setup);
    }
    let last = run(w, seed, 0.0, false, Some(stop))?;
    times.push(last.setup);
    let values = report::end_to_end(&last, &times, w.accounts_per_client);
    Ok(outcome(&last, values, Vec::new()))
}

/// Run a window with every tracer off, then the same rounds on a fresh
/// system with the program's span tracer sampling everything and this
/// benchmark's per-operation spans and allocation counts on; check
/// outputs; probe the layers on the live system; write the trace file.
pub fn traced(w: &Workload, seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, Fail> {
    let window = Stop::Seconds(seconds * TRACED_WINDOW_SHARE);
    let (rounds, untraced_ns_per_op) = {
        let plain = run(w, seed, 0.0, false, Some(window))?;
        (
            plain.window.rounds.len(),
            plain.window.replay_ns() as f64 / report::window_ops(&plain) as f64,
        )
    };
    let mut traced = run(w, seed, 1.0, true, Some(Stop::Rounds(rounds)))?;
    let origin = h2util::clock::wall_now();
    let probes = probe_all(&traced.fs, &traced.clients, seed, Recorder::new(origin, 0))?;
    let replicas = traced.fs.cluster().config().replicas;
    let values = report::per_layer(&traced, untraced_ns_per_op, &probes, replicas);

    let mut spans = std::mem::take(&mut traced.spans);
    for c in &mut traced.clients {
        spans.append(&mut c.recorder.spans);
        let track = c.id as u32 + 1;
        let cut = SPAN_FILE_ROUNDS * SLICE_OPS;
        spans.extend(c.tally.op_spans.iter().take(cut).map(|s| Span {
            name: s.kind.label(),
            track,
            start_ns: s.start_ns,
            dur_ns: u64::from(s.dur_ns),
        }));
    }
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(
        out_dir.join(format!("{}.trace.json", w.name)),
        chrome_trace(&spans),
    )?;
    Ok(outcome(&traced, values, probes))
}

/// The metric definitions a run of this kind reports.
pub fn defs(traced: bool) -> Vec<names::Def> {
    if traced {
        names::per_layer()
    } else {
        names::end_to_end()
    }
}
