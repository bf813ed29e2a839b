//! Set-up, the round loop and maintenance.
//!
//! A run is a sequence of rounds. In each round every client thread
//! generates one slice of operations for one of its accounts (untimed),
//! then all clients replay their slices (timed by the clients themselves,
//! first start to last end), then the main thread runs maintenance (timed)
//! while the clients wait: never more than [`CLIENTS`] runnable threads.
//! The measured run reads the clock twice per slice and never per
//! operation; per-operation modelled time comes free from the `OpCtx`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use h2cloud::{gc, H2Api, H2Cloud, Method, ResponseBody, WebRequest};
use h2fsapi::CloudFs;
use h2util::clock::wall_now;
use h2util::{BackendCounts, CostModel, NodeId, OpCtx, Timestamp};
use swiftsim::DeviceId;

use crate::alloc;
use crate::model::{Account, Kind, Op, KINDS};
use crate::replay::{apply, detail_digest};
use crate::spans::{Recorder, Span};
use crate::sut::{self, CLIENTS};
use crate::workloads::{Workload, SLICE_OPS};

/// Anything that ends a run without a result.
pub type Fail = Box<dyn std::error::Error + Send + Sync>;

/// When the round loop stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// After the pass over the accounts in which timed work (replay plus
    /// maintenance) reaches this many seconds. Whole passes: accounts differ
    /// (every fourth churn account holds the flat directory), and a window
    /// that ended mid-pass would weigh them by where it happened to end.
    Seconds(f64),
    /// After exactly this many rounds: the same operations whatever the
    /// machine's speed, which is what makes modelled metrics repeat bit for
    /// bit.
    Rounds(usize),
}

/// Peak memory is read when this many rounds of the window are over (or
/// at its end, if it is shorter): after a fixed amount of work. The store
/// keeps a tombstone for every object it ever deleted, so memory grows with
/// every operation, and a reading at the end of a fixed-time window would
/// charge a faster program for the extra operations it fitted in.
pub const RSS_ROUNDS: usize = 16;

/// Rounds whose per-operation spans go into the trace file. The statistics
/// use every traced operation; the file would run to hundreds of megabytes
/// if it held them all.
pub const SPAN_FILE_ROUNDS: usize = 2;

/// One traced operation, compact: millions are kept.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub start_ns: u64,
    pub dur_ns: u32,
    pub kind: Kind,
}

/// What one client saw of the operations of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct KindTally {
    pub ops: u64,
    pub vns: u64,
    pub reqs: u64,
}

/// What one client saw inside the window.
#[derive(Debug, Default)]
pub struct Tally {
    pub ops: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Modelled time of every operation, summed exactly.
    pub vns: u64,
    pub counts: BackendCounts,
    pub by_kind: [KindTally; KINDS],
    /// Traced rounds only: every operation's wall-clock span, and its
    /// modelled time in whole microseconds (for the percentile).
    pub op_spans: Vec<OpSpan>,
    pub vus: Vec<u32>,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Tally {
    pub fn mutations(&self) -> u64 {
        self.kinds(Kind::mutates)
    }

    pub fn content_writes(&self) -> u64 {
        self.kinds(Kind::writes_content)
    }

    fn kinds(&self, pick: fn(Kind) -> bool) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| pick(**k))
            .map(|k| self.by_kind[*k as usize].ops)
            .sum()
    }
}

/// One client thread's state: its accounts' models and what it measured.
#[derive(Debug)]
pub struct Client {
    pub id: usize,
    pub accounts: Vec<Account>,
    /// A private copy of the cluster's cost model: a fresh `OpCtx` per
    /// operation clones the `Arc`, and two threads bumping one reference
    /// count would measure the harness's cache-line traffic.
    cost: Arc<CostModel>,
    slice: Vec<Op>,
    pub tally: Tally,
    pub recorder: Recorder,
    fatal: Option<String>,
}

/// What the main thread tells the clients about the round they are about
/// to run.
struct Shared {
    /// Main thread and clients: a round begins, a round's replay is over.
    barrier: Barrier,
    /// Clients only: slices are generated, replay begins. The main thread
    /// sleeps from the round's first barrier to its last, so while clients
    /// generate and replay there are exactly [`CLIENTS`] runnable threads,
    /// and no clock is read by a thread that has to wait for a core.
    go: Barrier,
    /// When each client's replay began and ended, in nanoseconds since the
    /// run's origin.
    stamps: [(AtomicU64, AtomicU64); CLIENTS],
    /// Live bytes and live entries (files and directories) in each client's
    /// models, as of the slice it generated last.
    live: [(AtomicU64, AtomicU64); CLIENTS],
    stop: AtomicBool,
    account: AtomicUsize,
    ops: AtomicUsize,
    /// Count this round into the tallies (off during warm-up).
    tallied: AtomicBool,
    /// Record a wall-clock span and the allocations of every operation.
    traced: AtomicBool,
}

impl Client {
    fn populate(&self, fs: &H2Cloud) -> h2util::Result<()> {
        for a in &self.accounts {
            let mut ctx = OpCtx::new(self.cost.clone());
            fs.create_account(&mut ctx, &a.name)?;
            let (dirs, files) = a.spec();
            fs.bulk_import(&mut ctx, &a.name, &dirs, &files)?;
        }
        Ok(())
    }

    /// Replay the generated slice; returns when it began and ended.
    fn replay(&mut self, fs: &H2Cloud, account: usize, tallied: bool, traced: bool) -> (u64, u64) {
        let name = &self.accounts[account].name;
        let t = &mut self.tally;
        let slice_start = self.recorder.now();
        let (allocs, alloc_bytes) = alloc::thread_tally();
        for op in &self.slice {
            let mut ctx = OpCtx::new(self.cost.clone());
            let start_ns = if traced { self.recorder.now() } else { 0 };
            let outcome = apply(fs, &mut ctx, name, op);
            if !tallied {
                continue;
            }
            let vns = ctx.elapsed().as_nanos() as u64;
            if traced {
                let dur_ns = (self.recorder.now() - start_ns).min(u64::from(u32::MAX)) as u32;
                t.op_spans.push(OpSpan {
                    start_ns,
                    dur_ns,
                    kind: op.kind,
                });
                t.vus.push((vns / 1000).min(u64::from(u32::MAX)) as u32);
            }
            let counts = ctx.counts();
            let k = &mut t.by_kind[op.kind as usize];
            t.ops += 1;
            t.vns += vns;
            t.counts.add(&counts);
            k.ops += 1;
            k.vns += vns;
            k.reqs += counts.total();
            if !matches!(outcome, Ok(true)) {
                t.failed += 1;
                t.first_failure.get_or_insert_with(|| match outcome {
                    Err(e) => format!("{} {}: {e}", op.kind.label(), op.path),
                    _ => format!(
                        "{} {}: answer differs from the model",
                        op.kind.label(),
                        op.path
                    ),
                });
            }
        }
        let slice_end = self.recorder.now();
        if tallied && traced {
            let (a, b) = alloc::thread_tally();
            t.allocs += a - allocs;
            t.alloc_bytes += b - alloc_bytes;
            self.recorder.span("slice", slice_start, slice_end);
        }
        (slice_start, slice_end)
    }

    fn serve(mut self, fs: &H2Cloud, sh: &Shared) -> Client {
        if let Err(e) = self.populate(fs) {
            self.fatal = Some(format!("populating client {}: {e}", self.id));
        }
        sh.barrier.wait();
        loop {
            sh.barrier.wait();
            if sh.stop.load(Ordering::SeqCst) {
                return self;
            }
            let account = sh.account.load(Ordering::SeqCst);
            let ops = sh.ops.load(Ordering::SeqCst);
            self.slice.clear();
            let model = &mut self.accounts[account];
            self.slice.extend((0..ops).map(|_| model.next_op()));
            let models = self.accounts.iter();
            let (bytes, entries) = models.fold((0, 0), |(b, e), a| {
                (b + a.live_bytes(), e + a.live_files() + a.live_dirs())
            });
            sh.live[self.id].0.store(bytes, Ordering::SeqCst);
            sh.live[self.id].1.store(entries, Ordering::SeqCst);
            sh.go.wait();
            if self.fatal.is_none() {
                let (start, end) = self.replay(
                    fs,
                    account,
                    sh.tallied.load(Ordering::SeqCst),
                    sh.traced.load(Ordering::SeqCst),
                );
                sh.stamps[self.id].0.store(start, Ordering::SeqCst);
                sh.stamps[self.id].1.store(end, Ordering::SeqCst);
            }
            sh.barrier.wait();
        }
    }
}

/// Maintenance inside the window: what it cost on both clocks and what it
/// did.
#[derive(Debug, Default, Clone)]
pub struct Maintenance {
    pub pump_ns: u64,
    pub gc_ns: u64,
    pub repair_ns: u64,
    /// Modelled time and backend requests: the middlewares' background
    /// spend (merge, gossip) plus the GC contexts.
    pub virtual_time: Duration,
    pub reqs: u64,
    pub deliveries: u64,
    pub gc_passes: u64,
    pub gc_objects_deleted: u64,
    pub gc_tuples_compacted: u64,
}

impl Maintenance {
    pub fn wall_ns(&self) -> u64 {
        self.pump_ns + self.gc_ns + self.repair_ns
    }
}

/// The measured window, round by round.
#[derive(Debug, Default)]
pub struct Window {
    /// `(replay, maintenance)` wall nanoseconds of each round.
    pub rounds: Vec<(u64, u64)>,
    pub maintenance: Maintenance,
    /// Text of the `op=metrics` API route at the window's start and end.
    pub metrics_before: String,
    pub metrics_after: String,
    pub buf_before: h2util::buf::BufStats,
    pub buf_after: h2util::buf::BufStats,
    /// The process's peak resident set when round [`RSS_ROUNDS`] ended.
    pub peak_rss_kb: u64,
    /// Bytes the store holds per live file byte in the models, and objects
    /// it holds per live file or directory: read after every round's
    /// maintenance — when every account is merged and, where the workload
    /// collects garbage, collected — and averaged over the rounds. One
    /// reading depends on which few large files happen to be alive.
    pub stored_bytes_per_live_byte: f64,
    pub stored_objects_per_entry: f64,
}

impl Window {
    pub fn replay_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.0).sum()
    }
}

/// What the final check found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Checks made: one per directory listed, one per account fsck'd.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// A system after set-up and, if asked for, a measured window.
pub struct Run {
    pub fs: H2Cloud,
    pub clients: Vec<Client>,
    pub setup: Duration,
    pub window: Window,
    /// Spans of the main thread: run, rounds, maintenance and its parts.
    pub spans: Vec<Span>,
    /// What the check after the final quiesce and GC found.
    pub verdict: Verdict,
}

fn far_future() -> Timestamp {
    Timestamp::new(u64::MAX, 0, NodeId(0))
}

/// Modelled time and backend requests the middlewares have spent in the
/// background (merge, gossip) so far.
fn background_spend(fs: &H2Cloud) -> (Duration, u64) {
    let mut total = (Duration::ZERO, 0);
    for mw in fs.layer().middlewares() {
        let (time, counts) = mw.background_spend();
        total.0 += time;
        total.1 += counts.total();
    }
    total
}

fn peak_rss_kb() -> Result<u64, Fail> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Text of the `op=metrics` route: the only place this benchmark reads the
/// program's counters from.
pub fn metrics_text(fs: &H2Cloud, account: &str) -> Result<String, Fail> {
    let req = WebRequest::new(Method::Get, &format!("/v1/{account}")).with_query("op", "metrics");
    match H2Api::new(fs).handle(&req) {
        resp if !resp.is_success() => Err(format!("op=metrics answered {}", resp.status).into()),
        resp => match resp.body {
            ResponseBody::Message(text) => Ok(text),
            other => Err(format!("op=metrics answered {other:?}").into()),
        },
    }
}

/// The main thread's side of the round protocol.
struct Conductor<'a> {
    fs: &'a H2Cloud,
    sh: &'a Shared,
    workload: &'a Workload,
    /// Account names, `[client][index]`.
    names: &'a [Vec<String>],
    recorder: Recorder,
    cost: Arc<CostModel>,
}

impl Conductor<'_> {
    /// Run one round's replay and return its wall time: from the first
    /// client's start to the last client's end, on the clients' clocks.
    fn replay(&mut self, account: usize, ops: usize, tallied: bool, traced: bool) -> u64 {
        self.sh.account.store(account, Ordering::SeqCst);
        self.sh.ops.store(ops, Ordering::SeqCst);
        self.sh.tallied.store(tallied, Ordering::SeqCst);
        self.sh.traced.store(traced, Ordering::SeqCst);
        self.sh.barrier.wait(); // clients generate, then replay
        self.sh.barrier.wait(); // clients done
        let stamps = || self.sh.stamps.iter();
        let start = stamps()
            .map(|s| s.0.load(Ordering::SeqCst))
            .min()
            .unwrap_or(0);
        let end = stamps()
            .map(|s| s.1.load(Ordering::SeqCst))
            .max()
            .unwrap_or(0);
        if traced {
            self.recorder.span("replay", start, end);
        }
        end - start
    }

    /// Drain the background merger and the gossip fabric, then collect
    /// garbage in the accounts the round visited. `into` is `None` during
    /// warm-up.
    fn maintain(
        &mut self,
        account: usize,
        into: Option<&mut Maintenance>,
        traced: bool,
    ) -> Result<u64, Fail> {
        let start = self.recorder.now();
        let deliveries = self.fs.layer().pump()?;
        let pumped = self.recorder.now();
        let mut ctx = OpCtx::new(self.cost.clone());
        let mut report = gc::GcReport::default();
        let mut passes = 0;
        if self.workload.gc {
            for names in self.names {
                let r = gc::collect(self.fs, &mut ctx, &names[account], far_future())?;
                report.objects_deleted += r.objects_deleted;
                report.tuples_compacted += r.tuples_compacted;
                passes += 1;
            }
        }
        let end = self.recorder.now();
        if traced {
            self.recorder.span("quiesce", start, pumped);
            if self.workload.gc {
                self.recorder.span("gc", pumped, end);
            }
            self.recorder.span("maintenance", start, end);
        }
        if let Some(m) = into {
            m.pump_ns += pumped - start;
            m.gc_ns += end - pumped;
            m.virtual_time += ctx.elapsed();
            m.reqs += ctx.counts().total();
            m.deliveries += deliveries as u64;
            m.gc_passes += passes;
            m.gc_objects_deleted += report.objects_deleted as u64;
            m.gc_tuples_compacted += report.tuples_compacted as u64;
        }
        Ok(end - start)
    }

    /// Everything from a populated system to the end of the window.
    fn conduct(&mut self, window: Option<Stop>, traced: bool) -> Result<(Instant, Window), Fail> {
        self.fs.layer().pump()?;
        let w = self.workload;
        for account in 0..w.accounts_per_client {
            self.replay(account, w.warm_ops, false, false);
            self.maintain(account, None, false)?;
        }
        if w.degraded {
            self.fs.cluster().set_node_down(DeviceId(0), true);
        }
        let ready = wall_now();
        let mut win = Window::default();
        let Some(stop) = window else {
            return Ok((ready, win));
        };
        let probe_account = &self.names[0][0];
        win.metrics_before = metrics_text(self.fs, probe_account)?;
        win.buf_before = h2util::buf::stats();
        let spend_before = background_spend(self.fs);
        let run_start = self.recorder.now();
        alloc::set_counting(traced);
        let mut timed = 0u64;
        loop {
            let round = win.rounds.len();
            let account = round % w.accounts_per_client;
            let round_start = self.recorder.now();
            let replay_ns = self.replay(account, SLICE_OPS, true, traced);
            let maint_ns = self.maintain(account, Some(&mut win.maintenance), traced)?;
            if traced {
                self.recorder.close("round", round_start);
            }
            win.rounds.push((replay_ns, maint_ns));
            let stats = self.fs.storage_stats();
            let live = || self.sh.live.iter();
            let bytes: u64 = live().map(|l| l.0.load(Ordering::SeqCst)).sum();
            let entries: u64 = live().map(|l| l.1.load(Ordering::SeqCst)).sum();
            win.stored_bytes_per_live_byte += stats.bytes as f64 / bytes.max(1) as f64;
            win.stored_objects_per_entry += stats.objects as f64 / entries.max(1) as f64;
            if win.rounds.len() == RSS_ROUNDS {
                win.peak_rss_kb = peak_rss_kb()?;
            }
            timed += replay_ns + maint_ns;
            let done = match stop {
                Stop::Seconds(s) => {
                    timed as f64 >= s * 1e9
                        && win.rounds.len().is_multiple_of(w.accounts_per_client)
                }
                Stop::Rounds(n) => win.rounds.len() >= n,
            };
            if done {
                break;
            }
        }
        alloc::set_counting(false);
        win.stored_bytes_per_live_byte /= win.rounds.len() as f64;
        win.stored_objects_per_entry /= win.rounds.len() as f64;
        if win.rounds.len() < RSS_ROUNDS {
            win.peak_rss_kb = peak_rss_kb()?;
        }
        if w.degraded {
            // The device comes back and the replicator moves handoff
            // replicas home: billed to the last round's maintenance.
            let start = self.recorder.now();
            self.fs.cluster().set_node_down(DeviceId(0), false);
            self.fs.cluster().repair();
            let ns = self.recorder.close("repair", start);
            win.maintenance.repair_ns += ns;
            if let Some(last) = win.rounds.last_mut() {
                last.1 += ns;
            }
        }
        if traced {
            self.recorder.close("run", run_start);
        }
        let spend_after = background_spend(self.fs);
        win.maintenance.virtual_time += spend_after.0 - spend_before.0;
        win.maintenance.reqs += spend_after.1 - spend_before.1;
        win.buf_after = h2util::buf::stats();
        win.metrics_after = metrics_text(self.fs, probe_account)?;
        Ok((ready, win))
    }
}

/// Build a system, populate it, drain, warm up, and — with a `window` —
/// measure. `trace_sample` goes to the program's own span tracer; `traced`
/// turns on this benchmark's per-operation spans and allocation counts.
pub fn run(
    workload: &Workload,
    seed: u64,
    trace_sample: f64,
    traced: bool,
    window: Option<Stop>,
) -> Result<Run, Fail> {
    let begun = wall_now();
    let fs = H2Cloud::new(sut::tuned(trace_sample));
    let names: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| {
            (0..workload.accounts_per_client)
                .map(|k| sut::account_name(&fs, c, k))
                .collect()
        })
        .collect();
    let sh = Shared {
        barrier: Barrier::new(CLIENTS + 1),
        go: Barrier::new(CLIENTS),
        stamps: Default::default(),
        live: Default::default(),
        stop: AtomicBool::new(false),
        account: AtomicUsize::new(0),
        ops: AtomicUsize::new(0),
        tallied: AtomicBool::new(false),
        traced: AtomicBool::new(false),
    };
    let measured = window.is_some();
    let (conducted, clients, spans) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let client = Client {
                    id,
                    accounts: workload.accounts(seed, id, &names[id]),
                    cost: Arc::new(CostModel::clone(&fs.cost_model())),
                    slice: Vec::with_capacity(SLICE_OPS),
                    tally: Tally::default(),
                    recorder: Recorder::new(begun, id as u32 + 1),
                    fatal: None,
                };
                let (fs, sh) = (&fs, &sh);
                s.spawn(move || client.serve(fs, sh))
            })
            .collect();
        sh.barrier.wait(); // populated
        let mut conductor = Conductor {
            fs: &fs,
            sh: &sh,
            workload,
            names: &names,
            recorder: Recorder::new(begun, 0),
            cost: fs.cost_model(),
        };
        let conducted = conductor.conduct(window, traced);
        // Clients wait at the top of their loop whenever the main thread is
        // not inside `replay`, so this releases them into the stop check.
        sh.stop.store(true, Ordering::SeqCst);
        sh.barrier.wait();
        let clients: Vec<Result<Client, Fail>> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| Fail::from("a client thread panicked")))
            .collect();
        (conducted, clients, conductor.recorder.spans)
    });
    let clients = clients.into_iter().collect::<Result<Vec<Client>, Fail>>()?;
    if let Some(fatal) = clients.iter().find_map(|c| c.fatal.clone()) {
        return Err(fatal.into());
    }
    let (ready, window) = conducted?;
    let mut out = Run {
        setup: ready.duration_since(begun),
        fs,
        clients,
        window,
        spans,
        verdict: Verdict::default(),
    };
    if measured {
        out.finish(workload)?;
    }
    Ok(out)
}

impl Run {
    /// After the window: quiesce, collect every account's garbage, then
    /// check the whole tree against the model and fsck a sample.
    fn finish(&mut self, workload: &Workload) -> Result<(), Fail> {
        let fs = &self.fs;
        fs.layer().pump()?;
        let mut ctx = OpCtx::new(fs.cost_model());
        if workload.gc {
            for a in self.clients.iter().flat_map(|c| &c.accounts) {
                gc::collect(fs, &mut ctx, &a.name, far_future())?;
            }
            fs.layer().pump()?;
        }
        let v = &mut self.verdict;
        for a in self.clients.iter().flat_map(|c| &c.accounts) {
            for (path, entries, hash) in a.listings() {
                v.attempted += 1;
                let got = fs
                    .list_detailed(&mut ctx, &a.name, path)
                    .map(|l| detail_digest(&l));
                if !matches!(got, Ok(d) if d == (entries, hash)) {
                    v.failed += 1;
                    v.first_failure.get_or_insert_with(|| match got {
                        Err(e) => format!("final listing of {}{path}: {e}", a.name),
                        Ok(_) => {
                            format!("final listing of {}{path} differs from the model", a.name)
                        }
                    });
                }
            }
        }
        // fsck walks descriptors, rings and (on the CAS plane) re-reads and
        // re-hashes every file: one account per client is the sample.
        for a in self.clients.iter().filter_map(|c| c.accounts.first()) {
            v.attempted += 1;
            let report = h2cloud::check::fsck(fs, &mut ctx, &a.name)?;
            let model = (a.live_dirs() as usize, a.live_files() as usize);
            if !report.is_clean() || (report.dirs, report.files) != model {
                v.failed += 1;
                v.first_failure.get_or_insert_with(|| {
                    format!(
                        "fsck of {}: {} dirs {} files (model {model:?}), violations {:?}",
                        a.name, report.dirs, report.files, report.violations
                    )
                });
            }
        }
        Ok(())
    }
}
