//! Layer probes: with the populated system of the traced run still alive,
//! time batches of calls into each layer's public functions on inputs drawn
//! from that workload's own state — its ring keys, its directories'
//! NameRings, its file sizes. README.md lists the signatures probed here:
//! they are what a later refactor has to keep callable.

use std::hint::black_box;

use h2cloud::formatter::{namering_from_str, namering_to_string};
use h2cloud::{ChildRef, H2Cloud, H2Keys, NameRing, Tuple};
use h2fsapi::{CloudFs, FsPath};
use h2util::chunker::{chunk_bytes, chunk_simulated, ChunkParams};
use h2util::{hash128, NamespaceId, NodeId, OpCtx, Timestamp};
use swiftsim::{DeviceId, Meta, ObjectKey, ObjectStore, Payload, StorageNode};

use crate::names;
use crate::rng::Rng;
use crate::run::{Client, Fail};
use crate::spans::Recorder;

/// Batches per probe; the metric is the median batch.
const BATCHES: usize = 25;

/// Calls per batch where the input set is smaller (inputs are cycled).
const BATCH_CALLS: usize = 2048;

/// Namespaces walked to collect inputs.
const WALK_LIMIT: usize = 256;

/// Entries of the ring the per-entry codec and merge probes use: the
/// account's largest directory, padded up to this.
const BIG_RING: usize = 4096;

/// Median, minimum and maximum over the batches of one probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

fn spread(mut v: Vec<f64>) -> Spread {
    v.sort_by(f64::total_cmp);
    Spread {
        median: v[v.len() / 2],
        min: v[0],
        max: v[v.len() - 1],
    }
}

/// `1 / x` of a spread (time per unit to units per time), keeping
/// `min <= median <= max`.
fn inverse(s: Spread, scale: f64) -> Spread {
    Spread {
        median: scale / s.median,
        min: scale / s.max,
        max: scale / s.min,
    }
}

struct Probes {
    recorder: Recorder,
    out: Vec<(&'static str, Spread)>,
}

impl Probes {
    /// Time [`BATCHES`] calls of `batch`, which reports how many units of
    /// work it did; the result is nanoseconds per unit.
    fn time(&mut self, mut batch: impl FnMut() -> Result<usize, Fail>) -> Result<Spread, Fail> {
        let mut per_unit = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start = self.recorder.now();
            let units = batch()?;
            let ns = self.recorder.now() - start;
            per_unit.push(ns as f64 / units.max(1) as f64);
        }
        Ok(spread(per_unit))
    }

    fn probe(
        &mut self,
        name: &'static str,
        batch: impl FnMut() -> Result<usize, Fail>,
    ) -> Result<(), Fail> {
        let s = self.time(batch)?;
        self.out.push((name, s));
        Ok(())
    }
}

/// What the walk over one account's tree collected.
struct Inputs {
    account: String,
    namespaces: Vec<NamespaceId>,
    /// Ring keys of the account's objects, the strings the cluster hashes.
    ring_keys: Vec<String>,
    /// Object names (`ns::child`) of the same objects.
    object_names: Vec<String>,
    small_ring: String,
    big_ring: NameRing,
    sizes: Vec<u64>,
}

fn stamp(i: usize) -> Timestamp {
    Timestamp::new(1_700_000_000_000, i as u32, NodeId(1))
}

fn collect(fs: &H2Cloud, client: &Client) -> Result<Inputs, Fail> {
    let model = &client.accounts[0];
    let account = model.name.clone();
    let mw = fs.layer().mw_for_account(&account).clone();
    let keys = H2Keys::new(&account);
    let mut ctx = OpCtx::new(fs.cost_model());
    let mut namespaces = vec![NamespaceId::ROOT];
    let mut rings: Vec<NameRing> = Vec::new();
    let (mut ring_keys, mut object_names) = (Vec::new(), Vec::new());
    let mut next = 0;
    while next < namespaces.len() {
        let ns = namespaces[next];
        next += 1;
        let ring = mw.read_ring(&mut ctx, &keys, ns)?;
        ring_keys.push(keys.namering(ns).ring_key());
        for (name, tuple) in ring.live() {
            if ring_keys.len() < BIG_RING {
                ring_keys.push(keys.child(ns, name).ring_key());
                object_names.push(H2Keys::child_rel(ns, name));
            }
            if let ChildRef::Dir { ns: child } = tuple.child {
                if namespaces.len() < WALK_LIMIT {
                    namespaces.push(child);
                }
            }
        }
        rings.push(ring);
    }
    rings.retain(|r| !r.is_empty());
    rings.sort_by_key(NameRing::len);
    let small_ring = namering_to_string(rings.get(rings.len() / 2).ok_or("no populated ring")?);
    let mut big_ring = rings.pop().ok_or("no populated ring")?;
    for i in big_ring.len()..BIG_RING {
        big_ring.apply(&format!("pad{i:05}"), Tuple::file(stamp(i), 4096));
    }
    Ok(Inputs {
        account,
        namespaces,
        ring_keys,
        object_names,
        small_ring,
        big_ring,
        sizes: model.file_sizes().take(256).collect(),
    })
}

/// Run every probe. `seed` fills the byte buffers the hash and the chunker
/// read.
pub fn probe_all(
    fs: &H2Cloud,
    clients: &[Client],
    seed: u64,
    recorder: Recorder,
) -> Result<Vec<(&'static str, Spread)>, Fail> {
    let inputs = collect(fs, &clients[0])?;
    let mut p = Probes {
        recorder,
        out: Vec::new(),
    };
    hashing(&mut p, &inputs, seed)?;
    placement(&mut p, fs, &inputs)?;
    codec(&mut p, &inputs)?;
    node(&mut p, &inputs)?;
    cluster(&mut p, fs, &inputs)?;
    ring_reads(&mut p, fs, &inputs)?;
    patches(&mut p, fs, &inputs)?;
    Ok(p.out)
}

fn cycled<T>(items: &[T]) -> impl Iterator<Item = &T> {
    items.iter().cycle().take(BATCH_CALLS.max(items.len()))
}

fn hashing(p: &mut Probes, inputs: &Inputs, seed: u64) -> Result<(), Fail> {
    p.probe(names::HASH_KEY_NS, || {
        Ok(cycled(&inputs.ring_keys)
            .inspect(|k| {
                black_box(hash128(black_box(k.as_bytes())));
            })
            .count())
    })?;
    let mut rng = Rng::derived(seed, "probe bytes");
    let bytes: Vec<u8> = (0..8 << 20).map(|_| rng.next_u64() as u8).collect();
    let block = &bytes[..1 << 20];
    let per_byte = p.time(|| {
        for _ in 0..4 {
            black_box(hash128(black_box(block)));
        }
        Ok(4 * block.len())
    })?;
    // ns per byte to MB/s: 10⁹ bytes per second is 1000 MB/s.
    p.out.push((names::HASH_BLOCK_MB_S, inverse(per_byte, 1e3)));
    let params = ChunkParams::default();
    let per_byte = p.time(|| {
        black_box(chunk_bytes(&params, black_box(&bytes)));
        Ok(bytes.len())
    })?;
    p.out
        .push((names::CHUNKER_BYTES_MB_S, inverse(per_byte, 1e3)));
    p.probe(names::CHUNKER_SIM_NS_PER_CHUNK, || {
        Ok(cycled(&inputs.sizes)
            .enumerate()
            .map(|(i, size)| chunk_simulated(&params, hash128(&i.to_le_bytes()), *size).len())
            .sum())
    })?;
    Ok(())
}

fn placement(p: &mut Probes, fs: &H2Cloud, inputs: &Inputs) -> Result<(), Fail> {
    let ring = fs.cluster().ring();
    p.probe(names::RING_LOOKUP_NS, || {
        Ok(cycled(&inputs.ring_keys)
            .inspect(|k| {
                black_box(ring.lookup(black_box(k.as_bytes())));
            })
            .count())
    })
}

fn codec(p: &mut Probes, inputs: &Inputs) -> Result<(), Fail> {
    p.probe(names::NAMERING_PARSE_SMALL_NS, || {
        for _ in 0..BATCH_CALLS {
            black_box(namering_from_str(black_box(&inputs.small_ring))?);
        }
        Ok(BATCH_CALLS)
    })?;
    let big = &inputs.big_ring;
    let text = namering_to_string(big);
    p.probe(names::NAMERING_PARSE_NS_PER_ENTRY, || {
        Ok(black_box(namering_from_str(black_box(&text))?).len())
    })?;
    p.probe(names::NAMERING_FORMAT_NS_PER_ENTRY, || {
        black_box(namering_to_string(black_box(big)));
        Ok(big.len())
    })?;
    // Every tuple of the incoming ring is newer, so every one replaces its
    // counterpart: the full per-entry cost of the §3.3.2 merge.
    let mut newer = NameRing::new();
    for (i, (name, tuple)) in big.iter().enumerate() {
        newer.apply(
            name,
            Tuple {
                ts: stamp(BIG_RING + i),
                ..*tuple
            },
        );
    }
    let mut targets: Vec<NameRing> = vec![big.clone(); BATCHES];
    p.probe(names::NAMERING_MERGE_NS_PER_ENTRY, || {
        let mut target = targets.pop().ok_or("one target per batch")?;
        target.merge_from(black_box(&newer));
        Ok(black_box(target).len())
    })?;
    Ok(())
}

fn node(p: &mut Probes, inputs: &Inputs) -> Result<(), Fail> {
    let node = StorageNode::new(DeviceId(0), 0);
    let payload = Payload::from_string(inputs.small_ring.clone());
    let mut ms = 0;
    p.probe(names::NODE_PUT_NS, || {
        ms += 1;
        Ok(cycled(&inputs.ring_keys)
            .filter(|k| node.put(k, payload.clone(), Meta::new(), ms, false))
            .count())
    })?;
    p.probe(names::NODE_GET_NS, || {
        Ok(cycled(&inputs.ring_keys)
            .filter_map(|k| black_box(node.get(k)))
            .count())
    })?;
    p.probe(names::NODE_PROBE_NS, || {
        Ok(cycled(&inputs.ring_keys)
            .filter_map(|k| black_box(node.probe(k)).0)
            .count())
    })?;
    Ok(())
}

/// PUT, GET, HEAD and DELETE through the `ObjectStore` trait on the live
/// cluster, under an account of the probe's own so the workload's objects
/// stay as the final check left them.
fn cluster(p: &mut Probes, fs: &H2Cloud, inputs: &Inputs) -> Result<(), Fail> {
    const ACCOUNT: &str = "h2perf-store-probe";
    const CONTAINER: &str = "h2";
    let store: &dyn ObjectStore = &**fs.cluster();
    fs.cluster().create_account(ACCOUNT)?;
    fs.cluster().create_container(ACCOUNT, CONTAINER, false)?;
    let keys: Vec<ObjectKey> = cycled(&inputs.object_names)
        .enumerate()
        .map(|(i, name)| ObjectKey::new(ACCOUNT, CONTAINER, &format!("{name}#{i}")))
        .collect();
    let payload = Payload::from_string(inputs.small_ring.clone());
    let mut ctx = OpCtx::new(fs.cost_model());
    let mut series: [Vec<f64>; 4] = Default::default();
    for _ in 0..BATCHES {
        let mut lap = p.recorder.now();
        let mut done = |series: &mut Vec<f64>| {
            let now = p.recorder.now();
            series.push((now - lap) as f64 / keys.len() as f64);
            lap = now;
        };
        for k in &keys {
            store.put(&mut ctx, k, payload.clone(), Meta::new())?;
        }
        done(&mut series[0]);
        for k in &keys {
            black_box(store.get(&mut ctx, k)?);
        }
        done(&mut series[1]);
        for k in &keys {
            black_box(store.head(&mut ctx, k)?);
        }
        done(&mut series[2]);
        for k in &keys {
            store.delete(&mut ctx, k)?;
        }
        done(&mut series[3]);
    }
    let metric = [
        names::CLUSTER_PUT_NS,
        names::CLUSTER_GET_NS,
        names::CLUSTER_HEAD_NS,
        names::CLUSTER_DELETE_NS,
    ];
    for (name, s) in metric.into_iter().zip(series) {
        p.out.push((name, spread(s)));
    }
    Ok(())
}

fn ring_reads(p: &mut Probes, fs: &H2Cloud, inputs: &Inputs) -> Result<(), Fail> {
    let mw = fs.layer().mw_for_account(&inputs.account).clone();
    let keys = H2Keys::new(&inputs.account);
    let mut ctx = OpCtx::new(fs.cost_model());
    let fetch_all = |ctx: &mut OpCtx| -> Result<usize, Fail> {
        for ns in &inputs.namespaces {
            black_box(mw.read_ring(ctx, &keys, *ns)?);
        }
        Ok(inputs.namespaces.len())
    };
    fetch_all(&mut ctx)?;
    p.probe(names::MW_READ_RING_WARM_NS, || fetch_all(&mut ctx))?;
    let mut cold = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        for ns in &inputs.namespaces {
            mw.invalidate_ring(&inputs.account, *ns);
        }
        let start = p.recorder.now();
        let units = fetch_all(&mut ctx)?;
        cold.push((p.recorder.now() - start) as f64 / units as f64);
    }
    p.out.push((names::MW_READ_RING_COLD_NS, spread(cold)));
    Ok(())
}

/// Patch submission, the background merge and gossip application, on an
/// account of the probe's own: 16 directories, 4 patches each per batch.
fn patches(p: &mut Probes, fs: &H2Cloud, inputs: &Inputs) -> Result<(), Fail> {
    const ACCOUNT: &str = "h2perf-patch-probe";
    const DIRS: usize = 16;
    const PER_DIR: usize = 4;
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, ACCOUNT)?;
    for d in 0..DIRS {
        fs.mkdir(
            &mut ctx,
            ACCOUNT,
            &FsPath::root().child(&format!("d{d:02}"))?,
        )?;
    }
    fs.layer().pump()?;
    let mw = fs.layer().mw_for_account(ACCOUNT).clone();
    let peer = fs
        .layer()
        .middlewares()
        .iter()
        .find(|m| m.node() != mw.node())
        .ok_or("the layer has one middleware")?
        .clone();
    let keys = H2Keys::new(ACCOUNT);
    let dirs: Vec<NamespaceId> = mw
        .read_ring(&mut ctx, &keys, NamespaceId::ROOT)?
        .live()
        .filter_map(|(_, t)| match t.child {
            ChildRef::Dir { ns } => Some(ns),
            ChildRef::File { .. } => None,
        })
        .collect();
    let size = inputs.sizes.first().copied().unwrap_or(4096);
    let (mut submit, mut merge, mut gossip) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let work: Vec<(NamespaceId, NameRing)> = (0..PER_DIR)
            .flat_map(|j| dirs.iter().map(move |ns| (*ns, j)))
            .map(|(ns, j)| {
                let mut patch = NameRing::new();
                patch.apply(&format!("f{j}"), Tuple::file(mw.tick(), size));
                (ns, patch)
            })
            .collect();
        let n = work.len() as f64;
        let t0 = p.recorder.now();
        for (ns, patch) in work {
            mw.submit_patch(&mut ctx, &keys, ns, patch)?;
        }
        let t1 = p.recorder.now();
        let outcome = mw.step_merges();
        let t2 = p.recorder.now();
        if outcome.failed > 0 || outcome.applied != dirs.len() {
            return Err(format!("merge probe: {outcome:?} over {} rings", dirs.len()).into());
        }
        let msgs = mw.take_outbox();
        let t3 = p.recorder.now();
        let applied = peer.on_gossip_batch(&msgs);
        let t4 = p.recorder.now();
        for r in applied {
            r?;
        }
        submit.push((t1 - t0) as f64 / n);
        merge.push((t2 - t1) as f64 / n / 1e3);
        gossip.push((t4 - t3) as f64 / msgs.len().max(1) as f64 / 1e3);
        // Let the rest of the layer catch up, untimed.
        fs.layer().pump()?;
    }
    p.out.push((names::MW_SUBMIT_PATCH_NS, spread(submit)));
    p.out.push((names::MW_MERGE_US_PER_PATCH, spread(merge)));
    p.out
        .push((names::MW_GOSSIP_APPLY_US_PER_MSG, spread(gossip)));
    Ok(())
}
