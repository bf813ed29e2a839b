//! The H2Cloud filesystem: POSIX-like operations mapped to object-level
//! operations via H2 (§3, §4).
//!
//! Every operation resolves paths with the regular O(d) method — walking one
//! NameRing GET per level — then performs O(1) NameRing patches for
//! structural changes:
//!
//! | op            | object-level work                                     |
//! |---------------|-------------------------------------------------------|
//! | MKDIR         | PUT descriptor + PUT empty NameRing + patch parent    |
//! | RMDIR         | patch parent (tombstone) — subtree reclaimed lazily   |
//! | MOVE/RENAME   | re-key descriptor or content + two parent patches     |
//! | LIST          | the directory's NameRing (names) or + m HEADs (detail)|
//! | COPY          | n server-side object copies + fresh NameRings         |
//! | WRITE         | PUT content + patch parent                            |
//! | READ          | O(d) lookup + GET content                             |
//!
//! The "quick method" of §3.2 — O(1) access through a namespace-decorated
//! relative path — is exposed as [`H2Cloud::read_relative`] /
//! [`H2Cloud::stat_relative`] and used internally by COPY and GC.

use std::sync::Arc;

use h2fsapi::{CloudFs, DirEntry, EntryKind, FileContent, FsPath, StoreStats};
use h2util::trace::Stage;
use h2util::{H2Error, NamespaceId, OpCtx, PrimKind, Result, Timestamp};
use swiftsim::{Cluster, ClusterConfig, ObjectStore, Payload};

use crate::keys::{DirDescriptor, H2Keys, H2_CONTAINER};
use crate::layer::H2Layer;
pub use crate::middleware::MaintenanceMode;
use crate::middleware::{Fingerprint, H2Middleware, PathAnswer, META_LOGICAL_BYTES};
use crate::namering::{ChildRef, NameRing, Tuple};

/// Configuration of an H2Cloud instance.
///
/// Two named profiles: [`H2Config::default()`] is the paper's design — a
/// patch PUT per write, the O(d) NameRing walk, whole-object content, no
/// caches — and what the figure harness measures; [`H2Config::tuned()`]
/// turns every knob on and is what the benchmark measures. Each knob is
/// proven observably transparent against the paper profile by
/// `tests/prop_equivalence.rs`.
#[derive(Debug, Clone)]
pub struct H2Config {
    /// Number of H2Middlewares in the layer.
    pub middlewares: usize,
    /// When patches merge (see [`MaintenanceMode`]).
    pub mode: MaintenanceMode,
    /// Shape of the underlying object cloud.
    pub cluster: ClusterConfig,
    /// Per-middleware NameRing cache size, in parsed rings (0 disables).
    ///
    /// The cache serves `read_ring` — one saved GET per level on the O(d)
    /// resolve path — and is kept fresh by write-through on every ring
    /// write plus refresh on gossip. Off in the paper profile: the figure
    /// harness reproduces the paper's uncached resolution costs, and reads
    /// bound to a specific middleware (`via`) keep their
    /// read-through-global freshness even when gossip messages are lost.
    /// With the cache on (1024 rings in the tuned profile), such a
    /// middleware serves its last written/gossiped version instead —
    /// within the eventual consistency the paper already accepts, but a
    /// behaviour change operators must opt into.
    pub cache_capacity: usize,
    /// Fraction of operations sampled into span traces, in `[0, 1]`
    /// (0 disables tracing; `for_test()` samples everything). Sampled ops
    /// record their span tree into a bounded per-middleware ring buffer,
    /// served by the API `op=trace` route. The `stage_*` histograms on
    /// `op=metrics` do not depend on it: they are fed from every op's
    /// charges. Sampling is deterministic (every ⌈1/rate⌉-th candidate),
    /// and tracing never charges virtual time, so traced and untraced runs
    /// behave identically, down to the stage split.
    pub trace_sample: f64,
    /// Group-commit patch submission: concurrent `submit_patch` calls to
    /// the same NameRing coalesce behind a per-ring commit leader that
    /// allocates a contiguous patch-number range and PUTs one combined
    /// patch object for the whole batch (see DESIGN.md, "Concurrency
    /// model"). Observationally equivalent to per-call submission, but
    /// collapses the per-submitter PUT (and, in Eager mode, the
    /// per-submitter merge cycle) under contention. On in the tuned
    /// profile.
    pub group_commit: bool,
    /// Full-path resolve cache: each middleware keeps a map from resolved
    /// full path → descriptor, fingerprinted by the version epoch of every
    /// ancestor NameRing, turning the O(d) walk into one probe on the hot
    /// path. Any write, gossip application, or GC touching an ancestor
    /// ring bumps that ring's epoch and thereby invalidates exactly the
    /// affected subtree. Requires `cache_capacity > 0` (the path cache
    /// shares the ring cache's budget, scaled up — see
    /// [`H2Middleware::path_cache_lookup`]). Same consistency envelope as
    /// the ring cache itself: exact with a single Eager middleware,
    /// eventual across middlewares. On in the tuned profile.
    pub path_cache: bool,
    /// Negative-entry cache: NotFound resolve outcomes are cached under
    /// the same epoch fingerprint as positive ones, so repeated stats of
    /// missing paths stop re-walking the tree. Write-through invalidation
    /// plus the epoch guard ensure a stale negative can never outlive the
    /// ancestor version stamp that disproves it. Requires `path_cache`
    /// plumbing (`cache_capacity > 0`); independent of `path_cache` being
    /// on. On in the tuned profile.
    pub neg_cache: bool,
    /// Hedged replica reads: probe all assigned devices as one parallel
    /// wave (charged max-of-probes, not sum), and when the assigned answers
    /// are suspect, fan the handoff fallback scan out as a second wave
    /// instead of serialising it. Identical probes in identical order —
    /// results and injected-fault draws are byte-for-byte the same as the
    /// serial path; only the virtual-time charging and span shape change.
    /// On in the tuned profile.
    pub hedged_reads: bool,
    /// Content-addressed content plane: file content is chunked
    /// (FastCDC-style, ~1 MiB target leaves) into immutable, refcounted,
    /// hash-addressed blocks under the cluster's reserved `::cas/blk`
    /// namespace, with branch blocks above [`crate::middleware::CAS_FANOUT`]
    /// children and a small manifest at the file key (root list + logical
    /// length, so STAT stays one HEAD). Identical content — within a file,
    /// across files, across users — collapses to the same blocks; see the
    /// `dedup_bytes_saved` / `cas_blocks_written` / `cas_blocks_shared`
    /// counters. Observationally equivalent to whole-object storage. On in
    /// the tuned profile.
    pub cas: bool,
}

impl Default for H2Config {
    /// The paper profile.
    fn default() -> Self {
        H2Config {
            middlewares: 1,
            mode: MaintenanceMode::Eager,
            cluster: ClusterConfig::default(),
            cache_capacity: 0,
            trace_sample: 0.0,
            group_commit: false,
            path_cache: false,
            neg_cache: false,
            hedged_reads: false,
            cas: false,
        }
    }
}

impl H2Config {
    /// The tuned profile: the paper profile with a 1024-ring NameRing
    /// cache and every knob on.
    pub fn tuned() -> Self {
        H2Config {
            cache_capacity: 1024,
            group_commit: true,
            path_cache: true,
            neg_cache: true,
            hedged_reads: true,
            cas: true,
            ..Self::default()
        }
    }

    /// The tuned profile on a zero-latency cluster, tracing everything,
    /// for semantic tests. With a single Eager middleware every ring write
    /// goes through the owning middleware, so the caches are exactly
    /// consistent and the semantic suites double as coverage of every
    /// knob.
    pub fn for_test() -> Self {
        H2Config {
            cluster: ClusterConfig::tiny(),
            cache_capacity: 128,
            trace_sample: 1.0,
            ..Self::tuned()
        }
    }
}

/// A resolved path target.
#[derive(Debug, Clone)]
enum Resolved {
    Root,
    Dir {
        parent_ns: NamespaceId,
        name: String,
        ns: NamespaceId,
        ts: Timestamp,
    },
    File {
        parent_ns: NamespaceId,
        name: String,
        size: u64,
        ts: Timestamp,
    },
}

/// The [`Resolved`] for a path whose last component `name` is `tuple` in
/// `parent_ns`'s ring — read off the ring by a walk, or off a path-cache hit.
fn resolved_from(parent_ns: NamespaceId, name: &str, tuple: Tuple) -> Resolved {
    match tuple.child {
        ChildRef::Dir { ns } => Resolved::Dir {
            parent_ns,
            name: name.to_string(),
            ns,
            ts: tuple.ts,
        },
        ChildRef::File { size } => Resolved::File {
            parent_ns,
            name: name.to_string(),
            size,
            ts: tuple.ts,
        },
    }
}

/// `path` as text. An operation builds it once and by `push_str`: the
/// `Display` machinery behind `to_string` costs several times the copy.
fn path_string(path: &FsPath) -> String {
    let comps = path.components();
    if comps.is_empty() {
        return "/".into();
    }
    let mut s = String::with_capacity(comps.iter().map(|c| c.len() + 1).sum());
    for c in comps {
        s.push('/');
        s.push_str(c);
    }
    s
}

/// The operation kinds [`H2Cloud`] keeps a latency histogram for.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    Mkdir,
    Rmdir,
    Move,
    Copy,
    List,
    ListDetail,
    Write,
    Read,
    Delete,
    Stat,
}

impl OpKind {
    /// Every kind, in declaration order: position `kind as usize`.
    const ALL: [OpKind; 10] = [
        OpKind::Mkdir,
        OpKind::Rmdir,
        OpKind::Move,
        OpKind::Copy,
        OpKind::List,
        OpKind::ListDetail,
        OpKind::Write,
        OpKind::Read,
        OpKind::Delete,
        OpKind::Stat,
    ];

    /// Histogram and root-span name.
    fn name(self) -> &'static str {
        match self {
            OpKind::Mkdir => "MKDIR",
            OpKind::Rmdir => "RMDIR",
            OpKind::Move => "MOVE",
            OpKind::Copy => "COPY",
            OpKind::List => "LIST",
            OpKind::ListDetail => "LIST-DETAIL",
            OpKind::Write => "WRITE",
            OpKind::Read => "READ",
            OpKind::Delete => "DELETE",
            OpKind::Stat => "STAT",
        }
    }
}

/// The H2Cloud system: an [`H2Layer`] over one object cloud.
pub struct H2Cloud {
    layer: H2Layer,
    /// The registry's histogram of each operation kind, indexed by
    /// `OpKind as usize` and looked up once, here: recording an operation
    /// then touches neither the registry's lock nor its name map.
    op_latency: [Arc<h2util::metrics::Histogram>; OpKind::ALL.len()],
}

impl H2Cloud {
    pub fn new(cfg: H2Config) -> Self {
        let layer = H2Layer::new(Cluster::new(cfg.cluster.clone()), &cfg);
        let metrics = layer.cluster().metrics();
        H2Cloud {
            op_latency: OpKind::ALL.map(|kind| metrics.histogram(kind.name())),
            layer,
        }
    }

    /// §4.2's system monitoring: one latency histogram per operation kind,
    /// fed by every `CloudFs` call on this instance, and every counter of
    /// the middlewares and the cluster. It is the cluster's registry, so
    /// each counter reads its current value whenever it is read.
    pub fn metrics(&self) -> &h2util::metrics::MetricsRegistry {
        self.cluster().metrics()
    }

    /// Run `f` as one op on `mw`'s root ([`H2Middleware::root`]) and record
    /// its virtual service time (the delta this op added to `ctx`).
    fn observe<T>(
        &self,
        mw: &H2Middleware,
        kind: OpKind,
        ctx: &mut OpCtx,
        f: impl FnOnce(&mut OpCtx) -> Result<T>,
    ) -> Result<T> {
        let (result, spent) = mw.root(ctx, Stage::Op, kind.name(), f, |r| {
            r.as_ref().err().map(ToString::to_string)
        });
        self.op_latency[kind as usize].record(spent.total());
        result
    }

    /// The most recent `n` sampled operation traces across every middleware
    /// in the layer, newest first (interleaved by per-collector sequence —
    /// there is no global order across middlewares).
    pub fn recent_traces(&self, n: usize) -> Vec<h2util::trace::RootTrace> {
        let mut all: Vec<h2util::trace::RootTrace> = self
            .layer
            .middlewares()
            .iter()
            .flat_map(|mw| mw.tracer().recent(n))
            .collect();
        all.sort_by(|a, b| b.seq.cmp(&a.seq).then(a.node.cmp(&b.node)));
        all.truncate(n);
        all
    }

    /// Rack-shaped instance with calibrated costs (the figure harness's
    /// default).
    pub fn rack() -> Self {
        H2Cloud::new(H2Config::default())
    }

    pub fn layer(&self) -> &H2Layer {
        &self.layer
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        self.layer.cluster()
    }

    pub fn cost_model(&self) -> Arc<h2util::CostModel> {
        self.cluster().cost_model()
    }

    /// A view of the filesystem bound to one specific middleware — used by
    /// multi-middleware convergence tests; normal clients go through the
    /// sticky routing of the [`CloudFs`] impl.
    pub fn via(&self, idx: usize) -> H2View<'_> {
        H2View {
            fs: self,
            mw: self.layer.mw(idx),
        }
    }

    /// The view bound to `account`'s middleware: the sticky routing every
    /// [`CloudFs`] call on this instance goes through.
    fn sticky(&self, account: &str) -> H2View<'_> {
        H2View {
            fs: self,
            mw: self.layer.mw_for_account(account),
        }
    }

    // ----- path resolution (§3.2 regular method, O(d)) ---------------------

    /// Walk `path` level by level along NameRings. Each level reads a
    /// [`crate::namering::RingView`] — a lazy join of the fetched global
    /// ring and the middleware's local overlay — so resolution never
    /// materialises (deep-clones) a ring per level.
    ///
    /// With the path cache on, the walk is preceded by up to two O(1)
    /// probes: the full requested path (hit → done, cached NotFound →
    /// done), then the parent directory (hit → one ring read instead of d).
    /// Every entry carries the epoch fingerprint of the ancestor rings it
    /// was resolved through, so any ancestor mutation invalidates it — see
    /// [`H2Middleware::path_cache_lookup`] for the protocol.
    fn resolve(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        path: &FsPath,
    ) -> Result<Resolved> {
        let Some((last, dirs)) = path.components().split_last() else {
            return Ok(Resolved::Root);
        };
        if !mw.path_cache_active() {
            return self.walk(mw, ctx, keys, path, None);
        }
        mw.charge_path_probe(ctx);
        let full = path_string(path);
        if let Some((answer, _)) = mw.path_cache_lookup(keys, &full) {
            return match answer {
                PathAnswer::Hit { parent_ns, tuple } => Ok(resolved_from(parent_ns, last, tuple)),
                PathAnswer::Missing => Err(H2Error::NotFound(full)),
            };
        }
        // Full path missed; if the parent directory's resolution is cached,
        // finish with a single ring read instead of the walk.
        if !dirs.is_empty() {
            let parent = &full[..full.len() - last.len() - 1];
            if let Some((
                PathAnswer::Hit {
                    tuple:
                        Tuple {
                            child: ChildRef::Dir { ns: dir_ns },
                            ..
                        },
                    ..
                },
                parent_fp,
            )) = mw.path_cache_lookup(keys, parent)
            {
                let (view, epoch) = mw.read_ring_view_stamped(ctx, keys, dir_ns)?;
                mw.charge_lookup_step(ctx, view.from_cache());
                let fp: Fingerprint = parent_fp
                    .iter()
                    .copied()
                    .chain(std::iter::once((dir_ns, epoch)))
                    .collect();
                return match view.get(last).copied() {
                    Some(tuple) => {
                        let answer = PathAnswer::Hit {
                            parent_ns: dir_ns,
                            tuple,
                        };
                        mw.path_cache_store(keys, &full, answer, fp);
                        Ok(resolved_from(dir_ns, last, tuple))
                    }
                    None => {
                        mw.path_cache_store(keys, &full, PathAnswer::Missing, fp);
                        Err(H2Error::NotFound(full))
                    }
                };
            }
        }
        self.walk(mw, ctx, keys, path, Some(full))
    }

    /// The O(d) walk behind [`resolve`](Self::resolve), for a non-root
    /// `path`; `full` is its text when the outcome is to be cached.
    ///
    /// Admission: the walk stores what a later probe can hit. `resolve`
    /// probes the requested path and its parent directory, so those two
    /// entries are stored and the levels above are not — on a tree larger
    /// than the cache they would only push out entries that can be hit.
    fn walk(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        path: &FsPath,
        full: Option<String>,
    ) -> Result<Resolved> {
        let comps = path.components();
        let mut ns = NamespaceId::ROOT;
        // The epoch fingerprint accumulated over the rings consulted.
        let mut fp: Vec<(NamespaceId, u64)> =
            Vec::with_capacity(if full.is_some() { comps.len() } else { 0 });
        for (i, comp) in comps.iter().enumerate() {
            let (view, epoch) = mw.read_ring_view_stamped(ctx, keys, ns)?;
            mw.charge_lookup_step(ctx, view.from_cache());
            if full.is_some() {
                fp.push((ns, epoch));
            }
            let Some(tuple) = view.get(comp).copied() else {
                let full = match full {
                    Some(full) => {
                        // Cache the negative under the FULL requested path:
                        // its fingerprint covers exactly the ancestors that
                        // were consulted to prove the absence, so creating
                        // any of the missing levels (which must patch one
                        // of those rings first) invalidates it.
                        mw.path_cache_store(keys, &full, PathAnswer::Missing, fp.into());
                        full
                    }
                    None => path_string(path),
                };
                return Err(H2Error::NotFound(full));
            };
            let answer = PathAnswer::Hit {
                parent_ns: ns,
                tuple,
            };
            let levels_below = comps.len() - 1 - i;
            if levels_below == 0 {
                if let Some(full) = &full {
                    mw.path_cache_store(keys, full, answer, fp.into());
                }
                return Ok(resolved_from(ns, comp, tuple));
            }
            let ChildRef::Dir { ns: child_ns } = tuple.child else {
                return Err(H2Error::NotADirectory(path_string(path)));
            };
            if levels_below == 1 {
                if let Some(full) = &full {
                    let parent = &full[..full.len() - comps[i + 1].len() - 1];
                    mw.path_cache_store(keys, parent, answer, fp.as_slice().into());
                }
            }
            ns = child_ns;
        }
        unreachable!("non-root path has components")
    }

    /// Resolve a path that must be a directory, returning its namespace.
    fn resolve_dir_ns(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        path: &FsPath,
    ) -> Result<NamespaceId> {
        match self.resolve(mw, ctx, keys, path)? {
            Resolved::Root => Ok(NamespaceId::ROOT),
            Resolved::Dir { ns, .. } => Ok(ns),
            Resolved::File { .. } => Err(H2Error::NotADirectory(path.to_string())),
        }
    }

    fn check_account(&self, account: &str) -> Result<()> {
        if self.cluster().account_exists(account) {
            Ok(())
        } else {
            Err(H2Error::NoSuchAccount(account.to_string()))
        }
    }

    // ----- quick method (§3.2, O(1) via relative path) ----------------------

    /// O(1) file access through a namespace-decorated relative path: hash
    /// `ns::name` straight into the consistent hashing ring — one GET, no
    /// directory walk. "Mainly used by the system's internal operations."
    pub fn read_relative(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        ns: NamespaceId,
        name: &str,
    ) -> Result<FileContent> {
        let keys = H2Keys::new(account);
        let mw = self.layer.mw_for_account(account);
        Ok(payload_to_content(mw.get_content(ctx, &keys, ns, name)?))
    }

    /// O(1) existence/metadata check through a relative path (one HEAD).
    /// For CAS files the HEAD lands on the manifest, whose meta carries the
    /// logical size — still one request.
    pub fn stat_relative(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        ns: NamespaceId,
        name: &str,
    ) -> Result<(u64, u64)> {
        let keys = H2Keys::new(account);
        let info = self.cluster().head(ctx, &keys.child(ns, name))?;
        let size = match info.meta.get(META_LOGICAL_BYTES) {
            Some(s) => s
                .parse()
                .map_err(|_| H2Error::Corrupt(format!("bad {META_LOGICAL_BYTES} meta {s:?}")))?,
            None => info.size,
        };
        Ok((size, info.modified_ms))
    }

    // ----- operations shared by CloudFs and H2View --------------------------

    fn op_create_account(&self, mw: &H2Middleware, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.cluster().create_account_ctx(ctx, account)?;
        // The container row is one more account-DB update.
        let model = ctx.model.clone();
        ctx.charge(PrimKind::DbUpdate, model.db_update_cost());
        self.cluster()
            .create_container(account, H2_CONTAINER, false)?;
        let keys = H2Keys::new(account);
        mw.create_ring(ctx, &keys, NamespaceId::ROOT)
    }

    fn op_mkdir(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<()> {
        self.check_account(account)?;
        let keys = H2Keys::new(account);
        let name = path
            .name()
            .ok_or_else(|| H2Error::AlreadyExists("/".into()))?;
        let parent = path.parent().expect("non-root path has a parent");
        let parent_ns = self.resolve_dir_ns(mw, ctx, &keys, &parent)?;
        let view = mw.read_ring_view(ctx, &keys, parent_ns)?;
        if view.get(name).is_some() {
            return Err(H2Error::AlreadyExists(path.to_string()));
        }
        drop(view);
        let ns = mw.allocate_namespace();
        let ts = mw.tick();
        let desc = DirDescriptor {
            ns,
            name: name.to_string(),
            created: ts,
        };
        // The new directory's descriptor and its empty NameRing live under
        // independent keys; neither is reachable until the parent patch
        // below lands, so the two PUTs go out in one parallel wave.
        ctx.parallel(2, |ctx, i| {
            if i == 0 {
                mw.put_descriptor(ctx, &keys, parent_ns, name, &desc)
            } else {
                mw.create_ring(ctx, &keys, ns)
            }
        })?;
        let mut patch = NameRing::new();
        patch.apply(name, Tuple::dir(ts, ns));
        mw.submit_patch(ctx, &keys, parent_ns, patch)
    }

    fn op_rmdir(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<()> {
        self.check_account(account)?;
        let keys = H2Keys::new(account);
        let resolved = self.resolve(mw, ctx, &keys, path)?;
        match resolved {
            Resolved::Root => Err(H2Error::InvalidPath("cannot remove /".into())),
            Resolved::File { .. } => Err(H2Error::NotADirectory(path.to_string())),
            Resolved::Dir {
                parent_ns,
                name,
                ns,
                ts: _,
            } => {
                // O(1): one tombstone patch on the parent's NameRing. The
                // subtree stays in the cloud until GC compacts it (§3.3.2's
                // deferred "really removing").
                let mut patch = NameRing::new();
                patch.apply(&name, Tuple::dir(mw.tick(), ns).tombstone(mw.tick()));
                mw.submit_patch(ctx, &keys, parent_ns, patch)
            }
        }
    }

    fn op_mv(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        from: &FsPath,
        to: &FsPath,
    ) -> Result<()> {
        self.check_account(account)?;
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot move to or from /".into()));
        }
        if from == to {
            return Ok(());
        }
        if from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot move {from} inside itself ({to})"
            )));
        }
        let keys = H2Keys::new(account);
        let src = self.resolve(mw, ctx, &keys, from)?;
        let to_name = to.name().expect("non-root");
        let to_parent = to.parent().expect("non-root");
        let dst_parent_ns = self.resolve_dir_ns(mw, ctx, &keys, &to_parent)?;
        let dst_view = mw.read_ring_view(ctx, &keys, dst_parent_ns)?;
        if dst_view.get(to_name).is_some() {
            return Err(H2Error::AlreadyExists(to.to_string()));
        }
        match src {
            Resolved::Root => unreachable!("non-root checked"),
            Resolved::Dir {
                parent_ns,
                name,
                ns,
                ..
            } => {
                // The directory's NameRing and entire subtree are keyed by
                // its namespace, which does not change — this is the O(1)
                // MOVE the paper gets from preserving hierarchy in H2.
                let desc = mw.get_descriptor(ctx, &keys, parent_ns, &name)?;
                mw.put_descriptor(
                    ctx,
                    &keys,
                    dst_parent_ns,
                    to_name,
                    &DirDescriptor {
                        ns,
                        name: to_name.to_string(),
                        created: desc.created,
                    },
                )?;
                self.cluster().delete(ctx, &keys.child(parent_ns, &name))?;
                let ts = mw.tick();
                let mut out_patch = NameRing::new();
                out_patch.apply(&name, Tuple::dir(ts, ns).tombstone(mw.tick()));
                mw.submit_patch(ctx, &keys, parent_ns, out_patch)?;
                let mut in_patch = NameRing::new();
                in_patch.apply(to_name, Tuple::dir(mw.tick(), ns));
                mw.submit_patch(ctx, &keys, dst_parent_ns, in_patch)
            }
            Resolved::File {
                parent_ns,
                name,
                size,
                ..
            } => {
                // A file's content object is keyed by its parent namespace,
                // so moving it re-keys the object: one server-side copy +
                // delete, then the two parent patches.
                mw.copy_content(ctx, &keys, parent_ns, &name, dst_parent_ns, to_name)?;
                mw.delete_content(ctx, &keys, parent_ns, &name)?;
                let mut out_patch = NameRing::new();
                out_patch.apply(&name, Tuple::file(mw.tick(), size).tombstone(mw.tick()));
                mw.submit_patch(ctx, &keys, parent_ns, out_patch)?;
                let mut in_patch = NameRing::new();
                in_patch.apply(to_name, Tuple::file(mw.tick(), size));
                mw.submit_patch(ctx, &keys, dst_parent_ns, in_patch)
            }
        }
    }

    fn op_copy(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        from: &FsPath,
        to: &FsPath,
    ) -> Result<()> {
        self.check_account(account)?;
        if from.is_root() || to.is_root() {
            return Err(H2Error::InvalidPath("cannot copy to or from /".into()));
        }
        if from == to || from.is_ancestor_of(to) {
            return Err(H2Error::InvalidPath(format!(
                "cannot copy {from} onto/inside itself"
            )));
        }
        let keys = H2Keys::new(account);
        let src = self.resolve(mw, ctx, &keys, from)?;
        let to_name = to.name().expect("non-root");
        let to_parent = to.parent().expect("non-root");
        let dst_parent_ns = self.resolve_dir_ns(mw, ctx, &keys, &to_parent)?;
        let dst_view = mw.read_ring_view(ctx, &keys, dst_parent_ns)?;
        if dst_view.get(to_name).is_some() {
            return Err(H2Error::AlreadyExists(to.to_string()));
        }
        match src {
            Resolved::Root => unreachable!("non-root checked"),
            Resolved::File {
                parent_ns,
                name,
                size,
                ..
            } => {
                mw.copy_content(ctx, &keys, parent_ns, &name, dst_parent_ns, to_name)?;
                let mut patch = NameRing::new();
                patch.apply(to_name, Tuple::file(mw.tick(), size));
                mw.submit_patch(ctx, &keys, dst_parent_ns, patch)
            }
            Resolved::Dir { ns, .. } => {
                let new_ns = self.copy_tree(mw, ctx, &keys, ns, to_name)?;
                let ts = mw.tick();
                mw.put_descriptor(
                    ctx,
                    &keys,
                    dst_parent_ns,
                    to_name,
                    &DirDescriptor {
                        ns: new_ns,
                        name: to_name.to_string(),
                        created: ts,
                    },
                )?;
                let mut patch = NameRing::new();
                patch.apply(to_name, Tuple::dir(ts, new_ns));
                mw.submit_patch(ctx, &keys, dst_parent_ns, patch)
            }
        }
    }

    /// Deep-copy the subtree under `src_ns` into a brand-new namespace and
    /// return it. O(n) in the number of objects copied.
    fn copy_tree(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        keys: &H2Keys,
        src_ns: NamespaceId,
        new_name: &str,
    ) -> Result<NamespaceId> {
        let new_ns = mw.allocate_namespace();
        let src_view = mw.read_ring_view(ctx, keys, src_ns)?;
        let mut new_ring = NameRing::new();
        for (child, tuple) in src_view.live() {
            match tuple.child {
                ChildRef::File { size } => {
                    mw.copy_content(ctx, keys, src_ns, child, new_ns, child)?;
                    new_ring.apply(child, Tuple::file(mw.tick(), size));
                }
                ChildRef::Dir { ns: child_ns } => {
                    let copied = self.copy_tree(mw, ctx, keys, child_ns, child)?;
                    let ts = mw.tick();
                    mw.put_descriptor(
                        ctx,
                        keys,
                        new_ns,
                        child,
                        &DirDescriptor {
                            ns: copied,
                            name: child.to_string(),
                            created: ts,
                        },
                    )?;
                    new_ring.apply(child, Tuple::dir(ts, copied));
                }
            }
        }
        mw.write_ring(ctx, keys, new_ns, &new_ring)?;
        // The caller writes this directory's descriptor into *its* parent;
        // here we only need the subtree materialised.
        let _ = new_name;
        Ok(new_ns)
    }

    fn op_list(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<Vec<String>> {
        self.check_account(account)?;
        let keys = H2Keys::new(account);
        let ns = self.resolve_dir_ns(mw, ctx, &keys, path)?;
        let view = mw.read_ring_view(ctx, &keys, ns)?;
        let names: Vec<String> = view.live().map(|(n, _)| n.to_string()).collect();
        mw.charge_listing_cpu(ctx, names.len());
        Ok(names)
    }

    fn op_list_detailed(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<Vec<DirEntry>> {
        self.check_account(account)?;
        let keys = H2Keys::new(account);
        let ns = self.resolve_dir_ns(mw, ctx, &keys, path)?;
        let view = mw.read_ring_view(ctx, &keys, ns)?;
        let mut children: Vec<(&str, &Tuple)> = Vec::with_capacity(view.live_len());
        children.extend(view.live());
        mw.charge_listing_cpu(ctx, children.len());
        // O(m): fetch each child's own object for its detailed information
        // (the middleware fans the HEADs out with bounded parallelism —
        // that's why LISTing 1000 files lands near 0.35 s, §1).
        let stamps = self.cluster().head_many(
            ctx,
            keys.account(),
            H2_CONTAINER,
            H2Keys::child_rel(ns, ""),
            children.iter().map(|(name, _)| name),
        )?;
        let entries = children.iter().zip(stamps).map(|((name, t), stamp)| {
            let (kind, size) = match t.child {
                ChildRef::File { size } => (EntryKind::File, size),
                ChildRef::Dir { .. } => (EntryKind::Directory, 0),
            };
            DirEntry {
                name: name.to_string(),
                kind,
                size,
                // A child whose object lags behind its NameRing entry
                // (eventual consistency) still lists from tuple data.
                modified_ms: stamp.unwrap_or(t.ts.millis),
            }
        });
        Ok(entries.collect())
    }

    fn op_write(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()> {
        self.check_account(account)?;
        let keys = H2Keys::new(account);
        let name = path
            .name()
            .ok_or_else(|| H2Error::IsADirectory("/".into()))?;
        let parent = path.parent().expect("non-root");
        let parent_ns = self.resolve_dir_ns(mw, ctx, &keys, &parent)?;
        let view = mw.read_ring_view(ctx, &keys, parent_ns)?;
        if let Some(t) = view.get(name) {
            if let ChildRef::Dir { .. } = t.child {
                return Err(H2Error::IsADirectory(path.to_string()));
            }
        }
        drop(view);
        let size = content.len();
        let payload = content_to_payload(content, &path_string(path));
        // §3.3.3(b) blocking: the content stream completes before the patch
        // is submitted, so no merge can observe the tuple without the data.
        mw.put_content(ctx, &keys, parent_ns, name, payload)?;
        let mut patch = NameRing::new();
        patch.apply(name, Tuple::file(mw.tick(), size));
        mw.submit_patch(ctx, &keys, parent_ns, patch)
    }

    fn op_read(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<FileContent> {
        self.check_account(account)?;
        let keys = H2Keys::new(account);
        match self.resolve(mw, ctx, &keys, path)? {
            Resolved::File {
                parent_ns, name, ..
            } => Ok(payload_to_content(
                mw.get_content(ctx, &keys, parent_ns, &name)?,
            )),
            _ => Err(H2Error::IsADirectory(path.to_string())),
        }
    }

    fn op_delete_file(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<()> {
        self.check_account(account)?;
        let keys = H2Keys::new(account);
        match self.resolve(mw, ctx, &keys, path)? {
            Resolved::File {
                parent_ns,
                name,
                size,
                ..
            } => {
                // Fake deletion (§3.3.3a): tombstone the tuple FIRST, so a
                // failed delete changes nothing visible — content deleted
                // first would leave a live name pointing at nothing.
                let mut patch = NameRing::new();
                patch.apply(&name, Tuple::file(mw.tick(), size).tombstone(mw.tick()));
                mw.submit_patch(ctx, &keys, parent_ns, patch)?;
                // Eager content reclaim is best-effort: the tombstone is
                // durable, so if this DELETE fails the object is merely
                // garbage — GC deletes it when it compacts the tombstone.
                let _ = mw.delete_content(ctx, &keys, parent_ns, &name);
                Ok(())
            }
            _ => Err(H2Error::IsADirectory(path.to_string())),
        }
    }

    fn op_stat(
        &self,
        mw: &H2Middleware,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<DirEntry> {
        self.check_account(account)?;
        let keys = H2Keys::new(account);
        Ok(match self.resolve(mw, ctx, &keys, path)? {
            Resolved::Root => DirEntry {
                name: "/".into(),
                kind: EntryKind::Directory,
                size: 0,
                modified_ms: 0,
            },
            Resolved::Dir { name, ts, .. } => DirEntry {
                name,
                kind: EntryKind::Directory,
                size: 0,
                modified_ms: ts.millis,
            },
            Resolved::File { name, size, ts, .. } => DirEntry {
                name,
                kind: EntryKind::File,
                size,
                modified_ms: ts.millis,
            },
        })
    }
}

fn content_to_payload(content: FileContent, seed: &str) -> Payload {
    match content {
        FileContent::Inline(b) => Payload::Inline(b.into_bytes()),
        FileContent::Simulated(size) => Payload::simulated(size, seed),
        // Identity is the caller's seed, not the path: equal seeds mean
        // equal bytes, so the CAS plane dedups them across files.
        FileContent::SimulatedShared { size, seed } => {
            Payload::simulated(size, &format!("shared:{seed}"))
        }
    }
}

fn payload_to_content(p: Payload) -> FileContent {
    match p {
        Payload::Inline(b) => FileContent::Inline(h2util::SharedBuf::from_bytes(b)),
        Payload::Simulated { size, .. } => FileContent::Simulated(size),
    }
}

impl CloudFs for H2Cloud {
    fn name(&self) -> &'static str {
        "H2Cloud"
    }

    fn uses_separate_index(&self) -> bool {
        false
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.sticky(account).create_account(ctx, account)
    }

    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.cluster().delete_account(ctx, account)
    }

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.sticky(account).mkdir(ctx, account, path)
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.sticky(account).rmdir(ctx, account, path)
    }

    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.sticky(account).mv(ctx, account, from, to)
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.sticky(account).copy(ctx, account, from, to)
    }

    fn list(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<Vec<String>> {
        self.sticky(account).list(ctx, account, path)
    }

    fn list_detailed(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<Vec<DirEntry>> {
        self.sticky(account).list_detailed(ctx, account, path)
    }

    fn write(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()> {
        self.sticky(account).write(ctx, account, path, content)
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        self.sticky(account).read(ctx, account, path)
    }

    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.sticky(account).delete_file(ctx, account, path)
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        self.sticky(account).stat(ctx, account, path)
    }

    fn quiesce(&self) {
        self.layer.pump().expect("gossip pump failed");
    }

    /// Mass import: allocate namespaces for every directory, write content
    /// objects and descriptors, and write each NameRing object exactly
    /// once — instead of one patch-merge cycle per entry.
    fn bulk_import(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        dirs: &[FsPath],
        files: &[(FsPath, u64)],
    ) -> Result<()> {
        use std::collections::HashMap;
        self.check_account(account)?;
        let keys = H2Keys::new(account);
        let mw = self.layer.mw_for_account(account);
        let mut ns_of: HashMap<FsPath, NamespaceId> = HashMap::new();
        ns_of.insert(FsPath::root(), NamespaceId::ROOT);
        // Start each touched ring from its current state so imports into a
        // live tree merge rather than clobber.
        let mut rings: HashMap<NamespaceId, NameRing> = HashMap::new();
        let ring_of = |mw: &H2Middleware,
                       ctx: &mut OpCtx,
                       rings: &mut HashMap<NamespaceId, NameRing>,
                       ns: NamespaceId|
         -> Result<()> {
            if let std::collections::hash_map::Entry::Vacant(e) = rings.entry(ns) {
                let existing = mw.read_ring(ctx, &keys, ns)?;
                e.insert(existing);
            }
            Ok(())
        };
        for d in dirs {
            let parent = d
                .parent()
                .ok_or_else(|| H2Error::AlreadyExists("/".into()))?;
            let &parent_ns = ns_of
                .get(&parent)
                .ok_or_else(|| H2Error::NotFound(format!("import parent {parent}")))?;
            ring_of(mw, ctx, &mut rings, parent_ns)?;
            let name = d.name().expect("non-root");
            if rings[&parent_ns].get(name).is_some() {
                return Err(H2Error::AlreadyExists(d.to_string()));
            }
            let ns = mw.allocate_namespace();
            let ts = mw.tick();
            mw.put_descriptor(
                ctx,
                &keys,
                parent_ns,
                name,
                &DirDescriptor {
                    ns,
                    name: name.to_string(),
                    created: ts,
                },
            )?;
            rings
                .get_mut(&parent_ns)
                .expect("ring loaded")
                .apply(name, Tuple::dir(ts, ns));
            rings.entry(ns).or_default();
            ns_of.insert(d.clone(), ns);
        }
        for (f, size) in files {
            let parent = f
                .parent()
                .ok_or_else(|| H2Error::IsADirectory("/".into()))?;
            let parent_ns = match ns_of.get(&parent) {
                Some(&ns) => ns,
                None => self.resolve_dir_ns(mw, ctx, &keys, &parent)?,
            };
            ns_of.insert(parent.clone(), parent_ns);
            ring_of(mw, ctx, &mut rings, parent_ns)?;
            let name = f.name().expect("non-root");
            mw.put_content(
                ctx,
                &keys,
                parent_ns,
                name,
                Payload::simulated(*size, &f.to_string()),
            )?;
            rings
                .get_mut(&parent_ns)
                .expect("ring loaded")
                .apply(name, Tuple::file(mw.tick(), *size));
        }
        for (ns, ring) in rings {
            mw.write_ring(ctx, &keys, ns, &ring)?;
        }
        Ok(())
    }

    fn storage_stats(&self) -> StoreStats {
        StoreStats {
            objects: self.cluster().object_count(),
            bytes: self.cluster().byte_count(),
            index_records: 0,
            index_bytes: 0,
        }
    }
}

/// A filesystem view bound to one specific middleware (see
/// [`H2Cloud::via`]). Implements the same [`CloudFs`] interface.
pub struct H2View<'a> {
    fs: &'a H2Cloud,
    mw: &'a H2Middleware,
}

impl<'a> H2View<'a> {
    pub fn middleware(&self) -> &'a H2Middleware {
        self.mw
    }
}

impl CloudFs for H2View<'_> {
    fn name(&self) -> &'static str {
        "H2Cloud"
    }

    fn uses_separate_index(&self) -> bool {
        false
    }

    fn create_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.fs.op_create_account(self.mw, ctx, account)
    }

    fn delete_account(&self, ctx: &mut OpCtx, account: &str) -> Result<()> {
        self.fs.cluster().delete_account(ctx, account)
    }

    fn mkdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.fs.observe(self.mw, OpKind::Mkdir, ctx, |ctx| {
            self.fs.op_mkdir(self.mw, ctx, account, path)
        })
    }

    fn rmdir(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.fs.observe(self.mw, OpKind::Rmdir, ctx, |ctx| {
            self.fs.op_rmdir(self.mw, ctx, account, path)
        })
    }

    fn mv(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.fs.observe(self.mw, OpKind::Move, ctx, |ctx| {
            self.fs.op_mv(self.mw, ctx, account, from, to)
        })
    }

    fn copy(&self, ctx: &mut OpCtx, account: &str, from: &FsPath, to: &FsPath) -> Result<()> {
        self.fs.observe(self.mw, OpKind::Copy, ctx, |ctx| {
            self.fs.op_copy(self.mw, ctx, account, from, to)
        })
    }

    fn list(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<Vec<String>> {
        self.fs.observe(self.mw, OpKind::List, ctx, |ctx| {
            self.fs.op_list(self.mw, ctx, account, path)
        })
    }

    fn list_detailed(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
    ) -> Result<Vec<DirEntry>> {
        self.fs.observe(self.mw, OpKind::ListDetail, ctx, |ctx| {
            self.fs.op_list_detailed(self.mw, ctx, account, path)
        })
    }

    fn write(
        &self,
        ctx: &mut OpCtx,
        account: &str,
        path: &FsPath,
        content: FileContent,
    ) -> Result<()> {
        self.fs.observe(self.mw, OpKind::Write, ctx, |ctx| {
            self.fs.op_write(self.mw, ctx, account, path, content)
        })
    }

    fn read(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<FileContent> {
        self.fs.observe(self.mw, OpKind::Read, ctx, |ctx| {
            self.fs.op_read(self.mw, ctx, account, path)
        })
    }

    fn delete_file(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<()> {
        self.fs.observe(self.mw, OpKind::Delete, ctx, |ctx| {
            self.fs.op_delete_file(self.mw, ctx, account, path)
        })
    }

    fn stat(&self, ctx: &mut OpCtx, account: &str, path: &FsPath) -> Result<DirEntry> {
        self.fs.observe(self.mw, OpKind::Stat, ctx, |ctx| {
            self.fs.op_stat(self.mw, ctx, account, path)
        })
    }

    fn quiesce(&self) {
        self.fs.quiesce()
    }

    fn storage_stats(&self) -> StoreStats {
        self.fs.storage_stats()
    }
}
