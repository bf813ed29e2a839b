//! The benchmark's own filesystem model and op-stream generator.
//!
//! One [`Account`] mirrors one account's tree and invents the next
//! operation against it in O(1)–O(log n): targets come from swap-remove
//! pools, never from a scan of the model. Every operation is valid against
//! the model when it is generated and carries what the system's answer
//! must be (a size, or a listing's entry count and hash), so the replayer
//! can check each result without consulting the model again. The generator
//! emits only what `h2fsapi::CloudFs` can express.

use std::sync::Arc;

use h2fsapi::FsPath;
use h2util::hash::{hash64, hash64_seeded};

use crate::rng::{Fingerprint, Rng, Zipf};

/// Shared path handle: an op keeps its target alive after the model has
/// moved on (a file deleted later in the same slice).
pub type Path = Arc<FsPath>;

const NONE: u32 = u32::MAX;

/// Names STAT-absent probes per directory. Small on purpose: clients
/// re-probe the same few sentinel names, which is what a negative cache
/// absorbs.
const ABSENT: [&str; 4] = [".probe0", ".probe1", ".probe2", ".probe3"];

/// Shared-content identities per client, and the size each one has (equal
/// identity means equal bytes, so the size is a function of the identity).
pub const SHARED_IDENTITIES: usize = 4;
const SHARED_BYTES: [u64; SHARED_IDENTITIES] = [8 << 20, 24 << 20, 64 << 20, 24 << 20];

/// Largest growth of one append: a log line or a block, not a new file.
const APPEND_MAX: u64 = 256 << 10;

/// Half-width of the band steering holds a population in, as a share of
/// its starting size.
const STEER_BAND: f64 = 0.03;

/// Share of MOVE/COPY operations that target a file; the rest target a
/// directory created by MKDIR.
const FILE_SHARE: f64 = 0.7;

/// Operation kinds, in the order every per-kind table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    Stat,
    StatAbsent,
    Read,
    List,
    ListDetailed,
    Write,
    Overwrite,
    Append,
    WriteShared,
    Delete,
    Mkdir,
    Rmdir,
    Mv,
    Copy,
}

pub const KINDS: usize = 14;

impl Kind {
    pub const ALL: [Kind; KINDS] = [
        Kind::Stat,
        Kind::StatAbsent,
        Kind::Read,
        Kind::List,
        Kind::ListDetailed,
        Kind::Write,
        Kind::Overwrite,
        Kind::Append,
        Kind::WriteShared,
        Kind::Delete,
        Kind::Mkdir,
        Kind::Rmdir,
        Kind::Mv,
        Kind::Copy,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Stat => "stat",
            Kind::StatAbsent => "stat_absent",
            Kind::Read => "read",
            Kind::List => "list",
            Kind::ListDetailed => "list_detailed",
            Kind::Write => "write",
            Kind::Overwrite => "overwrite",
            Kind::Append => "append",
            Kind::WriteShared => "write_shared",
            Kind::Delete => "delete",
            Kind::Mkdir => "mkdir",
            Kind::Rmdir => "rmdir",
            Kind::Mv => "mv",
            Kind::Copy => "copy",
        }
    }

    /// Does the operation change the tree or a file's content?
    pub fn mutates(self) -> bool {
        !matches!(
            self,
            Kind::Stat | Kind::StatAbsent | Kind::Read | Kind::List | Kind::ListDetailed
        )
    }

    /// Does the operation store file content?
    pub fn writes_content(self) -> bool {
        matches!(
            self,
            Kind::Write | Kind::Overwrite | Kind::Append | Kind::WriteShared
        )
    }
}

/// Relative frequency of each kind, indexed by `Kind as usize`.
pub type Mix = [f64; KINDS];

/// One generated operation with its expected answer.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub path: Path,
    /// Destination of MOVE and COPY.
    pub to: Option<Path>,
    /// Bytes to store (write kinds), the size the system must report (STAT,
    /// READ), or the number of entries a listing must return.
    pub size: u64,
    /// The shared-content identity (WRITE-shared), or the hash a listing
    /// must produce (see [`names_hash`] and [`detail_hash`]).
    pub aux: u64,
}

/// Hash of one name in a plain listing; a listing's hash is the XOR over
/// its names, so the model keeps it current in O(1) per change.
pub fn names_hash(name: &str) -> u64 {
    hash64(name.as_bytes())
}

/// Hash of one detailed-listing entry: name, kind and size.
pub fn detail_hash(name: &str, is_dir: bool, size: u64) -> u64 {
    hash64_seeded(name.as_bytes(), (size << 1) | u64::from(is_dir))
}

/// Sizes of newly written files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sizes {
    /// §5.1's mixture: half sub-KiB configuration files, half documents
    /// around 130 KiB, one in a hundred a video or backup of 50 MB–1 GB.
    Mixture,
    /// The same mixture cut off at 128 KiB, for the metadata workloads:
    /// transfer time must not drown resolve time.
    Small,
    /// Large simulated files of 8, 24 or 64 MiB, equally likely.
    Large,
}

const LARGE_BYTES: [u64; 3] = [8 << 20, 24 << 20, 64 << 20];

impl Sizes {
    pub fn sample(self, rng: &mut Rng) -> u64 {
        match self {
            Sizes::Mixture => {
                let u = rng.unit();
                if u < 0.50 {
                    rng.log_normal(5.5, 0.8, 16.0, 1024.0)
                } else if u < 0.99 {
                    rng.log_normal(11.8, 1.2, 4.0e3, 3.0e7)
                } else {
                    rng.log_normal(18.5, 0.9, 5.0e7, 1.0e9)
                }
            }
            Sizes::Small => Sizes::Mixture.sample(rng).min(128 << 10),
            Sizes::Large => LARGE_BYTES[rng.below(LARGE_BYTES.len())],
        }
    }
}

/// The tree an account starts with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tree {
    /// `chains` directory chains, each `depth - 1` directories deep with
    /// `files_per_leaf` files of `file_bytes` at depth `depth`, plus
    /// `ingest_dirs` flat directories at the root that take the writes, so
    /// ingest never touches a hot path's ancestry.
    Chains {
        chains: usize,
        depth: usize,
        files_per_leaf: usize,
        file_bytes: u64,
        ingest_dirs: usize,
    },
    /// A light user: `base_dirs` fixed directories, `made_dirs` directories
    /// of the kind MKDIR makes (and RMDIR, MOVE and COPY may take), `files`
    /// files spread over both; every `flat_every`-th account also holds one
    /// flat directory of `flat_files` small files (0 = none).
    Light {
        base_dirs: usize,
        made_dirs: usize,
        files: usize,
        flat_every: usize,
        flat_files: usize,
    },
    /// `dirs` directories holding `files` large files, each size class
    /// equally often.
    Volumes { dirs: usize, files: usize },
}

/// How new entries are named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Naming {
    /// A fresh name per creation. Deletions leave tombstones, so the
    /// workload needs garbage collection to stay in a steady state.
    Fresh,
    /// Creations cycle through this many fixed names per ingest directory
    /// (a WRITE to a taken name overwrites, a MKDIR of a taken name becomes
    /// the RMDIR that frees it), so directories stay bounded with no
    /// deletions in the mix and no garbage collection. Written files do not
    /// join the set that reads target.
    Slots { files: usize, dirs: usize },
}

/// Everything that defines an account's op stream besides the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub mix: Mix,
    pub tree: Tree,
    pub naming: Naming,
    /// Zipf exponent over the target files, most popular first in creation
    /// order; `None` picks uniformly.
    pub zipf: Option<f64>,
    pub sizes: Sizes,
}

#[derive(Debug)]
struct Dir {
    path: Path,
    parent: u32,
    files: Vec<u32>,
    entries: u32,
    names: u64,
    detail: u64,
    /// Position in `Account::made`, or `NONE` for a directory no operation
    /// removes.
    at: u32,
    live: bool,
}

#[derive(Debug)]
struct File {
    path: Path,
    dir: u32,
    size: u64,
    /// Position in the owning directory's `files`.
    in_dir: u32,
    /// Position in `Account::pool`, or `NONE` for a file reads never target.
    at: u32,
}

/// One account's model and generator state.
#[derive(Debug)]
pub struct Account {
    pub name: String,
    shape: Shape,
    client: usize,
    rng: Rng,
    dirs: Vec<Dir>,
    free_dirs: Vec<u32>,
    files: Vec<File>,
    free_files: Vec<u32>,
    /// Files that STAT, READ, OVERWRITE, APPEND, DELETE, MOVE and COPY
    /// target.
    pool: Vec<u32>,
    zipf: Option<Zipf>,
    /// Fixed directories that LIST targets (with `made`).
    listed: Vec<u32>,
    /// Fixed directories that take new entries (with `made`).
    base: Vec<u32>,
    /// Directories of the kind MKDIR makes.
    made: Vec<u32>,
    /// Per `base` directory under [`Naming::Slots`]: the file and the
    /// directory occupying each fixed name.
    slots: Vec<(Vec<u32>, Vec<u32>)>,
    seq: u64,
    list_turn: [usize; 2],
    files_target: usize,
    made_target: usize,
    live_files: u64,
    live_dirs: u64,
    live_bytes: u64,
}

fn child(dir: &FsPath, name: &str) -> Path {
    Arc::new(dir.child(name).expect("generated names are valid"))
}

impl Account {
    /// Build the starting tree of account `index` of `client`. `tag` is a
    /// name prefix unique to the account: simulated content is identified
    /// by its path, so two accounts holding the same path would share
    /// blocks in the content-addressed store, and which of two client
    /// threads wrote a block first would change the modelled cost.
    pub fn new(name: String, shape: Shape, seed: u64, client: usize, index: usize) -> Self {
        let tag = format!("c{client}k{index}");
        let mut acct = Account {
            rng: Rng::derived(seed, &tag),
            name,
            shape,
            client,
            dirs: Vec::new(),
            free_dirs: Vec::new(),
            files: Vec::new(),
            free_files: Vec::new(),
            pool: Vec::new(),
            zipf: None,
            listed: Vec::new(),
            base: Vec::new(),
            made: Vec::new(),
            slots: Vec::new(),
            seq: 0,
            list_turn: [0; 2],
            files_target: 0,
            made_target: 0,
            live_files: 0,
            live_dirs: 0,
            live_bytes: 0,
        };
        acct.dirs.push(Dir {
            path: Arc::new(FsPath::root()),
            parent: NONE,
            files: Vec::new(),
            entries: 0,
            names: 0,
            detail: 0,
            at: NONE,
            live: true,
        });
        match shape.tree {
            Tree::Chains {
                chains,
                depth,
                files_per_leaf,
                file_bytes,
                ingest_dirs,
            } => {
                assert!(depth >= 2, "a chain needs at least one directory");
                for c in 0..chains {
                    let mut cur = acct.add_dir(0, &format!("{tag}-h{c:04}"), false);
                    for level in 1..depth - 1 {
                        cur = acct.add_dir(cur, &format!("d{level:02}"), false);
                    }
                    for j in 0..files_per_leaf {
                        acct.add_file(cur, &format!("f{j:03}.dat"), file_bytes, true);
                    }
                }
                for w in 0..ingest_dirs {
                    let d = acct.add_dir(0, &format!("{tag}-in{w:02}"), false);
                    acct.base.push(d);
                }
            }
            Tree::Light {
                base_dirs,
                made_dirs,
                files,
                flat_every,
                flat_files,
            } => {
                acct.listed.push(0);
                for i in 0..base_dirs {
                    let d = acct.add_dir(0, &format!("{tag}-b{i:02}"), false);
                    acct.base.push(d);
                    acct.listed.push(d);
                }
                for _ in 0..made_dirs {
                    let parent = acct.base[acct.rng.below(acct.base.len())];
                    let name = acct.fresh('n');
                    acct.add_dir(parent, &name, true);
                }
                for _ in 0..files {
                    let dir = acct.create_dir();
                    let name = acct.fresh('f');
                    let size = Sizes::Mixture.sample(&mut acct.rng);
                    acct.add_file(dir, &name, size, true);
                }
                if flat_every > 0 && index.is_multiple_of(flat_every) {
                    let d = acct.add_dir(0, &format!("{tag}-flat"), false);
                    acct.base.push(d);
                    acct.listed.push(d);
                    for i in 0..flat_files {
                        let size = Sizes::Small.sample(&mut acct.rng);
                        acct.add_file(d, &format!("p{i:05}"), size, true);
                    }
                }
                acct.made_target = made_dirs;
            }
            Tree::Volumes { dirs, files } => {
                acct.listed.push(0);
                for i in 0..dirs {
                    let d = acct.add_dir(0, &format!("{tag}-v{i:02}"), false);
                    acct.base.push(d);
                    acct.listed.push(d);
                }
                for i in 0..files {
                    let dir = acct.base[i % dirs];
                    let name = acct.fresh('f');
                    acct.add_file(dir, &name, LARGE_BYTES[i % LARGE_BYTES.len()], true);
                }
            }
        }
        if let Naming::Slots { files, dirs } = shape.naming {
            acct.slots = vec![(vec![NONE; files], vec![NONE; dirs]); acct.base.len()];
        }
        acct.files_target = acct.pool.len();
        acct.zipf = shape.zipf.map(|s| Zipf::new(acct.pool.len(), s));
        acct
    }

    // ----- model bookkeeping ------------------------------------------------

    fn fresh(&mut self, prefix: char) -> String {
        self.seq += 1;
        format!("{prefix}{:07}", self.seq)
    }

    fn add_dir(&mut self, parent: u32, name: &str, made: bool) -> u32 {
        let dir = Dir {
            path: child(&self.dirs[parent as usize].path, name),
            parent,
            files: Vec::new(),
            entries: 0,
            names: 0,
            detail: 0,
            at: if made { self.made.len() as u32 } else { NONE },
            live: true,
        };
        let id = match self.free_dirs.pop() {
            Some(id) => {
                self.dirs[id as usize] = dir;
                id
            }
            None => {
                self.dirs.push(dir);
                (self.dirs.len() - 1) as u32
            }
        };
        if made {
            self.made.push(id);
        }
        self.entry_changed(parent, name, true, 0, 1);
        self.live_dirs += 1;
        id
    }

    fn add_file(&mut self, dir: u32, name: &str, size: u64, pooled: bool) -> u32 {
        let d = &mut self.dirs[dir as usize];
        let file = File {
            path: child(&d.path, name),
            dir,
            size,
            in_dir: d.files.len() as u32,
            at: if pooled { self.pool.len() as u32 } else { NONE },
        };
        let id = match self.free_files.pop() {
            Some(id) => {
                self.files[id as usize] = file;
                id
            }
            None => {
                self.files.push(file);
                (self.files.len() - 1) as u32
            }
        };
        self.dirs[dir as usize].files.push(id);
        if pooled {
            self.pool.push(id);
        }
        self.entry_changed(dir, name, false, size, 1);
        self.live_files += 1;
        self.live_bytes += size;
        id
    }

    /// Fold one entry into (`delta = 1`) or out of (`-1`) `dir`'s listing
    /// hashes.
    fn entry_changed(&mut self, dir: u32, name: &str, is_dir: bool, size: u64, delta: i32) {
        let d = &mut self.dirs[dir as usize];
        d.entries = d.entries.wrapping_add_signed(delta);
        d.names ^= names_hash(name);
        d.detail ^= detail_hash(name, is_dir, size);
    }

    fn file_name(&self, file: u32) -> String {
        self.files[file as usize]
            .path
            .name()
            .expect("a file is below the root")
            .to_string()
    }

    fn resize(&mut self, file: u32, size: u64) {
        let name = self.file_name(file);
        let f = &mut self.files[file as usize];
        let (dir, old) = (f.dir, f.size);
        f.size = size;
        let d = &mut self.dirs[dir as usize];
        d.detail ^= detail_hash(&name, false, old) ^ detail_hash(&name, false, size);
        self.live_bytes = self.live_bytes - old + size;
    }

    /// Take `file` out of its directory and the target pool; the slot is
    /// recycled.
    fn drop_file(&mut self, file: u32) {
        let name = self.file_name(file);
        let (dir, size, in_dir, at) = {
            let f = &self.files[file as usize];
            (f.dir, f.size, f.in_dir, f.at)
        };
        let siblings = &mut self.dirs[dir as usize].files;
        siblings.swap_remove(in_dir as usize);
        if let Some(&moved) = siblings.get(in_dir as usize) {
            self.files[moved as usize].in_dir = in_dir;
        }
        if at != NONE {
            self.pool.swap_remove(at as usize);
            if let Some(&moved) = self.pool.get(at as usize) {
                self.files[moved as usize].at = at;
            }
        }
        self.entry_changed(dir, &name, false, size, -1);
        self.live_files -= 1;
        self.live_bytes -= size;
        self.free_files.push(file);
    }

    /// Remove `dir` (one MKDIR made) with the files in it.
    fn drop_dir(&mut self, dir: u32) {
        while let Some(&f) = self.dirs[dir as usize].files.last() {
            self.drop_file(f);
        }
        let (parent, at, name) = {
            let d = &self.dirs[dir as usize];
            (
                d.parent,
                d.at,
                d.path.name().expect("below the root").to_string(),
            )
        };
        if at != NONE {
            self.made.swap_remove(at as usize);
            if let Some(&moved) = self.made.get(at as usize) {
                self.dirs[moved as usize].at = at;
            }
        }
        self.entry_changed(parent, &name, true, 0, -1);
        self.dirs[dir as usize].live = false;
        self.live_dirs -= 1;
        self.free_dirs.push(dir);
    }

    // ----- target selection -------------------------------------------------

    fn pick_file(&mut self) -> Option<u32> {
        if self.pool.is_empty() {
            return None;
        }
        let i = match &self.zipf {
            Some(z) => z.sample(&mut self.rng).min(self.pool.len() - 1),
            None => self.rng.below(self.pool.len()),
        };
        Some(self.pool[i])
    }

    /// A directory that takes a new entry: fixed or made, uniformly.
    fn create_dir(&mut self) -> u32 {
        let i = self.rng.below(self.base.len() + self.made.len());
        match self.base.get(i) {
            Some(&d) => d,
            None => self.made[i - self.base.len()],
        }
    }

    /// A file to take out of its directory: the directory is picked the
    /// way [`create_dir`](Self::create_dir) picks one, so every directory
    /// loses entries at the rate it gains them and keeps its size (a file
    /// picked uniformly would drain the flat directory into the others).
    fn victim(&mut self) -> Option<u32> {
        let dir = self.create_dir();
        let files = &self.dirs[dir as usize].files;
        if files.is_empty() {
            return None;
        }
        Some(files[self.rng.below(files.len())])
    }

    /// The directory the next listing targets. Listed directories take
    /// turns — plain and detailed listings each on their own — instead of
    /// being drawn: a detailed listing of a 4 096-entry
    /// directory costs 4 096 requests, more than a thousand ordinary
    /// operations together, and drawn at random the few hundred of them in
    /// a run would decide the run's requests per operation.
    fn list_dir(&mut self, detailed: bool) -> Option<u32> {
        if self.listed.is_empty() {
            // No listed directories: list where the target files live.
            return self.pick_file().map(|f| self.files[f as usize].dir);
        }
        // Fixed and made directories alternate, each kind in rotation, so a
        // fixed directory's share of the listings does not depend on how
        // many made ones there are just now.
        let turn = &mut self.list_turn[usize::from(detailed)];
        let (half, made_turn) = (*turn / 2, *turn % 2 == 1);
        *turn += 1;
        Some(if made_turn && !self.made.is_empty() {
            self.made[half % self.made.len()]
        } else {
            self.listed[half % self.listed.len()]
        })
    }

    /// The mix with creations and deletions steered towards the starting
    /// population: at the target both keep their weight, [`STEER_BAND`]
    /// above it creations stop and deletions double, as far below it the
    /// reverse. The band is narrow so that directory sizes — what a listing
    /// costs — hardly differ from seed to seed.
    fn steered(&self) -> Mix {
        let mut w = self.shape.mix;
        if self.shape.naming != Naming::Fresh {
            return w;
        }
        let excess = |now: usize, target: usize| -> f64 {
            if target == 0 {
                return 0.0;
            }
            ((now as f64 - target as f64) / (STEER_BAND * target as f64)).clamp(-1.0, 1.0)
        };
        let f = excess(self.pool.len(), self.files_target);
        for k in [Kind::Write, Kind::WriteShared, Kind::Copy] {
            w[k as usize] *= 1.0 - f;
        }
        w[Kind::Delete as usize] *= 1.0 + f;
        let d = excess(self.made.len(), self.made_target);
        w[Kind::Mkdir as usize] *= 1.0 - d;
        w[Kind::Rmdir as usize] *= 1.0 + d;
        w
    }

    /// Would the file population stay within 10 % of where it started if
    /// it changed by `files` at once? Steering holds single files inside the
    /// band by itself; removing or copying a whole directory asks first.
    fn population_allows(&self, files: i64) -> bool {
        let after = self.pool.len() as i64 + files;
        (after * 10 - self.files_target as i64 * 10).abs() <= self.files_target as i64
    }

    // ----- generation -------------------------------------------------------

    /// The next operation; the model already reflects it.
    pub fn next_op(&mut self) -> Op {
        loop {
            let kind = Kind::ALL[self.rng.weighted(&self.steered())];
            if let Some(op) = self.emit(kind) {
                return op;
            }
        }
    }

    fn op(kind: Kind, path: Path, size: u64, aux: u64) -> Op {
        Op {
            kind,
            path,
            to: None,
            size,
            aux,
        }
    }

    fn emit(&mut self, kind: Kind) -> Option<Op> {
        match kind {
            Kind::Stat | Kind::Read => {
                let f = self.pick_file()?;
                let f = &self.files[f as usize];
                Some(Self::op(kind, f.path.clone(), f.size, 0))
            }
            Kind::StatAbsent => {
                let f = self.pick_file()?;
                let dir = self.files[f as usize].dir;
                let name = ABSENT[self.rng.below(ABSENT.len())];
                let path = child(&self.dirs[dir as usize].path, name);
                Some(Self::op(kind, path, 0, 0))
            }
            Kind::List | Kind::ListDetailed => {
                let d = self.list_dir(kind == Kind::ListDetailed)?;
                let d = &self.dirs[d as usize];
                let hash = if kind == Kind::List {
                    d.names
                } else {
                    d.detail
                };
                Some(Self::op(kind, d.path.clone(), u64::from(d.entries), hash))
            }
            Kind::Write => {
                let size = self.shape.sizes.sample(&mut self.rng);
                let file = match self.shape.naming {
                    Naming::Fresh => {
                        let dir = self.create_dir();
                        let name = self.fresh('w');
                        self.add_file(dir, &name, size, true)
                    }
                    Naming::Slots { files, .. } => {
                        let b = self.rng.below(self.base.len());
                        let j = self.rng.below(files);
                        match self.slots[b].0[j] {
                            NONE => {
                                let f =
                                    self.add_file(self.base[b], &format!("w{j:03}"), size, false);
                                self.slots[b].0[j] = f;
                                f
                            }
                            f => {
                                self.resize(f, size);
                                f
                            }
                        }
                    }
                };
                Some(Self::op(
                    kind,
                    self.files[file as usize].path.clone(),
                    size,
                    0,
                ))
            }
            Kind::Overwrite => {
                let f = self.pick_file()?;
                let size = self.shape.sizes.sample(&mut self.rng);
                self.resize(f, size);
                Some(Self::op(kind, self.files[f as usize].path.clone(), size, 0))
            }
            Kind::Append => {
                let f = self.pick_file()?;
                let grown =
                    self.files[f as usize].size + 1 + self.rng.below(APPEND_MAX as usize) as u64;
                self.resize(f, grown);
                Some(Self::op(
                    kind,
                    self.files[f as usize].path.clone(),
                    grown,
                    0,
                ))
            }
            Kind::WriteShared => {
                let j = self.rng.below(SHARED_IDENTITIES);
                let dir = self.create_dir();
                let name = self.fresh('s');
                let f = self.add_file(dir, &name, SHARED_BYTES[j], true);
                let identity = (self.client * SHARED_IDENTITIES + j) as u64;
                Some(Self::op(
                    kind,
                    self.files[f as usize].path.clone(),
                    SHARED_BYTES[j],
                    identity,
                ))
            }
            Kind::Delete => {
                let f = self.victim()?;
                let path = self.files[f as usize].path.clone();
                self.drop_file(f);
                Some(Self::op(kind, path, 0, 0))
            }
            Kind::Mkdir | Kind::Rmdir => match self.shape.naming {
                Naming::Fresh if kind == Kind::Mkdir => {
                    let parent = self.base[self.rng.below(self.base.len())];
                    let name = self.fresh('n');
                    let d = self.add_dir(parent, &name, true);
                    Some(Self::op(kind, self.dirs[d as usize].path.clone(), 0, 0))
                }
                Naming::Fresh => {
                    if self.made.is_empty() {
                        return None;
                    }
                    let d = self.made[self.rng.below(self.made.len())];
                    if !self.population_allows(-(self.dirs[d as usize].files.len() as i64)) {
                        return None;
                    }
                    let path = self.dirs[d as usize].path.clone();
                    self.drop_dir(d);
                    Some(Self::op(kind, path, 0, 0))
                }
                Naming::Slots { dirs, .. } => {
                    let b = self.rng.below(self.base.len());
                    let j = self.rng.below(dirs);
                    match self.slots[b].1[j] {
                        NONE => {
                            let d = self.add_dir(self.base[b], &format!("n{j:03}"), false);
                            self.slots[b].1[j] = d;
                            Some(Self::op(
                                Kind::Mkdir,
                                self.dirs[d as usize].path.clone(),
                                0,
                                0,
                            ))
                        }
                        d => {
                            let path = self.dirs[d as usize].path.clone();
                            self.drop_dir(d);
                            self.slots[b].1[j] = NONE;
                            Some(Self::op(Kind::Rmdir, path, 0, 0))
                        }
                    }
                }
            },
            Kind::Mv | Kind::Copy => {
                if self.made.is_empty() || self.rng.unit() < FILE_SHARE {
                    self.relocate_file(kind)
                } else {
                    self.relocate_dir(kind)
                }
            }
        }
    }

    fn relocate_file(&mut self, kind: Kind) -> Option<Op> {
        let f = if kind == Kind::Mv {
            self.victim()?
        } else {
            self.pick_file()?
        };
        let from = self.files[f as usize].path.clone();
        let size = self.files[f as usize].size;
        let dir = self.create_dir();
        let name = self.fresh(if kind == Kind::Mv { 'm' } else { 'c' });
        if kind == Kind::Mv {
            self.drop_file(f);
        }
        let new = self.add_file(dir, &name, size, true);
        let mut op = Self::op(kind, from, size, 0);
        op.to = Some(self.files[new as usize].path.clone());
        Some(op)
    }

    fn relocate_dir(&mut self, kind: Kind) -> Option<Op> {
        let src = self.made[self.rng.below(self.made.len())];
        let grows = self.dirs[src as usize].files.len() as i64;
        if kind == Kind::Copy && !self.population_allows(grows) {
            return None;
        }
        let from = self.dirs[src as usize].path.clone();
        let parent = self.base[self.rng.below(self.base.len())];
        let name = self.fresh('n');
        let dst = self.add_dir(parent, &name, true);
        let content: Vec<(String, u64)> = self.dirs[src as usize]
            .files
            .iter()
            .map(|&f| (self.file_name(f), self.files[f as usize].size))
            .collect();
        if kind == Kind::Mv {
            self.drop_dir(src);
        }
        for (name, size) in content {
            self.add_file(dst, &name, size, true);
        }
        let mut op = Self::op(kind, from, 0, 0);
        op.to = Some(self.dirs[dst as usize].path.clone());
        Some(op)
    }

    // ----- what the rest of the benchmark reads -----------------------------

    /// The tree as `bulk_import` takes it: directories parents first, then
    /// files with their sizes.
    pub fn spec(&self) -> (Vec<FsPath>, Vec<(FsPath, u64)>) {
        let dirs = self.dirs[1..]
            .iter()
            .filter(|d| d.live)
            .map(|d| FsPath::clone(&d.path))
            .collect();
        let files = self
            .live_file_ids()
            .map(|f| {
                let f = &self.files[f as usize];
                (FsPath::clone(&f.path), f.size)
            })
            .collect();
        (dirs, files)
    }

    fn live_file_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.dirs
            .iter()
            .filter(|d| d.live)
            .flat_map(|d| d.files.iter().copied())
    }

    /// Every live directory with what a detailed listing of it must
    /// return: entry count and hash.
    pub fn listings(&self) -> impl Iterator<Item = (&Path, u64, u64)> + '_ {
        self.dirs
            .iter()
            .filter(|d| d.live)
            .map(|d| (&d.path, u64::from(d.entries), d.detail))
    }

    /// The size of every live file (for probes).
    pub fn file_sizes(&self) -> impl Iterator<Item = u64> + '_ {
        self.live_file_ids().map(|f| self.files[f as usize].size)
    }

    pub fn live_files(&self) -> u64 {
        self.live_files
    }

    /// Live directories, the root not counted.
    pub fn live_dirs(&self) -> u64 {
        self.live_dirs
    }

    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Slow full recount of the incrementally kept state; `Err` names the
    /// first disagreement. For tests.
    pub fn audit(&self) -> Result<(), String> {
        let (mut files, mut bytes, mut dirs) = (0u64, 0u64, 0u64);
        for (id, d) in self.dirs.iter().enumerate().filter(|(_, d)| d.live) {
            let (mut entries, mut names, mut detail) = (0u32, 0u64, 0u64);
            for (pos, &f) in d.files.iter().enumerate() {
                let file = &self.files[f as usize];
                if file.dir as usize != id || file.in_dir as usize != pos {
                    return Err(format!("{}: back-pointers of {} wrong", d.path, file.path));
                }
                if file.at != NONE && self.pool.get(file.at as usize) != Some(&f) {
                    return Err(format!("{}: not at its pool position", file.path));
                }
                if file.path.parent().as_ref() != Some(&*d.path) {
                    return Err(format!("{} is not directly under {}", file.path, d.path));
                }
                let name = file.path.name().expect("below the root");
                entries += 1;
                names ^= names_hash(name);
                detail ^= detail_hash(name, false, file.size);
                files += 1;
                bytes += file.size;
            }
            for sub in self
                .dirs
                .iter()
                .filter(|s| s.live && s.parent as usize == id)
            {
                let name = sub.path.name().expect("below the root");
                entries += 1;
                names ^= names_hash(name);
                detail ^= detail_hash(name, true, 0);
            }
            if (entries, names, detail) != (d.entries, d.names, d.detail) {
                return Err(format!("{}: listing hashes drifted", d.path));
            }
            if id != 0 {
                dirs += 1;
            }
        }
        if (files, bytes, dirs) != (self.live_files, self.live_bytes, self.live_dirs) {
            return Err(format!(
                "totals drifted: {files} files {bytes} bytes {dirs} dirs vs {} {} {}",
                self.live_files, self.live_bytes, self.live_dirs
            ));
        }
        Ok(())
    }
}

impl Op {
    /// Fold everything that defines the operation into `fp`. A listing's
    /// expected hash is left out: it is derived, and depends on `h2util`'s
    /// hash function, which is not part of the load.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.word(self.kind as u64);
        for path in std::iter::once(&self.path).chain(self.to.as_ref()) {
            fp.word(path.depth() as u64);
            for c in path.components() {
                fp.bytes(c.as_bytes());
            }
        }
        fp.word(self.size);
        if self.kind == Kind::WriteShared {
            fp.word(self.aux);
        }
    }
}
