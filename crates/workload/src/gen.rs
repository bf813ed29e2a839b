//! Synthetic filesystem specs matching §5.1's user population.

use rand::Rng;

use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::rng::{weighted_pick, LogNormal, Zipf};
use h2util::{OpCtx, Result};

use crate::model::ModelFs;

/// The paper's two user classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserProfile {
    /// "several shallow directories and hundreds of files".
    Light,
    /// "thousands of directories in different depths and millions of
    /// files" (scaled down by `scale` to stay laptop-friendly).
    Heavy,
}

/// File-size mixture: sub-KB configs, medium documents, huge videos/DB
/// backups — calibrated so the mean object lands near the paper's ~1 MB.
#[derive(Debug, Clone)]
pub struct SizeMixture {
    tiny: LogNormal,
    medium: LogNormal,
    huge: LogNormal,
    weights: [f64; 3],
}

impl Default for SizeMixture {
    fn default() -> Self {
        SizeMixture {
            // exp(5.5)≈245 B configs/text
            tiny: LogNormal::new(5.5, 0.8, 16.0, 1024.0),
            // exp(11.8)≈133 KB documents/figures
            medium: LogNormal::new(11.8, 1.2, 4.0e3, 3.0e7),
            // exp(18.5)≈108 MB videos/backups
            huge: LogNormal::new(18.5, 0.9, 5.0e7, 4.0e9),
            weights: [0.50, 0.49, 0.01],
        }
    }
}

impl SizeMixture {
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let bucket = weighted_pick(rng, &self.weights);
        let ln = match bucket {
            0 => &self.tiny,
            1 => &self.medium,
            _ => &self.huge,
        };
        ln.sample(rng) as u64
    }
}

/// A generated filesystem: directories (parents first) and files.
#[derive(Debug, Clone, Default)]
pub struct FsSpec {
    pub dirs: Vec<FsPath>,
    pub files: Vec<(FsPath, u64)>,
}

impl FsSpec {
    /// Total logical bytes.
    pub fn bytes(&self) -> u64 {
        self.files.iter().map(|(_, s)| s).sum()
    }

    /// Maximum directory depth.
    pub fn max_depth(&self) -> usize {
        self.files
            .iter()
            .map(|(p, _)| p.depth())
            .chain(self.dirs.iter().map(|p| p.depth()))
            .max()
            .unwrap_or(0)
    }

    /// Generate a user filesystem. `scale` multiplies the heavy profile's
    /// dir/file counts (1.0 ≈ thousands of dirs, tens of thousands of
    /// files; the real study's millions are reached by raising it).
    pub fn generate<R: Rng>(rng: &mut R, profile: UserProfile, scale: f64) -> FsSpec {
        let (n_dirs, n_files, max_depth, depth_zipf) = match profile {
            UserProfile::Light => (
                (rng.gen_range(3..10) as f64 * scale).max(1.0) as usize,
                (rng.gen_range(100..400) as f64 * scale).max(1.0) as usize,
                3,
                1.2,
            ),
            UserProfile::Heavy => (
                (rng.gen_range(800..2000) as f64 * scale).max(1.0) as usize,
                (rng.gen_range(8_000..25_000) as f64 * scale).max(1.0) as usize,
                22,
                0.8,
            ),
        };
        let mut model = ModelFs::new();
        let mut dirs: Vec<FsPath> = vec![FsPath::root()];
        let mut spec = FsSpec::default();
        // Grow directories: attach each new dir to an existing one, biased
        // towards shallow parents (Zipf over creation order) but allowing
        // deep chains up to max_depth.
        for i in 0..n_dirs {
            let zipf = Zipf::new(dirs.len(), depth_zipf);
            let parent = loop {
                let cand = &dirs[zipf.sample(rng)];
                if cand.depth() < max_depth {
                    break cand.clone();
                }
            };
            let name = format!("dir{i:05}");
            let p = parent.child(&name).expect("valid name");
            model.mkdir(&p).expect("fresh name cannot collide");
            dirs.push(p.clone());
            spec.dirs.push(p);
        }
        // Place files: Zipf over directories so a few are very full (the
        // paper saw up to ~half a million files in one directory).
        let sizes = SizeMixture::default();
        let zipf = Zipf::new(dirs.len(), 1.1);
        for i in 0..n_files {
            let dir = &dirs[zipf.sample(rng)];
            let name = format!("file{i:06}.dat");
            let p = dir.child(&name).expect("valid name");
            let size = sizes.sample(rng);
            model.write(&p, size).expect("fresh name cannot collide");
            spec.files.push((p, size));
        }
        spec
    }

    /// One directory holding exactly `n` files — the unit the paper sweeps
    /// in Figures 7–11.
    pub fn flat_dir(dir: &FsPath, n: usize, file_size: u64) -> FsSpec {
        let mut spec = FsSpec::default();
        if !dir.is_root() {
            // Parents of the target dir, outermost first.
            let mut chain = Vec::new();
            let mut cur = dir.clone();
            loop {
                chain.push(cur.clone());
                match cur.parent() {
                    Some(p) if !p.is_root() => cur = p,
                    _ => break,
                }
            }
            chain.reverse();
            spec.dirs = chain;
        }
        for i in 0..n {
            spec.files
                .push((dir.child(&format!("f{i:06}")).expect("valid"), file_size));
        }
        spec
    }

    /// A chain of directories `depth` deep with one file at the bottom —
    /// the Figure 13 sweep.
    pub fn chain(depth: usize, file_size: u64) -> FsSpec {
        assert!(depth >= 1, "a file needs at least depth 1");
        let mut spec = FsSpec::default();
        let mut cur = FsPath::root();
        for i in 0..depth - 1 {
            cur = cur.child(&format!("level{i:02}")).expect("valid");
            spec.dirs.push(cur.clone());
        }
        spec.files
            .push((cur.child("leaf.dat").expect("valid"), file_size));
        spec
    }

    /// Materialise the spec into a backend via the bulk-import path.
    /// Files are size-only ([`FileContent::Simulated`]) so multi-GB specs
    /// stay cheap.
    pub fn populate(&self, fs: &dyn CloudFs, ctx: &mut OpCtx, account: &str) -> Result<()> {
        fs.bulk_import(ctx, account, &self.dirs, &self.files)
    }

    /// Materialise the spec one operation at a time (exercises the normal
    /// op path; used by tests that compare it against bulk import).
    pub fn populate_slow(&self, fs: &dyn CloudFs, ctx: &mut OpCtx, account: &str) -> Result<()> {
        for d in &self.dirs {
            fs.mkdir(ctx, account, d)?;
        }
        for (f, size) in &self.files {
            fs.write(ctx, account, f, FileContent::Simulated(*size))?;
        }
        Ok(())
    }

    /// Build the matching [`ModelFs`].
    pub fn to_model(&self) -> ModelFs {
        let mut m = ModelFs::new();
        for d in &self.dirs {
            m.mkdir(d).expect("spec dirs are parents-first and unique");
        }
        for (f, size) in &self.files {
            m.write(f, *size).expect("spec files are unique");
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2util::rng::rng;

    #[test]
    fn light_profile_is_small_and_shallow() {
        let mut r = rng(1);
        let spec = FsSpec::generate(&mut r, UserProfile::Light, 1.0);
        assert!(spec.dirs.len() < 12, "{}", spec.dirs.len());
        assert!(
            (100..500).contains(&spec.files.len()),
            "{}",
            spec.files.len()
        );
        assert!(spec.max_depth() <= 4, "{}", spec.max_depth());
    }

    #[test]
    fn heavy_profile_is_large_and_deep() {
        let mut r = rng(2);
        let spec = FsSpec::generate(&mut r, UserProfile::Heavy, 0.5);
        assert!(spec.dirs.len() >= 400, "{}", spec.dirs.len());
        assert!(spec.files.len() >= 4_000, "{}", spec.files.len());
        assert!(spec.max_depth() >= 8, "depth only {}", spec.max_depth());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FsSpec::generate(&mut rng(7), UserProfile::Light, 1.0);
        let b = FsSpec::generate(&mut rng(7), UserProfile::Light, 1.0);
        assert_eq!(a.dirs, b.dirs);
        assert_eq!(a.files, b.files);
    }

    #[test]
    fn size_mixture_mean_is_paperish() {
        // "nearly 1 MB in average" — accept 0.2..6 MB for the sampled mean.
        let mut r = rng(3);
        let m = SizeMixture::default();
        let n = 30_000;
        let total: u64 = (0..n).map(|_| m.sample(&mut r)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (2.0e5..6.0e6).contains(&mean),
            "mean object size {mean} out of range"
        );
    }

    #[test]
    fn flat_dir_and_chain_shapes() {
        let dir = FsPath::parse("/bench/target").unwrap();
        let spec = FsSpec::flat_dir(&dir, 10, 1024);
        assert_eq!(spec.dirs.len(), 2); // /bench, /bench/target
        assert_eq!(spec.files.len(), 10);
        assert!(spec.files.iter().all(|(p, _)| p.parent().unwrap() == dir));

        let chain = FsSpec::chain(5, 1);
        assert_eq!(chain.dirs.len(), 4);
        assert_eq!(chain.files[0].0.depth(), 5);
    }

    #[test]
    fn populate_matches_model() {
        let mut r = rng(4);
        let spec = FsSpec::generate(&mut r, UserProfile::Light, 0.3);
        let model = spec.to_model();
        assert_eq!(model.file_count(), spec.files.len());
        assert_eq!(model.all_dirs().len(), spec.dirs.len() + 1);
    }
}
