//! Workload generation matching the paper's user study (§5.1).
//!
//! The paper hosts ~150 users' filesystems: "light" users with a few
//! shallow directories and hundreds of files, "heavy" users with thousands
//! of directories at depths past 20 and up to ~half a million files in one
//! directory; file sizes span sub-KB configs to multi-GB videos with a ~1 MB
//! mean. This crate reproduces those distributions deterministically:
//!
//! * [`model`] — a pure in-memory reference filesystem with the exact
//!   `CloudFs` semantics; the oracle for equivalence tests and the state
//!   tracker that keeps generated traces valid.
//! * [`gen`] — synthetic filesystem specs (light/heavy user profiles, file
//!   size mixture) and shaped micro-specs for the figure sweeps.
//! * [`trace`] — POSIX-op traces with a configurable mix, plus a replayer
//!   that drives any `CloudFs` and reports per-op timing.

pub mod gen;
pub mod model;
pub mod stats;
pub mod trace;

pub use gen::{FsSpec, SizeMixture, UserProfile};
pub use model::ModelFs;
pub use stats::SpecStats;
pub use trace::{Op, OpKind, Trace, TraceMix};
