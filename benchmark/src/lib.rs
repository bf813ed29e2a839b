//! `h2perf`: the repository's benchmark. README.md has the definitions;
//! `BENCHMARK.json` at the repository root is generated from this crate
//! (`h2perf manifest`).

pub mod alloc;
pub mod bench;
pub mod compare;
pub mod manifest;
pub mod model;
pub mod names;
pub mod probes;
pub mod replay;
pub mod report;
pub mod rng;
pub mod run;
pub mod spans;
pub mod sut;
pub mod workloads;
