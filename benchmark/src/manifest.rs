//! `BENCHMARK.json`, generated: the workload list and the metric tables
//! live in this crate, the file at the repository root is their rendering,
//! and a test holds the two together.

use std::fmt::Write as _;

use crate::names::{self, Def};
use crate::workloads;

/// How long one run measures, in seconds (the driver passes it back as
/// `--seconds`).
pub const RUN_SECONDS: u64 = 10;

fn metric(def: &Def) -> String {
    let mut m = format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        def.name,
        def.unit,
        def.better.label()
    );
    if let Some(bound) = def.bound {
        let _ = write!(m, ", \"bound\": {bound}");
    }
    m.push('}');
    m
}

fn list(items: Vec<String>) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

pub fn benchmark_json() -> String {
    let workloads = workloads::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(names::end_to_end().iter().map(metric).collect()),
        list(names::per_layer().iter().map(metric).collect()),
    )
}
