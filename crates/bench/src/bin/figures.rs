//! Regenerate the paper's tables and figures.
//!
//! ```bash
//! cargo run -p h2bench --release --bin figures -- all
//! cargo run -p h2bench --release --bin figures -- fig7 fig13 --quick
//! ```
//!
//! Experiments: `table1`, `fig7` … `fig13`, `fig14-15`, `rtt`,
//! `abl-sync`, `abl-gossip`, `abl-lookup`, `abl-ring`, `abl-cache`.
//! `--quick` caps
//! sweeps at n = 1000 for smoke runs; `--csv <dir>` additionally writes
//! each experiment as a CSV file for plotting.

use h2bench::{ablations, experiments, rtt, table1, ExpTable, SystemKind};

fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

fn write_csv(dir: &str, table: &ExpTable) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut out = String::new();
    out.push_str(
        &table
            .headers
            .iter()
            .map(|h| csv_escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in &table.rows {
        out.push_str(
            &row.iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    std::fs::write(format!("{dir}/{}.csv", table.id), out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir: Option<String> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1).cloned());
    let mut csv_value_consumed = false;
    let mut wanted: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            if a.as_str() == "--csv" {
                return false;
            }
            // Skip the value that followed --csv.
            if *i > 0 && args[i - 1] == "--csv" && !csv_value_consumed {
                csv_value_consumed = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|(_, s)| s.as_str())
        .collect();
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = vec![
            "table1",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14-15",
            "rtt",
            "abl-sync",
            "abl-gossip",
            "abl-lookup",
            "abl-ring",
            "abl-cache",
        ];
    }

    let run = |id: &str| -> Option<ExpTable> {
        let started = h2util::clock::wall_now();
        let table = match id {
            "table1" => table1::table1(&SystemKind::ALL),
            "fig7" => experiments::fig7(quick),
            "fig8" => experiments::fig8(quick),
            "fig9" => experiments::fig9(quick),
            "fig10" => experiments::fig10(quick),
            "fig11" => experiments::fig11(quick),
            "fig12" => experiments::fig12(quick),
            "fig13" => experiments::fig13(quick),
            "fig14-15" | "fig14" | "fig15" => experiments::fig14_15(quick),
            "rtt" => rtt::rtt_table(),
            "abl-sync" => ablations::abl_sync(),
            "abl-gossip" => ablations::abl_gossip(),
            "abl-lookup" => ablations::abl_lookup(),
            "abl-ring" => ablations::abl_ring(),
            "abl-cache" => ablations::abl_cache(),
            // Not in the default set: the default figure run must stay
            // byte-identical whether or not the fault plane exists.
            "abl-faults" => ablations::abl_faults(),
            // Not in the default set either: it runs the CAS plane, which
            // the paper profile leaves off. `figures abl-dedup`.
            "abl-dedup" => ablations::abl_dedup(),
            other => {
                eprintln!("unknown experiment {other:?}");
                return None;
            }
        };
        eprintln!("[{id} ran in {:.1}s]", started.elapsed().as_secs_f64());
        Some(table)
    };

    for id in wanted {
        if let Some(table) = run(id) {
            println!("{}", table.render());
            if let Some(dir) = &csv_dir {
                if let Err(e) = write_csv(dir, &table) {
                    eprintln!("failed to write {dir}/{}.csv: {e}", table.id);
                }
            }
        }
    }
}
