//! The asynchronous NameRing maintenance protocol, live: several
//! H2Middlewares (real threads, channel gossip) concurrently
//! update the same directories; the CRDT merge + gossip flooding converge
//! every node to the same view — §3.3.2 end to end.
//!
//! ```bash
//! cargo run --release --example gossip_convergence
//! ```

use std::sync::Arc;

use h2cloud_repro::prelude::*;

fn main() -> Result<()> {
    const MIDDLEWARES: usize = 4;
    const WRITERS_PER_MW: usize = 2;
    const FILES_PER_WRITER: usize = 25;

    let fs = Arc::new(H2Cloud::new(H2Config {
        middlewares: MIDDLEWARES,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::default(),
        cache_capacity: 0,
        trace_sample: 0.0,
        ..H2Config::default()
    }));
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, "team")?;
    fs.mkdir(&mut ctx, "team", &FsPath::parse("/shared")?)?;
    fs.quiesce();

    println!(
        "{MIDDLEWARES} middlewares, {} writer threads, {} files each, \
         deferred maintenance + threaded gossip…",
        MIDDLEWARES * WRITERS_PER_MW,
        FILES_PER_WRITER
    );

    // Start the background gossip/merger threads.
    let gossip = fs.layer().run_threaded();

    // Writers hammer the same directory through different middlewares.
    std::thread::scope(|scope| {
        for mw in 0..MIDDLEWARES {
            for w in 0..WRITERS_PER_MW {
                let fs = fs.clone();
                scope.spawn(move || {
                    let view = fs.via(mw);
                    for i in 0..FILES_PER_WRITER {
                        let mut ctx = OpCtx::new(fs.cost_model());
                        let path = FsPath::parse(&format!("/shared/mw{mw}-w{w}-f{i:03}")).unwrap();
                        view.write(&mut ctx, "team", &path, FileContent::Simulated(1024)) // h2lint: allow(panic-safety): demo exits on first error by design
                            .expect("write");
                    }
                });
            }
        }
    });

    // Wait for every middleware to see every file.
    let expected = MIDDLEWARES * WRITERS_PER_MW * FILES_PER_WRITER;
    let start = h2util::clock::wall_now();
    loop {
        let counts: Vec<usize> = (0..MIDDLEWARES)
            .map(|i| {
                let mut ctx = OpCtx::new(fs.cost_model());
                fs.via(i)
                    .list(&mut ctx, "team", &FsPath::parse("/shared").unwrap())
                    .map(|l| l.len())
                    .unwrap_or(0)
            })
            .collect();
        print!("\rviews: {counts:?} / {expected}    ");
        use std::io::Write;
        std::io::stdout().flush().ok();
        if counts.iter().all(|&c| c == expected) {
            println!(
                "\nconverged in {:.2}s of wall time",
                start.elapsed().as_secs_f64()
            );
            break;
        }
        if start.elapsed() > std::time::Duration::from_secs(30) {
            println!("\ndid not converge within 30s — gossip threads starved?");
            break;
        }
        h2util::clock::wall_sleep(std::time::Duration::from_millis(20));
    }
    gossip.stop();

    // Show the per-middleware background maintenance spend (virtual time).
    for (i, mw) in fs.layer().middlewares().iter().enumerate() {
        let (bg, counts) = mw.background_spend();
        println!(
            "middleware {i}: background {} across {} backend ops",
            h2util::fmt::millis(bg),
            counts.total()
        );
    }
    Ok(())
}
