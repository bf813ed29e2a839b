//! Command line of the benchmark. `run.sh` builds this and passes its
//! arguments through; README.md documents the commands.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use h2perf::bench::{self, SETUPS};
use h2perf::compare;
use h2perf::manifest::{benchmark_json, RUN_SECONDS};
use h2perf::report;
use h2perf::run::{Fail, Stop};
use h2perf::workloads::{self, PINNED_SEED};

#[global_allocator]
static ALLOCATOR: h2perf::alloc::Counting = h2perf::alloc::Counting;

const USAGE: &str = "usage:
  h2perf [run] [--workload NAME] [--seed N] [--seconds S | --rounds R] [--trace 0|1]
               [--record FILE] [--out DIR]      (no --workload: all, measured and traced)
  h2perf compare A.tsv B.tsv
  h2perf selfcheck [--runs N] [--seconds S] [--out DIR]
  h2perf fingerprint [--seed N]
  h2perf manifest";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, Fail> {
        let mut pairs = Vec::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    pairs.push((flag[2..].to_string(), value.clone()));
                }
                _ => return Err(format!("expected --flag value, got {pair:?}\n{USAGE}").into()),
            }
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, Fail> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag} {v}: not a number").into()),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out").unwrap_or("benchmark/out"))
    }
}

/// Every workload twice, measured then traced, each run in a process of
/// its own (a run's peak memory and allocator state are its own), all
/// records into one file.
fn run_all(args: &[String], flags: &Flags) -> Result<ExitCode, Fail> {
    let out = flags.out_dir();
    std::fs::create_dir_all(&out)?;
    let records = out.join("results.tsv");
    std::fs::write(&records, "")?;
    let mut all_ok = true;
    for w in workloads::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(std::env::current_exe()?)
                .arg("run")
                .args(args)
                .args(["--workload", w.name, "--trace", trace, "--record"])
                .arg(&records)
                .status()?;
            all_ok &= status.success();
        }
    }
    println!(
        "records: {}; traces: {}/<workload>.trace.json",
        records.display(),
        out.display()
    );
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run(args: &[String]) -> Result<ExitCode, Fail> {
    let flags = &Flags::parse(args)?;
    let Some(name) = flags.get("workload") else {
        return run_all(args, flags);
    };
    let w = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let seed: u64 = flags.number("seed", PINNED_SEED)?;
    let seconds: f64 = flags.number("seconds", RUN_SECONDS as f64)?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1").into()),
    };
    eprintln!(
        "{name}: seed {seed}, op-stream fingerprint {:032x}, {} client threads on {} cores",
        w.fingerprint(seed),
        h2perf::sut::CLIENTS,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let outcome = if traced {
        bench::traced(&w, seed, seconds, &flags.out_dir())?
    } else {
        let stop = match flags.get("rounds") {
            Some(_) => Stop::Rounds(flags.number("rounds", 0)?),
            None => Stop::Seconds(seconds),
        };
        bench::measured(&w, seed, stop, SETUPS)?
    };
    let defs = bench::defs(traced);
    if let Some(failure) = &outcome.first_failure {
        eprintln!("{name}: first failure: {failure}");
    }
    if let Some(file) = flags.get("record") {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(Path::new(file))?;
        f.write_all(report::records(&defs, &outcome.values, name, seed)?.as_bytes())?;
    }
    println!("{name} (seed {seed}, trace {}):", u8::from(traced));
    print!(
        "{}",
        report::table(&defs, &outcome.values, &outcome.probes)?
    );
    println!(
        "{}",
        report::result_line(&defs, &outcome.values, outcome.attempted, outcome.failed)?
    );
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, Fail> {
    let (command, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (first.as_str(), rest),
        _ => ("run", args),
    };
    match command {
        "run" => run(rest),
        "compare" => {
            let [a, b] = rest else {
                return Err(USAGE.into());
            };
            let (table, any_worse) =
                compare::compare(&compare::load(Path::new(a))?, &compare::load(Path::new(b))?);
            print!("{table}");
            Ok(ExitCode::from(u8::from(any_worse)))
        }
        "selfcheck" => {
            let flags = Flags::parse(rest)?;
            let (table, held) = compare::selfcheck(
                flags.number("runs", 10)?,
                flags.number("seconds", RUN_SECONDS)?,
                &flags.out_dir(),
            )?;
            print!("{table}");
            println!("A/A criterion {}", if held { "held" } else { "FAILED" });
            Ok(ExitCode::from(u8::from(!held)))
        }
        "fingerprint" => {
            let seed = Flags::parse(rest)?.number("seed", PINNED_SEED)?;
            for w in workloads::ALL {
                println!("{:<15} {:032x}", w.name, w.fingerprint(seed));
            }
            Ok(ExitCode::SUCCESS)
        }
        "manifest" => {
            print!("{}", benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("h2perf: {e}");
        ExitCode::from(2)
    })
}
