//! `h2perf compare A B` and `h2perf selfcheck`: judging two sets of
//! recorded runs by the bounds the benchmark fixed.
//!
//! A record file holds one tab-separated line per run and metric (see
//! `report::records`); runs of the same workload — usually with different
//! seeds — form that workload's sample.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::names::{self, Better, Def};
use crate::run::Fail;
use crate::workloads;

/// `(workload, metric)` to the values recorded for it, in file order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

pub fn load(path: &Path) -> Result<Samples, Fail> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut samples = Samples::new();
    for (i, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        let value = match f.as_slice() {
            [_, _, _, value, _] => value.parse::<f64>().ok(),
            _ => None,
        };
        let value = value.ok_or_else(|| format!("{}:{}: not a record", path.display(), i + 1))?;
        samples
            .entry((f[0].to_string(), f[2].to_string()))
            .or_default()
            .push(value);
    }
    Ok(samples)
}

/// Minimum, first quartile, median, third quartile and maximum, the
/// quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the driver's rule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (&min, &max) = (v.first()?, v.last()?);
        let quantile = |i: usize| {
            if n < 2 {
                return v[0];
            }
            // Clamp first, then take the remainder against the clamped
            // index: at the ends this extrapolates, as Python does.
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            min,
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            max,
        })
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.median).abs()
    }
}

/// By what share of `a`'s median `b`'s median is worse (negative: better).
fn worse_by(def: &Def, a: &Summary, b: &Summary) -> f64 {
    if a.median == 0.0 {
        return 0.0;
    }
    let change = (b.median - a.median) / a.median.abs();
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound: the samples cannot
    /// tell "unchanged" from "regressed".
    Unresolved,
}

pub fn judge(def: &Def, a: &Summary, b: &Summary) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let worse = worse_by(def, a, b);
    if a.spread().max(b.spread()) > bound && def.name != names::SETUP_S {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else if worse < 0.0 && -worse > a.spread() {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn row(out: &mut String, workload: &str, def: &Def, a: &Summary, b: &Summary, verdict: &str) {
    let _ = writeln!(
        out,
        "{workload:<15} {:<27} {:>14.4} [{:.4} .. {:.4}] {:>14.4} [{:.4} .. {:.4}] {:>+8.2}%  {verdict}",
        def.name,
        a.median,
        a.min,
        a.max,
        b.median,
        b.min,
        b.max,
        100.0 * worse_by(def, a, b),
    );
}

/// Both sets' summaries of one workload's metric, if both recorded it.
fn summaries(a: &Samples, b: &Samples, workload: &str, def: &Def) -> Option<(Summary, Summary)> {
    let key = (workload.to_string(), def.name.clone());
    Some((Summary::of(a.get(&key)?)?, Summary::of(b.get(&key)?)?))
}

/// Per workload and end-to-end metric: better, same, worse or unresolved.
/// Returns the table and whether anything got worse.
pub fn compare(a: &Samples, b: &Samples) -> (String, bool) {
    let mut out = format!(
        "{:<15} {:<27} {:>14} {:<20} {:>14} {:<20} {:>9}\n",
        "workload", "metric", "A median", "[min .. max]", "B median", "[min .. max]", "worse by"
    );
    let mut any_worse = false;
    for w in workloads::ALL {
        for def in names::end_to_end() {
            let Some((sa, sb)) = summaries(a, b, w.name, &def) else {
                continue;
            };
            let verdict = judge(&def, &sa, &sb);
            any_worse |= verdict == Verdict::Worse;
            row(
                &mut out,
                w.name,
                &def,
                &sa,
                &sb,
                &format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    (out, any_worse)
}

/// The A/A criterion: two sets of `runs` runs of this very binary, each
/// run with another seed, must agree. For every workload and end-to-end
/// metric each set's spread stays within the metric's bound (set-up time
/// excepted) and the second median is not worse than the first by more
/// than the bound. Returns the table and whether the criterion held.
pub fn selfcheck(runs: usize, seconds: u64, dir: &Path) -> Result<(String, bool), Fail> {
    std::fs::create_dir_all(dir)?;
    let exe = std::env::current_exe()?;
    let mut sets = Vec::new();
    for set in ["a", "b"] {
        let file = dir.join(format!("selfcheck-{set}.tsv"));
        let _ = std::fs::remove_file(&file);
        for w in workloads::ALL {
            for i in 0..runs {
                let seed = 1000 + i as u64;
                eprintln!("selfcheck: set {set}, {}, seed {seed}", w.name);
                let status = Command::new(&exe)
                    .args(["run", "--workload", w.name, "--trace", "0"])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .arg("--record")
                    .arg(&file)
                    .stdout(std::process::Stdio::null())
                    .status()?;
                if !status.success() {
                    return Err(format!("{} seed {seed} exited with {status}", w.name).into());
                }
            }
        }
        sets.push(load(&file)?);
    }
    let mut out = String::new();
    let mut held = true;
    for w in workloads::ALL {
        for def in names::end_to_end() {
            let (a, b) = summaries(&sets[0], &sets[1], w.name, &def)
                .ok_or_else(|| format!("{} {} was not recorded", w.name, def.name))?;
            let bound = def.bound.unwrap_or(0.0);
            let spread = a.spread().max(b.spread());
            let verdict = match judge(&def, &a, &b) {
                Verdict::Unresolved => "SPREAD OVER BOUND",
                Verdict::Worse => "MEDIANS DISAGREE",
                _ if spread > bound / 3.0 && def.name != names::SETUP_S => {
                    "ok (spread over a third of the bound)"
                }
                _ => "ok",
            };
            held &= verdict.starts_with("ok");
            row(
                &mut out,
                w.name,
                &def,
                &a,
                &b,
                &format!(
                    "spread {:.3}% of bound {:.1}%: {verdict}",
                    100.0 * spread,
                    100.0 * bound
                ),
            );
        }
    }
    Ok((out, held))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[7.0]).unwrap().spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let def = |better| Def {
            name: "m".into(),
            unit: "ms",
            better,
            bound: Some(0.05),
        };
        let tight = |m: f64| Summary::of(&[m * 0.999, m, m * 1.001]).unwrap();
        let lower = def(Better::Lower);
        assert_eq!(judge(&lower, &tight(100.0), &tight(101.0)), Verdict::Same);
        assert_eq!(judge(&lower, &tight(100.0), &tight(106.0)), Verdict::Worse);
        assert_eq!(judge(&lower, &tight(100.0), &tight(90.0)), Verdict::Better);
        assert_eq!(
            judge(&def(Better::Higher), &tight(100.0), &tight(90.0)),
            Verdict::Worse
        );
        let wide = Summary::of(&[80.0, 100.0, 120.0]).unwrap();
        assert_eq!(judge(&lower, &wide, &tight(100.0)), Verdict::Unresolved);
    }
}
