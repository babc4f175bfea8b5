//! `ab_compare` — the table behind `scripts/ab.sh`: alternating base/head
//! runs of one yardstick workload, compared per end-to-end metric.
//!
//! ```text
//! ab_compare BENCHMARK.json RESULTS_DIR
//! ```
//!
//! `RESULTS_DIR` holds `base-<seed>.json` and `head-<seed>.json`, each the
//! last stdout line of one `bench/run.sh --workload W --seed S` pass. For
//! every end-to-end metric `BENCHMARK.json` declares, the table shows each
//! side's median and quartiles, the head's change of median, how many
//! same-seed pairs the head won (ties count for neither), and a verdict:
//!
//! * `WORSE` — the head's median is worse than the base's by more than the
//!   metric's bound;
//! * `gain` — over at least five pairs, the head won at least nine in ten
//!   and its median is better by more than the base's interquartile range;
//! * `within` — anything else.
//!
//! It also says whether `stored_pct` is identical on every seed and counts
//! each side's failed operations. A seed whose base or head result is
//! missing or unreadable (a run that failed before printing its line) is
//! left out of the table and listed as a failed run. A verdict never changes
//! the exit status: that is nonzero only when some run failed, or no seed
//! has both results.

use rlz_bench::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// One pass's result line.
struct Run {
    attempted: f64,
    failed: f64,
    metrics: Value,
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

fn end_to_end(benchmark: &Value) -> Result<Vec<Metric>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k:?}"));
            Ok(Metric {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .into(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Parses one result line.
fn read_run(path: &Path) -> Result<Run, String> {
    let line = load(path)?;
    let number = |k: &str| {
        line.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("{}: no {k:?}", path.display()))
    };
    Ok(Run {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics: line
            .get("metrics")
            .cloned()
            .ok_or(format!("{}: no metrics", path.display()))?,
    })
}

/// Each `(side, seed)`'s result, or why its file is not a result line.
type Runs = BTreeMap<(String, u64), Result<Run, String>>;

/// Reads every `<side>-<seed>.json` in `dir`, by side then seed.
fn runs(dir: &Path) -> Result<Runs, String> {
    let mut out = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Some((side, seed)) = stem.split_once('-') else {
            continue;
        };
        let (Ok(seed), true) = (seed.parse::<u64>(), side == "base" || side == "head") else {
            continue;
        };
        out.insert((side.to_string(), seed), read_run(&path));
    }
    Ok(out)
}

/// Splits `runs` into the seeds whose base and head both have a result,
/// as `(seed, base, head)` in seed order, and one message per failed run.
fn pair_up(mut runs: Runs) -> (Vec<(u64, Run, Run)>, Vec<String>) {
    let seeds: BTreeSet<u64> = runs.keys().map(|&(_, seed)| seed).collect();
    let (mut pairs, mut failures) = (Vec::new(), Vec::new());
    for seed in seeds {
        let [base, head] = ["base", "head"].map(|side| {
            runs.remove(&(side.to_string(), seed))
                .unwrap_or_else(|| Err("no result file".into()))
                .map_err(|e| failures.push(format!("{side} seed {seed}: {e}")))
        });
        if let (Ok(base), Ok(head)) = (base, head) {
            pairs.push((seed, base, head));
        }
    }
    (pairs, failures)
}

/// The `p` quantile of sorted `v`, interpolating between neighbours.
fn quantile(v: &[f64], p: f64) -> f64 {
    let at = p * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// `v` to about five significant digits.
fn short(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
    }
}

/// Median and quartiles of `v`.
fn summary(v: &[f64]) -> [f64; 3] {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.5, 0.25, 0.75].map(|p| quantile(&sorted, p))
}

/// The verdict column for one metric: `base` and `head` are same-seed
/// pairs, in seed order.
fn verdict(metric: &Metric, base: &[f64], head: &[f64]) -> (usize, &'static str) {
    let better = |h: f64, b: f64| {
        if metric.higher_is_better {
            h > b
        } else {
            h < b
        }
    };
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| better(h, b))
        .count();
    let [b_med, b_q1, b_q3] = summary(base);
    let h_med = summary(head)[0];
    let worse_by = if metric.higher_is_better {
        b_med - h_med
    } else {
        h_med - b_med
    };
    let verdict = if worse_by > metric.bound * b_med.abs() {
        "WORSE"
    } else if base.len() >= 5 && wins * 10 >= base.len() * 9 && -worse_by > b_q3 - b_q1 {
        "gain"
    } else {
        "within"
    };
    (wins, verdict)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [benchmark, dir] = args.as_slice() else {
        return Err("usage: ab_compare BENCHMARK.json RESULTS_DIR".into());
    };
    let metrics = end_to_end(&load(Path::new(benchmark))?)?;
    let (pairs, failures) = pair_up(runs(Path::new(dir))?);
    if pairs.is_empty() {
        return Err(format!(
            "{dir}: no seed has both a base and a head result; failed runs: {}",
            failures.join("; ")
        ));
    }
    let seeds: Vec<u64> = pairs.iter().map(|&(seed, _, _)| seed).collect();
    let base: Vec<&Run> = pairs.iter().map(|(_, base, _)| base).collect();
    let head: Vec<&Run> = pairs.iter().map(|(_, _, head)| head).collect();
    println!(
        "{} pairs, seeds {:?}; medians [quartiles]",
        seeds.len(),
        seeds
    );
    println!(
        "{:<14} {:>7} {:>26} {:>26} {:>8} {:>6} {:>5}  verdict",
        "metric", "unit", "base", "head", "change", "wins", "bound"
    );
    for metric in &metrics {
        let values = |side: &[&Run]| -> Result<Vec<f64>, String> {
            side.iter()
                .map(|run| {
                    run.metrics
                        .get(&metric.name)
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64)
                        .ok_or(format!("a result has no {}", metric.name))
                })
                .collect()
        };
        let (b, h) = (values(&base)?, values(&head)?);
        let (wins, verdict) = verdict(metric, &b, &h);
        let [b_med, b_q1, b_q3] = summary(&b);
        let [h_med, h_q1, h_q3] = summary(&h);
        let change = if b_med == 0.0 {
            0.0
        } else {
            100.0 * (h_med - b_med) / b_med
        };
        println!(
            "{:<14} {:>7} {:>26} {:>26} {:>+7.1}% {:>6} {:>5}  {verdict}",
            metric.name,
            metric.unit,
            format!("{} [{}, {}]", short(b_med), short(b_q1), short(b_q3)),
            format!("{} [{}, {}]", short(h_med), short(h_q1), short(h_q3)),
            change,
            format!("{wins}/{}", seeds.len()),
            metric.bound,
        );
        if metric.name == "stored_pct" {
            let same = b.iter().zip(&h).filter(|(x, y)| x == y).count();
            println!("stored_pct identical on {same}/{} seeds", seeds.len());
        }
    }
    let failed = |side: &[&Run]| {
        let failed: f64 = side.iter().map(|r| r.failed).sum();
        let attempted: f64 = side.iter().map(|r| r.attempted).sum();
        format!("{failed}/{attempted}")
    };
    println!(
        "failed operations: base {}, head {}",
        failed(&base),
        failed(&head)
    );
    if failures.is_empty() {
        return Ok(());
    }
    println!("failed runs (left out above): {}", failures.join("; "));
    Err(format!("{} run(s) produced no result", failures.len()))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ab_compare: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: 0.25,
        }
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(summary(&[4.0, 1.0, 3.0, 2.0, 5.0]), [3.0, 2.0, 4.0]);
        assert_eq!(summary(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [
            100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0,
        ];
        let up: Vec<f64> = base.iter().map(|v| v * 1.5).collect();
        let down: Vec<f64> = base.iter().map(|v| v * 0.7).collect();
        assert_eq!(verdict(&metric(true), &base, &up), (10, "gain"));
        assert_eq!(verdict(&metric(true), &base, &down), (0, "WORSE"));
        assert_eq!(verdict(&metric(false), &base, &down), (10, "gain"));
        assert_eq!(verdict(&metric(false), &base, &up).1, "WORSE");
        // Identical runs: no wins, no verdict either way.
        assert_eq!(verdict(&metric(true), &base, &base), (0, "within"));
        // Too few pairs for a gain, however large.
        assert_eq!(verdict(&metric(true), &base[..4], &up[..4]), (4, "within"));
    }

    #[test]
    fn a_failed_run_drops_only_its_seed() {
        let ok = || {
            Ok(Run {
                attempted: 1.0,
                failed: 0.0,
                metrics: Value::Obj(Vec::new()),
            })
        };
        let mut runs = BTreeMap::new();
        for seed in 1..=3 {
            runs.insert(("base".to_string(), seed), ok());
            runs.insert(("head".to_string(), seed), ok());
        }
        runs.insert(("head".to_string(), 2), Err("not a result line".into()));
        runs.insert(("base".to_string(), 4), ok());
        let (pairs, failures) = pair_up(runs);
        let seeds: Vec<u64> = pairs.iter().map(|&(seed, _, _)| seed).collect();
        assert_eq!(seeds, [1, 3]);
        assert_eq!(
            failures,
            [
                "head seed 2: not a result line",
                "head seed 4: no result file"
            ]
        );
    }
}
