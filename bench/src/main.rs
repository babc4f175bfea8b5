//! `yardstick`: the repo's benchmark. See `bench/README.md`.
//!
//! One invocation with `--workload` runs one workload end to end (the
//! driver's contract): set-up in child processes, the timed section in a
//! child process of its own, outputs verified, one JSON object on the
//! last line of stdout. Without `--workload` it runs the full set —
//! every workload, untraced then traced — and writes `out/result.json`.

mod inputs;
mod layers;
mod openloop;
mod registry;
mod stats;
mod sys;
mod trace;
mod workloads;

use inputs::{remove_dir, BenchResult, Ctx, Report, Scale, Workload};
use registry::{json_number, json_string, metrics_json, Better, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage: bench/run.sh [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
[--quick] [--selfcheck] [--spread RUNS] [--emit-benchmark-json]";

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    /// One workload, one pass: the driver's contract.
    One(Workload, bool),
    /// Every workload, untraced then traced; writes `result.json`.
    FullSet,
    /// The untraced set twice; fails when they disagree beyond a bound.
    SelfCheck,
    /// Every workload on this many seeds; prints spreads and bounds.
    Spread(usize),
    /// Prints the text of `BENCHMARK.json`.
    EmitBenchmarkJson,
    /// Internal: one phase (`prepare` or `measure`) of a workload's pass,
    /// run in this process on the scratch directory `dir`.
    Child {
        phase: String,
        dir: PathBuf,
        workload: Workload,
        trace: bool,
    },
}

#[derive(Debug, Clone)]
struct Options {
    mode: Mode,
    seed: u64,
    seconds: f64,
    quick: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut trace = false;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut quick = false;
    let mut out = PathBuf::from("bench/out");
    let mut mode = None;
    let mut child = None;
    let mut dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |what: &str| format!("bad value for {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--seed" => seed = value()?.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("--seconds"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("--seconds"));
                }
                seconds = Some(s);
            }
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(value()?),
            "--selfcheck" => mode = Some(Mode::SelfCheck),
            "--spread" => mode = Some(Mode::Spread(value()?.parse().map_err(|_| bad("--spread"))?)),
            "--emit-benchmark-json" => mode = Some(Mode::EmitBenchmarkJson),
            "--child" => child = Some(value()?.clone()),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let mode = match (child, dir, workload, mode) {
        (Some(phase), Some(dir), Some(workload), None) => Mode::Child {
            phase,
            dir,
            workload,
            trace,
        },
        (Some(_), ..) => return Err("--child needs --dir and --workload".into()),
        (None, _, Some(w), None) => Mode::One(w, trace),
        (None, _, None, Some(mode)) => mode,
        (None, _, None, None) => Mode::FullSet,
        (None, _, Some(_), Some(_)) => {
            return Err(format!("--workload runs one pass of one workload\n{USAGE}"))
        }
    };
    Ok(Options {
        mode,
        seed,
        // `--quick` shortens the timed sections as well as the corpus.
        seconds: seconds.unwrap_or(if quick {
            0.2
        } else {
            registry::RUN_SECONDS as f64
        }),
        quick,
        out,
    })
}

fn ctx(opts: &Options, workload: Workload, trace: bool, dir: PathBuf) -> Ctx {
    Ctx {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        trace,
        dir,
        out: opts.out.clone(),
        scale: if opts.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        },
    }
}

/// Runs one phase of a workload in a child process and parses its report.
fn child(
    opts: &Options,
    workload: Workload,
    trace: bool,
    phase: &str,
    dir: &Path,
) -> BenchResult<Report> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--child", phase, "--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .arg("--out")
        .arg(&opts.out);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    if !output.status.success() {
        return Err(format!(
            "{} {phase} child failed: {}",
            workload.name(),
            output.status
        )
        .into());
    }
    Ok(Report::parse(&String::from_utf8_lossy(&output.stdout))?)
}

/// One pass of one workload: set-up (three times untraced, for a median
/// `setup_s`), then the timed section, each in a process of its own so
/// `peak_rss_mib` is the measuring child's `VmHWM` and nothing else's.
fn run_workload(opts: &Options, workload: Workload, trace: bool) -> BenchResult<Report> {
    std::fs::create_dir_all(&opts.out)?;
    let dir = opts
        .out
        .join(format!("work-{}-{}", workload.name(), std::process::id()));
    let result = (|| {
        let mut setup_times = Vec::new();
        let mut gate = Report::default();
        let setups = if trace || opts.quick { 1 } else { SETUPS };
        for _ in 0..setups {
            remove_dir(&dir)?;
            std::fs::create_dir_all(&dir)?;
            let start = Instant::now();
            gate = child(opts, workload, trace, "prepare", &dir)?;
            setup_times.push(start.elapsed().as_secs_f64());
        }
        let mut report = child(opts, workload, trace, "measure", &dir)?;
        if gate.failed > 0 {
            report.note(format!("{} verified outputs were wrong", gate.failed));
        }
        report.absorb(gate);
        if !trace {
            report.set("setup_s", stats::median(&mut setup_times));
        }
        Ok(report)
    })();
    remove_dir(&dir)?;
    result
}

fn print_report(workload: Workload, trace: bool, report: &Report) {
    println!(
        "== {} ({}) attempted {} failed {}",
        workload.name(),
        if trace { "traced" } else { "untraced" },
        report.attempted,
        report.failed
    );
    for m in registry::table(trace) {
        println!("{:<36} {:>16.4} {}", m.name, report.get(m.name), m.unit);
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
}

/// `statistics.quantiles(values, n=4)` of Python (the exclusive method).
fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let len = values.len();
    if len < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let scaled = (i + 1) * (len + 1);
        let j = (scaled / 4).clamp(1, len - 1);
        let delta = scaled as f64 - (j * 4) as f64;
        *q = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    out
}

/// The bound a measured spread implies: three times the widest
/// interquartile spread (so the spread stays under a third of the bound),
/// within the contract's limits, rounded up to a whole percent.
fn derived_bound(widest_iqr: f64) -> f64 {
    ((300.0 * widest_iqr).ceil() / 100.0).clamp(0.03, 0.25)
}

fn worse_by(m: &registry::Metric, parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (change - parent) / parent,
        Better::Higher => (parent - change) / parent,
    }
}

fn full_set(opts: &Options) -> BenchResult<bool> {
    let mut ok = true;
    let mut entries = Vec::new();
    let mut ceilings = Report::default();
    for workload in Workload::ALL {
        let untraced = run_workload(opts, workload, false)?;
        print_report(workload, false, &untraced);
        let traced = run_workload(opts, workload, true)?;
        print_report(workload, true, &traced);
        ok &= untraced.failed == 0 && traced.failed == 0;
        for m in PER_LAYER.iter().filter(|m| m.name.starts_with("ceiling.")) {
            if traced.get(m.name) > 0.0 {
                ceilings.set(m.name, traced.get(m.name));
            }
        }
        let notes: Vec<String> = untraced
            .notes
            .iter()
            .chain(&traced.notes)
            .map(|n| json_string(n))
            .collect();
        entries.push(format!(
            "    {}: {{\n      \"attempted\": {}, \"failed\": {},\n      \"end_to_end\": {},\n      \"per_layer\": {},\n      \"notes\": [{}]\n    }}",
            json_string(workload.name()),
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
            metrics_json(END_TO_END, &untraced),
            metrics_json(PER_LAYER, &traced),
            notes.join(", ")
        ));
    }
    let f = sys::Fingerprint::read();
    let ceiling_table: Vec<_> = PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("ceiling."))
        .copied()
        .collect();
    let json = format!(
        "{{\n  \"quick\": {},\n  \"seed\": {},\n  \"run_seconds\": {},\n  \"fingerprint\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"rustc\": {}, \"git_commit\": {}, \"profile\": {}}},\n  \"ceilings\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        opts.quick,
        opts.seed,
        json_number(opts.seconds),
        f.nproc,
        json_string(&f.cpu_model),
        json_string(&f.kernel),
        json_string(&f.rustc),
        json_string(&f.git_commit),
        json_string(f.profile),
        metrics_json(&ceiling_table, &ceilings),
        entries.join(",\n")
    );
    let path = opts.out.join("result.json");
    std::fs::write(&path, json)?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn self_check(opts: &Options) -> BenchResult<bool> {
    let mut ok = true;
    for workload in Workload::ALL {
        let first = run_workload(opts, workload, false)?;
        let second = run_workload(opts, workload, false)?;
        ok &= first.failed == 0 && second.failed == 0;
        for m in END_TO_END {
            let (a, b) = (first.get(m.name), second.get(m.name));
            let apart = worse_by(m, a, b).abs().max(worse_by(m, b, a).abs());
            let verdict = if apart <= m.bound { "ok" } else { "DISAGREE" };
            ok &= apart <= m.bound;
            println!(
                "{:<18} {:<14} {:>14.4} {:>14.4} {:<7} apart {:>6.2} % bound {:>5.1} % {verdict}",
                workload.name(),
                m.name,
                a,
                b,
                m.unit,
                100.0 * apart,
                100.0 * m.bound
            );
        }
    }
    Ok(ok)
}

fn spread(opts: &Options, runs: usize) -> BenchResult<bool> {
    let mut worst = vec![0.0f64; END_TO_END.len()];
    let mut ok = true;
    for workload in Workload::ALL {
        let mut values = vec![Vec::new(); END_TO_END.len()];
        for i in 0..runs.max(2) {
            let mut seeded = opts.clone();
            seeded.seed = opts.seed + i as u64;
            let report = run_workload(&seeded, workload, false)?;
            ok &= report.failed == 0;
            for (m, v) in END_TO_END.iter().zip(&mut values) {
                v.push(report.get(m.name));
            }
        }
        for ((m, v), worst) in END_TO_END.iter().zip(&mut values).zip(&mut worst) {
            let [q1, q2, q3] = quartiles(v);
            let iqr = if q2 != 0.0 { (q3 - q1) / q2 } else { 0.0 };
            let range = if q2 != 0.0 {
                (v[v.len() - 1] - v[0]) / q2
            } else {
                0.0
            };
            *worst = worst.max(iqr);
            println!(
                "{:<18} {:<14} median {:>14.4} {:<7} iqr {:>6.2} % range {:>6.2} % bound {:>5.1} %",
                workload.name(),
                m.name,
                q2,
                m.unit,
                100.0 * iqr,
                100.0 * range,
                100.0 * m.bound
            );
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("    sorted: {}", shown.join(" "));
        }
    }
    println!(
        "-- bound = clamp(3 x widest interquartile spread, 0.03, 0.25), rounded up to a percent"
    );
    for (m, worst) in END_TO_END.iter().zip(&worst) {
        let derived = derived_bound(*worst);
        println!(
            "{:<14} widest iqr {:>6.2} % derived bound {:.2} recorded {:.2}{}",
            m.name,
            100.0 * worst,
            derived,
            m.bound,
            if *worst > m.bound {
                "  SPREAD EXCEEDS THE RECORDED BOUND"
            } else if derived != m.bound {
                "  (differs: update registry.rs if this run was a quiet one)"
            } else {
                ""
            }
        );
        ok &= *worst <= m.bound;
    }
    Ok(ok)
}

fn run(opts: &Options) -> BenchResult<bool> {
    match &opts.mode {
        Mode::Child {
            phase,
            dir,
            workload,
            trace,
        } => {
            let ctx = ctx(opts, *workload, *trace, dir.clone());
            sys::set_probe_scale(opts.seconds / registry::RUN_SECONDS as f64);
            let report = match phase.as_str() {
                "prepare" => workloads::prepare(&ctx)?,
                "measure" => workloads::measure(&ctx)?,
                other => return Err(format!("unknown child phase {other}").into()),
            };
            print!("{}", report.to_lines());
            Ok(true)
        }
        Mode::One(workload, trace) => {
            let report = run_workload(opts, *workload, *trace)?;
            print_report(*workload, *trace, &report);
            println!("{}", registry::result_line(*trace, &report));
            Ok(report.failed == 0)
        }
        Mode::FullSet => full_set(opts),
        Mode::SelfCheck => self_check(opts),
        Mode::Spread(runs) => spread(opts, *runs),
        Mode::EmitBenchmarkJson => {
            print!("{}", registry::benchmark_json());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("yardstick: failed operations or a failed check; see above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("yardstick: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = parse_args(&args(&[
            "--workload",
            "serve_get_open",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.mode, Mode::One(Workload::ServeGetOpen, true));
        assert_eq!((o.seed, o.seconds, o.quick), (7, 8.0, false));
    }

    #[test]
    fn defaults_run_the_full_set_on_seed_one() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.mode, Mode::FullSet);
        assert_eq!((o.seed, o.seconds), (1, registry::RUN_SECONDS as f64));
        assert!(parse_args(&args(&["--quick"])).unwrap().seconds < 1.0);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["--seed"])).is_err());
        assert!(parse_args(&args(&["--selfcheck", "--workload", "build_web"])).is_err());
        assert!(parse_args(&args(&["--child", "measure"])).is_err());
    }

    #[test]
    fn quartiles_match_pythons_statistics_module() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&mut [10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn bounds_are_derived_from_spreads() {
        assert_eq!(derived_bound(0.0), 0.03);
        assert_eq!(derived_bound(0.021), 0.07);
        assert_eq!(derived_bound(0.05), 0.15);
        assert_eq!(derived_bound(0.2), 0.25);
    }

    #[test]
    fn worse_is_signed_by_direction() {
        let lower = &END_TO_END[0];
        assert_eq!(lower.better, Better::Lower);
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        let higher = END_TO_END
            .iter()
            .find(|m| m.better == Better::Higher)
            .unwrap();
        assert!((worse_by(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(higher, 10.0, 11.0) < 0.0);
    }
}
