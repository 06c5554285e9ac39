//! The repo's benchmark: four sustained workloads (three on real
//! threads, one in the simulator), end-to-end metrics aggregated as the
//! lowest decile of 1 s-window medians (`stats`; the simulator sweep:
//! the fastest run of each configuration) and per-layer probes, all
//! through the crates' public functions. See `benchmark/README.md`.

mod churn;
mod cyclic;
mod explore;
mod gen;
mod host;
mod json;
mod live;
mod pipeline;
mod probes;
mod report;
mod stats;
mod trace;

use json::Json;
use report::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Command line of one invocation.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    aa: Option<usize>,
    manifest: bool,
    pub write_golden: bool,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: RUN_SECONDS,
            trace: false,
            smoke: false,
            aa: None,
            manifest: false,
            write_golden: false,
        };
        let mut argv = argv.peekable();
        while let Some(flag) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let w = value("a workload name")?;
                    if !WORKLOADS.iter().any(|k| k.name == w) {
                        return Err(format!("unknown workload {w}"));
                    }
                    a.workload = Some(w);
                }
                "--seed" => {
                    a.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    a.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=60).contains(&a.seconds) {
                        return Err("--seconds must be 1..=60".into());
                    }
                }
                // `--trace` alone switches tracing on; the driver passes 0 or 1.
                "--trace" => {
                    a.trace = match argv.peek().map(String::as_str) {
                        Some("0") => {
                            argv.next();
                            false
                        }
                        Some("1") => {
                            argv.next();
                            true
                        }
                        _ => true,
                    }
                }
                "--smoke" => {
                    a.smoke = true;
                    a.seconds = 2;
                }
                "--aa" => {
                    a.aa = Some(
                        value("a run count")?
                            .parse()
                            .map_err(|e| format!("--aa: {e}"))?,
                    )
                }
                "--manifest" => a.manifest = true,
                "--write-golden" => a.write_golden = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(a)
    }

    /// The measured span of an untraced run.
    pub fn span(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// A traced run measures twice (plain, then traced) and replays the
    /// layers afterwards, so each of its spans is shorter.
    pub fn traced_span(&self) -> Duration {
        Duration::from_secs((self.seconds * 3 / 10).max(2))
    }
}

/// `benchmark/`: where `out/` lives. `run.sh` exports it; a bare
/// `cargo run` falls back to the manifest directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("YASMIN_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn write_out(name: &str, text: &str) {
    let dir = bench_dir().join("out");
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", dir.join(name).display());
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args, workload: &str) -> ExitCode {
    let (wake_us, spin_mops) = host::calibrate();
    // The harness thread lives on the scheduler's core (core 1): worker
    // bodies on core 0 are never time-sliced by `churn`'s analysis, and
    // every run places it the same way.
    host::pin(1);
    let mut out: Outcome = match workload {
        "cyclic" => cyclic::run(args),
        "pipeline" => pipeline::run(args),
        "churn" => churn::run(args),
        "explore" => explore::run(args),
        other => unreachable!("workload {other} was validated at parse time"),
    };

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if args.trace {
        out.layer("host.wake_p50_us", wake_us);
        out.layer("host.spin_mops", spin_mops);
        for m in PER_LAYER {
            match out.layers.get(m.name) {
                Some(&v) => {
                    println!("{workload}/{} {v} {}", m.name, m.unit);
                    metrics.push((m.name, v, m.unit));
                }
                // Belongs to another workload: not printed, and 0 in
                // the result object, which must carry every name.
                None => metrics.push((m.name, 0.0, m.unit)),
            }
        }
    } else {
        for m in &END_TO_END {
            let v = out.e2e.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
            match v {
                Some(v) if v.is_finite() && v > 0.0 => {
                    println!("{workload}/{} {v} {}", m.name, m.unit);
                    metrics.push((m.name, v, m.unit));
                }
                _ => {
                    out.fail(
                        1,
                        format!("{workload}: end-to-end metric {} has no value", m.name),
                    );
                    metrics.push((m.name, f64::NAN, m.unit));
                }
            }
        }
        // Traced runs carry these as per-layer metrics.
        out.notes.push(("host.wake_p50_us", wake_us));
        out.notes.push(("host.spin_mops", spin_mops));
    }
    for (name, value) in &out.notes {
        println!("{workload}/{name} {value} note");
    }
    for why in &out.skipped {
        println!("{workload}/skipped {why}");
    }
    println!("{workload}/ops_attempted {} count", out.attempted);
    println!("{workload}/ops_failed {} count", out.failed);
    for f in &out.failures {
        println!("FAIL {f}");
    }

    let result = Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Int(out.attempted.max(1))),
        ("failed", Json::Int(out.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(n, v, u)| {
                (
                    n,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(u))]),
                )
            })),
        ),
    ]);
    let mut host_info = host::fingerprint(args.seed);
    if let Json::Obj(members) = &mut host_info {
        members.push(("host.wake_p50_us".into(), Json::Num(wake_us)));
        members.push(("host.spin_mops".into(), Json::Num(spin_mops)));
    }
    let file = Json::obj([
        ("workload", Json::str(workload)),
        ("traced", Json::Bool(args.trace)),
        ("seconds", Json::Int(args.seconds)),
        ("host", host_info),
        (
            "failures",
            Json::Arr(out.failures.iter().map(Json::str).collect()),
        ),
        ("result", result.clone()),
    ]);
    let suffix = if args.trace { "_trace" } else { "" };
    write_out(&format!("{workload}{suffix}.json"), &file.to_pretty());
    if let Some(trace) = &out.trace {
        write_out(
            &format!("trace_{workload}.json"),
            &trace.to_json(workload, "ns on the runtime clock").to_line(),
        );
    }

    // The contract's result: the last line of standard output.
    println!("{}", result.to_line());
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// One child process per workload; returns each child's metric lines
/// as `(workload/metric, value, unit)` and whether all succeeded.
fn run_children(args: &Args, echo: bool) -> (Vec<(String, f64, String)>, bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut rows = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let child = cmd.output().expect("spawning a workload child");
        ok &= child.status.success();
        for line in String::from_utf8_lossy(&child.stdout).lines() {
            if line.starts_with('{') {
                continue; // the child's contract line; the rows above carry the same values
            }
            if echo {
                println!("{line}");
            }
            let mut f = line.split_whitespace();
            if let (Some(name), Some(value), Some(unit)) = (f.next(), f.next(), f.next()) {
                if let Ok(v) = value.parse::<f64>() {
                    rows.push((name.to_owned(), v, unit.to_owned()));
                }
            }
        }
    }
    (rows, ok)
}

fn run_all(args: &Args) -> ExitCode {
    let (rows, ok) = run_children(args, true);
    let latest = Json::obj([
        ("host", host::fingerprint(args.seed)),
        ("traced", Json::Bool(args.trace)),
        ("seconds", Json::Int(args.seconds)),
        ("ok", Json::Bool(ok)),
        (
            "metrics",
            Json::obj(rows.iter().map(|(n, v, u)| {
                (
                    n.clone(),
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str(u))]),
                )
            })),
        ),
    ]);
    write_out("latest.json", &latest.to_pretty());
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("FAIL one or more workloads reported failed operations (see above)");
        ExitCode::from(2)
    }
}

/// A/A: `n` full runs of one build; per end-to-end metric min / median /
/// max and the interquartile spread as a share of the median, which
/// must stay within the metric's bound.
fn run_aa(args: &Args, n: usize) -> ExitCode {
    let mut series: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut ok = true;
    for i in 0..n {
        eprintln!("aa: run {}/{n} (seed {})", i + 1, args.seed);
        let (rows, run_ok) = run_children(args, false);
        ok &= run_ok;
        for (name, v, _) in rows {
            series.entry(name).or_default().push(v);
        }
    }
    println!("| workload/metric | min | median | max | spread (IQR/median) | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = format!("{}/{}", w.name, m.name);
            let Some(values) = series.get(&key) else {
                println!("| {key} | missing | | | | | FAIL |");
                ok = false;
                continue;
            };
            let mut v = values.clone();
            let med = stats::median(&mut v).unwrap_or(f64::NAN);
            let spread = stats::iqr_share(values).unwrap_or(f64::NAN);
            let within = spread <= m.bound;
            ok &= within;
            println!(
                "| {key} | {:.4} | {med:.4} | {:.4} | {:.2} % | {:.0} % | {} |",
                v[0],
                v[v.len() - 1],
                spread * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "FAIL" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: run.sh [--workload cyclic|pipeline|churn|explore] [--seed N] \
                 [--seconds S] [--trace [0|1]] [--smoke] [--aa RUNS] [--manifest] [--write-golden]"
            );
            return ExitCode::from(64);
        }
    };
    if args.manifest {
        print!("{}", report::manifest().to_pretty());
        return ExitCode::SUCCESS;
    }
    match (&args.workload, args.aa) {
        (Some(w), _) => run_one(&args, w),
        (None, Some(n)) => run_aa(&args, n),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn driver_and_human_command_lines_parse() {
        let a = parse("--workload cyclic --seed 9 --seconds 20 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("cyclic"), 9, 20, false)
        );
        assert!(parse("--workload churn --trace 1").unwrap().trace);
        assert!(parse("--trace --seed 3").unwrap().trace);
        let s = parse("--smoke").unwrap();
        assert_eq!(s.seconds, 2);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
    }
}
