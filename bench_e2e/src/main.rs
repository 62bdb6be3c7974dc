//! Command-line entry point of the end-to-end benchmark.
//!
//! ```text
//! mempod-bench-e2e --workload NAME --seed N --seconds S --trace 0|1
//! mempod-bench-e2e --workload all --seed N          # every workload
//! mempod-bench-e2e --smoke                 # all workloads, untraced and traced
//! mempod-bench-e2e --workload NAME --seed N --pin   # print a pins.txt line
//! ```
//!
//! The last line of standard output is the run's summary,
//! `{"correct", "attempted", "failed", "metrics"}`. The full result (with
//! its manifest and raw samples) and, for traced runs, the span file go to
//! `out/` beside this package. Bad arguments print usage and exit 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use mempod_bench_e2e::{
    pin_digest, run, workload, Pins, RunConfig, RunResult, Scale, Workload, WORKLOADS,
};
use serde_json::{json, Value};

const USAGE: &str =
    "usage: mempod-bench-e2e --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
                        [--smoke] [--out DIR] [--pin]
       mempod-bench-e2e --smoke        (every workload, untraced and traced)

workloads: mix1-mempod, mix1-tlm, lbm-cameo, mix1-mempod-2sh, or all
  --seed N       trace generation seed (default 7, the tuning seed)
  --seconds S    wall budget of the timed repetitions (default 30; 0.2 with --smoke)
  --trace 0|1    1 = per-layer metrics and a span file instead of end-to-end ones
                 (default 0; both with a plain --smoke)
  --smoke        tiny geometry and short traces
  --out DIR      result directory (default: out/ beside this package)
  --pin          simulate once per workload and print its `pins.txt` line";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: Option<bool>,
    smoke: bool,
    out: PathBuf,
    pin: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 7,
        seconds: None,
        traced: None,
        smoke: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        pin: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                a.workloads = match value()?.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    v => vec![workload(v).ok_or_else(|| format!("unknown workload {v}"))?],
                };
            }
            "--seed" => a.seed = num(flag, &value()?)?,
            "--seconds" => {
                let s: f64 = num(flag, &value()?)?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--smoke" => a.smoke = true,
            "--pin" => a.pin = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workloads.is_empty() {
        if !a.smoke {
            return Err("--workload is required (except with --smoke)".to_string());
        }
        a.workloads = WORKLOADS.to_vec();
    }
    Ok(a)
}

fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} takes a number, not {v}"))
}

/// The commit this checkout was built from: `.git/HEAD` resolved by hand
/// (no `git` process, which could find an enclosing repository instead).
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r))
                .or_else(|| {
                    read(&git.join("packed-refs"))?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| format!("unresolved {r}")),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

fn loadavg() -> Value {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| {
            Value::Array(
                s.split_whitespace()
                    .take(3)
                    .filter_map(|f| f.parse::<f64>().ok())
                    .map(|f| json!(f))
                    .collect(),
            )
        })
        .unwrap_or(Value::Null)
}

fn manifest(rc: &RunConfig, load: &Value, started: Instant) -> Value {
    let geo = rc.scale.system().geometry;
    let layout = rc.scale.sim_config(rc.workload.manager).layout();
    json!({
        "git_rev": git_rev(),
        "args": std::env::args().collect::<Vec<_>>(),
        "workload": rc.workload.name,
        "trace": rc.workload.trace,
        "manager": rc.workload.manager.to_string(),
        "shards": rc.workload.shards,
        "seed": rc.seed,
        "requests": rc.scale.requests,
        "scale": rc.scale.label(),
        "traced": rc.traced,
        "seconds": rc.seconds,
        "geometry": {
            "fast_bytes": geo.fast_bytes(),
            "slow_bytes": geo.slow_bytes(),
            "pods": geo.pods(),
            "fast_channels": layout.fast_channels,
            "slow_channels": layout.slow_channels
        },
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "loadavg_start": load.clone(),
        "wall_s": started.elapsed().as_secs_f64(),
        "unix_time": SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())
    })
}

/// Writes the result (and spans) under `out`; an I/O failure is reported
/// but does not fail the run.
fn write_result(out: &Path, rc: &RunConfig, r: &RunResult, manifest: Value) {
    let stem = format!(
        "{}{}-s{}-t{}",
        rc.workload.name,
        if rc.scale.smoke { "-smoke" } else { "" },
        rc.seed,
        u8::from(rc.traced)
    );
    let doc = json!({
        "manifest": manifest,
        "summary": r.summary(),
        "digest": format!("{:016x}", r.digest),
        "failures": r.failures.clone(),
        "samples": r.samples.clone()
    });
    let mut files = vec![(out.join(format!("{stem}.json")), doc)];
    if rc.traced {
        files.push((out.join(format!("{stem}.spans.json")), r.spans.to_chrome()));
    }
    let res = std::fs::create_dir_all(out).and_then(|()| {
        files.into_iter().try_for_each(|(path, v)| {
            let text = serde_json::to_string_pretty(&v).expect("JSON values render");
            std::fs::write(&path, text + "\n")?;
            eprintln!("[saved {}]", path.display());
            Ok(())
        })
    });
    if let Err(e) = res {
        eprintln!("warning: could not write results to {}: {e}", out.display());
    }
}

fn print_table(rc: &RunConfig, r: &RunResult) {
    println!(
        "{} seed {} ({}, {} requests, {}): fail ratio {}/{}",
        rc.workload.name,
        rc.seed,
        rc.scale.label(),
        rc.scale.requests,
        if rc.traced { "traced" } else { "untraced" },
        r.failed,
        r.attempted
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    for f in &r.failures {
        println!("  FAILED {f}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let load = loadavg();
    let scale = Scale::new(args.smoke);
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.2 } else { 30.0 });
    let config = |w: Workload, traced: bool| RunConfig {
        workload: w,
        seed: args.seed,
        seconds,
        traced,
        scale,
        pins: Pins::committed(),
    };

    if args.pin {
        for w in &args.workloads {
            let d = pin_digest(w, &scale, args.seed);
            let (name, label, n) = (w.name, scale.label(), scale.requests);
            println!("{name} {label} {n} {} {d:016x}", args.seed);
        }
        return ExitCode::SUCCESS;
    }

    let modes = match args.traced {
        Some(t) => vec![t],
        None if args.smoke => vec![false, true],
        None => vec![false],
    };
    let runs: Vec<RunConfig> = args
        .workloads
        .iter()
        .flat_map(|&w| modes.iter().map(move |&t| (w, t)))
        .map(|(w, t)| config(w, t))
        .collect();
    let mut failed_runs = 0;
    let mut last = Value::Null;
    for rc in &runs {
        let r = run(rc);
        print_table(rc, &r);
        write_result(&args.out, rc, &r, manifest(rc, &load, started));
        failed_runs += usize::from(r.failed > 0);
        last = r.summary();
    }
    if runs.len() > 1 {
        // Several runs: the summary counts runs.
        last = json!({
            "correct": failed_runs == 0,
            "attempted": runs.len(),
            "failed": failed_runs,
            "metrics": {}
        });
    }
    println!(
        "{}",
        serde_json::to_string(&last).expect("JSON values render")
    );
    if failed_runs > 0 && runs.len() > 1 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
