//! The AnKerDB perf ledger. Three ways in:
//!
//! * `benchmark --workload W --seed N --seconds S --trace 0|1` — one
//!   workload in this process (what `BENCHMARK.json`'s command runs):
//!   prints every metric of the pass by name with its unit, then one
//!   JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! * `benchmark run [--seed N] [--secs S] [--workload W]… [--traced]
//!   [--repeat K] [--smoke] [--out FILE]` — every workload, each in a
//!   child process of its own, collected into one JSON record.
//! * `benchmark compare A.json B.json [--benchmark BENCHMARK.json]`.
//!
//! README.md has the workloads, the metrics and how they interact.

mod common;
mod compare;
mod fsync;
mod hist;
mod htap;
mod json;
mod metrics;
mod olap;
mod probes;
mod scans;
mod trace;

use common::{Opts, Outcome};
use json::Json;
use metrics::WORKLOADS;
use std::process::{Command, ExitCode, Stdio};

/// `DbConfig::default()` reads these; the harness sets every field
/// itself and keeps them out of its processes all the same.
const ENGINE_ENV: [&str; 5] = [
    "ANKER_BACKEND",
    "ANKER_DURABILITY",
    "ANKER_HUGE_PAGES",
    "ANKER_SCALAR_SCAN",
    "ANKER_OBS_RING",
];

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  benchmark run [--seed <n>] [--secs <s>] [--workload <name>]... [--traced] [--repeat <k>] [--smoke] [--out <file>]
  benchmark compare <A.json> <B.json> [--benchmark <BENCHMARK.json>]
workloads: htap_hetero htap_homog oltp_fsync olap_frozen olap_fanout";

struct Args(std::collections::VecDeque<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self
            .0
            .pop_front()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
    }
}

fn workload_name(name: String) -> Result<String, String> {
    if WORKLOADS.contains(&name.as_str()) {
        Ok(name)
    } else {
        Err(format!("unknown workload {name:?}"))
    }
}

fn run_workload(opts: &Opts) -> Outcome {
    use ankerdb::core::ProcessingMode::{Heterogeneous, Homogeneous};
    match opts.workload.as_str() {
        "htap_hetero" => htap::run(opts, Heterogeneous),
        "htap_homog" => htap::run(opts, Homogeneous),
        "oltp_fsync" => fsync::run(opts),
        "olap_frozen" => olap::run(opts, 1),
        "olap_fanout" => olap::run(opts, 2),
        other => unreachable!("workload {other} was validated"),
    }
}

/// One workload in this process; the last line of stdout is the result.
fn worker(mut args: Args) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.0.pop_front() {
        match flag.as_str() {
            "--workload" => workload = Some(workload_name(args.value(&flag)?)?),
            "--seed" => seed = Some(args.value::<u64>(&flag)?),
            "--seconds" => seconds = Some(args.value::<f64>(&flag)?),
            "--trace" => {
                trace = Some(match args.value::<u8>(&flag)? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let opts = Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 3_600.0) {
        return Err("--seconds must be in (0, 3600]".to_string());
    }
    for var in ENGINE_ENV {
        std::env::remove_var(var);
    }
    println!(
        "workload {} seed {} seconds {} trace {} smoke {} host_cpus {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace as u8,
        opts.smoke,
        host_cpus()
    );
    let out = run_workload(&opts);
    let values = if opts.trace { &out.layer } else { &out.e2e };
    // In the untraced pass a metric nothing set is a harness bug; in the
    // traced pass it is a layer this workload leaves idle, and reads 0.
    let missing = if opts.trace {
        Vec::new()
    } else {
        values.missing()
    };
    for note in &out.notes {
        println!("note: {note}");
    }
    println!("\n{:<42} {:>18} unit", "metric", "value");
    for (def, v) in values.iter() {
        println!("{:<42} {:>18.6} {}", def.name, v, def.unit);
    }
    println!(
        "operations attempted {} failed {} failed_share {:.6} checks {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        if out.correct { "passed" } else { "FAILED" }
    );
    let info = Json::Obj(
        out.info
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
            .collect(),
    );
    println!("info {}", info.render());
    let correct = out.correct && missing.is_empty();
    for name in &missing {
        eprintln!("metric {name} was not measured");
    }
    let metrics = Json::Obj(
        values
            .iter()
            .map(|(def, v)| {
                let m = Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(def.unit))]);
                (def.name.to_string(), m)
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Every workload in a child process of its own: per-workload peak RSS
/// and mapping count, and a crash in one does not lose the others.
fn run_suite(mut args: Args) -> Result<ExitCode, String> {
    let (mut seed, mut secs, mut traced, mut smoke, mut repeat) =
        (1u64, None, false, false, 1usize);
    let (mut workloads, mut out_path) = (Vec::new(), None);
    while let Some(flag) = args.0.pop_front() {
        match flag.as_str() {
            "--seed" => seed = args.value(&flag)?,
            "--secs" | "--seconds" => secs = Some(args.value::<f64>(&flag)?),
            "--workload" => workloads.push(workload_name(args.value(&flag)?)?),
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            "--repeat" => repeat = args.value(&flag)?,
            "--out" => out_path = Some(args.value::<String>(&flag)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    let secs = secs.unwrap_or(if smoke { 1.0 } else { run_seconds() });
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for rep in 0..repeat {
        for workload in &workloads {
            eprintln!("== {workload} (repeat {} of {repeat})", rep + 1);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &secs.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if smoke {
                cmd.arg("--smoke");
            }
            for var in ENGINE_ENV {
                cmd.env_remove(var);
            }
            let output = cmd
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            let info = stdout
                .lines()
                .find_map(|l| l.strip_prefix("info "))
                .and_then(|l| Json::parse(l).ok())
                .unwrap_or(Json::Obj(Vec::new()));
            let Some(Json::Obj(mut fields)) = result else {
                eprintln!("{workload}: no result (exit {:?})", output.status.code());
                all_ok = false;
                continue;
            };
            all_ok &= output.status.success();
            fields.insert(0, ("workload".to_string(), Json::str(workload.as_str())));
            fields.insert(1, ("info".to_string(), info));
            runs.push(Json::Obj(fields));
        }
    }
    let record = Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("commit", Json::str(git_commit())),
        ("host_cpus", Json::Num(host_cpus() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("secs", Json::Num(secs)),
        ("traced", Json::Bool(traced)),
        ("smoke", Json::Bool(smoke)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = out_path.map(std::path::PathBuf::from).unwrap_or_else(|| {
        let pass = if traced { "traced" } else { "e2e" };
        common::out_dir().join(format!("run-{pass}-seed{seed}.json"))
    });
    std::fs::write(&path, record.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("record: {}", path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `run_seconds` of `BENCHMARK.json` in the current directory, or the
/// value it was calibrated with.
fn run_seconds() -> f64 {
    read_json("BENCHMARK.json")
        .ok()
        .and_then(|b| b.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(15.0)
}

fn compare_records(mut args: Args) -> Result<ExitCode, String> {
    let (mut files, mut benchmark) = (Vec::new(), "BENCHMARK.json".to_string());
    while let Some(arg) = args.0.pop_front() {
        match arg.as_str() {
            "--benchmark" => benchmark = args.value(&arg)?,
            _ => files.push(arg),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes exactly two records".to_string());
    };
    let bounds = compare::bounds_of(&read_json(&benchmark)?)?;
    let rows = compare::compare(
        &compare::samples_of(&read_json(a)?)?,
        &compare::samples_of(&read_json(b)?)?,
        &bounds,
    );
    Ok(if compare::report(&rows) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args = Args(std::env::args().skip(1).collect());
    let result = match args.0.front().map(String::as_str) {
        Some("run") => {
            args.0.pop_front();
            run_suite(args)
        }
        Some("compare") => {
            args.0.pop_front();
            compare_records(args)
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(_) => worker(args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
