//! `repro` — the reproduction binary: one subcommand per table/figure of
//! the paper's evaluation, `all` for every one of them, plus the
//! crash-consistency harness (`durability`) and the observability report
//! (`obs`).
//!
//! ```sh
//! cargo run --release -p anker-bench --bin repro -- fig9            # scaled defaults
//! cargo run --release -p anker-bench --bin repro -- all --smoke     # seconds
//! cargo run --release -p anker-bench --bin repro -- all --paper-scale
//! ```

mod durability;
mod obs_report;

use anker_bench::args::{RunScale, FLAGS};
use anker_bench::render::ARTIFACTS;

const USAGE: &str = "\
usage: repro <table1|fig5|fig7|fig8|fig9|fig10|fig11|all> [RunScale flags]
       repro obs [--prom] [--trace] [--audit] [--overhead] [RunScale flags]
       repro durability [--mode=bench|run|verify] [--dir=] [--sf=] [--txns=] \
[--threads=] [--seed=] [--ckpt-every=]";

fn rule() {
    println!("{}", "=".repeat(78));
}

fn run(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let sub = args.next().ok_or("missing subcommand")?;
    let rest: Vec<String> = args.collect();
    match sub.as_str() {
        "durability" => durability::run(rest),
        "obs" => obs_report::run(rest),
        "all" => {
            let scale = RunScale::from_args(rest)?;
            for (_, render) in ARTIFACTS {
                rule();
                render(&scale);
            }
            rule();
            println!("all experiments completed");
            Ok(())
        }
        id => {
            let (_, render) = ARTIFACTS
                .iter()
                .find(|(name, _)| *name == id)
                .ok_or_else(|| format!("unknown subcommand {id:?}"))?;
            render(&RunScale::from_args(rest)?);
            Ok(())
        }
    }
}

fn main() {
    if let Err(msg) = run(std::env::args().skip(1)) {
        eprintln!("{msg}");
        eprintln!("{USAGE}");
        eprintln!("RunScale flags: {FLAGS}");
        std::process::exit(2);
    }
}
