//! Scaled run parameters and a tiny `--flag=value` parser for the
//! `repro` binary (no CLI dependency needed).

use anker_core::BackendKind;
use std::time::Duration;

/// Scale knobs of a reproduction run. Defaults are laptop-scale; pass
/// `--paper-scale` to `repro` for the paper's original numbers
/// (slow!).
#[derive(Debug, Clone)]
pub struct RunScale {
    /// TPC-H scale factor (paper ≈ 0.25; default 0.05).
    pub sf: f64,
    /// OLTP transactions per throughput run (paper 500 000).
    pub oltp_txns: u64,
    /// Snapshot trigger interval in commits (paper 10 000).
    pub snapshot_every: u64,
    /// Worker threads (paper 8).
    pub threads: usize,
    /// Homogeneous GC interval (paper: 1 s; kept unscaled — the chain
    /// build-up between GC passes is precisely what the mixed-workload
    /// experiments measure).
    pub gc: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Micro-benchmark pages per column (paper 51 200 = 200 MB).
    pub pages_per_col: u64,
    /// Micro-benchmark column count (paper 50).
    pub n_cols: usize,
    /// Per-OLTP-transaction busy work in microseconds (see
    /// `anker_tpch::driver::WorkloadConfig::think_us`). The default of
    /// 12 µs calibrates the per-transaction execution cost to the paper's
    /// system (~50 k transactions per second per thread); this streamlined
    /// reproduction would otherwise spend nearly the whole transaction
    /// inside the serialized commit section, which no machine can scale.
    pub think_us: f64,
    /// Memory backend the databases run on (`--backend=sim|os`). Defaults
    /// to the simulated kernel, or to `ANKER_BACKEND` when set. The
    /// fork-comparison experiments (Figure 10) always run simulated.
    pub backend: BackendKind,
}

impl Default for RunScale {
    fn default() -> Self {
        RunScale {
            sf: 0.2,
            oltp_txns: 120_000,
            snapshot_every: 2_000,
            threads: 2,
            gc: Duration::from_secs(1),
            seed: 42,
            pages_per_col: 4_096,
            n_cols: 50,
            think_us: 12.0,
            backend: BackendKind::from_env().unwrap_or(BackendKind::Sim),
        }
    }
}

/// The flags [`RunScale::from_args`] accepts, for usage messages.
pub const FLAGS: &str = "--sf= --oltp= --snapshot-every= --threads= --gc-ms= --seed= \
                         --pages-per-col= --cols= --think-us= --backend=sim|os --paper-scale --smoke";

impl RunScale {
    /// The paper's original scale (hours of runtime on this simulator).
    pub fn paper() -> RunScale {
        RunScale {
            sf: 0.25,
            oltp_txns: 500_000,
            snapshot_every: 10_000,
            threads: 8,
            gc: Duration::from_secs(1),
            seed: 42,
            pages_per_col: 51_200,
            n_cols: 50,
            think_us: 0.0,
            backend: BackendKind::from_env().unwrap_or(BackendKind::Sim),
        }
    }

    /// A very small scale for smoke tests.
    pub fn smoke() -> RunScale {
        RunScale {
            sf: 0.004,
            oltp_txns: 2_000,
            snapshot_every: 200,
            threads: 2,
            gc: Duration::from_millis(100),
            seed: 42,
            pages_per_col: 256,
            n_cols: 8,
            think_us: 0.0,
            backend: BackendKind::from_env().unwrap_or(BackendKind::Sim),
        }
    }

    /// Parse command-line flags (`--sf=0.1 --oltp=50000 --threads=4
    /// --snapshot-every=1000 --pages-per-col=4096 --cols=50 --seed=1
    /// --backend=sim|os --paper-scale --smoke`), starting from the defaults.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<RunScale, String> {
        let mut scale = RunScale::default();
        for arg in args {
            if arg == "--paper-scale" {
                scale = RunScale::paper();
                continue;
            }
            if arg == "--smoke" {
                scale = RunScale::smoke();
                continue;
            }
            let Some((key, value)) = arg.split_once('=') else {
                return Err(format!(
                    "unrecognised argument {arg:?} (expected --key=value)"
                ));
            };
            let parse = |what: &str, v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .map_err(|e| format!("bad {what} {v:?}: {e}"))
            };
            match key {
                "--sf" => scale.sf = parse("scale factor", value)?,
                "--oltp" => scale.oltp_txns = parse("oltp count", value)? as u64,
                "--snapshot-every" => scale.snapshot_every = parse("interval", value)? as u64,
                "--threads" => scale.threads = parse("threads", value)? as usize,
                "--gc-ms" => scale.gc = Duration::from_millis(parse("gc ms", value)? as u64),
                "--seed" => scale.seed = parse("seed", value)? as u64,
                "--pages-per-col" => scale.pages_per_col = parse("pages", value)? as u64,
                "--cols" => scale.n_cols = parse("columns", value)? as usize,
                "--think-us" => scale.think_us = parse("think time", value)?,
                "--backend" => {
                    scale.backend = match value {
                        "sim" => BackendKind::Sim,
                        "os" => BackendKind::Os,
                        other => return Err(format!("unknown backend {other:?} (sim|os)")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(scale)
    }
}

/// Hardware threads of this host (wall-clock tables print it: a number
/// taken on one core is an overhead bound, not a scaling result).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The workspace root (where `results/` and `METRICS.md` live).
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Write `contents` to `results/<name>` relative to the workspace root
/// (best effort; prints the path on success).
pub fn write_results_file(name: &str, contents: &str) {
    let dir = repo_root().join("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, contents).is_ok() {
            if let Ok(canon) = path.canonicalize() {
                println!("(csv written to {})", canon.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_flags() {
        let s = RunScale::from_args(Vec::new()).unwrap();
        assert_eq!(s.threads, 2);
        let s = RunScale::from_args(
            ["--sf=0.1", "--threads=4", "--oltp=1000"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(s.sf, 0.1);
        assert_eq!(s.threads, 4);
        assert_eq!(s.oltp_txns, 1000);
    }

    #[test]
    fn paper_scale_flag() {
        let s = RunScale::from_args(["--paper-scale".to_string()]).unwrap();
        assert_eq!(s.oltp_txns, 500_000);
        assert_eq!(s.pages_per_col, 51_200);
    }

    #[test]
    fn bad_flags_error() {
        assert!(RunScale::from_args(["--nope=1".to_string()]).is_err());
        assert!(RunScale::from_args(["--sf".to_string()]).is_err());
        assert!(RunScale::from_args(["--sf=abc".to_string()]).is_err());
    }
}
