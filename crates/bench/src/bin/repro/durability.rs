//! `repro durability`: WAL-overhead measurement and the crash-consistency
//! harness.
//!
//! Three modes:
//!
//! * `--mode=bench` (default) — run the fig-style OLTP stream once per
//!   [`DurabilityLevel`] (`off` → no WAL, `buffered` → append only,
//!   `fsync` → group commit) and report throughput plus the
//!   commit-latency distribution and WAL counters. CSV to
//!   `results/durability.csv`.
//! * `--mode=run --dir=D` — build a durable TPC-H database in `D`
//!   (fsync level), checkpoint away the bulk loads, then run a mixed
//!   stream of fig-style OLTP transactions and **audit transactions**
//!   (each writes the same value to two columns of one row in a single
//!   commit) with periodic checkpoints. Touches
//!   `D/.workload-started` once the stream is live so a harness can
//!   `kill -9` it mid-workload.
//! * `--mode=verify --dir=D` — recover `D` read-only and verify the
//!   crash contract: recovery succeeds (torn tails tolerated), the audit
//!   columns agree on every row (commit atomicity across the crash), and
//!   a second recovery reproduces the identical Q6 revenue fold
//!   (determinism). Exits non-zero on any violation.

use anker_bench::args::{host_cpus, write_results_file};
use anker_core::{
    AnkerDb, ColumnDef, DbConfig, DurabilityLevel, LogicalType, Schema, TxnKind, Value,
};
use anker_tpch::driver::{run_durability, DurabilityRunConfig};
use anker_tpch::gen::{self, TpchConfig};
use anker_tpch::oltp::{is_abort, run_oltp, OltpKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

struct Args {
    mode: String,
    dir: Option<PathBuf>,
    sf: f64,
    txns: u64,
    threads: usize,
    seed: u64,
    ckpt_every: u64,
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        mode: "bench".into(),
        dir: None,
        sf: 0.01,
        txns: 20_000,
        threads: 2,
        seed: 23,
        ckpt_every: 5_000,
    };
    fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
        value.parse().map_err(|_| format!("bad {key} {value:?}"))
    }
    for arg in argv {
        let Some((key, value)) = arg.split_once('=') else {
            return Err(format!(
                "unrecognised argument {arg:?} (expected --key=value)"
            ));
        };
        match key {
            "--mode" => args.mode = value.to_string(),
            "--dir" => args.dir = Some(PathBuf::from(value)),
            "--sf" => args.sf = num(key, value)?,
            "--txns" => args.txns = num(key, value)?,
            "--threads" => args.threads = num(key, value)?,
            "--seed" => args.seed = num(key, value)?,
            "--ckpt-every" => args.ckpt_every = num(key, value)?,
            other => return Err(format!("unknown durability flag {other:?}")),
        }
    }
    Ok(args)
}

fn base_config() -> DbConfig {
    DbConfig::heterogeneous_serializable()
        .with_snapshot_every(2_000)
        .with_gc_interval(None)
}

const AUDIT_ROWS: u32 = 1024;

fn mode_bench(args: &Args) {
    let mut csv = String::from(
        "level,committed,aborted,tps,p50_us,p95_us,p99_us,max_us,wal_syncs,wal_commits,batching\n",
    );
    println!(
        "WAL overhead on the fig-style OLTP stream (sf {}, {} txns, {} threads, host_cpus {}):",
        args.sf,
        args.txns,
        args.threads,
        host_cpus()
    );
    for level in [
        DurabilityLevel::Off,
        DurabilityLevel::Buffered,
        DurabilityLevel::Fsync,
    ] {
        let dir = std::env::temp_dir().join(format!(
            "anker-durability-bench-{}-{}",
            std::process::id(),
            level.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = base_config().with_durability(level);
        if level != DurabilityLevel::Off {
            config = config.with_durability_dir(&dir);
        }
        let t = gen::generate(
            config,
            &TpchConfig {
                scale_factor: args.sf,
                seed: 42,
            },
        );
        if level != DurabilityLevel::Off {
            // Move the bulk loads out of the WAL so the run measures
            // commit appends, not load replay.
            t.db.checkpoint().expect("post-load checkpoint");
        }
        let res = run_durability(
            &t,
            &DurabilityRunConfig {
                oltp_txns: args.txns,
                threads: args.threads,
                seed: args.seed,
                think_us: 0.0,
            },
        );
        let (syncs, commits) = (res.wal_syncs, res.wal_commit_records);
        let batching = if syncs > 0 {
            commits as f64 / syncs as f64
        } else {
            0.0
        };
        println!(
            "  {:>8}: {:>8.0} tx/s  commit p50 {:>7.1}µs  p95 {:>7.1}µs  p99 {:>7.1}µs  \
             max {:>8.1}µs  syncs {:>6}  batching {:.2}",
            level.name(),
            res.tps,
            res.p50_us,
            res.p95_us,
            res.p99_us,
            res.max_us,
            syncs,
            batching
        );
        csv.push_str(&format!(
            "{},{},{},{:.0},{:.2},{:.2},{:.2},{:.2},{},{},{:.3}\n",
            level.name(),
            res.committed,
            res.aborted,
            res.tps,
            res.p50_us,
            res.p95_us,
            res.p99_us,
            res.max_us,
            syncs,
            commits,
            batching
        ));
        t.db.shutdown();
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }
    write_results_file("durability.csv", &csv);
}

fn mode_run(args: &Args, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let config = base_config()
        .with_durability(DurabilityLevel::Fsync)
        .with_durability_dir(dir);
    println!(
        "loading TPC-H sf {} into {} (fsync WAL)...",
        args.sf,
        dir.display()
    );
    let t = gen::generate(
        config,
        &TpchConfig {
            scale_factor: args.sf,
            seed: 42,
        },
    );
    let ckpt_ts = t.db.checkpoint().expect("post-load checkpoint");
    // The audit table: every audit transaction writes the same value to
    // `a[r]` and `b[r]` in one commit, so any recovered state must show
    // a == b on every row — atomicity across kill -9.
    let schema = Schema::new(vec![
        ColumnDef::new("a", LogicalType::Int),
        ColumnDef::new("b", LogicalType::Int),
    ]);
    let audit =
        t.db.create_table("audit", schema, AUDIT_ROWS)
            .expect("audit table");
    let (ca, cb) = (t.db.schema(audit).col("a"), t.db.schema(audit).col("b"));
    t.db.fill_column(audit, ca, (0..AUDIT_ROWS).map(|_| 0))
        .unwrap();
    t.db.fill_column(audit, cb, (0..AUDIT_ROWS).map(|_| 0))
        .unwrap();
    std::fs::write(dir.join(".workload-started"), b"ok\n").unwrap();
    println!("workload started (checkpoint ts {ckpt_ts}); kill -9 me any time");
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let mut committed = 0u64;
    for i in 0..args.txns {
        if i % 4 == 0 {
            let row = (i / 4) as u32 % AUDIT_ROWS;
            let v = Value::Int(i as i64 + 1);
            let mut txn = t.db.begin(TxnKind::Oltp);
            txn.update_value(audit, ca, row, v).unwrap();
            txn.update_value(audit, cb, row, v).unwrap();
            txn.commit().unwrap();
            committed += 1;
        } else {
            match run_oltp(&t, OltpKind::sample(&mut rng), &mut rng) {
                Ok(_) => committed += 1,
                Err(e) if is_abort(&e) => {}
                Err(e) => panic!("oltp failed: {e}"),
            }
        }
        if args.ckpt_every > 0 && i > 0 && i % args.ckpt_every == 0 {
            t.db.checkpoint().expect("periodic checkpoint");
        }
        if i % 1_000 == 0 {
            println!("progress: {i} transactions ({committed} committed)");
        }
    }
    t.db.shutdown();
    println!("workload finished cleanly ({committed} committed)");
}

fn q6_fold(db: &AnkerDb) -> f64 {
    let t = db.table_id("lineitem").expect("lineitem recovered");
    let schema = db.schema(t);
    let (ship, disc, price, qty) = (
        schema.col("l_shipdate"),
        schema.col("l_discount"),
        schema.col("l_extendedprice"),
        schema.col("l_quantity"),
    );
    let lo = gen::days(1994, 1, 1) as i64;
    let hi = gen::days(1995, 1, 1) as i64;
    let reader = db.snapshot_reader().expect("reader on recovered db");
    let (revenue, _stats) = reader
        .scan(t)
        .range_i64(ship, lo, hi - 1)
        .range_f64(disc, 0.05 - 1e-9, 0.07 + 1e-9)
        .lt_f64(qty, 24.0)
        .project(&[price, disc])
        .fold(
            0.0f64,
            |acc, _, v| acc + v[0].as_double() * v[1].as_double(),
            |a, b| a + b,
        )
        .expect("q6 fold");
    revenue
}

fn verify_once(dir: &Path) -> (f64, u64) {
    let db = AnkerDb::open(
        dir,
        base_config().with_durability(DurabilityLevel::Off), // read-only recovery
    )
    .expect("recovery failed");
    let report = db.recovery_report().expect("durable boot yields a report");
    println!(
        "recovered: checkpoint ts {}, {} tables, {} WAL commits replayed, last ts {}{}",
        report.checkpoint_ts,
        report.tables,
        report.commits_replayed,
        report.last_commit_ts,
        if report.torn_tail {
            " (torn tail repaired)"
        } else {
            ""
        }
    );
    for name in ["lineitem", "orders", "part"] {
        let t = db
            .table_id(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(db.rows(t) > 0, "{name} recovered empty");
    }
    // Commit atomicity across the crash: both audit columns agree
    // everywhere.
    let audit = db.table_id("audit").expect(
        "audit table missing — was the process killed before the workload started? \
         (wait for .workload-started)",
    );
    let (ca, cb) = (db.schema(audit).col("a"), db.schema(audit).col("b"));
    let mut txn = db.begin(TxnKind::Oltp);
    let mut nonzero = 0u64;
    for r in 0..AUDIT_ROWS {
        let a = txn.get(audit, ca, r).expect("audit read");
        let b = txn.get(audit, cb, r).expect("audit read");
        assert_eq!(
            a, b,
            "audit row {r}: a={a} b={b} — a commit was half-recovered"
        );
        if a != 0 {
            nonzero += 1;
        }
    }
    txn.abort();
    let revenue = q6_fold(&db);
    db.shutdown();
    (revenue, nonzero)
}

fn mode_verify(dir: &Path) {
    let (revenue_a, nonzero) = verify_once(dir);
    // Determinism: a second recovery reproduces the identical fold.
    let (revenue_b, _) = verify_once(dir);
    assert_eq!(
        revenue_a.to_bits(),
        revenue_b.to_bits(),
        "recovery is not deterministic: {revenue_a} vs {revenue_b}"
    );
    println!(
        "RECOVERY OK: q6 revenue {revenue_a:.4} (bit-identical across two recoveries), \
         {nonzero} audit rows written, atomicity holds"
    );
}

pub fn run(argv: Vec<String>) -> Result<(), String> {
    let args = parse_args(argv)?;
    let dir = || {
        args.dir
            .as_deref()
            .ok_or_else(|| format!("--mode={} requires --dir=", args.mode))
    };
    match args.mode.as_str() {
        "bench" => mode_bench(&args),
        "run" => mode_run(&args, dir()?),
        "verify" => mode_verify(dir()?),
        other => return Err(format!("unknown --mode={other} (bench|run|verify)")),
    }
    Ok(())
}
