//! `repro obs` — the observability report: run the HTAP workload with the
//! `anker-obs` tracer live and print the per-component overhead breakdown
//! the paper's evaluation narrates informally — commit-pipeline stage
//! latencies (latch → validate → wal → install → fsync), the
//! snapshot-creation breakdown (rewiring time, pages rewired, areas
//! recycled), and scan morsel timing.
//!
//! Modes (combinable with the usual `RunScale` flags, e.g. `--smoke`):
//!
//! * *default* — generate TPC-H, run the HTAP driver (durability at
//!   `Fsync` so the WAL stages are live), print the report.
//! * `--prom` — additionally dump the full Prometheus text exposition.
//! * `--trace` — additionally write the Chrome-tracing span journal to
//!   `results/obs_trace.json` (load in `chrome://tracing` / Perfetto).
//! * `--audit` — regenerate `METRICS.md` from the registry of a freshly
//!   booted database and exit; CI diffs the result against the committed
//!   file so metric renames/removals are loud.
//! * `--overhead` — measure the tracer's commit-path cost: a
//!   single-threaded commit loop whose ns/commit is printed as
//!   `obs_on_ns_per_commit` or (when built with `--features obs-off`)
//!   `obs_off_ns_per_commit`; the tracer overhead is the difference
//!   between the two builds' lines.

use anker_bench::args::{host_cpus, repo_root, write_results_file, RunScale};
use anker_core::obs::{HistogramSnapshot, MetricValue, MetricsSnapshot, BUCKETS};
use anker_core::{
    AnkerDb, BackendKind, ColumnDef, DbConfig, DurabilityLevel, LogicalType, Schema, TxnKind,
};
use anker_tpch::driver::{run_htap, run_workload, HtapConfig, WorkloadConfig};
use anker_tpch::{gen, TpchConfig};
use anker_util::TableBuilder;

pub fn run(args: Vec<String>) -> Result<(), String> {
    let (mut audit, mut overhead, mut prom, mut trace) = (false, false, false, false);
    let mut rest = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--audit" => audit = true,
            "--overhead" => overhead = true,
            "--prom" => prom = true,
            "--trace" => trace = true,
            _ => rest.push(arg),
        }
    }
    let scale = RunScale::from_args(rest)?;
    if audit {
        run_audit();
    } else if overhead {
        run_overhead();
    } else {
        run_report(&scale, prom, trace);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Default mode: HTAP run + per-component breakdown
// ---------------------------------------------------------------------

fn run_report(scale: &RunScale, prom: bool, trace: bool) {
    let dir = std::env::temp_dir().join(format!("anker-repro-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DbConfig::heterogeneous_serializable()
        .with_snapshot_every(scale.snapshot_every)
        .with_gc_interval(None)
        .with_backend(scale.backend)
        .with_durability(DurabilityLevel::Fsync)
        .with_durability_dir(&dir);
    let t = gen::generate(
        config,
        &TpchConfig {
            scale_factor: scale.sf,
            seed: scale.seed,
        },
    );
    // Move the bulk loads out of the WAL so the commit stages below
    // measure OLTP appends, not load replay.
    t.db.checkpoint().expect("post-load checkpoint");
    println!(
        "anker-obs HTAP breakdown (sf={}, {} updaters, {} scan threads, host_cpus {})\n",
        scale.sf,
        scale.threads,
        scale.threads,
        host_cpus()
    );
    // A fixed OLTP batch first: the HTAP phase below stops its updaters
    // as soon as the analytical side finishes, which at small scales can
    // be before a single commit lands — the commit-stage histograms need
    // a deterministic floor of attempts (`--smoke` runs 2 000, enough
    // for ~60 sampled chains at 1-in-32).
    let wl = run_workload(
        &t,
        &WorkloadConfig {
            oltp_txns: scale.oltp_txns,
            olap_txns: 0,
            threads: scale.threads.max(1),
            seed: scale.seed,
            think_us: scale.think_us,
        },
    );
    let res = run_htap(
        &t,
        &HtapConfig {
            updaters: scale.threads.max(1),
            scan_threads: scale.threads.max(1),
            scans: 12,
            seed: scale.seed,
            think_us: scale.think_us,
        },
    );
    // One explicit GC pass so the gc metrics are live in the report even
    // though heterogeneous mode runs without a GC thread.
    t.db.run_gc_once();
    let m = t.db.metrics();

    println!(
        "workload: {} OLTP committed ({} aborted, {:.0} tps), then HTAP: \
         {} committed ({} aborted), {} OLAP scans ({:.1} qps)\n",
        wl.committed,
        wl.aborted,
        wl.tps,
        res.oltp_committed,
        res.oltp_aborted,
        res.scans_done,
        res.olap_qps
    );

    let mut stages = TableBuilder::new("commit pipeline (sampled 1-in-32 attempts)").header([
        "stage",
        "count",
        "p50 [µs]",
        "p95 [µs]",
        "p99 [µs]",
        "total [ms]",
    ]);
    for stage in [
        "commit_stage_latch_ns",
        "commit_stage_validate_ns",
        "commit_stage_wal_ns",
        "commit_stage_install_ns",
        "commit_stage_fsync_ns",
        "commit_total_ns",
    ] {
        hist_row(&mut stages, &m, stage);
    }
    println!("{}", stages.render());
    println!(
        "commit invariant: attempts={} sampled={} latch_samples={} \
         (total_ns.count == latch_ns.count at quiescence; ~attempts/32)\n",
        m.counter("commit_attempts_total").unwrap_or(0),
        m.histogram("commit_total_ns").map_or(0, |h| h.count()),
        m.histogram("commit_stage_latch_ns")
            .map_or(0, |h| h.count()),
    );

    let mut snap = TableBuilder::new("snapshot creation").header([
        "stage",
        "count",
        "p50 [µs]",
        "p95 [µs]",
        "p99 [µs]",
        "total [ms]",
    ]);
    hist_row(&mut snap, &m, "snapshot_materialize_ns");
    hist_row(&mut snap, &m, "snapshot_rewire_ns");
    println!("{}", snap.render());
    for (label, name) in [
        ("pages rewired", "snapshot_pages_rewired_total"),
        ("epochs triggered", "db_epochs_triggered_total"),
        ("columns materialized", "db_columns_materialized_total"),
        ("epoch pins", "snapshot_epoch_pins_total"),
    ] {
        println!("  {label:<26} {}", m.counter(name).unwrap_or(0));
    }
    println!();

    let mut scans = TableBuilder::new("scans").header([
        "stage",
        "count",
        "p50 [µs]",
        "p95 [µs]",
        "p99 [µs]",
        "total [ms]",
    ]);
    hist_row(&mut scans, &m, "scan_morsel_ns");
    println!("{}", scans.render());
    for (label, name) in [
        ("morsels", "scan_morsels_total"),
        ("tight rows", "scan_tight_rows_total"),
        ("blocks skipped (zone maps)", "scan_blocks_skipped_total"),
        ("rows filtered", "scan_rows_filtered_total"),
    ] {
        println!("  {label:<26} {}", m.counter(name).unwrap_or(0));
    }
    println!();

    if prom {
        println!("--- prometheus exposition ---");
        println!("{}", m.render_text());
    }
    if trace {
        write_results_file("obs_trace.json", &t.db.trace_dump());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Append one histogram row (count, p50/p95/p99 in µs, total ms).
fn hist_row(table: &mut TableBuilder, m: &MetricsSnapshot, name: &str) {
    let empty = HistogramSnapshot {
        buckets: [0; BUCKETS],
        sum: 0,
    };
    let h = m.histogram(name).unwrap_or(&empty);
    table.row([
        name.trim_end_matches("_ns").to_string(),
        h.count().to_string(),
        format!("{:.1}", h.quantile(0.50) / 1e3),
        format!("{:.1}", h.quantile(0.95) / 1e3),
        format!("{:.1}", h.quantile(0.99) / 1e3),
        format!("{:.2}", h.sum as f64 / 1e6),
    ]);
}

// ---------------------------------------------------------------------
// --audit: regenerate METRICS.md from a booted database's registry
// ---------------------------------------------------------------------

fn run_audit() {
    // Every metric exists from boot, so nothing has to run: the OS
    // backend brings the `os_*` namespace, the durability directory
    // `wal_*`, the first column `mvcc_*` (values are irrelevant — only
    // names, kinds and helps are emitted).
    let dir = std::env::temp_dir().join(format!("anker-obs-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = AnkerDb::new(
        DbConfig::heterogeneous_serializable()
            .with_gc_interval(None)
            .with_backend(BackendKind::Os)
            .with_durability(DurabilityLevel::Buffered)
            .with_durability_dir(&dir),
    );
    db.create_table(
        "t",
        Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
        1,
    )
    .expect("create the audit table");
    let m = db.metrics();
    let mut md = String::from(
        "# Metrics\n\n\
         Every metric the engine can emit, by name. **Generated** by\n\
         `cargo run -p anker-bench --bin repro -- obs --audit` from\n\
         `AnkerDb::metrics()` of a freshly booted database (OS backend plus a\n\
         durability directory, so every namespace is present) — do not edit by\n\
         hand; CI fails when this file drifts from the registry. Every value is\n\
         per database; `os_*` and `kernel_*` are the two ledgers `anker-vmem`\n\
         keeps itself and `metrics()` folds in.\n\n\
         Span-derived `*_ns` histograms use log\u{2082} buckets (see\n\
         `crates/obs`); `render_text` exposes them in Prometheus exposition\n\
         format, `render_json` as one JSON document.\n\n\
         | Metric | Kind | Help |\n|---|---|---|\n",
    );
    for metric in m.iter() {
        let kind = match &metric.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        md.push_str(&format!(
            "| `{}` | {kind} | {} |\n",
            metric.name, metric.help
        ));
    }
    let path = repo_root().join("METRICS.md");
    std::fs::write(&path, md).expect("writing METRICS.md");
    println!("wrote {} ({} metrics)", path.display(), m.len());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// --overhead: tracer cost on the commit path
// ---------------------------------------------------------------------

const OVERHEAD_WARMUP: u32 = 5_000;
const OVERHEAD_COMMITS: u32 = 60_000;
const OVERHEAD_REPS: usize = 5;

fn run_overhead() {
    let rows: u32 = 1_024;
    let db = AnkerDb::new(DbConfig::homogeneous_serializable().with_gc_interval(None));
    let t = db
        .create_table(
            "t",
            Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]),
            rows,
        )
        .expect("create the overhead table");
    let c = db.schema(t).col("v");
    db.fill_column(t, c, 0..rows as u64).unwrap();
    let run = |n: u32, offset: u32| {
        for i in 0..n {
            let row = (offset + i) % rows;
            let mut txn = db.begin(TxnKind::Oltp);
            let v = txn.get(t, c, row).unwrap();
            txn.update(t, c, (row + 1) % rows, v.wrapping_add(1))
                .unwrap();
            txn.commit().unwrap();
        }
    };
    run(OVERHEAD_WARMUP, 0);
    // Min over several reps: scheduling noise on a shared host only ever
    // *adds* time, so the minimum is the least-contaminated estimate of
    // the pipeline's intrinsic cost (what the on/off comparison is after).
    let mut best = f64::INFINITY;
    for rep in 0..OVERHEAD_REPS {
        let start = std::time::Instant::now();
        run(OVERHEAD_COMMITS, rep as u32);
        let ns = start.elapsed().as_nanos() as f64 / OVERHEAD_COMMITS as f64;
        best = best.min(ns);
    }
    let ns_per_commit = best;
    let key = if cfg!(feature = "obs-off") {
        "obs_off_ns_per_commit"
    } else {
        "obs_on_ns_per_commit"
    };
    println!(
        "{key}: {ns_per_commit:.1} (min of {OVERHEAD_REPS}×{OVERHEAD_COMMITS} \
         single-threaded commits)"
    );
    if cfg!(debug_assertions) {
        println!("debug build — measure with --release");
    }
}
