//! Integration tests of the `anker-obs` metrics surface under real
//! concurrency: registry snapshots taken *while* writers and scanners
//! run must be internally consistent (every counter and histogram count
//! monotone across successive snapshots), and at quiescence the
//! engine's exactness invariants must hold — the sampled commit-stage
//! chain's counts agree with each other, the scan counters equal the
//! summed per-scan `ScanStats`, and the morsel histogram counts exactly
//! one span per morsel.
//!
//! The tests below run as threads of one process and hold no lock
//! between them: each boots its own database, and a database counts in
//! its own registry, so a neighbour's scans and sampled commits cannot
//! reach the exact deltas and balances asserted here.

// Under `obs-off` every counter update compiles to a no-op, so the
// registry arithmetic this file asserts is intentionally all-zero.
#![cfg(not(feature = "obs-off"))]

mod common;

use anker_core::obs;
use anker_core::{AnkerDb, BackendKind, DbConfig, ScanStats, TxnKind, Value};
use std::sync::atomic::{AtomicBool, Ordering};

/// Metrics whose values must never decrease while the engine runs.
const MONOTONE_COUNTERS: [&str; 7] = [
    "commit_attempts_total",
    "scan_morsels_total",
    "scan_tight_rows_total",
    "snapshot_pages_rewired_total",
    "snapshot_epoch_pins_total",
    "db_committed_total",
    "db_epochs_triggered_total",
];

const MONOTONE_HISTOGRAMS: [&str; 4] = [
    "commit_total_ns",
    "commit_stage_latch_ns",
    "scan_morsel_ns",
    "snapshot_rewire_ns",
];

fn counter(m: &obs::MetricsSnapshot, name: &str) -> u64 {
    m.counter(name).unwrap_or(0)
}

fn hist_count(m: &obs::MetricsSnapshot, name: &str) -> u64 {
    m.histogram(name).map_or(0, |h| h.count())
}

/// Sets the flag when dropped, i.e. however its scope exits — including
/// by unwinding.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Run `work` while a poller thread takes successive registry snapshots
/// and asserts each is monotone w.r.t. the previous one. Returns `work`'s
/// result and the number of polls. The poller is stopped by a drop guard:
/// if `work` panics (say, a worker it joins panicked), the poller still
/// ends, the scope returns and the panic reaches the test — instead of
/// the scope waiting forever on a poller nobody told to stop.
fn poll_while<R>(db: &AnkerDb, work: impl FnOnce() -> R) -> (R, u64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut prev = db.metrics();
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let cur = db.metrics();
                for name in MONOTONE_COUNTERS {
                    assert!(
                        counter(&cur, name) >= counter(&prev, name),
                        "counter `{name}` went backwards under load"
                    );
                }
                for name in MONOTONE_HISTOGRAMS {
                    assert!(
                        hist_count(&cur, name) >= hist_count(&prev, name),
                        "histogram `{name}` count went backwards under load"
                    );
                }
                prev = cur;
                polls += 1;
                std::thread::yield_now();
            }
            polls
        });
        let stop_guard = StopOnDrop(&stop);
        let out = work();
        drop(stop_guard);
        (out, poller.join().unwrap())
    })
}

/// Writers, scanners, and a metrics poller in parallel: every snapshot
/// the poller takes must be monotone w.r.t. the previous one, and the
/// quiescent end state must satisfy the engine's exact invariants.
#[test]
fn snapshots_stay_consistent_under_concurrent_load() {
    let rows = 4_096u32;
    let config = DbConfig::heterogeneous_serializable()
        .with_snapshot_every(64)
        .with_backend(BackendKind::Sim);
    let (db, t, c) = common::one_col_db(config, rows);
    let baseline = db.metrics();

    const WRITERS: usize = 3;
    const COMMITS_PER_WRITER: usize = 400;
    const SCANNERS: usize = 2;
    const SCANS_PER_SCANNER: usize = 12;

    let (scan_sums, polls) = poll_while(&db, || {
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let db = &db;
                s.spawn(move || {
                    for i in 0..COMMITS_PER_WRITER {
                        let row = ((w * COMMITS_PER_WRITER + i * 7) % rows as usize) as u32;
                        let mut txn = db.begin(TxnKind::Oltp);
                        txn.update_value(t, c, row, Value::Int((w * 1000 + i) as i64))
                            .unwrap();
                        // First-updater-wins aborts are part of the workload;
                        // the registry must count the attempt either way.
                        let _ = txn.commit();
                    }
                });
            }
            let scan_handles: Vec<_> = (0..SCANNERS)
                .map(|n| {
                    let db = &db;
                    s.spawn(move || {
                        let mut merged = ScanStats::default();
                        for _ in 0..SCANS_PER_SCANNER {
                            let reader = db.snapshot_reader().unwrap();
                            let (_, stats) = reader
                                .scan(t)
                                .range_i64(c, 0, i64::MAX)
                                .project(&[c])
                                .parallel(n + 1)
                                .fold(
                                    0i64,
                                    |a, _, v| a.wrapping_add(v[0].as_int()),
                                    |a, b| a.wrapping_add(b),
                                )
                                .unwrap();
                            merged.merge(&stats);
                        }
                        merged
                    })
                })
                .collect();
            scan_handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<ScanStats>>()
        })
    });
    assert!(polls > 0, "the poller never sampled");

    let m = db.metrics();

    // Exactness: the attempt counter is unsampled, so it covers every
    // writer commit (plus ww-abort retries and the fill_column load).
    let attempts = counter(&m, "commit_attempts_total");
    assert!(attempts >= (WRITERS * COMMITS_PER_WRITER) as u64);

    // The sampled chain: a sampled attempt records latch + total
    // together, later stages only on the paths that reach them, and no
    // stage can out-count the attempts that entered the pipeline.
    let latch = hist_count(&m, "commit_stage_latch_ns");
    assert_eq!(
        hist_count(&m, "commit_total_ns"),
        latch,
        "commit_total_ns and commit_stage_latch_ns must count the same sampled attempts"
    );
    let mut upper = latch;
    for stage in [
        "commit_stage_validate_ns",
        "commit_stage_wal_ns",
        "commit_stage_install_ns",
        "commit_stage_fsync_ns",
    ] {
        let n = hist_count(&m, stage);
        assert!(
            n <= upper,
            "`{stage}` counts {n} spans but its predecessor only {upper}"
        );
        upper = n;
    }
    assert!(latch <= attempts, "sampling can never exceed the attempts");

    // Scan counters are fed once per completed scan from the same merged
    // `ScanStats` the API returns, so at quiescence the deltas equal the
    // sums the scanner threads observed.
    let mut expect = ScanStats::default();
    for s in &scan_sums {
        expect.merge(s);
    }
    for (name, val) in [
        ("scan_morsels_total", expect.morsels),
        ("scan_tight_rows_total", expect.tight_rows),
        ("scan_blocks_skipped_total", expect.blocks_skipped),
        ("scan_rows_filtered_total", expect.rows_filtered),
    ] {
        assert_eq!(
            counter(&m, name) - counter(&baseline, name),
            val,
            "`{name}` delta diverged from the summed ScanStats"
        );
    }
    // One tracer span per morsel, exactly.
    assert_eq!(
        hist_count(&m, "scan_morsel_ns") - hist_count(&baseline, "scan_morsel_ns"),
        expect.morsels,
        "scan_morsel_ns must record exactly one span per morsel"
    );

    // Pins balance at quiescence: every reader dropped its epoch.
    assert_eq!(
        m.gauge("snapshot_epochs_pinned").unwrap_or(0),
        0,
        "all epoch pins must be released at quiescence"
    );
    assert!(counter(&m, "snapshot_epoch_pins_total") >= (SCANNERS * SCANS_PER_SCANNER) as u64);
}

/// The same consistency contract under the oracle-verified commit-stress
/// driver (`common::run_commit_stress`): a poller races the stress run
/// asserting monotonicity, and at quiescence the registry must agree
/// with the driver's own outcome counts — every committed, ww-aborted,
/// and validation-aborted transaction entered the pipeline as an
/// attempt, and `db_committed_total` moved by exactly the commits the
/// oracle replayed.
#[test]
fn stress_driver_metrics_stay_consistent() {
    let config = DbConfig::heterogeneous_serializable()
        .with_snapshot_every(32)
        .with_backend(BackendKind::Sim);
    let (db, t, c) = common::one_col_db(config, 256);
    let baseline = db.metrics();

    let (outcome, _polls) = poll_while(&db, || {
        common::run_commit_stress(
            &db,
            t,
            c,
            &common::StressConfig {
                threads: 4,
                txns_per_thread: 150,
                rows: 256,
                theta: 0.7,
                max_reads: 3,
                repair_rounds: 1,
                seed: 0xC0FFEE,
            },
        )
    });

    let m = db.metrics();
    let attempts =
        counter(&m, "commit_attempts_total") - counter(&baseline, "commit_attempts_total");
    // Repair retries re-enter the pipeline, so attempts can exceed the
    // per-transaction outcome sum but never undercut it.
    let outcomes = (outcome.committed + outcome.ww_aborts + outcome.validation_aborts) as u64;
    assert!(
        attempts >= outcomes,
        "attempts {attempts} < driver outcomes {outcomes}"
    );
    assert_eq!(
        counter(&m, "db_committed_total") - counter(&baseline, "db_committed_total"),
        outcome.committed as u64,
        "registry and stress driver disagree on commits"
    );
    assert_eq!(
        hist_count(&m, "commit_total_ns"),
        hist_count(&m, "commit_stage_latch_ns"),
        "sampled chain out of balance after stress"
    );
}

/// `commit_total_ns` is end to end: the span chain tiles the attempt
/// stage by stage, so each sampled total is the sum of its stages —
/// never just the stage that happened to be open when the chain closed.
#[test]
fn commit_total_spans_every_stage() {
    let (db, t, c) = common::one_col_db(
        DbConfig::heterogeneous_serializable().with_backend(BackendKind::Sim),
        1_024,
    );
    for i in 0..512u32 {
        let mut txn = db.begin(TxnKind::Oltp);
        txn.update_value(t, c, i, Value::Int(-(i as i64))).unwrap();
        txn.commit().unwrap();
    }
    let m = db.metrics();
    let sum = |name: &str| m.histogram(name).map_or(0, |h| h.sum);
    assert!(hist_count(&m, "commit_total_ns") > 0, "no sampled commit");
    let stages: u64 = [
        "commit_stage_latch_ns",
        "commit_stage_validate_ns",
        "commit_stage_wal_ns",
        "commit_stage_install_ns",
        "commit_stage_fsync_ns",
    ]
    .iter()
    .map(|s| sum(s))
    .sum();
    let total = sum("commit_total_ns");
    assert!(
        total >= stages,
        "commit_total_ns.sum {total} < the stage sums {stages}"
    );
    assert!(
        total > sum("commit_stage_install_ns"),
        "commit_total_ns recorded only the install stage"
    );
}

/// A database counts in its own registry: commits, transaction and
/// parallel reader scans on a freshly cut epoch, and a GC pass on `a`
/// move none of `b`'s counters, gauges or histograms.
#[test]
fn two_databases_count_in_separate_registries() {
    let boot = || {
        let config = DbConfig::heterogeneous_serializable()
            .with_snapshot_every(4)
            .with_backend(BackendKind::Sim);
        common::one_col_db(config, 4_096)
    };
    let ((a, t, c), (b, _, _)) = (boot(), boot());
    let (a_before, b_before) = (a.metrics(), b.metrics());

    for i in 0..64u32 {
        let mut txn = a.begin(TxnKind::Oltp);
        txn.update_value(t, c, i, Value::Int(-1)).unwrap();
        txn.commit().unwrap();
    }
    let mut olap = a.begin(TxnKind::Olap);
    assert_eq!(olap.scan_on(t).range_i64(c, -1, -1).count().unwrap().0, 64);
    olap.commit().unwrap();
    let reader = a.snapshot_reader().unwrap();
    let (n, _) = reader.scan(t).parallel(2).count().unwrap();
    assert_eq!(n, 4_096);
    drop(reader);
    a.run_gc_once();

    let a_after = a.metrics();
    for name in [
        "commit_attempts_total",
        "db_committed_total",
        "db_epochs_triggered_total",
        "scan_morsels_total",
        "db_gc_passes_total",
    ] {
        assert!(
            counter(&a_after, name) > counter(&a_before, name),
            "`{name}` of the working database must move"
        );
    }
    let b_after = b.metrics();
    // Metrics never disappear, so walking the later snapshot also catches
    // one that only came into existence through the neighbour's work.
    for after in b_after.iter() {
        let before = b_before.iter().find(|m| m.name == after.name);
        assert_eq!(
            before.map(|m| &m.value),
            Some(&after.value),
            "the idle database's `{}` moved",
            after.name
        );
    }
}

/// A worker that panics inside `poll_while` must fail the caller with
/// its message, not park it: the drop guard stops the poller during the
/// unwind. The helper runs on its own thread so a regression shows up as
/// a timeout here instead of a hung test binary.
#[test]
fn poll_while_returns_when_a_worker_panics() {
    let (db, _, _) = common::one_col_db(
        DbConfig::heterogeneous_serializable().with_backend(BackendKind::Sim),
        16,
    );
    let (done, returned) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            poll_while(&db, || {
                std::thread::scope(|s| {
                    s.spawn(|| panic!("worker panics on purpose"))
                        .join()
                        .unwrap()
                })
            })
        }));
        let _ = done.send(result.is_err());
    });
    let panicked = returned
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("poll_while hung after its worker panicked");
    assert!(panicked, "the worker's panic must reach the caller");
}
