//! The engine's metric handles: every counter, gauge, histogram and span
//! stage `anker-core` bumps, resolved **once** in the owning database's
//! [`obs::Registry`] when it boots. A hot path then increments through a
//! field of [`Metrics`] — one relaxed atomic, no name lookup — and the
//! metric exists (at zero) from boot, so a listing never depends on what
//! a run happened to exercise. `anker-dura` (`wal_*`) and `anker-mvcc`
//! (`mvcc_*`) resolve theirs the same way from the same registry; the
//! full list is METRICS.md, generated from a booted database.

use obs::{Counter, Gauge, Histogram, Registry, Stage};
use std::sync::Arc;

pub(crate) struct Metrics {
    // Transaction outcomes (txn.rs).
    pub committed: Arc<Counter>,
    pub committed_read_only: Arc<Counter>,
    pub aborted_ww: Arc<Counter>,
    pub aborted_validation: Arc<Counter>,
    pub repaired_commits: Arc<Counter>,
    pub repair_rounds: Arc<Counter>,
    // Commit pipeline (txn.rs).
    pub commit_attempts: Arc<Counter>,
    pub commit_total: Arc<Histogram>,
    pub commit_stage_latch: Stage,
    pub commit_stage_validate: Stage,
    pub commit_stage_wal: Stage,
    pub commit_stage_install: Stage,
    pub commit_stage_fsync: Stage,
    // Garbage collection (db.rs).
    pub gc_passes: Arc<Counter>,
    pub gc_pass: Stage,
    // Snapshot lifecycle (snapman.rs).
    pub epochs_triggered: Arc<Counter>,
    pub epochs_retired: Arc<Counter>,
    pub live_epochs: Arc<Gauge>,
    pub columns_materialized: Arc<Counter>,
    pub columns_reused: Arc<Counter>,
    pub images_read_through: Arc<Counter>,
    pub snapshot_materialize: Stage,
    pub snapshot_rewire: Stage,
    pub pages_rewired: Arc<Counter>,
    pub epoch_pins: Arc<Counter>,
    pub epochs_pinned: Arc<Gauge>,
    // Scans (scan.rs), fed from each finished scan's `ScanStats`.
    pub scan_morsel: Stage,
    pub scan_morsels: Arc<Counter>,
    pub scan_tight_rows: Arc<Counter>,
    pub scan_checked_rows: Arc<Counter>,
    pub scan_chain_walks: Arc<Counter>,
    pub scan_blocks_skipped: Arc<Counter>,
    pub scan_rows_filtered: Arc<Counter>,
    pub scan_vector_blocks: Arc<Counter>,
    pub scan_dense_blocks: Arc<Counter>,
}

impl Metrics {
    pub fn new(r: &Registry) -> Metrics {
        Metrics {
            committed: r.counter("db_committed_total", "Committed read-write transactions"),
            committed_read_only: r.counter(
                "db_committed_read_only_total",
                "Committed read-only transactions",
            ),
            aborted_ww: r.counter(
                "db_aborted_ww_total",
                "Transactions aborted on a write-write conflict",
            ),
            aborted_validation: r.counter(
                "db_aborted_validation_total",
                "Transactions aborted in read-set validation",
            ),
            repaired_commits: r.counter(
                "db_repaired_commits_total",
                "Transactions that committed through conflict repair",
            ),
            repair_rounds: r.counter(
                "db_repair_rounds_total",
                "Conflict-repair rounds run across all transactions",
            ),
            commit_attempts: r.counter(
                "commit_attempts_total",
                "Commit-pipeline entries, including ww/validation-aborted and repair-retried attempts",
            ),
            commit_total: r.histogram(
                "commit_total_ns",
                "End-to-end nanoseconds per sampled commit-pipeline attempt, across every exit path",
            ),
            commit_stage_latch: r.stage("commit_stage_latch"),
            commit_stage_validate: r.stage("commit_stage_validate"),
            commit_stage_wal: r.stage("commit_stage_wal"),
            commit_stage_install: r.stage("commit_stage_install"),
            commit_stage_fsync: r.stage("commit_stage_fsync"),
            gc_passes: r.counter("db_gc_passes_total", "Garbage-collection passes"),
            gc_pass: r.stage("gc_pass"),
            epochs_triggered: r.counter("db_epochs_triggered_total", "Snapshot epochs registered"),
            epochs_retired: r.counter("db_epochs_retired_total", "Snapshot epochs retired"),
            live_epochs: r.gauge("db_live_epochs", "Snapshot epochs currently live"),
            columns_materialized: r.counter(
                "db_columns_materialized_total",
                "Columns frozen into an epoch via vm_snapshot",
            ),
            columns_reused: r.counter(
                "snapshot_columns_reused_total",
                "Columns served to an epoch by an earlier epoch's still-exact frozen image (no vm_snapshot)",
            ),
            images_read_through: r.counter(
                "snapshot_images_read_through_total",
                "Frozen images read through their column's live area (cut after a write to a column imaged before); the rest are read zero-copy",
            ),
            snapshot_materialize: r.stage("snapshot_materialize"),
            snapshot_rewire: r.stage("snapshot_rewire"),
            pages_rewired: r.counter(
                "snapshot_pages_rewired_total",
                "Pages remapped by vm_snapshot when freezing a column into an epoch",
            ),
            epoch_pins: r.counter(
                "snapshot_epoch_pins_total",
                "OLAP epoch pins taken (newest-fresh and explicit pins combined)",
            ),
            epochs_pinned: r.gauge(
                "snapshot_epochs_pinned",
                "OLAP pins currently held across all live epochs",
            ),
            scan_morsel: r.stage("scan_morsel"),
            scan_morsels: r.counter("scan_morsels_total", "Morsels processed across all scans"),
            scan_tight_rows: r.counter(
                "scan_tight_rows_total",
                "Rows delivered through the tight (unchecked) scan path",
            ),
            scan_checked_rows: r.counter(
                "scan_checked_rows_total",
                "Rows that went through per-row visibility checks",
            ),
            scan_chain_walks: r.counter(
                "scan_chain_walks_total",
                "Rows whose value came from a version-chain walk",
            ),
            scan_blocks_skipped: r.counter(
                "scan_blocks_skipped_total",
                "Blocks pruned wholesale by zone maps",
            ),
            scan_rows_filtered: r.counter(
                "scan_rows_filtered_total",
                "Rows read and then eliminated by pushed-down predicates",
            ),
            scan_vector_blocks: r.counter(
                "scan_vector_blocks_total",
                "Blocks filtered through the selection-vector kernels",
            ),
            scan_dense_blocks: r.counter(
                "scan_dense_blocks_total",
                "Blocks the zone maps proved all-match (no selection vector)",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{AnkerDb, DbConfig};

    /// Nothing has to run for a metric to be listed — not even the stages
    /// only a durable configuration ever reaches.
    #[test]
    fn every_metric_exists_from_boot() {
        let db = AnkerDb::new(DbConfig::default().with_gc_interval(None));
        let m = db.metrics();
        for name in [
            "commit_stage_fsync_ns",
            "commit_total_ns",
            "snapshot_rewire_ns",
            "snapshot_pages_rewired_total",
            "snapshot_epochs_pinned",
            "db_committed_total",
            "kernel_virtual_ns",
        ] {
            assert!(
                m.iter().any(|metric| metric.name == name),
                "`{name}` is missing from a freshly booted database"
            );
        }
    }
}
