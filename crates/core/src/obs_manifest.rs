//! The metric manifest: force-register every metric the engine can emit.
//!
//! Registration is lazy (a metric exists once its call site first runs),
//! so a metrics listing taken from a partial run would silently omit
//! whatever that run didn't exercise — the fsync stage without
//! durability, recycling counters without spare areas, and so on.
//! [`obs_register_all`] touches every registration site's name up front;
//! `repro obs --audit` calls it **before** its workload so the helps
//! below are the canonical metadata `METRICS.md` is generated from (the
//! registry is first-wins), and the CI clean-diff gate on that file turns
//! any rename or drift into a build failure.
//!
//! Keep the name/help pairs byte-identical to the instrumentation sites
//! (grep for `obs::counter!`/`obs::gauge!`/`obs::histogram!` and
//! `obs::stage!`/`obs::span!` across `core`, `dura`, and `mvcc`).
//! Metrics absorbed from legacy stats structs (`db_*`, `kernel_*`,
//! `os_*`, `wal_*`) are not listed here — [`crate::AnkerDb::metrics`]
//! folds them in with their own helps.

/// Register every engine metric with the global `obs` registry (idempotent).
pub fn obs_register_all() {
    // Span-derived stage histograms (one `<stage>_ns` per `obs::stage!` /
    // `obs::span!` site).
    const STAGES: [&str; 10] = [
        "commit_stage_latch_ns",
        "commit_stage_validate_ns",
        "commit_stage_wal_ns",
        "commit_stage_install_ns",
        "commit_stage_fsync_ns",
        "gc_pass_ns",
        "scan_morsel_ns",
        "snapshot_materialize_ns",
        "snapshot_rewire_ns",
        "wal_fsync_ns",
    ];
    for s in STAGES {
        obs::register_histogram(s, obs::STAGE_HELP);
    }

    // Commit pipeline (crates/core/src/txn.rs).
    obs::counter!(
        "commit_attempts_total",
        "Commit-pipeline entries, including ww/validation-aborted and repair-retried attempts"
    );
    obs::histogram!(
        "commit_total_ns",
        "End-to-end nanoseconds per sampled commit-pipeline attempt, across every exit path"
    );

    // Snapshot lifecycle (crates/core/src/snapman.rs).
    obs::counter!(
        "snapshot_pages_rewired_total",
        "Pages remapped by vm_snapshot when freezing a column into an epoch"
    );
    obs::counter!(
        "snapshot_areas_recycled_total",
        "vm_snapshot calls that reused a parked destination area (§4.1.3)"
    );
    obs::counter!(
        "snapshot_spare_parked_total",
        "Retired snapshot areas parked for vm_snapshot destination recycling"
    );
    obs::counter!(
        "snapshot_graveyard_unmapped_total",
        "Retired snapshot areas unmapped once the active-transaction horizon passed them"
    );
    obs::counter!(
        "snapshot_epoch_pins_total",
        "OLAP epoch pins taken (newest-fresh and explicit pins combined)"
    );
    obs::gauge!(
        "snapshot_epochs_pinned",
        "OLAP pins currently held across all live epochs"
    );

    // Scans (crates/core/src/scan.rs).
    obs::counter!("scan_morsels_total", "Morsels processed across all scans");
    obs::counter!(
        "scan_tight_rows_total",
        "Rows delivered through the tight (unchecked) scan path"
    );
    obs::counter!(
        "scan_checked_rows_total",
        "Rows that went through per-row visibility checks"
    );
    obs::counter!(
        "scan_chain_walks_total",
        "Rows whose value came from a version-chain walk"
    );
    obs::counter!(
        "scan_blocks_skipped_total",
        "Blocks pruned wholesale by zone maps"
    );
    obs::counter!(
        "scan_rows_filtered_total",
        "Rows read and then eliminated by pushed-down predicates"
    );
    obs::counter!(
        "scan_vector_blocks_total",
        "Blocks filtered through the selection-vector kernels"
    );
    obs::counter!(
        "scan_dense_blocks_total",
        "Blocks the zone maps proved all-match (no selection vector)"
    );

    // Version-chain GC (crates/mvcc/src/version.rs).
    obs::counter!(
        "mvcc_versions_pruned_total",
        "Chain versions reclaimed by GC passes across all columns"
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn manifest_registers_every_listed_metric() {
        super::obs_register_all();
        let s = obs::snapshot();
        for name in [
            "commit_stage_fsync_ns",
            "commit_total_ns",
            "snapshot_rewire_ns",
            "wal_fsync_ns",
            "mvcc_versions_pruned_total",
        ] {
            assert!(
                s.iter().any(|m| m.name == name),
                "manifest did not register `{name}`"
            );
        }
        // Idempotent: a second call must not panic on kind clashes.
        super::obs_register_all();
    }
}
