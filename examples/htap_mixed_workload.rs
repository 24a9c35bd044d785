//! HTAP mixed workload: the paper's evaluation scenario in miniature.
//! Loads the TPC-H tables, runs the same OLTP+OLAP batch under all three
//! configurations of §5.1, then switches to the detached-reader HTAP mode:
//! updater threads keep committing while `SnapshotReader`s fan analytical
//! scans out over the morsel-parallel worker pool.
//!
//! ```sh
//! cargo run --release --example htap_mixed_workload
//! ```

use ankerdb::core::DbConfig;
use ankerdb::tpch::driver::{run_htap, run_workload, HtapConfig, WorkloadConfig};
use ankerdb::tpch::gen::{self, TpchConfig};
use ankerdb::util::TableBuilder;

fn main() {
    let tpch = TpchConfig {
        scale_factor: 0.02,
        seed: 42,
    };
    let workload = WorkloadConfig {
        oltp_txns: 20_000,
        olap_txns: 10,
        threads: 2,
        seed: 7,
        think_us: 0.0,
    };
    let configs = [
        (
            "Homogeneous / Serializable",
            DbConfig::homogeneous_serializable(),
        ),
        (
            "Homogeneous / Snapshot Isolation",
            DbConfig::homogeneous_snapshot_isolation(),
        ),
        (
            "Heterogeneous / Serializable",
            DbConfig::heterogeneous_serializable().with_snapshot_every(1_000),
        ),
    ];

    println!(
        "mixed workload: {} OLTP + {} OLAP transactions on {} threads (TPC-H sf {})\n",
        workload.oltp_txns, workload.olap_txns, workload.threads, tpch.scale_factor
    );
    let mut table = TableBuilder::new("").header([
        "Configuration",
        "tps",
        "committed",
        "aborted",
        "snapshots",
        "cols materialised",
    ]);
    for (name, cfg) in configs {
        let t = gen::generate(cfg, &tpch);
        let r = run_workload(&t, &workload);
        let m = t.db.metrics();
        let count = |name| m.counter(name).unwrap_or(0).to_string();
        table.row([
            name.to_string(),
            format!("{:.0}", r.tps),
            r.committed.to_string(),
            r.aborted.to_string(),
            count("db_epochs_triggered_total"),
            count("db_columns_materialized_total"),
        ]);
    }
    println!("{}", table.render());
    println!("Heterogeneous processing separates the analytical scans onto virtual");
    println!("snapshots, so the mixed batch finishes significantly faster (paper: ~2x).\n");

    // ── Detached readers: the analytical fleet ─────────────────────────
    //
    // In-transaction OLAP borrows `&mut Txn` — one scan, one thread. The
    // `SnapshotReader` detaches the read path: it pins an epoch by
    // refcount, is `Send + Sync`, and its scans fan out over the
    // database's reusable worker pool (`.parallel(n)`), while updaters
    // keep committing against the live columns.
    let t = gen::generate(
        DbConfig::heterogeneous_serializable().with_snapshot_every(1_000),
        &tpch,
    );
    let mut htap = TableBuilder::new("").header([
        "scan threads",
        "OLAP q/s",
        "OLTP tx/s",
        "morsels",
        "blocks skipped",
    ]);
    for scan_threads in [1usize, 2, 4] {
        let r = run_htap(
            &t,
            &HtapConfig {
                updaters: 1,
                scan_threads,
                scans: 12,
                seed: 13,
                think_us: 0.0,
            },
        );
        htap.row([
            scan_threads.to_string(),
            format!("{:.0}", r.olap_qps),
            format!("{:.0}", r.oltp_tps),
            r.stats.morsels.to_string(),
            r.stats.blocks_skipped.to_string(),
        ]);
    }
    println!("detached-reader HTAP mode: 1 updater + morsel-parallel scanners");
    println!("{}", htap.render());

    // The same epoch read directly, without any transaction: a reader
    // opened now keeps observing its epoch even as commits continue.
    let reader = t.db.snapshot_reader().expect("heterogeneous mode");
    let li = &t.li;
    let (revenue, stats) = reader
        .scan(t.lineitem)
        .lt_f64(li.quantity, 25.0)
        .project(&[li.extendedprice, li.discount])
        .parallel(2)
        .fold(
            0.0f64,
            |acc, _, v| acc + v[0].as_double() * v[1].as_double(),
            |a, b| a + b,
        )
        .expect("reader scan");
    println!(
        "one parallel reader scan: revenue {revenue:.2} over {} morsels on {} threads \
         ({} rows filtered in-loop)",
        stats.morsels, stats.threads, stats.rows_filtered
    );
}
