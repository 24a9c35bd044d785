//! The paper's headline claims, asserted structurally (virtual-time and
//! scan-statistics based, so they hold on any machine).

mod common;

use ankerdb::core::{DbConfig, TxnKind};
use ankerdb::snapshot::{
    fig5_run, table1_run, Fig5Config, ForkSnapshotter, PhysicalSnapshotter, Snapshotter,
    Table1Config, VmSnapshotter,
};
use ankerdb::tpch::gen::{self, TpchConfig};
use ankerdb::tpch::oltp::{run_oltp, OltpKind};
use ankerdb::tpch::queries::{scan_table, OlapQuery};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// §4.1.4 / Figure 5a: once a column is fragmented, `vm_snapshot` beats
/// rewiring by a large factor, and its cost does not grow with writes.
#[test]
fn claim_vm_snapshot_beats_rewiring() {
    let points = fig5_run(&Fig5Config {
        pages: 512,
        record_every: 64,
    })
    .unwrap();
    let first = points.first().unwrap();
    let last = points.last().unwrap();
    assert!(
        last.rewiring_snapshot_ns > last.vmsnap_snapshot_ns * 10,
        "rewiring {} !>> vm_snapshot {}",
        last.rewiring_snapshot_ns,
        last.vmsnap_snapshot_ns
    );
    let growth = last.vmsnap_snapshot_ns as f64 / first.vmsnap_snapshot_ns as f64;
    assert!(growth < 1.5, "vm_snapshot cost grew {growth}x with writes");
}

/// §3.3.2 / Table 1: physical cost is linear in columns; fork is constant
/// and snapshots everything; unfragmented rewiring is the cheapest.
#[test]
fn claim_state_of_the_art_cost_structure() {
    let rows = table1_run(&Table1Config {
        n_cols: 10,
        pages_per_col: 128,
        col_counts: vec![1, 5, 10],
        modified_pages: vec![0, 128],
    })
    .unwrap();
    let physical = rows.iter().find(|r| r.method == "Physical").unwrap();
    let fork = rows.iter().find(|r| r.method == "Fork-based").unwrap();
    let rew0 = rows
        .iter()
        .find(|r| r.method == "Rewiring" && r.modified_per_col == Some(0))
        .unwrap();
    let rew_full = rows
        .iter()
        .find(|r| r.method == "Rewiring" && r.modified_per_col == Some(128))
        .unwrap();
    // Physical: ~linear in p.
    let lin = physical.virtual_ms[2] / physical.virtual_ms[0];
    assert!((8.0..12.0).contains(&lin), "physical scaling {lin}");
    // Fork: flat in p.
    let flat = fork.virtual_ms[2] / fork.virtual_ms[0];
    assert!((0.9..1.1).contains(&flat), "fork scaling {flat}");
    // Rewiring unfragmented is cheapest; fully fragmented costs the same
    // order as physical (paper: 169 ms vs 108 ms).
    assert!(rew0.virtual_ms[0] < fork.virtual_ms[0]);
    assert!(rew0.virtual_ms[0] < physical.virtual_ms[0]);
    let ratio = rew_full.virtual_ms[2] / physical.virtual_ms[2];
    assert!(
        (0.5..4.0).contains(&ratio),
        "fragmented rewiring vs physical: {ratio}"
    );
}

/// §2.2 / §5.3: OLAP on snapshots never touches version chains, while the
/// same OLAP under homogeneous processing must traverse them.
#[test]
fn claim_snapshot_scans_skip_version_chains() {
    let mk = |cfg| {
        gen::generate(
            cfg,
            &TpchConfig {
                scale_factor: 0.004,
                seed: 5,
            },
        )
    };
    let hetero = mk(DbConfig::heterogeneous_serializable()
        .with_snapshot_every(50)
        .with_gc_interval(None));
    let homo = mk(DbConfig::homogeneous_serializable().with_gc_interval(None));

    // Old reader on the homogeneous side (it will need chains).
    let mut homo_reader = homo.db.begin(TxnKind::Olap);
    let mut rng = SmallRng::seed_from_u64(2);
    for _ in 0..400 {
        let kind = OltpKind::sample(&mut rng);
        let _ = run_oltp(&hetero, kind, &mut rng);
        let _ = run_oltp(&homo, kind, &mut rng);
    }
    // Heterogeneous OLAP: brand-new txn on the newest snapshot.
    let mut hetero_reader = hetero.db.begin(TxnKind::Olap);
    let s_hetero = {
        for q in [
            OlapQuery::ScanLineitem,
            OlapQuery::ScanOrders,
            OlapQuery::ScanPart,
        ] {
            // scan_table returns a checksum; stats come from the txn scan.
            let _ = scan_table(&hetero, &mut hetero_reader, q).unwrap();
        }
        // Snapshot scans are tight by construction; verify via a direct
        // column scan that exposes stats.
        let schema = hetero.db.schema(hetero.lineitem);
        let col = schema.col("l_extendedprice");
        hetero_reader
            .scan_on(hetero.lineitem)
            .project(&[col])
            .for_each(|_, _| {})
            .unwrap()
    };
    hetero_reader.commit().unwrap();
    assert_eq!(s_hetero.checked_rows, 0, "hetero OLAP checked rows");
    assert_eq!(s_hetero.chain_walks, 0, "hetero OLAP walked chains");

    // Homogeneous old reader: must pay chain walks.
    let schema = homo.db.schema(homo.lineitem);
    let col = schema.col("l_extendedprice");
    let s_homo = homo_reader
        .scan_on(homo.lineitem)
        .project(&[col])
        .for_each(|_, _| {})
        .unwrap();
    homo_reader.commit().unwrap();
    assert!(
        s_homo.chain_walks > 0,
        "homogeneous old reader should walk chains: {s_homo:?}"
    );
}

/// §5.6 / Figure 10: snapshotting even all columns of all tables with
/// vm_snapshot is cheaper than forking the whole process, and a single
/// column is cheaper still.
#[test]
fn claim_column_granularity_beats_fork() {
    // Virtual-clock comparison: always runs on the simulated kernel (the
    // fork probe cannot fork the host process on the OS backend).
    let t = gen::generate(
        DbConfig::heterogeneous_serializable()
            .with_gc_interval(None)
            .with_backend(anker_core::BackendKind::Sim),
        &TpchConfig {
            scale_factor: 0.01,
            seed: 1,
        },
    );
    let mut all_ns = 0u64;
    let mut single_min = u64::MAX;
    for table in [t.lineitem, t.orders, t.part] {
        for (_, stats) in t.db.snapshot_cost_probe(table).unwrap() {
            all_ns += stats.virtual_ns;
            single_min = single_min.min(stats.virtual_ns);
        }
    }
    let fork_ns = t.db.fork_cost_probe().unwrap().virtual_ns;
    assert!(
        fork_ns > all_ns / 2,
        "fork {fork_ns} vs all columns {all_ns}"
    );
    assert!(
        fork_ns > single_min * 20,
        "fork {fork_ns} vs cheapest column {single_min}"
    );
}

/// §1.3.1: dropping a snapshot epoch drops its version chains — while
/// analytics run, the heterogeneous design needs no chain-by-chain garbage
/// collector. (An analytics-free phase takes no snapshots; a bounded
/// fallback in the engine covers that case, see `anker_core::txn`.)
#[test]
fn claim_implicit_garbage_collection() {
    let t = gen::generate(
        DbConfig::heterogeneous_serializable()
            .with_snapshot_every(20)
            .with_gc_interval(None),
        &TpchConfig {
            scale_factor: 0.004,
            seed: 9,
        },
    );
    let mut rng = SmallRng::seed_from_u64(4);
    let scan_cols = {
        let schema = t.db.schema(t.lineitem);
        [
            schema.col("l_returnflag"),
            schema.col("l_extendedprice"),
            schema.col("l_discount"),
            schema.col("l_shipdate"),
        ]
    };
    for round in 0..500 {
        let _ = run_oltp(&t, OltpKind::sample(&mut rng), &mut rng);
        if round % 25 == 24 {
            // Analytics arrivals pin epochs; their materialisation hands
            // the chains over.
            let mut olap = t.db.begin(TxnKind::Olap);
            for col in scan_cols {
                olap.scan_on(t.lineitem)
                    .project(&[col])
                    .for_each(|_, _| {})
                    .unwrap();
            }
            olap.commit().unwrap();
        }
    }
    // No GC pass ever ran, yet the versions of the *scanned* columns stay
    // bounded: their chains were handed to epochs and released with them.
    // `column_versions` counts frozen epoch stores too, so the bound is
    // the write traffic of one housekeeping interval (~128 commits) plus
    // one trigger interval — far below the ~500 rounds of unbounded
    // growth a chainless design would accumulate. (Columns no analytics
    // touch keep their chains — a bounded fallback in the engine covers
    // those.)
    assert_eq!(common::counter(&t.db, "db_gc_passes_total"), 0);
    #[cfg(not(feature = "obs-off"))]
    assert!(common::counter(&t.db, "db_epochs_retired_total") > 0);
    for col in scan_cols {
        let v = t.db.column_versions(t.lineitem, col);
        assert!(
            v <= 60,
            "scanned column should have handed its chains over, holds {v}"
        );
    }
}

/// Sanity: the four snapshotting techniques agree on data content.
#[test]
fn claim_all_techniques_agree_on_content() {
    let run = |s: &mut dyn Snapshotter| -> Vec<u64> {
        for c in 0..s.n_cols() {
            for p in 0..s.pages_per_col() {
                s.write_base(c, p, 0, (c as u64) << 32 | p).unwrap();
            }
        }
        let id = s.snapshot_columns(s.n_cols()).unwrap();
        s.write_base(0, 0, 0, u64::MAX).unwrap();
        let mut out = Vec::new();
        for c in 0..s.n_cols() {
            for p in 0..s.pages_per_col() {
                out.push(s.read_snapshot(id, c, p, 0).unwrap());
            }
        }
        out
    };
    let a = run(&mut PhysicalSnapshotter::new(3, 16).unwrap());
    let b = run(&mut ForkSnapshotter::new(3, 16).unwrap());
    let c = run(&mut ankerdb::snapshot::RewiredSnapshotter::new(3, 16).unwrap());
    let d = run(&mut VmSnapshotter::new(3, 16).unwrap());
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(c, d);
}
