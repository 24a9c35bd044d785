//! Workload-level integration tests: query correctness across the paper's
//! three configurations, driver smoke tests, and freshness semantics.

use anker_core::{DbConfig, TxnKind};
use anker_tpch::driver::{
    run_htap, run_olap_latency, run_workload, HtapConfig, LatencyConfig, WorkloadConfig,
};
use anker_tpch::gen::{self, TpchConfig, TpchDb};
use anker_tpch::oltp::{run_oltp, OltpKind};
use anker_tpch::queries::{self, sample_params, OlapQuery, OlapResult};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn tiny_cfg() -> TpchConfig {
    TpchConfig {
        scale_factor: 0.004,
        seed: 99,
    }
}

fn build(db: DbConfig) -> TpchDb {
    gen::generate(db.with_gc_interval(None), &tiny_cfg())
}

/// On a freshly loaded (unmodified) database, every configuration must
/// produce identical answers for all seven OLAP transactions — and the
/// `scalar_scan` row-at-a-time oracle must reproduce the kernels' answers
/// bit for bit (the `f64` folds included) on the frozen snapshot path
/// (heterogeneous) and the versioned path (homogeneous).
#[test]
fn queries_agree_across_configurations() {
    let hetero = build(DbConfig::heterogeneous_serializable().with_scalar_scan(false));
    let homo_ser = build(DbConfig::homogeneous_serializable().with_scalar_scan(false));
    let homo_si = build(DbConfig::homogeneous_snapshot_isolation());
    let hetero_oracle = build(DbConfig::heterogeneous_serializable().with_scalar_scan(true));
    let homo_ser_oracle = build(DbConfig::homogeneous_serializable().with_scalar_scan(true));
    let mut rng = SmallRng::seed_from_u64(5);
    for q in OlapQuery::ALL {
        let params = sample_params(q, &mut rng);
        let mut results = Vec::new();
        for t in [
            &hetero,
            &homo_ser,
            &homo_si,
            &hetero_oracle,
            &homo_ser_oracle,
        ] {
            let mut txn = t.db.begin(TxnKind::Olap);
            results.push(queries::run_olap(t, &mut txn, params).unwrap());
            txn.commit().unwrap();
        }
        assert_eq!(results[0], results[1], "{q:?} differs hetero vs homo-ser");
        assert_eq!(results[1], results[2], "{q:?} differs homo-ser vs homo-si");
        // `{:?}` prints every f64 exactly (shortest round-trip form, sign
        // of zero included), so equal strings mean equal bits.
        let bits = |r: &OlapResult| format!("{r:?}");
        assert_eq!(
            bits(&results[3]),
            bits(&results[0]),
            "{q:?}: oracle and kernels differ on the frozen path"
        );
        assert_eq!(
            bits(&results[4]),
            bits(&results[1]),
            "{q:?}: oracle and kernels differ on the versioned path"
        );
    }
}

/// Q1's aggregates must be internally consistent (avg = sum / count) and
/// cover every lineitem row passing the filter.
#[test]
fn q1_aggregates_consistent() {
    let t = build(DbConfig::heterogeneous_serializable());
    let mut txn = t.db.begin(TxnKind::Olap);
    let rows = queries::q1(&t, &mut txn, 90).unwrap();
    txn.commit().unwrap();
    assert!(!rows.is_empty());
    let mut total = 0u64;
    for r in &rows {
        assert!((r.avg_qty - r.sum_qty / r.count as f64).abs() < 1e-9);
        assert!((r.avg_price - r.sum_base_price / r.count as f64).abs() < 1e-9);
        assert!(r.sum_disc_price <= r.sum_base_price * 1.0000001);
        assert!(r.sum_charge >= r.sum_disc_price * 0.9999999);
        total += r.count;
    }
    // The 90-day cutoff leaves most rows in (ship dates end 121 days after
    // the last order date).
    let all = t.db.rows(t.lineitem) as u64;
    assert!(total > all / 2, "{total} of {all} rows");
}

/// Q6 must match a brute-force reference evaluation.
#[test]
fn q6_matches_reference() {
    let t = build(DbConfig::heterogeneous_serializable());
    let (year, disc, qty) = (1994, 0.05, 24.0);
    let mut txn = t.db.begin(TxnKind::Olap);
    let revenue = queries::q6(&t, &mut txn, year, disc, qty).unwrap();
    // Reference: row-at-a-time reads through the same transaction.
    let lo = gen::days(year, 1, 1);
    let hi = gen::days(year + 1, 1, 1);
    let mut expected = 0.0;
    for row in 0..t.db.rows(t.lineitem) {
        let ship = txn
            .get_value(t.lineitem, t.li.shipdate, row)
            .unwrap()
            .as_date();
        let d = txn
            .get_value(t.lineitem, t.li.discount, row)
            .unwrap()
            .as_double();
        let q = txn
            .get_value(t.lineitem, t.li.quantity, row)
            .unwrap()
            .as_double();
        if ship >= lo && ship < hi && d >= disc - 0.01 - 1e-9 && d <= disc + 0.01 + 1e-9 && q < qty
        {
            expected += txn
                .get_value(t.lineitem, t.li.extendedprice, row)
                .unwrap()
                .as_double()
                * d;
        }
    }
    txn.commit().unwrap();
    assert!(
        (revenue - expected).abs() < 1e-6 * expected.abs().max(1.0),
        "q6 {revenue} != reference {expected}"
    );
}

/// OLAP answers reflect committed OLTP updates once a new epoch is
/// triggered (freshness), and never reflect uncommitted ones.
#[test]
fn olap_freshness_follows_epochs() {
    let t = build(DbConfig::heterogeneous_serializable().with_snapshot_every(1));
    let mut rng = SmallRng::seed_from_u64(3);
    let before: OlapResult = {
        let mut txn = t.db.begin(TxnKind::Olap);
        let r = queries::run_olap(&t, &mut txn, queries::OlapParams::Scan(OlapQuery::ScanPart))
            .unwrap();
        txn.commit().unwrap();
        r
    };
    // Commit a part update; trigger interval is 1, so the next OLAP txn
    // gets a fresh epoch.
    run_oltp(&t, OltpKind::Q8, &mut rng).unwrap();
    let after = {
        let mut txn = t.db.begin(TxnKind::Olap);
        let r = queries::run_olap(&t, &mut txn, queries::OlapParams::Scan(OlapQuery::ScanPart))
            .unwrap();
        txn.commit().unwrap();
        r
    };
    assert_ne!(
        before, after,
        "fresh epoch must expose the committed update"
    );
}

/// Q6's shipdate predicate must prune whole blocks via zone maps on the
/// snapshot path: lineitems are loaded in rough arrival order, so a
/// one-year window cannot touch most 1024-row blocks.
#[test]
fn q6_zone_maps_prune_blocks_on_snapshots() {
    let t = gen::generate(
        DbConfig::heterogeneous_serializable().with_gc_interval(None),
        &TpchConfig {
            scale_factor: 0.02,
            seed: 99,
        },
    );
    let mut txn = t.db.begin(TxnKind::Olap);
    let revenue = queries::q6(&t, &mut txn, 1995, 0.05, 24.0).unwrap();
    let stats = txn.scan_stats();
    txn.commit().unwrap();
    assert!(revenue > 0.0, "the 1995 window holds qualifying lineitems");
    assert!(
        stats.blocks_skipped > 0,
        "zone maps pruned nothing: {stats:?}"
    );
    assert!(
        stats.rows_filtered > 0,
        "pushed-down filters removed nothing: {stats:?}"
    );
    assert_eq!(stats.checked_rows, 0, "snapshot scans never check versions");
}

#[test]
fn oltp_kinds_all_run() {
    let t = build(DbConfig::heterogeneous_serializable().with_snapshot_every(4));
    let mut rng = SmallRng::seed_from_u64(17);
    let mut committed = 0;
    for kind in OltpKind::ALL {
        for _ in 0..5 {
            if run_oltp(&t, kind, &mut rng).is_ok() {
                committed += 1;
            }
        }
    }
    assert!(committed >= 40, "committed {committed}/45");
    #[cfg(not(feature = "obs-off"))]
    assert_eq!(
        t.db.metrics().counter("db_committed_total"),
        Some(committed)
    );
}

#[test]
fn workload_driver_pure_oltp() {
    let t = build(DbConfig::heterogeneous_serializable().with_snapshot_every(100));
    let r = run_workload(
        &t,
        &WorkloadConfig {
            oltp_txns: 2_000,
            olap_txns: 0,
            threads: 2,
            seed: 1,
            think_us: 0.0,
        },
    );
    assert_eq!(r.committed + r.aborted, 2_000);
    assert!(r.committed > r.aborted * 3, "{r:?}");
    assert!(r.tps > 0.0);
}

#[test]
fn workload_driver_mixed() {
    for cfg in [
        DbConfig::heterogeneous_serializable().with_snapshot_every(100),
        DbConfig::homogeneous_serializable(),
        DbConfig::homogeneous_snapshot_isolation(),
    ] {
        let t = build(cfg);
        let r = run_workload(
            &t,
            &WorkloadConfig {
                oltp_txns: 1_000,
                olap_txns: 5,
                threads: 2,
                seed: 2,
                think_us: 0.0,
            },
        );
        assert_eq!(r.committed + r.aborted, 1_000);
        assert_eq!(r.olap_done, 5);
    }
}

/// The HTAP mode — updaters committing while detached readers fan scans
/// out over the pool — must complete all scans, keep the updaters
/// committing, and report the fan-out in its scan statistics. The Q6-style
/// revenue must match a sequential (1-thread, no-updater) HTAP run: every
/// query runs on a consistent epoch regardless of concurrent commits.
#[test]
fn htap_driver_runs_parallel_scans_under_updates() {
    let t = build(DbConfig::heterogeneous_serializable().with_snapshot_every(100));
    let quiet = run_htap(
        &t,
        &HtapConfig {
            updaters: 0,
            scan_threads: 1,
            scans: 6,
            seed: 77,
            think_us: 0.0,
        },
    );
    assert_eq!(quiet.scans_done, 6);
    assert_eq!(quiet.stats.threads, 1);
    // Enough scans that the run spans several scheduler quanta — on a
    // single-core host a handful of microsecond-scale scans can finish
    // before the updater threads are ever scheduled.
    let busy = run_htap(
        &t,
        &HtapConfig {
            updaters: 2,
            scan_threads: 3,
            scans: 300,
            seed: 77,
            think_us: 0.0,
        },
    );
    assert_eq!(busy.scans_done, 300);
    assert!(busy.oltp_committed > 0, "updaters must have committed");
    assert!(busy.stats.threads > 1, "scans must have fanned out");
    assert!(busy.stats.morsels >= 300, "each scan processes ≥ 1 morsel");
    // With the updaters stopped the data is quiescent, so two runs with
    // the same seed must agree **bit-for-bit** across thread counts:
    // fold accumulators are per-morsel and merged in morsel order, so
    // even `f64` addition groups identically for any fan-out.
    let mk = |scan_threads| HtapConfig {
        updaters: 0,
        scan_threads,
        scans: 6,
        seed: 77,
        think_us: 0.0,
    };
    let seq = run_htap(&t, &mk(1));
    let par = run_htap(&t, &mk(4));
    assert_eq!(
        seq.revenue.to_bits(),
        par.revenue.to_bits(),
        "morsel-ordered merges must make fold results thread-count-invariant"
    );
}

#[test]
fn latency_driver_runs() {
    let t = build(DbConfig::heterogeneous_serializable().with_snapshot_every(50));
    let r = run_olap_latency(
        &t,
        OlapQuery::Q6,
        &LatencyConfig {
            threads: 2,
            repetitions: 3,
            seed: 4,
        },
    );
    assert_eq!(r.samples.len(), 3);
    assert!(r.mean.as_nanos() > 0);
}

/// Under sustained OLTP pressure with periodic analytics, the
/// heterogeneous database keeps far fewer versions alive (chains are
/// handed to epochs and released when they retire) than the homogeneous
/// one, which accumulates versions until GC runs. `total_versions` counts
/// frozen epoch stores too, so this measures what is actually resident.
#[test]
fn version_accumulation_differs_by_mode() {
    let hetero = build(DbConfig::heterogeneous_serializable().with_snapshot_every(50));
    let homo = build(DbConfig::homogeneous_serializable());
    let mut rng = SmallRng::seed_from_u64(8);
    for round in 0..500 {
        let kind = OltpKind::sample(&mut rng);
        let _ = run_oltp(&hetero, kind, &mut rng);
        let _ = run_oltp(&homo, kind, &mut rng);
        if round % 50 == 49 {
            // Analytics arrivals on the heterogeneous side: scans hand the
            // chains of every touched column over to the pinned epoch.
            let mut txn = hetero.db.begin(TxnKind::Olap);
            for q in [
                OlapQuery::ScanLineitem,
                OlapQuery::ScanOrders,
                OlapQuery::ScanPart,
            ] {
                let _ = queries::scan_table(&hetero, &mut txn, q).unwrap();
            }
            txn.commit().unwrap();
        }
    }
    let hetero_versions = hetero.db.total_versions();
    let homo_versions = homo.db.total_versions();
    assert!(
        hetero_versions < homo_versions,
        "hetero {hetero_versions} !< homo {homo_versions}"
    );
    // Homogeneous GC then clears them.
    homo.db.run_gc_once();
    assert_eq!(homo.db.total_versions(), 0);
}
