//! `htap_hetero` and `htap_homog`: one updater running the nine OLTP
//! transactions against one analyst cycling the seven OLAP transactions,
//! on the paper's heterogeneous configuration and on classical
//! homogeneous MVCC. Same traffic, same rows, different engine paths.

use crate::common::*;
use crate::trace::SpanBuf;
use ankerdb::core::{DurabilityLevel, ProcessingMode, TxnKind, Value};
use ankerdb::tpch::gen::TpchDb;
use ankerdb::tpch::queries::{run_olap, sample_params, OlapParams};
use ankerdb::tpch::OlapQuery;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Instant;

const CLASS_SPANS: [&str; 7] = [
    "tpch.query.q1",
    "tpch.query.q4",
    "tpch.query.q6",
    "tpch.query.q17",
    "tpch.query.scan_lineitem",
    "tpch.query.scan_orders",
    "tpch.query.scan_part",
];

/// Per-layer metric of each class's median, in `OlapQuery::ALL` order.
pub const CLASS_METRICS: [&str; 7] = [
    "tpch.q1_p50_ms",
    "tpch.q4_p50_ms",
    "tpch.q6_p50_ms",
    "tpch.q17_p50_ms",
    "tpch.scan_lineitem_p50_ms",
    "tpch.scan_orders_p50_ms",
    "tpch.scan_part_p50_ms",
];

/// Rows of the table a query class scans (index probes of Q4 and Q17
/// are not scans and do not count).
fn scanned_rows(t: &TpchDb, q: OlapQuery) -> u64 {
    let table = match q {
        OlapQuery::Q1 | OlapQuery::Q6 | OlapQuery::ScanLineitem => t.lineitem,
        OlapQuery::Q4 | OlapQuery::ScanOrders => t.orders,
        OlapQuery::Q17 | OlapQuery::ScanPart => t.part,
    };
    t.db.rows(table) as u64
}

/// The analyst: `begin(TxnKind::Olap)` (the epoch pin in heterogeneous
/// mode), one query, read-only commit; next query only after that.
fn analyst(t: &TpchDb, mut rng: SmallRng, ctl: &Ctl, spans: &mut SpanBuf) -> OlapTally {
    let mut tally = OlapTally::new(OlapQuery::ALL.len());
    let mut op = 0u64;
    let mut round = 0u64;
    loop {
        // Tracing alternates per round, so both modes run the same mix.
        let traced = ctl.trace && round % 2 == 1;
        round += 1;
        let cycle_start = Instant::now();
        let (mut whole, mut done, mut rows) = (true, 0u64, 0u64);
        for (class, &q) in OlapQuery::ALL.iter().enumerate() {
            if ctl.phase() == STOP {
                return tally;
            }
            let params = sample_params(q, &mut rng);
            let t0 = Instant::now();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let mut txn = t.db.begin(TxnKind::Olap);
                let t1 = Instant::now();
                let result = run_olap(t, &mut txn, params);
                let t2 = Instant::now();
                let walks = txn.scan_stats().chain_walks;
                result.and_then(|_| txn.commit()).map(|_| (t1, t2, walks))
            }));
            let t3 = Instant::now();
            op += 1;
            if ctl.phase() != MEASURE {
                whole = false;
                continue;
            }
            tally.attempted += 1;
            match ran {
                Ok(Ok((t1, t2, walks))) => {
                    let ns = (t3 - t0).as_nanos() as u64;
                    tally.queries += 1;
                    done += 1;
                    rows += scanned_rows(t, q);
                    tally.chain_walks += walks;
                    tally.lat.record(ns);
                    tally.pin.record((t1 - t0).as_nanos() as u64);
                    tally.class[class].record(ns);
                    if traced {
                        let cuts = [t0, t1, t2, t3].map(|i| ctl.clock.ns(i));
                        spans.push_op(
                            "olap",
                            op,
                            &["core.snap.pin", CLASS_SPANS[class], "core.txn.commit_ro"],
                            &cuts,
                        );
                    }
                }
                Ok(Err(e)) => {
                    tally.failed += 1;
                    eprintln!("olap query {} failed: {e}", q.name());
                }
                Err(_) => {
                    tally.failed += 1;
                    eprintln!("olap query {} panicked", q.name());
                }
            }
        }
        if whole {
            tally.round(traced, cycle_start.elapsed(), done, rows);
        }
    }
}

/// Output check: with the clients gone, Q6 through the scan path of a
/// fresh OLAP transaction must equal the same transaction's serial
/// recomputation through `Txn::get` — same rows, same order, same sums.
fn q6_matches_serial(t: &TpchDb, rng: &mut SmallRng) -> Result<bool, String> {
    let OlapParams::Q6 {
        year,
        discount,
        qty,
    } = sample_params(OlapQuery::Q6, rng)
    else {
        unreachable!("Q6 samples Q6 parameters");
    };
    let mut txn = t.db.begin(TxnKind::Olap);
    let scanned =
        ankerdb::tpch::queries::q6(t, &mut txn, year, discount, qty).map_err(|e| e.to_string())?;
    let (lo, hi) = (
        ankerdb::tpch::gen::days(year, 1, 1),
        ankerdb::tpch::gen::days(year + 1, 1, 1) - 1,
    );
    let mut serial = 0.0f64;
    for row in 0..t.db.rows(t.lineitem) {
        let mut get = |col| {
            txn.get_value(t.lineitem, col, row)
                .map_err(|e| e.to_string())
        };
        let ship = get(t.li.shipdate)?.as_date();
        let disc = get(t.li.discount)?.as_double();
        let quantity = get(t.li.quantity)?.as_double();
        if (lo..=hi).contains(&ship)
            && (discount - 0.01 - 1e-9..=discount + 0.01 + 1e-9).contains(&disc)
            && quantity < qty
        {
            serial += get(t.li.extendedprice)?.as_double() * disc;
        }
    }
    txn.commit().map_err(|e| e.to_string())?;
    let same = Value::Double(scanned) == Value::Double(serial);
    if !same {
        eprintln!("Q6 scan {scanned} != serial {serial}");
    }
    Ok(same)
}

pub fn run(opts: &Opts, mode: ProcessingMode) -> Outcome {
    let scale = Scale::of(opts);
    let mut out = Outcome::new();
    let (t, setup_s) = timed_setups(scale.setups, || {
        generate(db_config(mode, DurabilityLevel::Off, None), scale.sf_htap)
    });
    out.e2e.set("setup_s", setup_s);
    out.info.push(("scale_factor", scale.sf_htap));
    out.info
        .push(("lineitem_rows", t.db.rows(t.lineitem) as f64));
    out.info.push(("orders_rows", t.db.rows(t.orders) as f64));
    out.info.push(("part_rows", t.db.rows(t.part) as f64));

    let ctl = Ctl::new(opts.trace, scale.warm_s, opts.window_s());
    let mut updater_spans = SpanBuf::new("updater");
    let mut analyst_spans = SpanBuf::new("analyst");
    let (before, began) = (t.db.metrics(), Instant::now());
    let (oltp, olap) = std::thread::scope(|s| {
        // At least one commit completes before the analyst starts.
        let (first_commit, go) = mpsc::channel::<()>();
        let (t, ctl) = (&t, &ctl);
        let (updater_spans, analyst_spans) = (&mut updater_spans, &mut analyst_spans);
        let updater = s.spawn(move || {
            let rng = SmallRng::seed_from_u64(opts.seed);
            oltp_client(t, rng, ctl, updater_spans, move || {
                let _ = first_commit.send(());
            })
        });
        let analyst = s.spawn(move || {
            let _ = go.recv();
            analyst(
                t,
                SmallRng::seed_from_u64(opts.seed ^ 0x0A11),
                ctl,
                analyst_spans,
            )
        });
        ctl.drive();
        (
            updater.join().expect("updater thread"),
            analyst.join().expect("analyst thread"),
        )
    });
    let (after, counted_s) = (t.db.metrics(), began.elapsed().as_secs_f64());
    let n_mappings = mappings();

    out.attempted = oltp.attempted + olap.attempted;
    out.failed = oltp.failed + olap.failed;
    out.set_oltp(&oltp.done, &[ctl.batch_s(); BATCHES]);
    out.set_olap(&olap);

    // Output checks, quiesced.
    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0xC8EC);
    match catch_unwind(AssertUnwindSafe(|| q6_matches_serial(&t, &mut rng))) {
        Ok(Ok(same)) => out.check(
            same,
            "Q6 through the scan path equals its serial recomputation",
        ),
        Ok(Err(e)) => out.check(false, &format!("Q6 check errored: {e}")),
        Err(_) => out.check(false, "Q6 check panicked"),
    }
    let committed = t.db.metrics().counter("db_committed_total").unwrap_or(0);
    out.check(
        committed == oltp.commits_ever,
        &format!(
            "db_committed_total {committed} equals the harness's {} Ok commits",
            oltp.commits_ever
        ),
    );
    out.e2e.set("mem_peak_mb", mem_peak_mb());

    if opts.trace {
        let l = &mut out.layer;
        let counts = crate::probes::commit_window(l, &oltp, (&before, &after), counted_s, false);
        l.set("vmem.os.mappings", n_mappings);
        l.set(
            "mvcc.chain_walks_per_query",
            ratio(olap.chain_walks as f64, olap.queries as f64),
        );
        l.set("mvcc.versions_live_end", t.db.total_versions() as f64);
        l.set("core.snap.pin_us", olap.pin.estimate(0.5) / 1e3);
        l.set("core.snap.pin_p95_us", olap.pin.estimate(0.95) / 1e3);
        for (class, name) in CLASS_METRICS.iter().enumerate() {
            l.set(name, olap.class[class].estimate(0.5) / 1e6);
        }
        crate::probes::write_trace(&opts.workload, &[updater_spans, analyst_spans]);
        drop(t);
        crate::probes::run_all(
            &mut out,
            scale.sf_htap,
            crate::probes::Model::Commit(counts),
        );
    }
    out
}
