//! `oltp_fsync`: two committers on a durable heterogeneous database at
//! `DurabilityLevel::Fsync`, checkpoints at ⅓ and ⅔ of the window, then
//! a crash and recovery sized in fixed work: one checkpoint plus exactly
//! [`Scale::tail_commits`] commits, however fast the window ran.

use crate::common::*;
use crate::scans::{self, Lineitem, ScanParams};
use crate::trace::{SpanBuf, NO_PARENT};
use ankerdb::core::{AnkerDb, DurabilityLevel, ProcessingMode, TxnKind};
use ankerdb::tpch::gen::TpchDb;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn config(dir: &Path) -> ankerdb::core::DbConfig {
    db_config(
        ProcessingMode::Heterogeneous,
        DurabilityLevel::Fsync,
        Some(dir.to_path_buf()),
    )
}

/// Wrapping checksum of every word of every table, read through the
/// versioned scan path of an OLTP-kind transaction so it sees the live
/// data, not a snapshot up to 2 000 commits old.
fn full_checksum(db: &AnkerDb) -> Result<u64, String> {
    let mut sum = 0u64;
    for name in ["lineitem", "orders", "part"] {
        let table = db
            .table_id(name)
            .ok_or_else(|| format!("table {name} missing"))?;
        let cols: Vec<_> = db.schema(table).iter().map(|(id, _)| id).collect();
        let mut txn = db.begin(TxnKind::Oltp);
        txn.scan_on(table)
            .project(&cols)
            .for_each(|row, words| {
                for &w in words {
                    sum = sum.wrapping_mul(31).wrapping_add(w ^ row as u64);
                }
            })
            .map_err(|e| e.to_string())?;
        txn.commit().map_err(|e| e.to_string())?;
    }
    Ok(sum)
}

/// The harness thread's two checkpoints, at ⅓ and ⅔ of the window.
fn checkpointer(db: &AnkerDb, ctl: &Ctl, warm_s: f64, window_s: f64, spans: &mut SpanBuf) -> u64 {
    let start = Instant::now();
    let mut failed = 0;
    for (i, share) in [1.0 / 3.0, 2.0 / 3.0].into_iter().enumerate() {
        let due = Duration::from_secs_f64(warm_s + window_s * share);
        std::thread::sleep(due.saturating_sub(start.elapsed()));
        if ctl.phase() == STOP {
            break;
        }
        let t0 = Instant::now();
        ctl.in_ckpt.store(true, Ordering::Relaxed);
        let res = db.checkpoint();
        ctl.in_ckpt.store(false, Ordering::Relaxed);
        let (a, b) = (ctl.clock.ns(t0), ctl.clock.ns(Instant::now()));
        let root = spans.push("checkpoint", NO_PARENT, i as u64, a, b);
        spans.push("dura.checkpoint", root, i as u64, a, b);
        if let Err(e) = res {
            eprintln!("checkpoint failed: {e}");
            failed += 1;
        }
    }
    failed
}

/// Commit on this thread until the commit path triggers a snapshot epoch.
/// `checkpoint()` images the newest epoch, which may trail the log by up
/// to [`SNAPSHOT_EVERY`] commits; a checkpoint taken right after a
/// trigger is cut at the newest commit, so recovery replays exactly the
/// tail and `recover_s` measures the same work on every run.
fn settle_epoch(t: &TpchDb, seed: u64) -> OltpTally {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E77);
    let mut tally = OltpTally::default();
    let epochs = || {
        t.db.metrics()
            .counter("db_epochs_triggered_total")
            .unwrap_or(0)
    };
    let before = epochs();
    for _ in 0..2 * SNAPSHOT_EVERY {
        tally.attempted += 1;
        if oltp_op(t, &mut rng, &mut tally, None).is_none() {
            tally.failed += 1;
        }
        if epochs() > before {
            break;
        }
    }
    tally
}

/// Exactly `n` commits from two committers, untimed.
fn tail_commits(t: &TpchDb, seed: u64, n: u64) -> OltpTally {
    let next = AtomicU64::new(0);
    let mut total = OltpTally::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u64)
            .map(|w| {
                let next = &next;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (0x7A11 + w));
                    let mut tally = OltpTally::default();
                    while next.fetch_add(1, Ordering::Relaxed) < n {
                        tally.attempted += 1;
                        if oltp_op(t, &mut rng, &mut tally, None).is_none() {
                            tally.failed += 1;
                        }
                    }
                    tally
                })
            })
            .collect();
        for w in workers {
            total.merge(&w.join().expect("tail committer"));
        }
    });
    total
}

pub fn run(opts: &Opts) -> Outcome {
    let scale = Scale::of(opts);
    let mut out = Outcome::new();
    let dir = ScratchDir::new("fsync");
    let (t, setup_s) = timed_setups(scale.setups, || {
        dir.reset();
        let t = generate(config(&dir.0), scale.sf_htap);
        t.db.checkpoint().expect("initial checkpoint");
        t
    });
    out.e2e.set("setup_s", setup_s);
    let rows = t.db.rows(t.lineitem);
    out.info.push(("scale_factor", scale.sf_htap));
    out.info.push(("lineitem_rows", rows as f64));
    out.info.push(("tail_commits", scale.tail_commits as f64));

    let window = opts.window_s();
    let mut spans = [
        SpanBuf::new("committer-0"),
        SpanBuf::new("committer-1"),
        SpanBuf::new("harness"),
    ];
    let ctl = Ctl::new(opts.trace, scale.warm_s, window);
    let (before, began) = (t.db.metrics(), Instant::now());
    let (oltp, ckpt_failures) = std::thread::scope(|s| {
        let [s0, s1, sh] = &mut spans;
        let (t, ctl) = (&t, &ctl);
        let committers: Vec<_> = [s0, s1]
            .into_iter()
            .enumerate()
            .map(|(w, buf)| {
                s.spawn(move || {
                    let rng = SmallRng::seed_from_u64(opts.seed ^ ((w as u64) << 32));
                    oltp_client(t, rng, ctl, buf, || {})
                })
            })
            .collect();
        let ckpt = s.spawn(move || checkpointer(&t.db, ctl, scale.warm_s, window, sh));
        ctl.drive();
        let mut oltp = OltpTally::default();
        for c in committers {
            oltp.merge(&c.join().expect("committer thread"));
        }
        (oltp, ckpt.join().expect("checkpoint thread"))
    });
    let (after, counted_s) = (t.db.metrics(), began.elapsed().as_secs_f64());
    let n_mappings = mappings();
    out.check(ckpt_failures == 0, "both in-window checkpoints succeeded");
    out.set_oltp(&oltp.done, &[ctl.batch_s(); BATCHES]);

    // Fixed recovery work: one checkpoint, then exactly `tail_commits`.
    let mut tail = settle_epoch(&t, opts.seed);
    out.check(t.db.checkpoint().is_ok(), "final checkpoint succeeded");
    tail.merge(&tail_commits(&t, opts.seed, scale.tail_commits));
    out.attempted = oltp.attempted + tail.attempted;
    out.failed = oltp.failed + tail.failed;
    let committed = t.db.metrics().counter("db_committed_total").unwrap_or(0);
    out.check(
        committed == oltp.commits_ever + tail.commits_ever,
        &format!(
            "db_committed_total {committed} equals the harness's {} Ok commits",
            oltp.commits_ever + tail.commits_ever
        ),
    );
    let live = full_checksum(&t.db);
    out.check(live.is_ok(), "pre-crash checksum computed");
    // The crash: every handle goes, nothing is checkpointed or flushed by
    // the harness. (At `Fsync` each acknowledged commit is already on
    // disk; that is the contract recovery is checked against.)
    drop(t);

    let mut open_s = Vec::new();
    let mut recovered = None;
    for _ in 0..scale.recover_opens {
        drop(recovered.take());
        let t0 = Instant::now();
        match AnkerDb::open(&dir.0, config(&dir.0)) {
            Ok(db) => {
                open_s.push(t0.elapsed().as_secs_f64());
                recovered = Some(db);
            }
            Err(e) => {
                out.check(
                    false,
                    &format!("AnkerDb::open on the crashed directory: {e}"),
                );
                break;
            }
        }
    }
    let recover_s = median(&mut open_s);
    out.info.push(("recover_s", recover_s));
    out.layer.set("dura.recover_s", recover_s);

    let mut epilogue = OlapTally::new(scans::QUERIES.len());
    if let Some(db) = &recovered {
        let report = db.recovery_report();
        out.check(
            report.is_some_and(|r| r.commits_replayed == scale.tail_commits && !r.torn_tail),
            &format!(
                "recovery replayed exactly {} commits, no torn tail: {report:?}",
                scale.tail_commits
            ),
        );
        out.check(
            live.is_ok() && full_checksum(db) == live,
            "full-table checksum after reopen equals the pre-crash one",
        );
        if !opts.trace {
            // Epilogue: the side this workload leaves idle, measured
            // unloaded — the scan list on the recovered database.
            let li = Lineitem::of(db);
            let params = ScanParams::sample(&mut SmallRng::seed_from_u64(opts.seed ^ 0x5CA9));
            match db.snapshot_reader() {
                Ok(reader) => match scans::reference(&reader, &li, &params) {
                    Ok(want) => {
                        let job = scans::Job {
                            reader: &reader,
                            table: &li,
                            params: &params,
                            want: &want,
                            threads: 1,
                        };
                        epilogue = scans::analyst(
                            &job,
                            None,
                            Some(scale.epilogue_rounds),
                            &mut SpanBuf::new("unused"),
                        );
                        out.set_olap(&epilogue);
                    }
                    Err(e) => out.check(
                        false,
                        &format!("reference answers on the recovered database: {e}"),
                    ),
                },
                Err(e) => out.check(
                    false,
                    &format!("snapshot reader on the recovered database: {e}"),
                ),
            }
        }
    }
    out.attempted += epilogue.attempted;
    out.failed += epilogue.failed;
    out.e2e.set("mem_peak_mb", mem_peak_mb());

    if opts.trace {
        let l = &mut out.layer;
        let counts = crate::probes::commit_window(l, &oltp, (&before, &after), counted_s, true);
        let records = delta(&before, &after, "wal_commit_records_total");
        l.set("vmem.os.mappings", n_mappings);
        l.set("dura.batch_factor", ratio(records, counts.wal_syncs));
        l.set(
            "dura.bytes_per_commit",
            ratio(delta(&before, &after, "wal_bytes_appended_total"), records),
        );
        l.set(
            "dura.ckpt_commit_p99_ratio",
            ratio(
                oltp.lat_in_ckpt.estimate(0.99),
                oltp.lat_out_ckpt.estimate(0.99),
            ),
        );
        crate::probes::write_trace(&opts.workload, &spans);
        drop(recovered);
        drop(dir);
        crate::probes::run_all(
            &mut out,
            scale.sf_htap,
            crate::probes::Model::Commit(counts),
        );
    }
    out
}
