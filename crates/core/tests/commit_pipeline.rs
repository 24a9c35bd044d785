//! Deterministic-interleaving tests of the concurrent commit pipeline.
//!
//! Each test pins one historically racy schedule with [`anker_util::sched`]
//! sync points instead of hoping a loop reopens the window:
//!
//! 1. **Write skew across validation shards** — two committers whose
//!    read/write footprints cross two different validation shards both
//!    reach validation with latches held; exactly one must abort.
//! 2. **Out-of-order install** — a committer with a *smaller* timestamp
//!    parks mid-install while a larger one completes; new readers must
//!    see neither commit until the watermark covers both.
//! 3. **WAL append vs. group-commit rotation** — a checkpoint rotates
//!    and retires segments between a committer's append and its fsync;
//!    the commit must survive a crash.
//!
//! Plus the fairness regression (a slow WAL fsync must not block
//! snapshot-reader creation), a deterministic conflict-repair schedule,
//! the repair-snapshot regression (a commit completing during the
//! conflict wait must not escape revalidation), the epoch cut at a
//! commit boundary (an OLAP arrival waits for a heterogeneous committer
//! to leave the commit section, and its epoch contains the commit), and
//! the remaining freezer (the homogeneous GC pass completes against a
//! shard-holding committer blocked on its freeze and an in-flight
//! pruner). The gate is process-global, so every test here serializes
//! on [`GATE_MX`].

mod common;

use anker_core::{AbortReason, AnkerDb, DbConfig, DbError, DurabilityLevel, TxnKind, Value};
use anker_util::sched::{self, SchedCtl};
use common::{backends, dump_col, one_col_db, one_col_table, tmp_dir};
use std::sync::Mutex;

/// Sync points are process-global state: one controller at a time.
static GATE_MX: Mutex<()> = Mutex::new(());

fn gate_lock() -> std::sync::MutexGuard<'static, ()> {
    GATE_MX.lock().unwrap_or_else(|e| e.into_inner())
}

/// Race 1: the sharded validator must still serialize logically across
/// shards. A reads table `t2` and writes `t1`; B reads `t1` and writes
/// `t2` (the tables land on different validation shards). Both run to
/// their install latches before either validates — under a per-table
/// validator that locked only its own write shard, both would validate
/// against an empty shard and commit, committing textbook write skew.
/// The pipeline locks the union of write and predicate shards, so
/// exactly one side must abort — deterministically, on every backend,
/// in both processing modes.
#[test]
fn write_skew_across_validation_shards_aborts_exactly_one() {
    for backend in backends() {
        for hetero in [false, true] {
            let _g = gate_lock();
            let config = if hetero {
                DbConfig::heterogeneous_serializable().with_snapshot_every(4)
            } else {
                DbConfig::homogeneous_serializable()
            };
            let db = AnkerDb::new(config.with_gc_interval(None).with_backend(backend));
            let mk = |name: &str| {
                let t = db
                    .create_table(
                        name,
                        anker_core::Schema::new(vec![anker_core::ColumnDef::new(
                            "v",
                            anker_core::LogicalType::Int,
                        )]),
                        4,
                    )
                    .unwrap();
                let c = db.schema(t).col("v");
                db.fill_column(t, c, 0..4u64).unwrap();
                (t, c)
            };
            let (t1, c1) = mk("t1");
            let (t2, c2) = mk("t2");
            assert_ne!(
                anker_mvcc::RecentCommits::shard_of(t1.0),
                anker_mvcc::RecentCommits::shard_of(t2.0),
                "the two tables must land on different validation shards"
            );

            let ctl = SchedCtl::install();
            ctl.pause("commit:latched");
            let (ra, rb) = std::thread::scope(|s| {
                let a = s.spawn(|| {
                    let mut txn = db.begin(TxnKind::Oltp);
                    let v = txn.get(t2, c2, 0).unwrap();
                    txn.update(t1, c1, 0, v + 100).unwrap();
                    txn.commit()
                });
                let b = s.spawn(|| {
                    let mut txn = db.begin(TxnKind::Oltp);
                    let v = txn.get(t1, c1, 0).unwrap();
                    txn.update(t2, c2, 0, v + 200).unwrap();
                    txn.commit()
                });
                // Both sides hold their install latches; neither has
                // validated. Note the *reads* cross the latches (B reads
                // the row A holds latched, and vice versa): latch-ignoring
                // reads are load-bearing here — a reader that waited on
                // PENDING would deadlock against this very schedule.
                ctl.await_parked("commit:latched", 2);
                ctl.resume("commit:latched");
                (a.join().unwrap(), b.join().unwrap())
            });
            drop(ctl);

            let (committed, aborted) = match (&ra, &rb) {
                (Ok(_), Err(e)) => (1, e),
                (Err(e), Ok(_)) => (2, e),
                other => panic!(
                    "exactly one of the write-skew pair must commit \
                     (backend {backend:?}, hetero {hetero}): {other:?}"
                ),
            };
            assert!(
                matches!(
                    aborted,
                    DbError::Aborted(AbortReason::ValidationFailed { .. })
                ),
                "the loser must fail read validation, got {aborted:?}"
            );
            // The surviving state is one of the two serial outcomes.
            let mut txn = db.begin(TxnKind::Oltp);
            let (v1, v2) = (txn.get(t1, c1, 0).unwrap(), txn.get(t2, c2, 0).unwrap());
            txn.abort();
            if committed == 1 {
                assert_eq!((v1, v2), (100, 0));
            } else {
                assert_eq!((v1, v2), (0, 200));
            }
        }
    }
}

/// Race 2: installs land physically out of timestamp order, and the
/// stable-timestamp watermark must hide them until the *full prefix* is
/// in. Committer A draws the smaller timestamp and parks after
/// installing but before completing; B (larger timestamp) installs and
/// completes. A reader opened now would, under a naive
/// `next_commit - 1` snapshot, see B's write without A's — a torn,
/// non-serial state. With watermark gating it sees neither.
///
/// Runs under homogeneous snapshot isolation: no validation shards, so
/// both committers move through the pipeline without serializing on
/// anything but the oracle — the purest out-of-order install.
#[test]
fn out_of_order_install_is_invisible_until_the_watermark_covers_it() {
    for backend in backends() {
        let _g = gate_lock();
        let (db, t, c) = one_col_db(
            DbConfig::homogeneous_snapshot_isolation().with_backend(backend),
            8,
        );

        let ctl = SchedCtl::install();
        ctl.pause("commit:validate");
        ctl.pause_label("commit:installed", "slow");
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                sched::set_label(Some("slow"));
                let mut txn = db.begin(TxnKind::Oltp);
                txn.update(t, c, 0, 100).unwrap();
                txn.commit().unwrap()
            });
            // A has drawn its commit timestamp once it parks.
            ctl.await_parked("commit:validate", 1);
            let b = s.spawn(|| {
                let mut txn = db.begin(TxnKind::Oltp);
                txn.update(t, c, 1, 200).unwrap();
                txn.commit().unwrap()
            });
            ctl.await_parked("commit:validate", 2);
            // Let both continue; B runs to completion, A parks with its
            // row installed but its commit not yet completed.
            ctl.resume("commit:validate");
            let ts_b = b.join().unwrap();
            ctl.await_parked("commit:installed", 1);

            // Both rows are physically written (A's under ts_a < ts_b,
            // B's completed), yet the watermark sits below ts_a: a new
            // reader must see the pre-commit values of *both* rows,
            // through the version chains.
            let mut r = db.begin(TxnKind::Oltp);
            assert!(r.start_ts() < ts_b, "watermark is gated by A");
            assert_eq!(r.get(t, c, 0).unwrap(), 0, "A's install is hidden");
            assert_eq!(r.get(t, c, 1).unwrap(), 1, "B's commit is hidden too");
            r.abort();

            ctl.resume("commit:installed");
            let ts_a = a.join().unwrap();
            assert!(ts_a < ts_b, "A drew the smaller timestamp");

            // Watermark now covers both: a new reader sees both commits.
            let mut r = db.begin(TxnKind::Oltp);
            assert!(r.start_ts() >= ts_b);
            assert_eq!(r.get(t, c, 0).unwrap(), 100);
            assert_eq!(r.get(t, c, 1).unwrap(), 200);
            r.abort();
        });
        drop(ctl);
    }
}

/// Race 3: a checkpoint rotates the WAL and retires covered segments in
/// the window between a committer's append and its group-commit fsync.
/// The committer's `sync_to` must still succeed (rotation closes and
/// syncs the old segment, so the LSN is already durable), and after a
/// crash the commit must be recovered — from the checkpoint that covered
/// it.
#[test]
fn wal_append_vs_checkpoint_rotation_survives_a_crash() {
    for backend in backends() {
        let _g = gate_lock();
        let dir = tmp_dir(&format!("rotate-{backend:?}"));
        let cfg = DbConfig::heterogeneous_serializable()
            .with_snapshot_every(1)
            .with_gc_interval(None)
            .with_backend(backend)
            .with_durability(DurabilityLevel::Fsync);
        let (t, c) = {
            let db = AnkerDb::open(&dir, cfg.clone()).unwrap();
            let (t, c) = one_col_table(&db, 16);
            let mut txn = db.begin(TxnKind::Oltp);
            txn.update(t, c, 0, 11).unwrap();
            txn.commit().unwrap();

            let ctl = SchedCtl::install();
            ctl.pause("commit:pre-fsync");
            std::thread::scope(|s| {
                let committer = s.spawn(|| {
                    let mut txn = db.begin(TxnKind::Oltp);
                    txn.update(t, c, 2, 777).unwrap();
                    txn.commit().unwrap()
                });
                // The committer has appended, installed and completed, but
                // not yet synced. Rotate the log underneath it.
                ctl.await_parked("commit:pre-fsync", 1);
                let segments = || common::counter(&db, "wal_segments_created_total");
                let before = segments();
                db.checkpoint().unwrap();
                assert!(
                    segments() > before || cfg!(feature = "obs-off"),
                    "the checkpoint must have rotated the WAL"
                );
                ctl.resume("commit:pre-fsync");
                committer.join().unwrap();
            });
            drop(ctl);
            (t, c)
            // Crash: drop without shutdown.
        };
        let db = AnkerDb::open(&dir, cfg).unwrap();
        let mut txn = db.begin(TxnKind::Oltp);
        assert_eq!(
            txn.get_value(t, c, 2).unwrap(),
            Value::Int(777),
            "the commit that raced the rotation must survive the crash \
             (backend {backend:?})"
        );
        assert_eq!(txn.get_value(t, c, 0).unwrap(), Value::Int(11));
        txn.abort();
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Fairness regression: the old commit section covered the WAL fsync, so
/// one committer stuck in `fdatasync` blocked `snapshot_reader()` (which
/// needs the commit lock to pin an epoch) for the full sync latency. The
/// pipeline syncs outside every lock; a reader opened while a committer
/// is mid-fsync must come up immediately.
#[test]
fn slow_wal_fsync_does_not_block_snapshot_readers() {
    let _g = gate_lock();
    let dir = tmp_dir("fsync-reader");
    let cfg = DbConfig::heterogeneous_serializable()
        .with_snapshot_every(1)
        .with_gc_interval(None)
        .with_durability(DurabilityLevel::Fsync);
    let db = AnkerDb::open(&dir, cfg).unwrap();
    let (t, c) = one_col_table(&db, 8);
    let mut txn = db.begin(TxnKind::Oltp);
    txn.update(t, c, 0, 5).unwrap();
    txn.commit().unwrap();

    let ctl = SchedCtl::install();
    ctl.pause("commit:pre-fsync");
    std::thread::scope(|s| {
        let committer = s.spawn(|| {
            let mut txn = db.begin(TxnKind::Oltp);
            txn.update(t, c, 1, 6).unwrap();
            txn.commit().unwrap()
        });
        ctl.await_parked("commit:pre-fsync", 1);
        // The committer is parked "inside its fsync". Reader creation
        // must not wait for it; a bounded-channel handshake turns a
        // regression into a test failure instead of a hang.
        let (tx, rx) = std::sync::mpsc::channel();
        let db2 = db.clone();
        let reader = s.spawn(move || {
            let r = db2.snapshot_reader();
            tx.send(()).unwrap();
            r.unwrap()
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("snapshot_reader() blocked behind a committer's WAL fsync");
        let reader = reader.join().unwrap();
        // The reader pinned a consistent epoch: row 0's committed value,
        // and a stable view regardless of the in-flight commit.
        assert_eq!(reader.get(t, c, 0).unwrap(), 5);
        ctl.resume("commit:pre-fsync");
        committer.join().unwrap();
    });
    drop(ctl);
    db.shutdown();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression for a conflict-repair serializability hole: after a failed
/// validation the transaction used to advance its snapshot to the
/// *current watermark* instead of the youngest conflictor. A commit that
/// published after the transaction's shard locks dropped and completed
/// before the repair read could then land at-or-below the new snapshot —
/// the next round's validation (which only scans commits younger than
/// the snapshot) never saw it, and the repair closure never re-read its
/// keys: a commit with stale reads. The schedule:
///
///   T    reads rows 0 and 1, writes row 2 = 100·r0 + 10·r1
///   B1   overwrites row 0 while T holds its install latches
///        → T's round-1 conflict
///   B2   reads row 2, overwrites row 1, and *completes* while T is
///        parked between its validation failure and its snapshot advance
///
/// B2 read row 2 before T wrote it (B2 before T) and, with a stale
/// row 1, T read row 1 before B2 wrote it (T before B2): committing
/// `100·5 + 10·1 = 510` matches no serial order of {B1, B2, T}. Pinning
/// the new snapshot at the youngest round-1 conflictor keeps B2 above
/// it, so round 2 must flag row 1 and repair it too → 570.
#[test]
fn repair_revalidates_commits_published_during_the_conflict_wait() {
    let _g = gate_lock();
    let (db, t, c) = one_col_db(DbConfig::homogeneous_serializable(), 8);

    let ctl = SchedCtl::install();
    ctl.pause_label("commit:latched", "repairer");
    ctl.pause("repair:conflict");
    let (result, b2_read) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            sched::set_label(Some("repairer"));
            let mut txn = db.begin(TxnKind::Oltp);
            let mut r0 = txn.get(t, c, 0).unwrap();
            let mut r1 = txn.get(t, c, 1).unwrap();
            txn.update(t, c, 2, 100 * r0 + 10 * r1).unwrap();
            txn.commit_with_repair(3, |tx, conflicts| {
                // Re-read exactly the flagged keys (the documented
                // contract); every other read keeps its cached value.
                for cf in conflicts {
                    for &(tt, cc, row) in &cf.keys {
                        let fresh = tx.get(tt, cc, row)?;
                        match row {
                            0 => r0 = fresh,
                            1 => r1 = fresh,
                            _ => unreachable!("only rows 0 and 1 are read"),
                        }
                    }
                }
                tx.update(t, c, 2, 100 * r0 + 10 * r1)
            })
        });
        ctl.await_parked("commit:latched", 1);
        // B1 invalidates T's read of row 0 → the round-1 conflict.
        let mut b1 = db.begin(TxnKind::Oltp);
        b1.update(t, c, 0, 5).unwrap();
        b1.commit().unwrap();
        ctl.resume("commit:latched");
        // T has failed validation and released its shard locks and
        // latches, but not yet advanced its snapshot. B2 publishes and
        // completes inside exactly that window.
        ctl.await_parked("repair:conflict", 1);
        let mut b2 = db.begin(TxnKind::Oltp);
        let b2_read = b2.get(t, c, 2).unwrap();
        b2.update(t, c, 1, 7).unwrap();
        b2.commit().unwrap();
        ctl.release("repair:conflict", 1);
        // Round 2 must flag B2's overwrite of row 1; T parks here again.
        ctl.await_parked("repair:conflict", 1);
        ctl.resume("repair:conflict");
        (a.join().unwrap(), b2_read)
    });
    drop(ctl);

    result.expect("two repair rounds must converge");
    assert_eq!(b2_read, 2, "B2 observed row 2 before T's write");
    #[cfg(not(feature = "obs-off"))]
    {
        assert_eq!(
            common::counter(&db, "db_repair_rounds_total"),
            2,
            "B2's overwrite must cost a round"
        );
        assert_eq!(common::counter(&db, "db_repaired_commits_total"), 1);
    }
    assert_eq!(
        dump_col(&db, t, c, 8)[2],
        100 * 5 + 10 * 7,
        "the committed write must fold in BOTH overwrites; 510 would mean \
         B2 escaped revalidation and T committed a stale row 1"
    );
}

/// Epoch cuts at a commit boundary: a heterogeneous committer holds the
/// commit section from its shard locks through completion, so an OLAP
/// arrival that needs a new epoch waits for the section and cuts after
/// the commit settles — never in the middle of one. Park the committer
/// between its WAL append and its install (timestamp drawn, nothing
/// installed): the reader must stay blocked while it is parked, and the
/// epoch it then gets must contain the commit.
#[test]
fn olap_arrival_waits_out_a_committer_inside_the_commit_section() {
    let _g = gate_lock();
    let (db, t, c) = one_col_db(
        DbConfig::heterogeneous_serializable()
            .with_snapshot_every(1)
            .with_gc_interval(None),
        8,
    );

    let ctl = SchedCtl::install();
    ctl.pause("commit:logged");
    std::thread::scope(|s| {
        let committer = s.spawn(|| {
            let mut txn = db.begin(TxnKind::Oltp);
            txn.update(t, c, 0, 42).unwrap();
            txn.commit().unwrap()
        });
        ctl.await_parked("commit:logged", 1);
        let reader = s.spawn(|| db.snapshot_reader().unwrap());
        // No epoch exists yet, so the reader must cut one — and the
        // section it needs is held by the parked committer.
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Resume before asserting, so a regression fails instead of
        // hanging the scope on the parked committer.
        let cut_mid_commit = reader.is_finished();
        ctl.resume("commit:logged");
        let commit_ts = committer.join().unwrap();
        let reader = reader.join().unwrap();
        assert!(
            !cut_mid_commit,
            "an epoch was cut while a commit was in flight"
        );
        assert!(reader.epoch_ts() >= commit_ts);
        assert_eq!(
            reader.get(t, c, 0).unwrap(),
            42,
            "the epoch must contain the commit it waited for"
        );
    });
    drop(ctl);
}

/// The one remaining commit freezer — the homogeneous GC pass — against
/// a committer holding validation shards and an in-flight pruner.
///
/// Committer C (on table `t1`, the 128th commit, so it prunes) has drawn
/// its timestamp and parks at `commit:validate` with its shard held.
/// Committer B (on table `t2`, another shard) parks at `commit:shards`
/// with its shard held and no timestamp. The GC pass takes the commit
/// section, freezes allocation and parks at `gc:frozen`. Released, B
/// blocks in `begin_commit` *still holding its shard*; C validates,
/// logs, installs and completes without the section, then waits for it
/// to prune. The pass drains (C has completed), unfreezes, and prunes
/// across every shard once B has committed and let go of its own. All
/// three must finish, which holds only while no committer needs the
/// freezer's commit section before it completes.
#[test]
fn gc_freeze_vs_shard_held_committer_vs_pruner() {
    let _g = gate_lock();
    let db = AnkerDb::new(DbConfig::homogeneous_serializable().with_gc_interval(None));
    let mk = |name: &str| {
        let t = db
            .create_table(
                name,
                anker_core::Schema::new(vec![anker_core::ColumnDef::new(
                    "v",
                    anker_core::LogicalType::Int,
                )]),
                8,
            )
            .unwrap();
        let c = db.schema(t).col("v");
        db.fill_column(t, c, 0..8u64).unwrap();
        (t, c)
    };
    let (t1, c1) = mk("t1");
    let (t2, c2) = mk("t2");
    assert_ne!(
        anker_mvcc::RecentCommits::shard_of(t1.0),
        anker_mvcc::RecentCommits::shard_of(t2.0),
        "the two tables must land on different validation shards"
    );
    // Run the prune tick up to 127: the next commit to complete is the
    // 128th and prunes under the commit section.
    for i in 0..127u32 {
        let mut txn = db.begin(TxnKind::Oltp);
        txn.update(t1, c1, i % 8, i as u64).unwrap();
        txn.commit().unwrap();
    }

    let ctl = SchedCtl::install();
    ctl.pause_label("commit:validate", "pruner");
    ctl.pause_label("commit:shards", "blocked");
    ctl.pause("gc:frozen");
    std::thread::scope(|s| {
        let pruner = s.spawn(|| {
            sched::set_label(Some("pruner"));
            let mut txn = db.begin(TxnKind::Oltp);
            txn.update(t1, c1, 0, 1_000).unwrap();
            txn.commit().unwrap()
        });
        ctl.await_parked("commit:validate", 1);
        let blocked = s.spawn(|| {
            sched::set_label(Some("blocked"));
            let mut txn = db.begin(TxnKind::Oltp);
            txn.update(t2, c2, 1, 2_000).unwrap();
            txn.commit().unwrap()
        });
        ctl.await_parked("commit:shards", 1);
        let gc = s.spawn(|| db.run_gc_once());
        ctl.await_parked("gc:frozen", 1);

        // B runs into the freeze holding its shard; C completes and
        // queues for the section behind the pass.
        ctl.resume("commit:shards");
        ctl.resume("commit:validate");
        std::thread::sleep(std::time::Duration::from_millis(20));
        ctl.resume("gc:frozen");
        gc.join().unwrap();
        let ts_c = pruner.join().unwrap();
        let ts_b = blocked.join().unwrap();
        assert!(ts_c < ts_b, "B drew its timestamp after the freeze");
    });
    drop(ctl);
    assert_eq!(dump_col(&db, t1, c1, 8)[0], 1_000);
    assert_eq!(dump_col(&db, t2, c2, 8)[1], 2_000);
}

/// Deterministic conflict repair: A reads row 0 and writes
/// `10 × row0` to row 1; B overwrites row 0 while A is parked at its
/// install latches. Plain `commit()` must abort A; `commit_with_repair`
/// must re-read row 0, recompute, and commit — converting the
/// validation failure into a commit, visible in the stats.
#[test]
fn bounded_conflict_repair_converts_a_pinned_validation_failure() {
    for repair in [false, true] {
        let _g = gate_lock();
        let (db, t, c) = one_col_db(DbConfig::homogeneous_serializable(), 8);

        let ctl = SchedCtl::install();
        ctl.pause_label("commit:latched", "repairer");
        let result = std::thread::scope(|s| {
            let a = s.spawn(|| {
                sched::set_label(Some("repairer"));
                let mut txn = db.begin(TxnKind::Oltp);
                let v = txn.get(t, c, 0).unwrap();
                txn.update(t, c, 1, v * 10).unwrap();
                if repair {
                    txn.commit_with_repair(2, |tx, conflicts| {
                        assert_eq!(conflicts.len(), 1);
                        assert!(conflicts[0].keys.contains(&(t, c, 0)));
                        let fresh = tx.get(t, c, 0)?;
                        tx.update(t, c, 1, fresh * 10)
                    })
                } else {
                    txn.commit()
                }
            });
            ctl.await_parked("commit:latched", 1);
            // B commits an update of A's read set while A holds only its
            // install latch on row 1 (disjoint — no latch conflict).
            let mut b = db.begin(TxnKind::Oltp);
            b.update(t, c, 0, 5).unwrap();
            b.commit().unwrap();
            ctl.resume("commit:latched");
            a.join().unwrap()
        });
        drop(ctl);

        let outcome = ["repaired_commits", "repair_rounds", "aborted_validation"]
            .map(|n| common::counter(&db, &format!("db_{n}_total")));
        if repair {
            result.expect("repair must convert the validation failure");
            assert!(
                outcome == [1, 1, 0] || cfg!(feature = "obs-off"),
                "{outcome:?}"
            );
            assert_eq!(
                dump_col(&db, t, c, 8)[1],
                50,
                "the repaired write must reflect the re-read value"
            );
        } else {
            assert!(
                matches!(
                    result,
                    Err(DbError::Aborted(AbortReason::ValidationFailed { .. }))
                ),
                "without repair the same schedule must abort: {result:?}"
            );
            assert!(
                outcome == [0, 0, 1] || cfg!(feature = "obs-off"),
                "{outcome:?}"
            );
            assert_eq!(dump_col(&db, t, c, 8)[1], 1, "A's write must not land");
        }
    }
}

/// The publication/visibility gap: `commit:pre-install` parks a committer
/// A *after* its commit record is published to the validation shards and
/// the shard locks are dropped, but *before* anything installs. Two
/// things must hold in that window:
///
/// 1. A's write is invisible — a fresh reader sees the old value (the
///    watermark, not record publication, gates visibility);
/// 2. A's record already validates against others — a transaction B that
///    read A's target row before the window closes must fail plain
///    serializable validation once A completes, even though B's read
///    never observed an installed effect of A.
///
/// Under a pipeline that published records late (after install) the same
/// schedule would let B commit — textbook lost read validation.
#[test]
fn published_but_uninstalled_commit_validates_but_stays_invisible() {
    for backend in backends() {
        let _g = gate_lock();
        let (db, t, c) = one_col_db(
            DbConfig::homogeneous_serializable().with_backend(backend),
            4,
        );

        let ctl = SchedCtl::install();
        ctl.pause("commit:pre-install");
        let result = std::thread::scope(|s| {
            let a = s.spawn(|| {
                let mut txn = db.begin(TxnKind::Oltp);
                txn.update(t, c, 0, 42).unwrap();
                txn.commit()
            });
            ctl.await_parked("commit:pre-install", 1);

            // (1) Published is not visible: A's record sits in the
            // validation shards, its install latch is still held, and a
            // latch-ignoring reader must get the pre-commit value.
            let mut r = db.begin(TxnKind::Oltp);
            assert_eq!(r.get(t, c, 0).unwrap(), 0, "uninstalled commit leaked");
            r.abort();

            // (2) B reads A's target inside the window...
            let mut b = db.begin(TxnKind::Oltp);
            assert_eq!(b.get(t, c, 0).unwrap(), 0);
            b.update(t, c, 1, 7).unwrap();

            ctl.release("commit:pre-install", 1);
            a.join().unwrap().expect("A must commit");

            // ...and must now fail validation against A's record.
            b.commit()
        });
        drop(ctl);

        assert!(
            matches!(
                result,
                Err(DbError::Aborted(AbortReason::ValidationFailed { .. }))
            ),
            "B read a row A overwrote and must abort, got {result:?}"
        );
        assert_eq!(dump_col(&db, t, c, 4), vec![42, 1, 2, 3]);
    }
}
