//! Versioned block gathers racing installs at a moving snapshot timestamp.
//!
//! One writer installs serialized commits into a single hot block and
//! publishes each commit timestamp as a watermark once its install is done;
//! between commits it also latches-and-aborts a hot row and, now and then,
//! freezes the epoch. Two readers gather the hot block at the current
//! watermark. Between installs nothing in the block is newer than they
//! are, so they copy it tight, validated only by the block's seqlock; an
//! install that starts meanwhile must fail that validation. A third reader
//! lags the watermark by a few commits, so its gathers of the same block
//! bracket the versioned rows: the row being installed at that moment
//! still carries an older, visible timestamp when the bracket loads it,
//! and its word moves during the block copy, which is the case the
//! per-block timestamp bracket must re-read. For a few commits after each
//! freeze the lagging reader is older than the freeze, so it must check
//! every row rather than trust the fresh store's empty skip index. Every
//! gathered row must equal its value at the reader's timestamp. The writer starts only once every
//! reader has finished one gather, so the readers are running when the
//! installs begin even where the host has fewer CPUs than threads.
//!
//! Runs on the simulated kernel, and on the real-OS backend on Linux.

use anker_mvcc::{ScanStats, VersionedColumn, BLOCK_ROWS};
use anker_storage::{ColumnArea, LogicalType};
use anker_vmem::{Kernel, VmBackend};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Two skip blocks; block 0 is the hot one.
const ROWS: u32 = 2 * BLOCK_ROWS;
const COMMITS: u64 = 6000;
/// Commits the lagging reader trails the watermark by.
const LAG: u64 = 3;
/// Each reader's lag behind the watermark.
const LAGS: [u64; 3] = [0, 0, LAG];

/// The hot-block row commit `ts` writes: a stride-37 walk over block 0, so
/// consecutive commits hit different rows and every row is rewritten once
/// per `BLOCK_ROWS` commits.
fn row_of(ts: u64) -> u32 {
    ((ts * 37) % BLOCK_ROWS as u64) as u32
}

/// The word commit `ts` stores into `row`; the load (ts 0) stores `row`.
fn word(ts: u64, row: u32) -> u64 {
    (ts << 16) | row as u64
}

/// The first commit to each hot row. Stride 37 is a bijection on block 0,
/// so the commits to `row` are `first[row] + j * BLOCK_ROWS`.
fn first_commits() -> Vec<u64> {
    let mut first = vec![0u64; BLOCK_ROWS as usize];
    for ts in 1..=BLOCK_ROWS as u64 {
        first[row_of(ts) as usize] = ts;
    }
    first
}

/// The value of `row` visible at `start_ts`: the word of its newest commit
/// at or before `start_ts`.
fn visible(first: &[u64], row: u32, start_ts: u64) -> u64 {
    match first.get(row as usize) {
        Some(&k) if k <= start_ts => word(start_ts - (start_ts - k) % BLOCK_ROWS as u64, row),
        _ => word(0, row),
    }
}

fn race(backend: Arc<dyn VmBackend>) {
    let area = ColumnArea::alloc_on(backend, ROWS).unwrap();
    area.fill((0..ROWS).map(|r| word(0, r))).unwrap();
    let vc = VersionedColumn::new(ROWS, LogicalType::Int);
    let watermark = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let gathers = AtomicU64::new(0);
    let ready = AtomicUsize::new(0);
    let first = &first_commits();
    std::thread::scope(|s| {
        let readers: Vec<_> = LAGS
            .iter()
            .map(|&lag| {
                let (vc, area, watermark, stop) = (&vc, &area, &watermark, &stop);
                let (gathers, ready) = (&gathers, &ready);
                s.spawn(move || {
                    let mut buf = vec![0u64; BLOCK_ROWS as usize];
                    let mut stats = ScanStats::default();
                    let mut first_gather = true;
                    while !stop.load(Ordering::Acquire) {
                        let start_ts = watermark.load(Ordering::Acquire).saturating_sub(lag);
                        vc.gather_visible_block(
                            area, start_ts, 0, BLOCK_ROWS, &mut buf, &mut stats,
                        )
                        .unwrap();
                        for (row, &v) in (0..BLOCK_ROWS).zip(&buf) {
                            assert_eq!(
                                v,
                                visible(first, row, start_ts),
                                "row {row} at ts {start_ts}: got commit {}",
                                v >> 16
                            );
                        }
                        gathers.fetch_add(1, Ordering::Relaxed);
                        if first_gather {
                            first_gather = false;
                            // ORDERING: Relaxed — the count only paces the
                            // writer; it publishes no data.
                            ready.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        // Stop the readers however this thread leaves the scope.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                // ORDERING: Release, as the readers' Acquire loads expect.
                self.0.store(true, Ordering::Release);
            }
        }
        let _stop = StopOnDrop(&stop);
        // Hold the writer until every reader gathered once (or one died,
        // whose panic the scope then reports).
        // ORDERING: Relaxed, as the increments.
        while ready.load(Ordering::Relaxed) < LAGS.len() && !readers.iter().any(|r| r.is_finished())
        {
            std::thread::yield_now();
        }
        for ts in 1..=COMMITS {
            let row = row_of(ts);
            vc.install(&area, row, word(ts, row), ts).unwrap();
            // ORDERING: Release publishes the finished install to
            // readers that take this watermark as their start_ts.
            watermark.store(ts, Ordering::Release);
            // Latch and abort the next commit's row: its word moves to
            // PENDING and back while its in-place value stays put.
            let next = row_of(ts + 1);
            drop(vc.lock_row(&area, next, next as u64).unwrap());
            if ts % 512 == 0 {
                // Readers still at an older watermark now take the
                // pre-freeze (every-row) path; nothing is released, so
                // every version stays reachable.
                vc.freeze_epoch(ts);
            }
        }
    });
    assert!(gathers.load(Ordering::Relaxed) > 0, "no reader ran");
    // Quiesced: a full scan at the last commit reads every block tight
    // and sees every final value; one at the lag brackets the hot block.
    for (start_ts, tight) in [(COMMITS, true), (COMMITS - LAG, false)] {
        let mut stats = ScanStats::default();
        vc.scan_visible(
            &area,
            start_ts,
            |row, v| {
                assert_eq!(
                    v,
                    visible(first, row, start_ts),
                    "row {row} at ts {start_ts}"
                )
            },
            &mut stats,
        )
        .unwrap();
        assert_eq!(
            stats.checked_rows == 0,
            tight,
            "at ts {start_ts}: {stats:?}"
        );
    }
}

#[test]
fn moving_snapshot_gathers_race_installs_on_sim() {
    let kernel = Kernel::default();
    race(Arc::new(kernel.create_space()));
}

#[cfg(target_os = "linux")]
#[test]
fn moving_snapshot_gathers_race_installs_on_os() {
    race(Arc::new(anker_vmem::OsBackend::new().unwrap()));
}
