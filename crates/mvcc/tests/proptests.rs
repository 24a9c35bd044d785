//! Property-based tests of the MVCC core against simple oracles.

use anker_mvcc::{ScanStats, VersionedColumn, BLOCK_ROWS};
use anker_storage::{ColumnArea, LogicalType};
use anker_vmem::{Kernel, VmBackend};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Two full skip blocks and a partial third.
const ROWS: u32 = 2 * BLOCK_ROWS + 552;

/// A full multi-version history oracle: for every row, the list of
/// `(commit_ts, value)` in commit order (starting with the load at ts 0).
struct Oracle {
    history: Vec<Vec<(u64, u64)>>,
}

impl Oracle {
    fn new(rows: u32) -> Oracle {
        Oracle {
            history: (0..rows).map(|r| vec![(0, r as u64 * 7)]).collect(),
        }
    }

    fn install(&mut self, row: u32, ts: u64, value: u64) {
        self.history[row as usize].push((ts, value));
    }

    fn visible(&self, row: u32, start_ts: u64) -> u64 {
        self.history[row as usize]
            .iter()
            .rev()
            .find(|(ts, _)| *ts <= start_ts)
            .expect("load version always visible")
            .1
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Install `n_rows` random-row writes as one commit.
    Commit { rows: Vec<u32> },
    /// Freeze the current epoch (snapshot hand-over).
    Freeze,
    /// GC with the horizon at the given fraction of elapsed commits.
    Gc { horizon_percent: u8 },
    /// Take `row`'s install latch and never release it, as a committer
    /// stalled before its install: the word carries PENDING over the old
    /// timestamp and the in-place value stays the old version. Later
    /// commits leave the row alone.
    Latch { row: u32 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => proptest::collection::vec(0..ROWS, 1..4).prop_map(|rows| Op::Commit { rows }),
            1 => Just(Op::Freeze),
            1 => (0..=100u8).prop_map(|horizon_percent| Op::Gc { horizon_percent }),
            1 => (0..ROWS).prop_map(|row| Op::Latch { row }),
        ],
        1..80,
    )
}

/// Reads and scans agree with the oracle at every historical timestamp
/// that retention still guarantees (after GC at horizon H, only
/// timestamps >= H are probed), and every block gather equals the
/// row-by-row reads it brackets.
fn matches_oracle(backend: Arc<dyn VmBackend>, ops: &[Op]) -> Result<(), TestCaseError> {
    let area = ColumnArea::alloc_on(backend, ROWS).unwrap();
    area.fill((0..ROWS as u64).map(|r| r * 7)).unwrap();
    let vc = VersionedColumn::new(ROWS, LogicalType::Int);
    let mut oracle = Oracle::new(ROWS);
    let mut ts = 0u64;
    let mut safe_horizon = 0u64; // oldest ts reads are still guaranteed
    let mut latched = BTreeMap::new();

    for op in ops {
        match op {
            Op::Commit { rows } => {
                ts += 1;
                // The engine's write set holds one write per (col,row);
                // mirror that by deduplicating within the commit.
                let mut unique: Vec<u32> = rows.clone();
                unique.sort_unstable();
                unique.dedup();
                unique.retain(|row| !latched.contains_key(row));
                for row in unique {
                    let value = ts * 1000 + row as u64;
                    vc.install(&area, row, value, ts).unwrap();
                    oracle.install(row, ts, value);
                }
            }
            Op::Freeze => {
                vc.freeze_epoch(ts);
            }
            Op::Gc { horizon_percent } => {
                let horizon = ts * (*horizon_percent as u64) / 100;
                vc.gc(horizon);
                vc.release_frozen(horizon);
                safe_horizon = safe_horizon.max(horizon);
            }
            Op::Latch { row } => {
                if !latched.contains_key(row) {
                    latched.insert(*row, vc.lock_row(&area, *row, *row as u64).unwrap());
                }
            }
        }
    }

    // Point reads across the retained timestamp range.
    for probe_ts in safe_horizon..=ts {
        for row in (0..ROWS).step_by(37) {
            let got = vc.read(&area, row, probe_ts).unwrap();
            prop_assert_eq!(
                got,
                oracle.visible(row, probe_ts),
                "row {} at ts {}",
                row,
                probe_ts
            );
        }
    }
    // A full scan, and each block's gather, at every retained
    // timestamp: readers older than a freeze and readers past it.
    let mut buf = vec![0u64; BLOCK_ROWS as usize];
    for probe_ts in safe_horizon..=ts {
        let mut stats = ScanStats::default();
        let mut got = Vec::with_capacity(ROWS as usize);
        vc.scan_visible(&area, probe_ts, |_, v| got.push(v), &mut stats)
            .unwrap();
        for (row, &v) in got.iter().enumerate() {
            prop_assert_eq!(
                v,
                oracle.visible(row as u32, probe_ts),
                "scan row {} at ts {}",
                row,
                probe_ts
            );
        }
        for block_start in (0..ROWS).step_by(BLOCK_ROWS as usize) {
            let n = BLOCK_ROWS.min(ROWS - block_start);
            vc.gather_visible_block(&area, probe_ts, block_start, n, &mut buf, &mut stats)
                .unwrap();
            for (row, &v) in (block_start..).zip(&buf[..n as usize]) {
                prop_assert_eq!(
                    v,
                    vc.read(&area, row, probe_ts).unwrap(),
                    "gather row {} at ts {}",
                    row,
                    probe_ts
                );
            }
        }
    }
    // The unoptimised scan agrees with the optimised one.
    let mut stats = ScanStats::default();
    let mut a = Vec::new();
    let mut b = Vec::new();
    vc.scan_visible(&area, ts, |_, v| a.push(v), &mut stats)
        .unwrap();
    vc.scan_visible_unoptimized(&area, ts, |_, v| b.push(v), &mut stats)
        .unwrap();
    prop_assert_eq!(a, b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn versioned_column_matches_oracle(ops in ops()) {
        let kernel = Kernel::default();
        matches_oracle(Arc::new(kernel.create_space()), &ops)?;
    }

    /// The same histories with the column on real memory, where a tight
    /// copy is a plain load of the live mapping.
    #[cfg(target_os = "linux")]
    #[test]
    fn versioned_column_matches_oracle_on_os(ops in ops()) {
        matches_oracle(Arc::new(anker_vmem::OsBackend::new().unwrap()), &ops)?;
    }
}
