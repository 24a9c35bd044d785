//! Table state: schema plus per-column storage and MVCC state.

use anker_mvcc::VersionedColumn;
use anker_storage::{ColumnArea, Schema};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Identifier of a table within its database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u16);

impl TableId {
    /// `Ok` when `row` is one of this table's `rows` rows.
    #[inline]
    pub(crate) fn check_row(self, row: u32, rows: u32) -> crate::error::Result<()> {
        if row < rows {
            Ok(())
        } else {
            Err(crate::error::DbError::RowOutOfRange {
                table: self.0,
                row,
                rows,
            })
        }
    }
}

/// Runtime state of one column: the live (OLTP) area, the column's MVCC
/// state and the timestamp of its newest committed write. The live area is
/// the one the column was created with, for its whole life: a snapshot
/// materialisation (Figure 1, steps 4/7) freezes a new view of it as the
/// image and leaves it in place.
pub(crate) struct ColumnState {
    pub versioned: VersionedColumn,
    area: ColumnArea,
    /// Commit timestamp of the newest write to this column; a snapshot
    /// materialised now is valid for any epoch with `ts >=` this.
    pub last_mutation_ts: AtomicU64,
    /// Mark (timestamp + 1; 0 = never) of the newest epoch this column is
    /// settled for — materialised or damage-marked. Fast-path guard: when
    /// `>=` the newest epoch's mark, the write path can skip the snapshot
    /// manager entirely (`SnapshotManager::write_is_settled`).
    pub snapshot_mark: AtomicU64,
    /// [`ColumnState::last_mutation`] as of the column's newest image
    /// ([`NEVER_CUT`] before the first). Commit section only.
    pub last_cut: AtomicU64,
}

/// [`ColumnState::last_cut`] of a column never imaged.
pub(crate) const NEVER_CUT: u64 = u64::MAX;

impl ColumnState {
    pub fn new(versioned: VersionedColumn, area: ColumnArea) -> ColumnState {
        ColumnState {
            versioned,
            area,
            last_mutation_ts: AtomicU64::new(0),
            snapshot_mark: AtomicU64::new(0),
            last_cut: AtomicU64::new(NEVER_CUT),
        }
    }

    /// The live, most-recent representation: every OLTP read and install
    /// goes here, and it never changes.
    pub fn current_area(&self) -> &ColumnArea {
        &self.area
    }

    /// Newest committed write timestamp of this column.
    pub fn last_mutation(&self) -> u64 {
        // ORDERING: Acquire pairs with the commit pipeline's Release store
        // after each install — a materialiser that reads T also sees every
        // install at or before T, so the snapshot it cuts is exact.
        self.last_mutation_ts.load(Ordering::Acquire)
    }
}

/// Runtime state of one table.
pub(crate) struct TableState {
    pub name: String,
    pub schema: Schema,
    pub rows: u32,
    pub cols: Vec<ColumnState>,
    /// Latched when a transaction first resolves this table for data
    /// access; from then on bulk loads are rejected (see
    /// [`crate::AnkerDb::fill_column`]). Per table, so tables created
    /// after transactions have run elsewhere can still be loaded.
    pub observed: AtomicBool,
}

impl TableState {
    pub fn col(&self, idx: usize) -> &ColumnState {
        &self.cols[idx]
    }

    /// Record that a transaction resolved this table (one-shot latch; the
    /// steady state is a read-shared load).
    pub fn mark_observed(&self) {
        if !self.observed.load(Ordering::Relaxed) {
            // ORDERING: Release pairs with the bulk-load path's Acquire
            // check under the commit lock (`fill_column`), which must see
            // the observation before it would overwrite live data.
            self.observed.store(true, Ordering::Release);
        }
    }
}
