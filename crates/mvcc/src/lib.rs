//! # anker-mvcc — multi-version concurrency control building blocks
//!
//! The MVCC scheme of the paper (§2.1), as used inside *both* components of
//! the heterogeneous design:
//!
//! * **Newest-to-oldest version chains**: the column always holds the most
//!   recent committed value in place; on commit the old value moves into the
//!   row's chain together with the timestamp that wrote it. Young
//!   transactions find their version early during traversal, like HyPer.
//! * **Atomic commit visibility**: the paper logs the start and end time of
//!   a transaction's commit phase so all its writes become visible
//!   atomically. Here, readers draw their start timestamp from a
//!   stable-timestamp watermark (commits may install out of order; the
//!   watermark advances as holes fill) and per-row write timestamps carry
//!   a PENDING bit while a committer holds the row's install latch
//!   ([`timestamp::TsOracle`], [`version::VersionedColumn`]).
//! * **Cheap aborts**: uncommitted writes live only in the transaction's
//!   local write set ([`txn::Transaction`]); an abort just drops them
//!   (paper Figure 1, step 3).
//! * **Write-write conflicts** are detected at commit time
//!   (first-updater-wins); **full serializability** adds read-set
//!   validation via precision locking ([`predicate`], [`commit`]): a
//!   committing transaction checks whether any recently committed write
//!   intersects the predicate ranges it read through.
//! * **Epoch hand-over** for the heterogeneous mode: on snapshot, the
//!   column's chain store is frozen and replaced by an empty one
//!   ([`version::VersionedColumn::freeze_epoch`]); pre-snapshot readers
//!   still reach old versions through the frozen stores, and dropping a
//!   frozen store *is* the garbage collection (§1.3.1).
//! * The **block-skip scan optimisation** of §5.5: per 1024-row block, the
//!   position of the first and last versioned row, so scans run in tight
//!   loops between versioned regions. Versioned regions are checked with
//!   one timestamp bracket per block — the region's write timestamps are
//!   loaded before the single block copy and re-checked after it — so
//!   only rows an install raced pay a per-row
//!   [`version::VersionedColumn::read`].
//!
//! The commit *protocol* (who takes which lock when) is composed by
//! `anker-core`, which owns tables and snapshot management; this crate
//! provides the pieces and their invariants.
//!
//! ## Example
//!
//! ```
//! use anker_mvcc::VersionedColumn;
//! use anker_storage::{ColumnArea, LogicalType};
//! use anker_vmem::Kernel;
//!
//! let kernel = Kernel::default();
//! let space = kernel.create_space();
//! let area = ColumnArea::alloc(&space, 100).unwrap();
//! area.fill((0..100u64).map(|r| r * 10)).unwrap();
//!
//! // Install a new version of row 5 committed at ts 1: the column holds
//! // the newest value in place, the old value moves into the chain.
//! let vc = VersionedColumn::new(100, LogicalType::Int);
//! vc.install(&area, 5, 999, 1).unwrap();
//!
//! assert_eq!(vc.read(&area, 5, 1).unwrap(), 999); // reader at ts 1
//! assert_eq!(vc.read(&area, 5, 0).unwrap(), 50);  // reader before the commit
//! ```
// No unsafe in this crate: verified by the compiler, inventoried by
// `anker-lint -- audit` (results/unsafe_audit.json records zero sites).
#![forbid(unsafe_code)]

pub mod commit;
pub mod predicate;
pub mod timestamp;
pub mod txn;
pub mod version;

pub use commit::{
    ActiveToken, ActiveTxns, CommitRecord, RecentCommits, ShardGuards, ValidationConflict,
    WriteRecord, VALIDATION_SHARDS,
};
pub use predicate::{ColRef, Pred, PredicateSet};
pub use timestamp::{TsOracle, PENDING};
pub use txn::{LocalWrite, Transaction, TxnId};
pub use version::{
    ChainStore, FilterSel, RowLatch, ScanStats, VersionedColumn, BLOCK_ROWS, TRACKED_FILTERS,
};

/// Isolation level of the engine, as configured in the paper's evaluation
/// (§5.1): snapshot isolation skips commit-time read-set validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationLevel {
    /// MVCC's native guarantee; write-skew anomalies are possible.
    SnapshotIsolation,
    /// Snapshot isolation plus precision-locking read validation.
    Serializable,
}
