//! # anker-core — AnKerDB
//!
//! A main-memory, column-oriented transaction processing system that
//! reintroduces **heterogeneous processing** on top of MVCC, after the
//! SIGMOD'18 paper *"Accelerating Analytical Processing in MVCC using
//! Fine-Granular High-Frequency Virtual Snapshotting"*:
//!
//! * Short-running, modifying **OLTP** transactions run under MVCC on the
//!   most recent representation of every column.
//! * Long-running, read-only **OLAP** transactions run on **virtual column
//!   snapshots** created at high frequency with the custom `vm_snapshot`
//!   system call (simulated in [`anker_vmem`]); they scan frozen columns in
//!   tight loops with zero timestamp or version-chain checks.
//! * Snapshots are **column granular** and **lazy**: a trigger every *n*
//!   commits registers only a timestamp; a column materialises on its first
//!   post-trigger write or first OLAP access. Version chains are handed
//!   over with the snapshot and dropped wholesale when it retires —
//!   garbage collection for free.
//! * The same engine runs in **homogeneous** mode (snapshots disabled, a GC
//!   thread pruning chains) under snapshot isolation or full
//!   serializability, reproducing the paper's three evaluated
//!   configurations (§5.1).
//!
//! Start with [`AnkerDb::new`], create tables, then [`AnkerDb::begin`]
//! transactions classified as [`TxnKind::Oltp`] or [`TxnKind::Olap`].
//!
//! ## Example
//!
//! ```
//! use anker_core::{AnkerDb, ColumnDef, DbConfig, LogicalType, Schema, TxnKind, Value};
//!
//! let db = AnkerDb::new(DbConfig::heterogeneous_serializable().with_snapshot_every(100));
//! let table = db.create_table(
//!     "accounts",
//!     Schema::new(vec![ColumnDef::new("balance", LogicalType::Int)]),
//!     1000,
//! ).unwrap();
//! let balance = db.schema(table).col("balance");
//! db.fill_column(table, balance, (0..1000).map(|_| Value::Int(10).encode())).unwrap();
//!
//! // OLTP: short read-modify-write under MVCC.
//! let mut txn = db.begin(TxnKind::Oltp);
//! txn.update_value(table, balance, 3, Value::Int(25)).unwrap();
//! txn.commit().unwrap();
//!
//! // OLAP: tight-loop aggregation over a virtual column snapshot, with the
//! // predicate pushed down into the scan (and auto-registered as a
//! // precision lock for serializable updaters).
//! let mut olap = db.begin(TxnKind::Olap);
//! let (total, _stats) = olap
//!     .scan_on(table)
//!     .range_i64(balance, 11, i64::MAX)
//!     .project(&[balance])
//!     .fold(0i64, |acc, _row, vals| acc + vals[0].as_int())
//!     .unwrap();
//! olap.commit().unwrap();
//! assert_eq!(total, 25);
//! ```

pub mod config;
pub mod db;
pub mod durability;
pub mod error;
pub(crate) mod kernels;
mod metrics;
pub mod reader;
pub mod scan;
pub(crate) mod snapman;
pub mod table;
pub mod txn;

pub use config::{BackendKind, DbConfig, ProcessingMode};
pub use db::AnkerDb;
pub use durability::RecoveryReport;
pub use error::{AbortReason, DbError, Result};
pub use reader::SnapshotReader;
pub use scan::{ReaderScanBuilder, ScanBuilder, ScanPartition};
pub use table::TableId;
pub use txn::{RepairConflict, Txn, TxnKind};

// Re-export the pieces users need to talk to the API.
pub use anker_dura::DurabilityLevel;
pub use anker_mvcc::{FilterSel, IsolationLevel, ScanStats, TRACKED_FILTERS};
pub use anker_storage::{ColumnDef, ColumnId, Dictionary, LogicalType, Schema, Value};
pub use anker_vmem::KernelStats;

/// The observability crate, re-exported so `AnkerDb::metrics` callers can
/// name [`obs::MetricsSnapshot`] and the render functions without adding
/// a dependency of their own.
pub use obs;
