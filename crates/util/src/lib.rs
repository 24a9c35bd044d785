//! Shared utilities for the AnKerDB workspace.
//!
//! Deliberately tiny: a fast non-cryptographic hasher (so we do not need an
//! external hashing crate), small statistics helpers for the benchmark
//! harness, a fixed-width table printer used by the `repro` binary to
//! print paper-style result tables, the reusable [`WorkerPool`] behind
//! morsel-parallel snapshot scans, the [`sched`] deterministic-
//! interleaving sync points the commit-pipeline race tests drive, and the
//! [`lockcheck`] lock-order witness (active behind the `lockcheck`
//! feature) that dynamically enforces the hierarchy in `LOCKS.toml`.
//!
//! ## Example
//!
//! ```
//! use anker_util::{FxHashMap, Summary, TableBuilder};
//!
//! let stats = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
//! assert_eq!(stats.n, 4);
//! assert_eq!(stats.mean, 2.5);
//!
//! let mut map: FxHashMap<&str, u64> = FxHashMap::default();
//! map.insert("rows", 42);
//! assert_eq!(map["rows"], 42);
//!
//! let mut table = TableBuilder::new("Throughput").header(["mode", "txn/s"]);
//! table.row(["heterogeneous", "51000"]);
//! assert!(table.render().contains("heterogeneous"));
//! ```

pub mod fxhash;
pub mod lockcheck;
pub mod pool;
pub mod sched;
pub mod stats;
pub mod table;

pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use pool::WorkerPool;
pub use sched::SchedCtl;
pub use stats::Summary;
pub use table::TableBuilder;
