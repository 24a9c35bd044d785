//! Shared by the workspace-level test binaries.

// Under `obs-off` every metric-value assertion is compiled out.
#![allow(dead_code)]

use ankerdb::core::AnkerDb;

/// Counter `name` of `db.metrics()` (0 when no such metric exists).
pub fn counter(db: &AnkerDb, name: &str) -> u64 {
    db.metrics().counter(name).unwrap_or(0)
}
