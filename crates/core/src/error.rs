//! Error and abort types of the database layer.

use std::fmt;

/// Why a transaction aborted. Aborts are normal outcomes under optimistic
/// concurrency control, not failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// First-updater-wins: another transaction committed a write to the
    /// same row after this transaction started (§2.1, "write-write
    /// conflicts are detected at commit time").
    WriteWriteConflict,
    /// Precision-locking validation failed: a recently committed write
    /// intersects this transaction's read predicates (§2.1). Carries the
    /// offending commit timestamp.
    ValidationFailed { conflicting_commit: u64 },
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::WriteWriteConflict => write!(f, "write-write conflict"),
            AbortReason::ValidationFailed { conflicting_commit } => {
                write!(
                    f,
                    "read-set validation failed against commit {conflicting_commit}"
                )
            }
        }
    }
}

/// Errors of the database layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The transaction had to abort (see [`AbortReason`]).
    Aborted(AbortReason),
    /// A write was attempted through a read-only (OLAP) transaction.
    ReadOnlyTransaction,
    /// A memory error from the simulated kernel (indicates a bug or
    /// resource exhaustion, not a recoverable condition).
    Vm(anker_vmem::VmError),
    /// The transaction was already finished (committed or aborted).
    AlreadyFinished,
    /// [`crate::AnkerDb::fill_column`] was called after the first
    /// transaction had begun. Bulk loading bypasses versioning (load
    /// timestamp 0), so a load racing live transactions would corrupt
    /// visibility silently; the engine rejects it instead.
    LoadAfterBegin,
    /// A [`crate::SnapshotReader`] was requested from a homogeneous-mode
    /// database: there are no snapshot epochs to pin. Detached readers
    /// exist only in heterogeneous processing mode.
    SnapshotsDisabled,
    /// A durability operation failed: WAL I/O, a corrupt log or
    /// checkpoint file beyond the tolerated torn tail, or a recovery
    /// record inconsistent with the rebuilt catalog.
    Dura(anker_dura::DuraError),
    /// A durability operation ([`crate::AnkerDb::checkpoint`], WAL
    /// statistics) was requested but the database has no durability
    /// directory configured.
    DurabilityDisabled,
    /// A pinned snapshot epoch could not be served `(table, col)`: the
    /// column was written past the epoch without being frozen for it
    /// first. An engine invariant (a write freezes every pinned epoch's
    /// copy before it installs) is broken; the read fails rather than
    /// mixing two points in time.
    EpochBypassed { table: u16, col: u16, epoch_ts: u64 },
    /// A read or update named `row` of a table of `rows` rows.
    RowOutOfRange { table: u16, row: u32, rows: u32 },
    /// [`crate::AnkerDb::create_table`] found every table id taken (ids
    /// are `u16`, so a database holds at most `u16::MAX` tables).
    TooManyTables,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Aborted(r) => write!(f, "transaction aborted: {r}"),
            DbError::ReadOnlyTransaction => {
                write!(f, "write attempted in a read-only (OLAP) transaction")
            }
            DbError::Vm(e) => write!(f, "memory subsystem error: {e}"),
            DbError::AlreadyFinished => write!(f, "transaction already finished"),
            DbError::LoadAfterBegin => {
                write!(
                    f,
                    "fill_column is a load-time operation: it must complete \
                     before the first transaction begins"
                )
            }
            DbError::SnapshotsDisabled => {
                write!(
                    f,
                    "snapshot readers require heterogeneous processing mode \
                     (homogeneous databases take no snapshot epochs)"
                )
            }
            DbError::Dura(e) => write!(f, "durability error: {e}"),
            DbError::EpochBypassed {
                table,
                col,
                epoch_ts,
            } => write!(
                f,
                "column {col} of table {table} was written past the pinned \
                 snapshot epoch {epoch_ts} without being frozen for it"
            ),
            DbError::RowOutOfRange { table, row, rows } => {
                write!(
                    f,
                    "row {row} is out of range: table {table} has {rows} rows"
                )
            }
            DbError::TooManyTables => {
                write!(f, "every table id is taken ({} tables)", u16::MAX)
            }
            DbError::DurabilityDisabled => {
                write!(
                    f,
                    "no durability directory configured \
                     (set DbConfig::durability_dir or use AnkerDb::open)"
                )
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<anker_vmem::VmError> for DbError {
    fn from(e: anker_vmem::VmError) -> DbError {
        DbError::Vm(e)
    }
}

impl From<anker_dura::DuraError> for DbError {
    fn from(e: anker_dura::DuraError) -> DbError {
        DbError::Dura(e)
    }
}

/// Result alias of the database layer.
pub type Result<T> = std::result::Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DbError::Aborted(AbortReason::ValidationFailed {
            conflicting_commit: 9,
        });
        assert!(e.to_string().contains("commit 9"));
        assert!(DbError::ReadOnlyTransaction
            .to_string()
            .contains("read-only"));
    }

    #[test]
    fn vm_errors_convert() {
        let e: DbError = anker_vmem::VmError::OutOfMemory.into();
        assert!(matches!(e, DbError::Vm(anker_vmem::VmError::OutOfMemory)));
    }
}
