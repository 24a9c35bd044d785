//! Error type for the simulated virtual-memory subsystem.

use std::fmt;

/// Errors returned by the simulated kernel, mirroring the failure modes of
/// the real system calls (`MAP_FAILED` + `errno` in the paper's C API).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// An address or length was not page aligned (the paper requires
    /// `src_addr` and `length` of `vm_snapshot` to be page aligned).
    Misaligned { addr: u64 },
    /// Access to an address not covered by any VMA (SIGSEGV on a real
    /// system).
    NotMapped { addr: u64 },
    /// Access at `addr`, past the end of the object addressed (a column
    /// area's last row), even where the page padding behind it is mapped.
    OutOfBounds { addr: u64 },
    /// A write hit a page whose VMA forbids writing (SIGSEGV with a present
    /// mapping). Rewired snapshotting relies on catching exactly this fault
    /// to perform its manual copy-on-write.
    ProtectionFault { addr: u64 },
    /// Access beyond the end of a main-memory file (SIGBUS).
    BeyondFileEnd { file_page: u64, file_pages: u64 },
    /// The requested destination range of `vm_snapshot` is not (entirely)
    /// allocated, or overlaps the source, or the backend recycles no
    /// destination (the OS backend).
    BadDestination { addr: u64 },
    /// The simulated machine ran out of physical frames.
    OutOfMemory,
    /// A semantically invalid request (zero length, unsupported flag
    /// combination, address-space exhaustion, ...).
    InvalidArgument(&'static str),
    /// A real operating-system call failed (OS backend only). Carries the
    /// failing call's name and `errno`.
    Os { call: &'static str, errno: i32 },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Misaligned { addr } => {
                write!(f, "address {addr:#x} is not page aligned")
            }
            VmError::NotMapped { addr } => {
                write!(f, "segfault: address {addr:#x} is not mapped")
            }
            VmError::OutOfBounds { addr } => {
                write!(f, "address {addr:#x} is past the end of its area")
            }
            VmError::ProtectionFault { addr } => {
                write!(f, "protection fault: write to read-only page at {addr:#x}")
            }
            VmError::BeyondFileEnd {
                file_page,
                file_pages,
            } => {
                write!(
                    f,
                    "bus error: file page {file_page} beyond file end ({file_pages} pages)"
                )
            }
            VmError::BadDestination { addr } => {
                write!(f, "vm_snapshot: bad destination area at {addr:#x}")
            }
            VmError::OutOfMemory => write!(f, "out of physical memory"),
            VmError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            VmError::Os { call, errno } => {
                write!(f, "os backend: {call} failed with errno {errno}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, VmError>;
