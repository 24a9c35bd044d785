//! The backend abstraction the storage engine allocates column areas on.
//!
//! The engine above this crate needs exactly five memory capabilities:
//! allocate a zero-filled area, release it, duplicate it with
//! copy-on-write semantics (the paper's `vm_snapshot`), and read/write
//! 8-byte words. [`VmBackend`] captures that contract so two very
//! different substrates can serve it:
//!
//! * the **simulated kernel** ([`crate::Space`]) — faithful page tables,
//!   VMAs, and a calibrated virtual clock, used for the paper's Table 1 /
//!   Figure 5 cost reproductions, and
//! * the **real-OS backend** ([`crate::OsBackend`], Linux) — each column
//!   area is a memfd of its own mapped `MAP_SHARED`, a snapshot is a
//!   `MAP_PRIVATE` view of the same file, and before the first write to a
//!   frozen page the backend has the kernel copy it into every view still
//!   reading it (RUMA-style rewiring, paper §3.2.3). Because every write
//!   tests the page's frozen bit first, no `mprotect`/SIGSEGV machinery is
//!   needed. Its [`VmBackend::view`] gives direct, lock-free word access.
//!
//! Both backends promise the same observable semantics, checked by the
//! `backend_semantics` and `backend_equiv` test suites: after
//! `vm_snapshot`, the source and destination read identically, and a
//! write through either view never changes what the other view reads.
//! On the OS backend a snapshot is a read-only image: it takes no write
//! and is no `vm_snapshot` source, and each refusal changes nothing.

use crate::error::Result;

/// A virtual-memory substrate for column areas. Addresses are opaque
/// `u64`s handed out by [`VmBackend::alloc`] / [`VmBackend::vm_snapshot`];
/// all offsets and lengths are in bytes and must be 8-byte aligned (area
/// granularity is the backend's page size).
///
/// Implementations must be safe to share across threads: reads may race
/// writes (the engine's per-row timestamp protocol makes any interleaving
/// safe at word granularity), but area-level mutations (`alloc`,
/// `release`, `vm_snapshot`) are only ever issued from the engine's
/// serialized commit section.
pub trait VmBackend: Send + Sync + std::fmt::Debug {
    /// Page size in bytes (the granularity of areas and of copy-on-write).
    fn page_size(&self) -> u64;

    /// Allocate a fresh, zero-filled area of `bytes` (page aligned) and
    /// return its base address.
    fn alloc(&self, bytes: u64) -> Result<u64>;

    /// Release the area `[addr, addr + bytes)` previously returned by
    /// [`VmBackend::alloc`] or [`VmBackend::vm_snapshot`].
    fn release(&self, addr: u64, bytes: u64) -> Result<()>;

    /// The paper's custom system call (§4.1, Appendix A): duplicate
    /// `[src, src + bytes)` with copy-on-write semantics into a fresh area
    /// (`dst = None`) or into an existing equally-sized area
    /// (`dst = Some(addr)`, §4.1.3 destination recycling). Returns the
    /// destination address. After the call both views read identically;
    /// a write through either view no longer affects the other. A backend
    /// that does not recycle destinations (the OS backend) refuses
    /// `Some(addr)` with [`VmError::BadDestination`](crate::VmError) and
    /// changes nothing. The OS backend also refuses a `src` that is itself
    /// a snapshot with [`VmError::InvalidArgument`](crate::VmError), as it
    /// does for [`VmBackend::vm_snapshot_read_through`], and changes
    /// nothing.
    fn vm_snapshot(&self, dst: Option<u64>, src: u64, bytes: u64) -> Result<u64>;

    /// [`VmBackend::vm_snapshot`] into a fresh area, for an image whose
    /// readers read its unsplit pages through `src`
    /// ([`View::reads_through`](crate::View::reads_through)), so that its
    /// own mapping of them is never touched. The image reads as the cut
    /// through every entry point all the same. The default is
    /// `vm_snapshot(None, src, bytes)`. The OS backend leaves the live
    /// view's page tables in place and copies the image's split pages in
    /// user space, aside from its mapping (see [`crate::view`]).
    fn vm_snapshot_read_through(&self, src: u64, bytes: u64) -> Result<u64> {
        self.vm_snapshot(None, src, bytes)
    }

    /// Load the 8-byte word at `addr` (aligned; relaxed atomicity — a
    /// racing writer yields either the old or the new word, never a torn
    /// one).
    fn read_u64(&self, addr: u64) -> Result<u64>;

    /// Store the 8-byte word at `addr` (aligned), performing any
    /// copy-on-write the backend's snapshot bookkeeping requires first.
    /// The OS backend refuses a store into a snapshot with
    /// [`VmError::ProtectionFault`](crate::VmError) and changes nothing.
    fn write_u64(&self, addr: u64, value: u64) -> Result<()>;

    /// Copy `buf.len()` words starting at `addr` into `buf` — the block
    /// read underneath tight scan loops.
    fn read_words(&self, addr: u64, buf: &mut [u64]) -> Result<()>;

    /// Copy `words` into memory starting at `addr` (bulk-load path;
    /// performs copy-on-write, and refuses a snapshot, like
    /// [`VmBackend::write_u64`]).
    fn write_words(&self, addr: u64, words: &[u64]) -> Result<()>;

    /// Monotonic counters of the real-OS backend (`vm_snapshot` calls,
    /// copy-on-write splits, `madvise` hints issued), when this backend is
    /// one. `None` on simulated backends — callers use this to surface OS
    /// counters in bench records without downcasting.
    fn os_stats(&self) -> Option<crate::os::OsStatsSnapshot> {
        None
    }

    /// A direct [`View`](crate::View) of the `bytes` bytes at `addr`, the
    /// base of a mapped area, when the backend maps areas as plain,
    /// directly addressable memory (the OS backend): loads through it and
    /// stores to unfrozen pages of a live area take no lock (see
    /// [`crate::view`] for the store contract). The view keeps the mapping
    /// alive however the area is released. Returns `None` on backends
    /// that only expose simulated memory (the default), for an address
    /// that is no area's base, or for a range past the area's end.
    fn view(&self, addr: u64, bytes: u64) -> Option<crate::View> {
        let _ = (addr, bytes);
        None
    }

    /// Short backend identifier for logs and bench records.
    fn name(&self) -> &'static str;
}

impl VmBackend for crate::Space {
    fn page_size(&self) -> u64 {
        crate::Space::page_size(self)
    }

    fn alloc(&self, bytes: u64) -> Result<u64> {
        self.mmap(
            bytes,
            crate::Prot::READ_WRITE,
            crate::Share::Private,
            crate::MapBacking::Anon,
        )
    }

    fn release(&self, addr: u64, bytes: u64) -> Result<()> {
        self.munmap(addr, bytes)
    }

    fn vm_snapshot(&self, dst: Option<u64>, src: u64, bytes: u64) -> Result<u64> {
        crate::Space::vm_snapshot(self, dst, src, bytes)
    }

    fn read_u64(&self, addr: u64) -> Result<u64> {
        crate::Space::read_u64(self, addr)
    }

    fn write_u64(&self, addr: u64, value: u64) -> Result<()> {
        crate::Space::write_u64(self, addr, value)
    }

    fn read_words(&self, addr: u64, buf: &mut [u64]) -> Result<()> {
        crate::Space::read_words(self, addr, buf)
    }

    fn write_words(&self, addr: u64, words: &[u64]) -> Result<()> {
        crate::Space::write_words(self, addr, words)
    }

    fn name(&self) -> &'static str {
        "sim"
    }
}
