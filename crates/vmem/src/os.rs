//! Real-OS memory backend: column areas over `memfd_create` +
//! `mmap(MAP_SHARED)` pages, with engine-mediated copy-on-write.
//!
//! This is the paper's RUMA-style *rewiring* (§3.2.3) brought to real
//! memory without a patched kernel:
//!
//! * All column data lives in one anonymous main-memory file (a memfd).
//!   An **area** is a virtually contiguous `mmap(MAP_SHARED)` view whose
//!   pages each map some file page; a per-area table records which.
//! * [`VmBackend::vm_snapshot`](crate::VmBackend::vm_snapshot) never
//!   copies data: the destination view is simply (re)wired — page by
//!   page, `mmap(MAP_FIXED)` — onto the *same* file pages as the source,
//!   and every shared page is marked **frozen** in both views.
//! * Copy-on-write is performed by the *engine*, not by the MMU: because
//!   every store flows through [`VmBackend::write_u64`](crate::VmBackend::write_u64) /
//!   [`write_words`](crate::VmBackend::write_words) (the engine's serialized write path), the
//!   first store to a frozen page splits it. No `mprotect`, no SIGSEGV
//!   handler, no signal-delivery cost (§4.1.4) — the check is one branch
//!   on a bit the backend already has in cache.
//! * **The writer keeps its page.** A split `pwrite`s the pre-write
//!   content into a fresh file page and `MAP_FIXED`-rewires every *other*
//!   view of the page (the snapshot views) onto that copy; the written
//!   view's wiring never changes. A live column's page list is therefore
//!   the one `alloc` gave it — one run of contiguous file pages, so its
//!   next `vm_snapshot` is one `mmap` — and fragmentation lands only on
//!   snapshot views, which are unmapped whole when they retire. This is
//!   the paper's own argument for `vm_snapshot` (§3.2.3, §4): rewiring
//!   cost tracks the number of mappings.
//! * Sharing is index-aligned inside one `vm_snapshot` **lineage** (an
//!   allocated area plus every view snapshotted from it, directly or
//!   transitively; a recycled destination joins its source's lineage),
//!   so a split finds the sharers among the lineage's members.
//! * A frozen view's *contents* never change, but its wiring may move
//!   onto a byte-identical copy, atomically per `MAP_FIXED` (a racing
//!   reader faults on either the old or the new page, both holding the
//!   same bytes); the write itself lands only after every sharer moved.
//! * A write to a frozen page whose file page is no longer shared
//!   (refcount back to 1 because every other view was released) reclaims
//!   the page in place instead of copying — the same optimisation the
//!   simulated kernel's fault handler applies.
//!
//! Released file pages go to a free list and are handed out again by
//! later allocations (zeroed) and copy-on-write splits (fully
//! overwritten), so steady-state snapshot churn does not grow the memfd.
//! [`OsStats`] counts every `mmap`/`munmap`/`pwrite`/`ftruncate`/`madvise`
//! the backend issues and gauges the live wired runs.
//!
//! Everything is declared via direct `extern "C"` libc bindings — the
//! offline build forbids new registry dependencies.

use crate::error::{Result, VmError};
#[cfg(target_os = "linux")]
use parking_lot::RwLock;
#[cfg(target_os = "linux")]
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
#[cfg(target_os = "linux")]
use std::sync::atomic::Ordering;
#[cfg(target_os = "linux")]
use std::sync::Arc;

#[cfg(target_os = "linux")]
mod ffi {
    use core::ffi::{c_char, c_void};

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const PROT_NONE: i32 = 0x0;
    pub const MAP_SHARED: i32 = 0x01;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_FIXED: i32 = 0x10;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MFD_CLOEXEC: u32 = 0x1;
    /// `_SC_PAGESIZE` on Linux.
    pub const SC_PAGESIZE: i32 = 30;
    /// `MADV_SEQUENTIAL`: expect sequential page references.
    pub const MADV_SEQUENTIAL: i32 = 2;
    /// `MADV_HUGEPAGE`: back the range with transparent huge pages where
    /// possible (honoured for shmem/memfd mappings since Linux 4.8).
    pub const MADV_HUGEPAGE: i32 = 14;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn pwrite(fd: i32, buf: *const c_void, count: usize, offset: i64) -> isize;
        pub fn ftruncate(fd: i32, length: i64) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn memfd_create(name: *const c_char, flags: u32) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        pub fn sysconf(name: i32) -> i64;
        pub fn __errno_location() -> *mut i32;
    }

    pub fn errno() -> i32 {
        // SAFETY(provenance: __errno_location): the libc call always
        // returns a valid pointer to this thread's errno slot.
        unsafe { *__errno_location() }
    }
}

#[cfg(target_os = "linux")]
fn os_err(call: &'static str) -> VmError {
    VmError::Os {
        call,
        errno: ffi::errno(),
    }
}

/// One mapped view: `bytes / page_size` virtually contiguous pages, each
/// wired onto some file page of the shared memfd.
#[cfg(target_os = "linux")]
#[derive(Debug)]
struct Area {
    bytes: u64,
    /// File page (index into the memfd) backing each view page.
    pages: Vec<u64>,
    /// View pages shared with another view via `vm_snapshot`: a store must
    /// split (or reclaim) the page first.
    frozen: Vec<bool>,
    /// The `vm_snapshot` lineage this view belongs to (a key of
    /// [`MapState::lineages`]).
    lineage: u64,
}

/// Maximal runs of contiguous file pages in `pages`: the `mmap` calls that
/// wire them, and (the kernel merges file-contiguous neighbours) the VMAs
/// they occupy.
#[cfg(target_os = "linux")]
fn runs(pages: &[u64]) -> u64 {
    pages.windows(2).filter(|w| w[1] != w[0] + 1).count() as u64 + u64::from(!pages.is_empty())
}

/// Runs starting at view page `i` or `i + 1` — all a change of `pages[i]`
/// can add or remove.
#[cfg(target_os = "linux")]
fn run_starts_around(pages: &[u64], i: usize) -> u64 {
    let starts = |j: usize| j < pages.len() && (j == 0 || pages[j] != pages[j - 1] + 1);
    u64::from(starts(i)) + u64::from(starts(i + 1))
}

/// File-page allocator state of the shared memfd.
#[cfg(target_os = "linux")]
#[derive(Debug, Default)]
struct FilePages {
    /// High-water mark, in pages.
    next: u64,
    /// `ftruncate`d size, in pages (grown geometrically).
    committed: u64,
    /// Released pages available for reuse.
    free: Vec<u64>,
    /// Per-file-page view reference count (index = file page).
    refs: Vec<u32>,
}

#[cfg(target_os = "linux")]
#[derive(Debug, Default)]
struct MapState {
    areas: BTreeMap<u64, Area>,
    file: FilePages,
    /// Member bases of every `vm_snapshot` lineage. A file page is only
    /// ever shared, at the same page index, between members of one
    /// lineage, so a copy-on-write split looks for sharers here instead
    /// of scanning every area.
    lineages: BTreeMap<u64, Vec<u64>>,
    /// Id of the next lineage an `alloc` founds.
    next_lineage: u64,
}

#[cfg(target_os = "linux")]
impl MapState {
    /// Table `area` at `base` and enrol it in its lineage.
    fn insert_area(&mut self, base: u64, area: Area) {
        self.lineages.entry(area.lineage).or_default().push(base);
        self.areas.insert(base, area);
    }

    /// Remove the area at `base` from the table and its lineage.
    fn remove_area(&mut self, base: u64) -> Option<Area> {
        let area = self.areas.remove(&base)?;
        let members = self
            .lineages
            .get_mut(&area.lineage)
            .expect("lineage exists");
        members.retain(|&b| b != base);
        if members.is_empty() {
            self.lineages.remove(&area.lineage);
        }
        Some(area)
    }
}

/// Counters of the OS backend (diagnostics and tests): monotonic event
/// and syscall counts, plus the [`OsStats::wired_runs`] gauge.
#[derive(Debug, Default)]
pub struct OsStats {
    /// `vm_snapshot` calls served.
    pub snapshots: AtomicU64,
    /// Snapshots that recycled an existing destination view (§4.1.3).
    pub recycled: AtomicU64,
    /// Pages copied by engine-mediated copy-on-write.
    pub cow_copies: AtomicU64,
    /// Frozen pages reclaimed in place (sole owner — no copy needed).
    pub cow_reclaims: AtomicU64,
    /// `madvise(MADV_HUGEPAGE)` calls issued (huge-pages knob on).
    pub huge_page_advices: AtomicU64,
    /// `madvise(MADV_SEQUENTIAL)` calls issued by scans.
    pub sequential_advices: AtomicU64,
    /// `mmap` calls issued: address-space reservations and `MAP_FIXED`
    /// wirings alike.
    pub mmap_calls: AtomicU64,
    /// `munmap` calls issued.
    pub munmap_calls: AtomicU64,
    /// `pwrite` calls issued (one per copy-on-write split).
    pub pwrite_calls: AtomicU64,
    /// `ftruncate` calls issued (memfd growth).
    pub ftruncate_calls: AtomicU64,
    /// Gauge: runs of contiguous file pages wired across all live views,
    /// i.e. the mappings the backend currently holds.
    pub wired_runs: AtomicU64,
}

impl OsStats {
    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> OsStatsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let huge_page_advices = self.huge_page_advices.load(Relaxed);
        let sequential_advices = self.sequential_advices.load(Relaxed);
        OsStatsSnapshot {
            snapshots: self.snapshots.load(Relaxed),
            recycled: self.recycled.load(Relaxed),
            cow_copies: self.cow_copies.load(Relaxed),
            cow_reclaims: self.cow_reclaims.load(Relaxed),
            huge_page_advices,
            sequential_advices,
            mmap_calls: self.mmap_calls.load(Relaxed),
            munmap_calls: self.munmap_calls.load(Relaxed),
            pwrite_calls: self.pwrite_calls.load(Relaxed),
            ftruncate_calls: self.ftruncate_calls.load(Relaxed),
            madvise_calls: huge_page_advices + sequential_advices,
            wired_runs: self.wired_runs.load(Relaxed),
        }
    }
}

/// A point-in-time copy of [`OsStats`] — the shape bench records and the
/// engine's stats surface carry (plain `u64`s, platform-independent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsStatsSnapshot {
    pub snapshots: u64,
    pub recycled: u64,
    pub cow_copies: u64,
    pub cow_reclaims: u64,
    pub huge_page_advices: u64,
    pub sequential_advices: u64,
    pub mmap_calls: u64,
    pub munmap_calls: u64,
    pub pwrite_calls: u64,
    pub ftruncate_calls: u64,
    /// Every `madvise` issued: `huge_page_advices + sequential_advices`.
    pub madvise_calls: u64,
    pub wired_runs: u64,
}

#[cfg(target_os = "linux")]
#[derive(Debug)]
struct OsInner {
    fd: i32,
    page_size: u64,
    /// Advise every (re)wired range `MADV_HUGEPAGE` so the kernel may
    /// collapse it into transparent huge pages (fewer TLB misses on big
    /// column scans). Off by default; see [`OsBackend::with_huge_pages`].
    huge_pages: bool,
    state: RwLock<MapState>,
    stats: OsStats,
    /// Test hook: how many more `MAP_FIXED` wirings and `pwrite`s may run
    /// before every further one fails (`u64::MAX` = never).
    #[cfg(test)]
    calls_before_failure: AtomicU64,
}

/// Handle to the real-OS memory backend. Cheap to clone; all clones share
/// one memfd and one area table. See the module docs for the design.
#[cfg(target_os = "linux")]
#[derive(Debug, Clone)]
pub struct OsBackend {
    inner: Arc<OsInner>,
}

/// Non-Linux stub: construction always fails, so no operation is ever
/// reachable. Kept so backend selection compiles on every platform.
#[cfg(not(target_os = "linux"))]
#[derive(Debug, Clone)]
pub struct OsBackend {
    never: std::convert::Infallible,
}

#[cfg(target_os = "linux")]
impl OsBackend {
    /// Create a backend over a fresh memfd. Fails with [`VmError::Os`]
    /// when the kernel refuses (`memfd_create` needs Linux ≥ 3.17).
    pub fn new() -> Result<OsBackend> {
        Self::with_huge_pages(false)
    }

    /// Like [`OsBackend::new`], with the transparent-huge-pages knob: when
    /// `huge_pages` is true, every mapped (and rewired) view range is
    /// advised `MADV_HUGEPAGE`, and [`OsStats::huge_page_advices`] counts
    /// the hints issued. Whether the kernel honours them depends on the
    /// system's shmem THP policy; the hint itself is free.
    pub fn with_huge_pages(huge_pages: bool) -> Result<OsBackend> {
        // SAFETY(provenance: memfd_create): plain syscall; the name is a
        // valid NUL-terminated C string literal.
        let fd = unsafe { ffi::memfd_create(c"ankerdb-columns".as_ptr(), ffi::MFD_CLOEXEC) };
        if fd < 0 {
            return Err(os_err("memfd_create"));
        }
        // SAFETY(provenance: sysconf): the syscall reads no caller memory.
        let ps = unsafe { ffi::sysconf(ffi::SC_PAGESIZE) };
        if ps <= 0 || !(ps as u64).is_power_of_two() {
            // SAFETY(provenance: fd): the descriptor was just opened by us
            // and nothing else has seen it.
            unsafe { ffi::close(fd) };
            return Err(VmError::InvalidArgument("unusable system page size"));
        }
        Ok(OsBackend {
            inner: Arc::new(OsInner {
                fd,
                page_size: ps as u64,
                huge_pages,
                state: RwLock::new(MapState::default()),
                stats: OsStats::default(),
                #[cfg(test)]
                calls_before_failure: AtomicU64::new(u64::MAX),
            }),
        })
    }

    /// Count one issued syscall (or event) on `counter`.
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Move the wired-runs gauge from `before` to `after` runs.
    fn adjust_runs(&self, before: u64, after: u64) {
        // Add first: the gauge never dips below its true value.
        let g = &self.inner.stats.wired_runs;
        g.fetch_add(after, Ordering::Relaxed);
        g.fetch_sub(before, Ordering::Relaxed);
    }

    /// Whether the test hook fails the fallible call about to be issued.
    #[inline]
    fn injected_failure(&self) -> bool {
        #[cfg(test)]
        {
            self.inner
                .calls_before_failure
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_err()
        }
        #[cfg(not(test))]
        false
    }

    /// Backend counters (snapshots, copy-on-write splits, reclaims).
    pub fn stats(&self) -> &OsStats {
        &self.inner.stats
    }

    /// Number of file pages currently referenced by at least one view.
    pub fn file_pages_in_use(&self) -> u64 {
        let st = self.inner.state.read();
        st.file.next - st.file.free.len() as u64
    }

    fn check_aligned(&self, v: u64) -> Result<()> {
        if v.is_multiple_of(self.inner.page_size) {
            Ok(())
        } else {
            Err(VmError::Misaligned { addr: v })
        }
    }

    /// Take one file page (free-list first), growing the memfd as needed.
    /// Returns `(file_page, recycled)` — a recycled page holds stale data
    /// the caller must overwrite or zero.
    fn take_file_page(&self, file: &mut FilePages) -> Result<(u64, bool)> {
        if let Some(fp) = file.free.pop() {
            debug_assert_eq!(file.refs[fp as usize], 0);
            file.refs[fp as usize] = 1;
            return Ok((fp, true));
        }
        let fp = file.next;
        file.next += 1;
        if file.next > file.committed {
            let grown = file.next.max(file.committed * 2).max(64);
            Self::bump(&self.inner.stats.ftruncate_calls);
            // SAFETY(provenance: fd, bounds: grown): fd is our memfd and
            // growing it never invalidates existing mappings.
            let rc =
                unsafe { ffi::ftruncate(self.inner.fd, (grown * self.inner.page_size) as i64) };
            if rc != 0 {
                file.next -= 1;
                return Err(os_err("ftruncate"));
            }
            file.committed = grown;
        }
        if file.refs.len() <= fp as usize {
            file.refs.resize(fp as usize + 1, 0);
        }
        file.refs[fp as usize] = 1;
        Ok((fp, false))
    }

    fn decref_file_page(file: &mut FilePages, fp: u64) {
        let r = &mut file.refs[fp as usize];
        debug_assert!(*r > 0, "file page {fp} double-freed");
        *r -= 1;
        if *r == 0 {
            file.free.push(fp);
        }
    }

    /// Reserve `bytes` of address space, then wire each run of contiguous
    /// file pages into it with `MAP_FIXED`. Returns the base address.
    fn map_view(&self, pages: &[u64]) -> Result<u64> {
        let ps = self.inner.page_size;
        let bytes = pages.len() as u64 * ps;
        Self::bump(&self.inner.stats.mmap_calls);
        // SAFETY(provenance: mmap, bounds: bytes): fresh anonymous
        // reservation at a kernel-chosen address — no existing memory is
        // touched.
        let base = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                bytes as usize,
                ffi::PROT_NONE,
                ffi::MAP_PRIVATE | ffi::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if base == ffi::map_failed() {
            return Err(os_err("mmap"));
        }
        let base = base as u64;
        if let Err(e) = self.wire_pages(base, pages) {
            // The wiring error is the one to report.
            let _ = self.unmap(base, bytes);
            return Err(e);
        }
        Ok(base)
    }

    /// `munmap` a whole view this backend created and no longer tables
    /// (its wired runs already taken off the gauge by the caller).
    fn unmap(&self, base: u64, bytes: u64) -> Result<()> {
        Self::bump(&self.inner.stats.munmap_calls);
        // SAFETY(provenance: base, bounds: bytes): the range is one whole
        // view (or fresh reservation) this backend mapped, out of the area
        // table, so no safe entry point can reach it any more.
        let rc = unsafe { ffi::munmap(base as *mut _, bytes as usize) };
        if rc != 0 {
            return Err(os_err("munmap"));
        }
        Ok(())
    }

    /// `MAP_FIXED`-wire `view[base ..]` onto the given file pages, one
    /// `mmap` per maximal run of contiguous file pages.
    fn wire_pages(&self, base: u64, pages: &[u64]) -> Result<()> {
        let ps = self.inner.page_size;
        let mut i = 0usize;
        while i < pages.len() {
            let mut j = i + 1;
            while j < pages.len() && pages[j] == pages[j - 1] + 1 {
                j += 1;
            }
            let run = (j - i) as u64;
            if self.injected_failure() {
                return Err(VmError::Os {
                    call: "mmap",
                    errno: 12, // ENOMEM, as at vm.max_map_count
                });
            }
            Self::bump(&self.inner.stats.mmap_calls);
            // SAFETY(provenance: base, fd, bounds: run, ps): MAP_FIXED
            // over address space this backend owns (either a fresh
            // reservation or an existing view being rewired); the memfd
            // offset is within the truncated size.
            let p = unsafe {
                ffi::mmap(
                    (base + i as u64 * ps) as *mut _,
                    (run * ps) as usize,
                    ffi::PROT_READ | ffi::PROT_WRITE,
                    ffi::MAP_SHARED | ffi::MAP_FIXED,
                    self.inner.fd,
                    (pages[i] * ps) as i64,
                )
            };
            if p == ffi::map_failed() {
                return Err(os_err("mmap"));
            }
            if self.inner.huge_pages {
                // Each MAP_FIXED replaces the previous mapping (and its
                // advice), so freshly wired ranges are re-advised here —
                // the single point every view page passes through.
                // SAFETY(provenance: p, bounds: run, ps): advising the
                // mapping just created above; madvise on a valid range
                // cannot corrupt anything (it is a hint).
                unsafe { ffi::madvise(p, (run * ps) as usize, ffi::MADV_HUGEPAGE) };
                Self::bump(&self.inner.stats.huge_page_advices);
            }
            i = j;
        }
        Ok(())
    }

    /// Locate the area containing `addr`; returns `(base, &area)`.
    fn area_at(state: &MapState, addr: u64) -> Result<(u64, &Area)> {
        state
            .areas
            .range(..=addr)
            .next_back()
            .filter(|(base, a)| addr < *base + a.bytes)
            .map(|(base, a)| (*base, a))
            .ok_or(VmError::NotMapped { addr })
    }

    /// Make page `page_idx` of the area at `base` privately writable. The
    /// written view keeps its file page: the pre-write content is
    /// `pwrite`n into a fresh file page and every other view of the page
    /// is rewired onto that copy — or, when no other view references the
    /// file page, it is reclaimed in place. Caller holds the write lock
    /// and the engine's serialized write path.
    ///
    /// On failure the page stays frozen and every refcount stays exact: a
    /// failed `pwrite` changes nothing, and a failed `MAP_FIXED` of the
    /// k-th sharer leaves the sharers already moved on the byte-identical
    /// copy.
    fn ensure_writable(&self, state: &mut MapState, base: u64, page_idx: usize) -> Result<()> {
        let ps = self.inner.page_size;
        let area = state.areas.get_mut(&base).expect("area exists");
        if !area.frozen[page_idx] {
            return Ok(());
        }
        let old_fp = area.pages[page_idx];
        if state.file.refs[old_fp as usize] == 1 {
            // Sole owner (every sharing view was released): write in place.
            area.frozen[page_idx] = false;
            Self::bump(&self.inner.stats.cow_reclaims);
            return Ok(());
        }
        let lineage = area.lineage;
        // The fresh page starts with one reference: the split's own hold,
        // dropped once the sharers are wired onto it.
        let (new_fp, _recycled) = self.take_file_page(&mut state.file)?;
        let written = if self.injected_failure() {
            -1
        } else {
            Self::bump(&self.inner.stats.pwrite_calls);
            // SAFETY(provenance: base, fd, bounds: page_idx, ps): the
            // source is one whole page of this live view (the write lock
            // keeps it mapped, the engine's serialized writes keep it
            // still); the destination is the just-allocated, in-bounds
            // file page new_fp, which no view maps yet.
            unsafe {
                ffi::pwrite(
                    self.inner.fd,
                    (base + page_idx as u64 * ps) as *const _,
                    ps as usize,
                    (new_fp * ps) as i64,
                )
            }
        };
        if written != ps as isize {
            // Nothing was mutated: the copy goes back to the free list.
            Self::decref_file_page(&mut state.file, new_fp);
            return Err(if written < 0 {
                os_err("pwrite")
            } else {
                // A short write sets no errno; report it as EIO.
                VmError::Os {
                    call: "pwrite",
                    errno: 5,
                }
            });
        }
        let sharers: Vec<u64> = state.lineages[&lineage]
            .iter()
            .copied()
            .filter(|&b| b != base && state.areas[&b].pages[page_idx] == old_fp)
            .collect();
        debug_assert_eq!(
            sharers.len() as u32 + 1,
            state.file.refs[old_fp as usize],
            "every view of a shared page is in the writer's lineage"
        );
        let mut moved = Ok(());
        for s in sharers {
            // One MAP_FIXED either lands or does not: a sharer is never
            // left half-wired.
            if let Err(e) = self.wire_pages(s + page_idx as u64 * ps, &[new_fp]) {
                moved = Err(e);
                break;
            }
            let pages = &mut state.areas.get_mut(&s).expect("sharer exists").pages;
            let before = run_starts_around(pages, page_idx);
            pages[page_idx] = new_fp;
            self.adjust_runs(before, run_starts_around(pages, page_idx));
            state.file.refs[new_fp as usize] += 1;
            Self::decref_file_page(&mut state.file, old_fp);
        }
        Self::decref_file_page(&mut state.file, new_fp);
        moved?;
        state.areas.get_mut(&base).expect("area exists").frozen[page_idx] = false;
        Self::bump(&self.inner.stats.cow_copies);
        Ok(())
    }

    /// Bounds-check `[addr, addr + bytes)` against its containing area and
    /// return the page index range it spans.
    fn page_span(
        state: &MapState,
        addr: u64,
        bytes: u64,
        ps: u64,
    ) -> Result<(u64, std::ops::Range<usize>)> {
        let (base, area) = Self::area_at(state, addr)?;
        if addr + bytes > base + area.bytes {
            return Err(VmError::NotMapped {
                addr: base + area.bytes,
            });
        }
        let first = ((addr - base) / ps) as usize;
        let last = ((addr + bytes.max(1) - 1 - base) / ps) as usize;
        Ok((base, first..last + 1))
    }
}

#[cfg(target_os = "linux")]
impl crate::backend::VmBackend for OsBackend {
    fn page_size(&self) -> u64 {
        self.inner.page_size
    }

    fn alloc(&self, bytes: u64) -> Result<u64> {
        self.check_aligned(bytes)?;
        if bytes == 0 {
            return Err(VmError::InvalidArgument("alloc of zero length"));
        }
        let n = (bytes / self.inner.page_size) as usize;
        let mut st = self.inner.state.write();
        let mut pages = Vec::with_capacity(n);
        let mut recycled = Vec::new();
        for _ in 0..n {
            match self.take_file_page(&mut st.file) {
                Ok((fp, reused)) => {
                    if reused {
                        recycled.push(pages.len());
                    }
                    pages.push(fp);
                }
                Err(e) => {
                    // Give back what the loop already took, or a failed
                    // growth (ENOSPC under a cgroup limit, say) would leak
                    // the partial allocation for the backend's lifetime.
                    for fp in pages {
                        Self::decref_file_page(&mut st.file, fp);
                    }
                    return Err(e);
                }
            }
        }
        let base = match self.map_view(&pages) {
            Ok(base) => base,
            Err(e) => {
                // Return the taken file pages to the free list, or a failed
                // allocation would leak them for the backend's lifetime.
                for fp in pages {
                    Self::decref_file_page(&mut st.file, fp);
                }
                return Err(e);
            }
        };
        // Fresh (hole) pages read as zero; recycled ones must be zeroed.
        let ps = self.inner.page_size;
        for &i in &recycled {
            // SAFETY(provenance: base, bounds: i, ps): page i of the view
            // created just above is mapped writable and unshared.
            unsafe {
                std::ptr::write_bytes((base + i as u64 * ps) as *mut u8, 0, ps as usize);
            }
        }
        self.adjust_runs(0, runs(&pages));
        st.next_lineage += 1;
        let lineage = st.next_lineage;
        st.insert_area(
            base,
            Area {
                bytes,
                pages,
                frozen: vec![false; n],
                lineage,
            },
        );
        Ok(base)
    }

    fn release(&self, addr: u64, bytes: u64) -> Result<()> {
        self.check_aligned(addr)?;
        let mut st = self.inner.state.write();
        let Some(area) = st.areas.get(&addr) else {
            return Err(VmError::NotMapped { addr });
        };
        if area.bytes != bytes {
            return Err(VmError::InvalidArgument(
                "release length does not match the area",
            ));
        }
        let area = st.remove_area(addr).expect("checked above");
        self.adjust_runs(runs(&area.pages), 0);
        let unmapped = self.unmap(addr, bytes);
        for fp in area.pages {
            Self::decref_file_page(&mut st.file, fp);
        }
        unmapped
    }

    fn vm_snapshot(&self, dst: Option<u64>, src: u64, bytes: u64) -> Result<u64> {
        self.check_aligned(src)?;
        self.check_aligned(bytes)?;
        if bytes == 0 {
            return Err(VmError::InvalidArgument("vm_snapshot of zero length"));
        }
        let mut st = self.inner.state.write();
        // The OS backend snapshots whole areas (all the engine ever
        // needs); sub-area snapshots remain a simulated-kernel feature.
        let Some(src_area) = st.areas.get(&src) else {
            return Err(VmError::NotMapped { addr: src });
        };
        if src_area.bytes != bytes {
            return Err(VmError::InvalidArgument(
                "vm_snapshot length does not match the source area",
            ));
        }
        let src_pages = src_area.pages.clone();
        let lineage = src_area.lineage;
        let n = src_pages.len();
        let src_runs = runs(&src_pages);
        let dst_base = match dst {
            None => {
                let base = self.map_view(&src_pages)?;
                // map_view cannot partially succeed (it unwinds its own
                // reservation), so the references are safe to take now.
                for &fp in &src_pages {
                    st.file.refs[fp as usize] += 1;
                }
                self.adjust_runs(0, src_runs);
                st.insert_area(
                    base,
                    Area {
                        bytes,
                        pages: src_pages,
                        frozen: vec![true; n],
                        lineage,
                    },
                );
                base
            }
            Some(d) => {
                if d == src {
                    return Err(VmError::BadDestination { addr: d });
                }
                match st.areas.get(&d) {
                    Some(a) if a.bytes == bytes => {}
                    _ => return Err(VmError::BadDestination { addr: d }),
                }
                // Account the destination's new references *before* any
                // MAP_FIXED lands, so a partially rewired view can never
                // map an unaccounted file page.
                for &fp in &src_pages {
                    st.file.refs[fp as usize] += 1;
                }
                // Rewire the recycled view onto the source's file pages.
                if let Err(e) = self.wire_pages(d, &src_pages) {
                    // Some MAP_FIXED runs may already have landed: the view
                    // is an untrustworthy mix of old and new pages. Tear it
                    // down whole — the caller gets an error and a dangling
                    // (NotMapped) destination, never another area's bytes.
                    let area = st.remove_area(d).expect("checked");
                    self.adjust_runs(runs(&area.pages), 0);
                    // The wiring error is the one to report.
                    let _ = self.unmap(d, bytes);
                    for fp in area.pages.into_iter().chain(src_pages) {
                        Self::decref_file_page(&mut st.file, fp);
                    }
                    return Err(e);
                }
                // The destination now shares the source's pages, so it
                // leaves its old lineage for the source's.
                let old = st.remove_area(d).expect("checked");
                self.adjust_runs(runs(&old.pages), src_runs);
                for fp in old.pages {
                    Self::decref_file_page(&mut st.file, fp);
                }
                st.insert_area(
                    d,
                    Area {
                        bytes,
                        pages: src_pages,
                        frozen: vec![true; n],
                        lineage,
                    },
                );
                Self::bump(&self.inner.stats.recycled);
                d
            }
        };
        // Both sides of every shared page stay frozen until a write splits
        // them.
        let src_area = st.areas.get_mut(&src).expect("checked");
        src_area.frozen.iter_mut().for_each(|f| *f = true);
        Self::bump(&self.inner.stats.snapshots);
        Ok(dst_base)
    }

    fn read_u64(&self, addr: u64) -> Result<u64> {
        // A real check, not a debug_assert: this is a safe public entry
        // point, and an unaligned volatile u64 load is UB, so the aligned
        // claim below must not rest on a debug-only precondition.
        if !addr.is_multiple_of(8) {
            return Err(VmError::Misaligned { addr });
        }
        let st = self.inner.state.read();
        let (base, area) = Self::area_at(&st, addr)?;
        if addr + 8 > base + area.bytes {
            return Err(VmError::NotMapped { addr });
        }
        // SAFETY(provenance: st, area, bounds: base, bytes): in-bounds of
        // a live mapping (the read lock excludes rewires); the volatile
        // word load tolerates racing word stores — the alignment checked
        // above makes it single-copy atomic on this hardware.
        Ok(unsafe { (addr as *const u64).read_volatile() })
    }

    fn write_u64(&self, addr: u64, value: u64) -> Result<()> {
        // Real check for the same reason as read_u64: an unaligned
        // volatile u64 store from this safe entry point would be UB.
        if !addr.is_multiple_of(8) {
            return Err(VmError::Misaligned { addr });
        }
        let ps = self.inner.page_size;
        {
            let st = self.inner.state.read();
            let (base, area) = Self::area_at(&st, addr)?;
            if addr + 8 > base + area.bytes {
                return Err(VmError::NotMapped { addr });
            }
            if !area.frozen[((addr - base) / ps) as usize] {
                // SAFETY(provenance: st, area, bounds: base, bytes):
                // in-bounds, mapped writable; the read lock keeps the
                // mapping from being rewired underneath the store (every
                // rewire path takes the write lock).
                unsafe { (addr as *mut u64).write_volatile(value) };
                return Ok(());
            }
        }
        // Frozen page: split it under the write lock, then store.
        let mut st = self.inner.state.write();
        let (base, _) = Self::area_at(&st, addr)?;
        self.ensure_writable(&mut st, base, ((addr - base) / ps) as usize)?;
        // SAFETY(provenance: st, ensure_writable, bounds: base): as above;
        // the page was re-resolved and split under the still-held write
        // lock.
        unsafe { (addr as *mut u64).write_volatile(value) };
        Ok(())
    }

    fn read_words(&self, addr: u64, buf: &mut [u64]) -> Result<()> {
        // Real check (see read_u64): unaligned volatile loads are UB.
        if !addr.is_multiple_of(8) {
            return Err(VmError::Misaligned { addr });
        }
        if buf.is_empty() {
            return Ok(());
        }
        let st = self.inner.state.read();
        Self::page_span(&st, addr, buf.len() as u64 * 8, self.inner.page_size)?;
        // SAFETY(provenance: st, page_span, bounds: buf): the whole range
        // is in-bounds of one live mapping held stable by the read lock;
        // volatile word loads tolerate racing word stores.
        unsafe {
            let mut p = addr as *const u64;
            for w in buf.iter_mut() {
                *w = p.read_volatile();
                p = p.add(1);
            }
        }
        Ok(())
    }

    fn write_words(&self, addr: u64, words: &[u64]) -> Result<()> {
        // Real check (see read_u64): unaligned volatile stores are UB.
        if !addr.is_multiple_of(8) {
            return Err(VmError::Misaligned { addr });
        }
        if words.is_empty() {
            return Ok(());
        }
        let mut st = self.inner.state.write();
        let (base, span) =
            Self::page_span(&st, addr, words.len() as u64 * 8, self.inner.page_size)?;
        for page_idx in span {
            self.ensure_writable(&mut st, base, page_idx)?;
        }
        // SAFETY(provenance: st, ensure_writable, bounds: span, words):
        // in-bounds and every touched page is now privately writable;
        // still holding the write lock.
        unsafe {
            let mut p = addr as *mut u64;
            for &w in words {
                p.write_volatile(w);
                p = p.add(1);
            }
        }
        Ok(())
    }

    fn advise_sequential(&self, addr: u64, bytes: u64) {
        let st = self.inner.state.read();
        let Ok((base, area)) = Self::area_at(&st, addr) else {
            return;
        };
        if addr != base || bytes > area.bytes {
            return;
        }
        // SAFETY(provenance: st, area, bounds: bytes): advising a live
        // mapping this backend owns (the read lock keeps it mapped);
        // MADV_SEQUENTIAL is a pure readahead hint.
        unsafe { ffi::madvise(addr as *mut _, bytes as usize, ffi::MADV_SEQUENTIAL) };
        Self::bump(&self.inner.stats.sequential_advices);
    }

    fn os_stats(&self) -> Option<OsStatsSnapshot> {
        Some(self.inner.stats.snapshot())
    }

    fn file_pages(&self, addr: u64) -> Option<Vec<u64>> {
        Some(self.inner.state.read().areas.get(&addr)?.pages.clone())
    }

    fn raw_parts(&self, addr: u64, bytes: u64) -> Option<*const u64> {
        if !addr.is_multiple_of(8) {
            return None;
        }
        let st = self.inner.state.read();
        let (base, area) = Self::area_at(&st, addr).ok()?;
        if addr + bytes > base + area.bytes {
            return None;
        }
        Some(addr as *const u64)
    }

    fn name(&self) -> &'static str {
        "os"
    }
}

#[cfg(target_os = "linux")]
impl Drop for OsInner {
    fn drop(&mut self) {
        let st = self.state.get_mut();
        for (&base, area) in st.areas.iter() {
            // SAFETY(provenance: area, bounds: bytes): unmapping whole
            // views this backend created; nothing can use them after Drop.
            unsafe { ffi::munmap(base as *mut _, area.bytes as usize) };
        }
        // SAFETY(provenance: fd): the descriptor was opened by
        // with_huge_pages and is owned solely by this inner value.
        unsafe { ffi::close(self.fd) };
    }
}

#[cfg(not(target_os = "linux"))]
impl OsBackend {
    /// The real-OS backend needs Linux (`memfd_create`); on other
    /// platforms construction always fails.
    pub fn new() -> Result<OsBackend> {
        Err(VmError::InvalidArgument(
            "the OS memory backend requires Linux (memfd_create)",
        ))
    }

    /// Huge-pages variant (stub: construction always fails off Linux).
    pub fn with_huge_pages(_huge_pages: bool) -> Result<OsBackend> {
        Self::new()
    }

    /// Number of file pages currently referenced (stub).
    pub fn file_pages_in_use(&self) -> u64 {
        match self.never {}
    }
}

#[cfg(not(target_os = "linux"))]
impl crate::backend::VmBackend for OsBackend {
    fn page_size(&self) -> u64 {
        match self.never {}
    }
    fn alloc(&self, _bytes: u64) -> Result<u64> {
        match self.never {}
    }
    fn release(&self, _addr: u64, _bytes: u64) -> Result<()> {
        match self.never {}
    }
    fn vm_snapshot(&self, _dst: Option<u64>, _src: u64, _bytes: u64) -> Result<u64> {
        match self.never {}
    }
    fn read_u64(&self, _addr: u64) -> Result<u64> {
        match self.never {}
    }
    fn write_u64(&self, _addr: u64, _value: u64) -> Result<()> {
        match self.never {}
    }
    fn read_words(&self, _addr: u64, _buf: &mut [u64]) -> Result<()> {
        match self.never {}
    }
    fn write_words(&self, _addr: u64, _words: &[u64]) -> Result<()> {
        match self.never {}
    }
    fn name(&self) -> &'static str {
        "os"
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::backend::VmBackend;

    #[test]
    fn alloc_is_zeroed_and_round_trips() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        assert_eq!(b.read_u64(a).unwrap(), 0);
        assert_eq!(b.read_u64(a + 2 * ps - 8).unwrap(), 0);
        b.write_u64(a + 16, 99).unwrap();
        assert_eq!(b.read_u64(a + 16).unwrap(), 99);
        b.release(a, 2 * ps).unwrap();
    }

    #[test]
    fn snapshot_is_zero_copy_then_cow_on_write() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(4 * ps).unwrap();
        for p in 0..4u64 {
            b.write_u64(a + p * ps, 10 + p).unwrap();
        }
        let pages_before = b.file_pages_in_use();
        let snap = b.vm_snapshot(None, a, 4 * ps).unwrap();
        assert_eq!(
            b.file_pages_in_use(),
            pages_before,
            "snapshot copies no data"
        );
        for p in 0..4u64 {
            assert_eq!(b.read_u64(snap + p * ps).unwrap(), 10 + p);
        }
        // First write to a frozen source page splits exactly one page.
        b.write_u64(a + ps, 777).unwrap();
        assert_eq!(b.stats().cow_copies.load(Ordering::Relaxed), 1);
        assert_eq!(b.read_u64(a + ps).unwrap(), 777);
        assert_eq!(b.read_u64(snap + ps).unwrap(), 11, "snapshot unaffected");
        // Writing the same page again is free.
        b.write_u64(a + ps + 8, 778).unwrap();
        assert_eq!(b.stats().cow_copies.load(Ordering::Relaxed), 1);
    }

    /// One split of a page shared with one snapshot is exactly one
    /// `pwrite` (the pre-write content into a fresh file page) and one
    /// `MAP_FIXED` (the snapshot's page onto it): no transient mapping, no
    /// `munmap`, and the written view's page list never changes.
    #[test]
    fn split_is_one_pwrite_and_one_mmap_and_the_writer_keeps_its_pages() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(4 * ps).unwrap();
        for p in 0..4u64 {
            b.write_u64(a + p * ps, 10 + p).unwrap();
        }
        let snap = b.vm_snapshot(None, a, 4 * ps).unwrap();
        let pages = b.file_pages(a).unwrap();
        let before = b.stats().snapshot();
        b.write_u64(a + 2 * ps, 99).unwrap();
        let after = b.stats().snapshot();
        assert_eq!(after.pwrite_calls - before.pwrite_calls, 1);
        assert_eq!(after.mmap_calls - before.mmap_calls, 1);
        assert_eq!(after.munmap_calls - before.munmap_calls, 0);
        assert_eq!(after.ftruncate_calls - before.ftruncate_calls, 0);
        assert_eq!(after.cow_copies - before.cow_copies, 1);
        assert_eq!(
            b.file_pages(a).unwrap(),
            pages,
            "the writer keeps its pages"
        );
        let moved = b.file_pages(snap).unwrap();
        assert_ne!(moved[2], pages[2], "the snapshot moved onto the copy");
        assert_eq!(moved[..2], pages[..2]);
        assert_eq!(moved[3], pages[3]);
        assert_eq!(b.read_u64(a + 2 * ps).unwrap(), 99);
        assert_eq!(b.read_u64(snap + 2 * ps).unwrap(), 12);
        // Every later store to the page is a plain store.
        b.write_u64(a + 2 * ps + 8, 100).unwrap();
        assert_eq!(b.stats().snapshot().pwrite_calls, after.pwrite_calls);
    }

    /// The wired-runs gauge follows every view: one run per pristine
    /// area, and a split breaks only the snapshot's run.
    #[test]
    fn wired_runs_gauge_tracks_fragmentation_of_the_snapshot_only() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let runs = || b.stats().snapshot().wired_runs;
        let a = b.alloc(8 * ps).unwrap();
        assert_eq!(runs(), 1);
        let snap = b.vm_snapshot(None, a, 8 * ps).unwrap();
        assert_eq!(runs(), 2);
        b.write_u64(a + 3 * ps, 1).unwrap();
        // The live view stays one run; the snapshot is 0..3, 3, 4..8.
        assert_eq!(runs(), 4);
        // The next snapshot of the live view is one run again.
        let snap2 = b.vm_snapshot(None, a, 8 * ps).unwrap();
        assert_eq!(runs(), 5);
        b.release(snap, 8 * ps).unwrap();
        b.release(snap2, 8 * ps).unwrap();
        assert_eq!(runs(), 1);
        b.release(a, 8 * ps).unwrap();
        assert_eq!(runs(), 0);
    }

    /// Every view of a file page at a page index is one reference, and
    /// `file_pages_in_use` counts the pages some view maps.
    fn assert_refcounts_exact(b: &OsBackend) {
        let st = b.inner.state.read();
        let mut views = vec![0u32; st.file.refs.len()];
        for area in st.areas.values() {
            for &fp in &area.pages {
                views[fp as usize] += 1;
            }
        }
        assert_eq!(views, st.file.refs);
        let mapped = views.iter().filter(|&&v| v > 0).count() as u64;
        assert_eq!(st.file.next - st.file.free.len() as u64, mapped);
    }

    #[test]
    fn failed_pwrite_changes_nothing() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        b.write_u64(a, 7).unwrap();
        let snap = b.vm_snapshot(None, a, 2 * ps).unwrap();
        let (pages, in_use) = (b.file_pages(a).unwrap(), b.file_pages_in_use());
        b.inner.calls_before_failure.store(0, Ordering::Relaxed);
        assert!(b.write_u64(a, 8).is_err());
        b.inner
            .calls_before_failure
            .store(u64::MAX, Ordering::Relaxed);
        assert_eq!(b.file_pages(a).unwrap(), pages);
        assert_eq!(b.file_pages(snap).unwrap(), pages);
        assert_eq!(b.file_pages_in_use(), in_use);
        assert_eq!(b.stats().cow_copies.load(Ordering::Relaxed), 0);
        assert_refcounts_exact(&b);
        // The page is still frozen: the retry splits it.
        b.write_u64(a, 8).unwrap();
        assert_eq!(b.stats().cow_copies.load(Ordering::Relaxed), 1);
        assert_eq!((b.read_u64(a).unwrap(), b.read_u64(snap).unwrap()), (8, 7));
        assert_refcounts_exact(&b);
    }

    /// A `MAP_FIXED` failing at the second of two sharers leaves the first
    /// on the byte-identical copy, the written page frozen, and every
    /// refcount exact; the retry moves the remaining sharer.
    #[test]
    fn failed_sharer_rewire_keeps_moved_sharers_and_refcounts_exact() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(ps).unwrap();
        b.write_u64(a, 7).unwrap();
        let s1 = b.vm_snapshot(None, a, ps).unwrap();
        let s2 = b.vm_snapshot(None, a, ps).unwrap();
        let fp = b.file_pages(a).unwrap()[0];
        // The pwrite and the first sharer's MAP_FIXED go through.
        b.inner.calls_before_failure.store(2, Ordering::Relaxed);
        assert!(b.write_u64(a, 8).is_err());
        b.inner
            .calls_before_failure
            .store(u64::MAX, Ordering::Relaxed);
        let on_old = [s1, s2]
            .iter()
            .filter(|&&s| b.file_pages(s).unwrap()[0] == fp)
            .count();
        assert_eq!(on_old, 1, "exactly one sharer moved");
        assert_eq!(b.file_pages(a).unwrap()[0], fp);
        assert_refcounts_exact(&b);
        for v in [a, s1, s2] {
            assert_eq!(b.read_u64(v).unwrap(), 7);
        }
        b.write_u64(a, 8).unwrap();
        assert_eq!(b.file_pages(a).unwrap()[0], fp);
        assert_refcounts_exact(&b);
        assert_eq!(
            [a, s1, s2].map(|v| b.read_u64(v).unwrap()),
            [8, 7, 7],
            "both snapshots keep the pre-write content"
        );
    }

    #[test]
    fn sole_owner_write_reclaims_in_place() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(ps).unwrap();
        b.write_u64(a, 5).unwrap();
        let snap = b.vm_snapshot(None, a, ps).unwrap();
        b.release(snap, ps).unwrap();
        b.write_u64(a, 6).unwrap();
        assert_eq!(b.stats().cow_copies.load(Ordering::Relaxed), 0);
        assert_eq!(b.stats().cow_reclaims.load(Ordering::Relaxed), 1);
        assert_eq!(b.read_u64(a).unwrap(), 6);
    }

    #[test]
    fn recycled_destination_reads_source_content() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        b.write_u64(a, 1).unwrap();
        let old = b.alloc(2 * ps).unwrap();
        b.write_u64(old, 42).unwrap();
        let d = b.vm_snapshot(Some(old), a, 2 * ps).unwrap();
        assert_eq!(d, old);
        assert_eq!(b.read_u64(d).unwrap(), 1, "rewired onto the source");
        assert_eq!(b.stats().recycled.load(Ordering::Relaxed), 1);
        // Both views split correctly afterwards.
        b.write_u64(a, 2).unwrap();
        assert_eq!(b.read_u64(d).unwrap(), 1);
        assert_eq!(b.read_u64(a).unwrap(), 2);
    }

    #[test]
    fn released_pages_are_reused_and_zeroed() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(8 * ps).unwrap();
        for p in 0..8u64 {
            b.write_u64(a + p * ps, u64::MAX).unwrap();
        }
        b.release(a, 8 * ps).unwrap();
        let hw = {
            let st = b.inner.state.read();
            st.file.next
        };
        let c = b.alloc(8 * ps).unwrap();
        let hw2 = {
            let st = b.inner.state.read();
            st.file.next
        };
        assert_eq!(hw, hw2, "allocation reused released file pages");
        for p in 0..8u64 {
            assert_eq!(b.read_u64(c + p * ps).unwrap(), 0, "recycled page zeroed");
        }
    }

    #[test]
    fn huge_page_hints_fire_on_wire_and_rewire() {
        let b = OsBackend::with_huge_pages(true).unwrap();
        let ps = b.page_size();
        let a = b.alloc(4 * ps).unwrap();
        let after_alloc = b.stats().huge_page_advices.load(Ordering::Relaxed);
        assert!(after_alloc > 0, "alloc must advise its fresh view");
        // A fresh-destination snapshot wires a second view: more hints.
        let snap = b.vm_snapshot(None, a, 4 * ps).unwrap();
        let after_snap = b.stats().huge_page_advices.load(Ordering::Relaxed);
        assert!(after_snap > after_alloc, "snapshot view must be advised");
        // Copy-on-write rewires one page of the snapshot view onto the
        // copy (the written view keeps its wiring): re-advised.
        b.write_u64(a, 1).unwrap();
        assert!(b.stats().huge_page_advices.load(Ordering::Relaxed) > after_snap);
        b.release(snap, 4 * ps).unwrap();
        b.release(a, 4 * ps).unwrap();
        // The knob off means zero hints.
        let plain = OsBackend::new().unwrap();
        let p = plain.alloc(ps).unwrap();
        assert_eq!(plain.stats().huge_page_advices.load(Ordering::Relaxed), 0);
        plain.release(p, ps).unwrap();
    }

    #[test]
    fn sequential_advice_counts_and_snapshots_surface() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        b.advise_sequential(a, 2 * ps);
        b.advise_sequential(a, ps); // prefix of an area is fine too
        let s = b.os_stats().expect("OS backend surfaces stats");
        assert_eq!(s.sequential_advices, 2);
        assert_eq!(s, b.stats().snapshot());
        // Unknown address: ignored, not counted.
        b.advise_sequential(a + 64 * ps, ps);
        assert_eq!(b.stats().sequential_advices.load(Ordering::Relaxed), 2);
        b.release(a, 2 * ps).unwrap();
    }

    #[test]
    fn raw_parts_reads_through_the_mapping() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(ps).unwrap();
        b.write_u64(a + 8, 21).unwrap();
        let p = b.raw_parts(a, ps).unwrap();
        // SAFETY(provenance: p, a, bounds: ps): in-bounds of the live
        // mapping allocated just above.
        assert_eq!(unsafe { *p.add(1) }, 21);
        assert!(b.raw_parts(a, 2 * ps).is_none(), "out of bounds refused");
    }
}
