//! Real-OS memory backend: one main-memory file (a memfd) per column,
//! with snapshot views that the kernel copies on write.
//!
//! This is the paper's RUMA-style *rewiring* (§3.2.3) brought to real
//! memory without a patched kernel, with the kernel keeping every file
//! page:
//!
//! * An allocated area is the **live** view of a column, the one every
//!   store goes to: a memfd of its own, `ftruncate`d to the area's size
//!   and mapped whole `MAP_SHARED` — one `memfd_create`, one `ftruncate`
//!   and one `mmap`. A fresh file reads zero.
//! * [`VmBackend::vm_snapshot`](crate::VmBackend::vm_snapshot) of a live
//!   view never copies data: the snapshot is one **`MAP_PRIVATE`** `mmap`
//!   of the same file, and every page of the live view is marked
//!   **frozen**. The live view's page tables are then dropped
//!   (`MADV_DONTNEED`, which on a shared memfd mapping keeps the data), so
//!   a page read through both views is not resident twice in the
//!   process's accounting. A caller-chosen destination (`Some(d)`) is
//!   refused with [`VmError::BadDestination`]: no engine path recycles
//!   one, so the simulated kernel alone models §4.1.3's recycling.
//! * A snapshot is a read-only **image** of its live view. A store into
//!   one is refused with [`VmError::ProtectionFault`], and a snapshot of
//!   one with [`VmError::InvalidArgument`]; neither refusal changes
//!   anything. The engine only snapshots and writes live areas.
//! * A private view reads the file page until it holds its own copy. So
//!   before the first store to a frozen page of the live view, the
//!   backend makes every private view of that page that still reads
//!   through take its copy: one `madvise(MADV_POPULATE_WRITE)` per such
//!   view, which makes the kernel copy the page into the view's private
//!   memory and changes no byte. Only then does the store land. Nothing
//!   is mapped or rewired by a split.
//! * [`VmBackend::vm_snapshot_read_through`](crate::VmBackend::vm_snapshot_read_through)
//!   cuts an image whose readers read its unsplit pages through the live
//!   view, never through the image's own mapping. Its cut is the same
//!   `MAP_PRIVATE` `mmap` without the `MADV_DONTNEED`, and its split is
//!   done in user space: one `memcpy` of the live page into a resident
//!   page of the backend's **copy pool**, recorded in the image's copy
//!   table before its bit clears — no syscall, no page fault, no TLB
//!   shootdown. The image's mapping keeps reading the file, so a read of
//!   a split page, locked or lock-free, goes to its copy through the
//!   image's [`View`]. The pool's pages come from anonymous slabs it maps
//!   with `MAP_POPULATE`; a page goes back to it when its image drops,
//!   and the slabs are unmapped when the backend drops, or on the reclaim
//!   path once no image holds a copy and none was taken for 100 ms.
//!   Because every store tests the page's frozen bit first — in
//!   [`VmBackend::write_u64`](crate::VmBackend::write_u64) /
//!   [`write_words`](crate::VmBackend::write_words), or lock-free through
//!   a [`View`], which sends a frozen page back here — no
//!   `mprotect` and no SIGSEGV handler are needed (§4.1.4): the check is
//!   one branch on a bit already in cache.
//! * A frozen view's *contents* never change, but the page-table entry
//!   behind a page may move onto the private copy. The kernel swaps it
//!   atomically, and a racing reader loads the same bytes from the old
//!   page or the new one.
//! * The private views that may still read a live view's pages are found
//!   through its file's **lineage**: every view that maps the file. A
//!   frozen page no private view still reads through is made writable in
//!   place instead.
//!
//! [`VmBackend::view`](crate::VmBackend::view) hands out a direct
//! [`View`] of an area: loads, and stores to unfrozen pages of a live
//! area, without this backend's lock (see [`crate::view`] for the store
//! contract). Each mapping unmaps itself when its last holder — the area
//! table or a view — drops it. A private view's [`View`] carries the
//! view's not-yet-privatised bits ([`View::reads_through`]), so a reader
//! can copy such a page from the live view and leave the private view's
//! page unmapped. That matters for the writer: a populate of an unmapped
//! private page installs a page-table entry, while a populate of a
//! mapped one replaces it, and the kernel must then interrupt every other
//! CPU running the process to flush its TLB (an IPI) before the split
//! returns.
//!
//! Every view holds its file. The descriptor closes when the last view
//! mapping the file is released, and the kernel frees the file's pages
//! once no mapping of them is left; the private copies are anonymous
//! memory, freed when their view is unmapped (or, for a user-space copy,
//! returned to the copy pool). So the backend holds one descriptor per
//! live column. Past the process's `RLIMIT_NOFILE` an allocation fails
//! with `VmError::Os { call: "memfd_create", errno: EMFILE }`, as it fails
//! on `ENOMEM`; the backend never raises the limit. [`OsStats`] counts
//! every `mmap`/`munmap`/`ftruncate`/`madvise` the backend issues and
//! every user-space copy, and gauges the views mapped and the copy pool's
//! pages.
//!
//! The backend needs `MADV_POPULATE_WRITE` (Linux ≥ 5.14);
//! [`OsBackend::new`] fails with a typed error on older kernels. Everything
//! is declared via direct `extern "C"` libc bindings — the offline build
//! forbids new registry dependencies.

use crate::error::{Result, VmError};
#[cfg(target_os = "linux")]
use crate::view::{Copies, PageBits, View, CHECK_STORES};
#[cfg(target_os = "linux")]
use parking_lot::{Mutex, RwLock};
#[cfg(target_os = "linux")]
use std::collections::BTreeMap;
#[cfg(target_os = "linux")]
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::atomic::AtomicU64;
#[cfg(target_os = "linux")]
use std::sync::atomic::{fence, Ordering};
#[cfg(target_os = "linux")]
use std::sync::Arc;
#[cfg(target_os = "linux")]
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
mod ffi {
    use core::ffi::{c_char, c_void};

    pub const PROT_READ: i32 = 0x1;
    pub const PROT_WRITE: i32 = 0x2;
    pub const MAP_SHARED: i32 = 0x01;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    /// `MAP_POPULATE`: fault the whole mapping in at `mmap` time.
    pub const MAP_POPULATE: i32 = 0x8000;
    pub const MFD_CLOEXEC: u32 = 0x1;
    /// `_SC_PAGESIZE` on Linux.
    pub const SC_PAGESIZE: i32 = 30;
    /// `MADV_DONTNEED`: drop the range's page tables. On a shared memfd
    /// mapping the data stays in the file.
    pub const MADV_DONTNEED: i32 = 4;
    /// `MADV_HUGEPAGE`: back the range with transparent huge pages where
    /// possible (honoured for shmem/memfd mappings since Linux 4.8).
    pub const MADV_HUGEPAGE: i32 = 14;
    /// `MADV_POPULATE_WRITE` (Linux ≥ 5.14): fault the range in as if
    /// written, without writing. On a private file mapping this is the
    /// kernel's copy-on-write of every page not yet copied.
    pub const MADV_POPULATE_WRITE: i32 = 23;

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
        pub fn ftruncate(fd: i32, length: i64) -> i32;
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

/// One `mmap` of a whole file. It is unmapped when its last holder
/// drops: the area table's entry or a [`View`] of it.
#[cfg(target_os = "linux")]
#[derive(Debug)]
struct Mapping {
    base: u64,
    bytes: u64,
    /// An image cut for reading through: its copy table, and the pool its
    /// copies go back to when the mapping drops.
    aside: Option<(Arc<Copies>, Arc<CopyPool>)>,
    stats: Arc<OsStats>,
}

#[cfg(target_os = "linux")]
impl Drop for Mapping {
    fn drop(&mut self) {
        // No view reads the copies any more: every view holds the mapping.
        if let Some((copies, pool)) = &self.aside {
            pool.give_back(copies.taken());
        }
        OsBackend::bump(&self.stats.munmap_calls);
        self.stats.wired_runs.fetch_sub(1, Ordering::Relaxed);
        // SAFETY(provenance: self, base, bounds: bytes): one whole mapping
        // this backend created; its last holder is gone, so no safe entry
        // point can reach it any more. munmap of a whole mapping cannot
        // fail.
        unsafe { ffi::munmap(self.base as *mut _, self.bytes as usize) };
    }
}

/// One mapped view: a whole memfd, mapped from offset 0.
#[cfg(target_os = "linux")]
#[derive(Debug)]
struct Area {
    /// The whole mapping as a [`View`]: its page bits (see [`PageBits`]),
    /// its copy table if it has one, and its [`Mapping`]. The locked
    /// reads go through it, as the lock-free ones do.
    view: View,
    /// The file the view maps; it stays open while any view maps it.
    file: Arc<OwnedFd>,
}

#[cfg(target_os = "linux")]
impl Area {
    fn bytes(&self) -> u64 {
        self.view.len() as u64 * 8
    }
}

/// What a mapped view is.
#[cfg(target_os = "linux")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ViewKind {
    /// A file's `MAP_SHARED` live view.
    Live,
    /// A zero-copy `MAP_PRIVATE` snapshot: the kernel copies its split
    /// pages into its own mapping.
    Snapshot,
    /// A `MAP_PRIVATE` image cut for reading through: its split pages are
    /// copied aside, into the copy pool.
    ReadThrough,
}

/// How long the copy pool stays mapped with no copy held and none taken.
#[cfg(target_os = "linux")]
const POOL_IDLE: Duration = Duration::from_millis(100);

/// Pages per slab the copy pool maps at once.
#[cfg(target_os = "linux")]
const SLAB_PAGES: u64 = 256;

/// Resident pages for the user-space splits of images cut for reading
/// through. A slab is one anonymous `mmap` with `MAP_POPULATE`, so every
/// page is resident before a split takes it, and a page an image gives
/// back stays resident for the next split. The slabs are unmapped when
/// the pool drops, and on the reclaim path once no image has held a copy
/// and none has been taken for [`POOL_IDLE`].
#[cfg(target_os = "linux")]
#[derive(Debug)]
struct CopyPool {
    page_size: u64,
    stats: Arc<OsStats>,
    /// Leaf lock: nothing is acquired under it.
    state: Mutex<PoolState>,
}

#[cfg(target_os = "linux")]
#[derive(Debug, Default)]
struct PoolState {
    /// The base of every slab mapped.
    slabs: Vec<u64>,
    /// Resident pages no image holds.
    free: Vec<u64>,
    /// Pages images hold as copies.
    in_use: u64,
    /// When a split last took a page.
    last_take: Option<Instant>,
}

#[cfg(target_os = "linux")]
impl PoolState {
    fn publish(&self, stats: &OsStats) {
        stats
            .copy_pages_in_use
            .store(self.in_use, Ordering::Relaxed);
        stats
            .copy_pages_pooled
            .store(self.free.len() as u64, Ordering::Relaxed);
    }
}

#[cfg(target_os = "linux")]
impl CopyPool {
    /// A resident page for one copy, mapping a slab when none is free
    /// (`fail` is the backend's failure hook, consulted before the
    /// `mmap`).
    fn take(&self, fail: impl FnOnce() -> Result<()>) -> Result<u64> {
        let mut st = self.state.lock();
        if st.free.is_empty() {
            fail()?;
            let bytes = SLAB_PAGES * self.page_size;
            // SAFETY(provenance: mmap, bounds: bytes): a fresh anonymous
            // mapping at a kernel-chosen address, touching no existing
            // memory.
            let p = unsafe {
                ffi::mmap(
                    std::ptr::null_mut(),
                    bytes as usize,
                    ffi::PROT_READ | ffi::PROT_WRITE,
                    ffi::MAP_PRIVATE | ffi::MAP_ANONYMOUS | ffi::MAP_POPULATE,
                    -1,
                    0,
                )
            };
            if p == ffi::map_failed() {
                return Err(os_err("mmap"));
            }
            OsBackend::bump(&self.stats.slab_maps);
            let base = p as u64;
            st.slabs.push(base);
            st.free
                .extend((0..SLAB_PAGES).rev().map(|i| base + i * self.page_size));
        }
        let page = st.free.pop().expect("a free page");
        st.in_use += 1;
        st.last_take = Some(Instant::now());
        st.publish(&self.stats);
        Ok(page)
    }

    /// Take back the copies of an image that dropped.
    fn give_back(&self, pages: impl Iterator<Item = u64>) {
        let mut st = self.state.lock();
        let before = st.free.len();
        st.free.extend(pages);
        st.in_use -= (st.free.len() - before) as u64;
        st.publish(&self.stats);
    }

    /// Unmap every slab when no image holds a copy and none was taken for
    /// [`POOL_IDLE`]. The gauges screen out the common case without the
    /// lock.
    fn trim_if_idle(&self) {
        if self.stats.copy_pages_pooled.load(Ordering::Relaxed) == 0
            || self.stats.copy_pages_in_use.load(Ordering::Relaxed) != 0
        {
            return;
        }
        let mut st = self.state.lock();
        if st.in_use == 0 && st.last_take.is_some_and(|t| t.elapsed() >= POOL_IDLE) {
            self.unmap_slabs(&mut st);
        }
    }

    fn unmap_slabs(&self, st: &mut PoolState) {
        debug_assert_eq!(st.in_use, 0, "an image still holds a copy");
        for base in st.slabs.drain(..) {
            OsBackend::bump(&self.stats.slab_unmaps);
            // SAFETY(provenance: base, slabs, bounds: SLAB_PAGES): one whole
            // slab this pool mapped; no image holds a page of it, so no view
            // reads it. munmap of a whole mapping cannot fail.
            unsafe { ffi::munmap(base as *mut _, (SLAB_PAGES * self.page_size) as usize) };
        }
        st.free.clear();
        st.publish(&self.stats);
    }
}

#[cfg(target_os = "linux")]
impl Drop for CopyPool {
    fn drop(&mut self) {
        // Every image holds the pool, so none is left.
        let mut st = std::mem::take(self.state.get_mut());
        self.unmap_slabs(&mut st);
    }
}

#[cfg(target_os = "linux")]
#[derive(Debug, Default)]
struct MapState {
    areas: BTreeMap<u64, Area>,
    /// Member bases of every open file's lineage, keyed by its
    /// descriptor: at most one live view and the private views cut from
    /// it. A store to the live view looks for the private views it must
    /// copy for here instead of scanning every area.
    lineages: BTreeMap<i32, Vec<u64>>,
}

#[cfg(target_os = "linux")]
impl MapState {
    /// Table `area` at `base` and enrol it in its file's lineage.
    fn insert_area(&mut self, base: u64, area: Area) {
        self.lineages
            .entry(area.file.as_raw_fd())
            .or_default()
            .push(base);
        self.areas.insert(base, area);
    }

    /// Remove the area at `base` from the table and its lineage. Dropping
    /// the returned area closes its file if no other view maps it.
    fn remove_area(&mut self, base: u64) -> Option<Area> {
        let area = self.areas.remove(&base)?;
        let fd = area.file.as_raw_fd();
        let members = self.lineages.get_mut(&fd).expect("lineage exists");
        members.retain(|&b| b != base);
        if members.is_empty() {
            self.lineages.remove(&fd);
        }
        Some(area)
    }
}

/// Counters of the OS backend (diagnostics and tests): monotonic event
/// and syscall counts, plus the [`OsStats::wired_runs`],
/// [`OsStats::copy_pages_in_use`] and [`OsStats::copy_pages_pooled`]
/// gauges.
#[derive(Debug, Default)]
pub struct OsStats {
    /// `vm_snapshot` and `vm_snapshot_read_through` calls served.
    pub snapshots: AtomicU64,
    /// Copy-on-write splits: first stores to a frozen page of a live view
    /// that some private view still read through. Each such view takes
    /// its copy: a zero-copy snapshot by [`OsStats::populate_writes`], an
    /// image cut for reading through by [`OsStats::user_copies`].
    pub cow_copies: AtomicU64,
    /// Frozen pages made writable in place (no private view still reads
    /// them through — no copy needed).
    pub cow_reclaims: AtomicU64,
    /// `madvise(MADV_POPULATE_WRITE)` calls issued: one per zero-copy
    /// snapshot copying one page in a split.
    pub populate_writes: AtomicU64,
    /// User-space copies taken in splits: one `memcpy` of the live page
    /// into a resident pool page per image cut for reading through.
    pub user_copies: AtomicU64,
    /// `madvise(MADV_DONTNEED)` calls issued: one per zero-copy snapshot
    /// of a live view, dropping its page tables.
    pub dontneed_advices: AtomicU64,
    /// `madvise(MADV_HUGEPAGE)` calls issued (huge-pages knob on).
    pub huge_page_advices: AtomicU64,
    /// `mmap` calls issued: one per view mapped.
    pub mmap_calls: AtomicU64,
    /// `munmap` calls issued.
    pub munmap_calls: AtomicU64,
    /// `ftruncate` calls issued: one per file, sizing it.
    pub ftruncate_calls: AtomicU64,
    /// Gauge: the views mapped, i.e. the mappings the backend currently
    /// holds (each view is one `mmap` of one whole file).
    pub wired_runs: AtomicU64,
    /// Anonymous `mmap` calls issued for copy-pool slabs (not views, so
    /// not in [`OsStats::mmap_calls`]).
    pub slab_maps: AtomicU64,
    /// `munmap` calls issued for copy-pool slabs (not in
    /// [`OsStats::munmap_calls`]).
    pub slab_unmaps: AtomicU64,
    /// Gauge: copy-pool pages images hold as the copies of split pages.
    pub copy_pages_in_use: AtomicU64,
    /// Gauge: resident copy-pool pages no image holds.
    pub copy_pages_pooled: AtomicU64,
}

impl OsStats {
    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> OsStatsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let populate_writes = self.populate_writes.load(Relaxed);
        let dontneed_advices = self.dontneed_advices.load(Relaxed);
        let huge_page_advices = self.huge_page_advices.load(Relaxed);
        OsStatsSnapshot {
            snapshots: self.snapshots.load(Relaxed),
            cow_copies: self.cow_copies.load(Relaxed),
            cow_reclaims: self.cow_reclaims.load(Relaxed),
            populate_writes,
            user_copies: self.user_copies.load(Relaxed),
            dontneed_advices,
            huge_page_advices,
            mmap_calls: self.mmap_calls.load(Relaxed),
            munmap_calls: self.munmap_calls.load(Relaxed),
            ftruncate_calls: self.ftruncate_calls.load(Relaxed),
            madvise_calls: populate_writes + dontneed_advices + huge_page_advices,
            wired_runs: self.wired_runs.load(Relaxed),
            slab_maps: self.slab_maps.load(Relaxed),
            slab_unmaps: self.slab_unmaps.load(Relaxed),
            copy_pages_in_use: self.copy_pages_in_use.load(Relaxed),
            copy_pages_pooled: self.copy_pages_pooled.load(Relaxed),
        }
    }
}

/// A point-in-time copy of [`OsStats`] — the shape bench records and the
/// engine's stats surface carry (plain `u64`s, platform-independent).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsStatsSnapshot {
    pub snapshots: u64,
    pub cow_copies: u64,
    pub cow_reclaims: u64,
    pub populate_writes: u64,
    pub user_copies: u64,
    pub dontneed_advices: u64,
    pub huge_page_advices: u64,
    pub mmap_calls: u64,
    pub munmap_calls: u64,
    pub ftruncate_calls: u64,
    /// Every `madvise` issued: `populate_writes + dontneed_advices +
    /// huge_page_advices`.
    pub madvise_calls: u64,
    pub wired_runs: u64,
    pub slab_maps: u64,
    pub slab_unmaps: u64,
    pub copy_pages_in_use: u64,
    pub copy_pages_pooled: u64,
}

#[cfg(target_os = "linux")]
#[derive(Debug)]
struct OsInner {
    page_size: u64,
    /// Advise every mapped view `MADV_HUGEPAGE` so the kernel may collapse
    /// it into transparent huge pages (fewer TLB misses on big column
    /// scans). Off by default; see [`OsBackend::with_huge_pages`].
    huge_pages: bool,
    /// Declared before `pool`, so the areas drop first and give their
    /// copies back before the pool unmaps its slabs.
    state: RwLock<MapState>,
    /// Shared with every image cut for reading through.
    pool: Arc<CopyPool>,
    /// Shared with every [`Mapping`], which counts its own `munmap`.
    stats: Arc<OsStats>,
    /// Test hook: how many more `mmap`s and populates may run
    /// before every further one fails (`u64::MAX` = never).
    #[cfg(test)]
    calls_before_failure: AtomicU64,
}

/// Handle to the real-OS memory backend. Cheap to clone; all clones share
/// one area table. See the module docs for the design.
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
    /// Create a backend. Fails with [`VmError::Os`] when the kernel lacks
    /// `madvise(MADV_POPULATE_WRITE)` — the copy-on-write of snapshot
    /// views — which needs Linux ≥ 5.14 (`call: "madvise"`, `errno`
    /// `EINVAL`).
    pub fn new() -> Result<OsBackend> {
        Self::with_huge_pages(false)
    }

    /// Like [`OsBackend::new`], with the transparent-huge-pages knob: when
    /// `huge_pages` is true, every mapped view is advised `MADV_HUGEPAGE`,
    /// and [`OsStats::huge_page_advices`] counts the hints issued. Whether
    /// the kernel honours them depends on the system's shmem THP policy;
    /// the hint itself is free.
    pub fn with_huge_pages(huge_pages: bool) -> Result<OsBackend> {
        // A zero-length madvise validates the advice and touches nothing:
        // kernels without MADV_POPULATE_WRITE answer EINVAL. Not counted
        // in OsStats — it concerns no view.
        // SAFETY(provenance: madvise, bounds: 0): a zero-length range
        // at a page-aligned address covers no memory.
        if unsafe { ffi::madvise(std::ptr::null_mut(), 0, ffi::MADV_POPULATE_WRITE) } != 0 {
            return Err(os_err("madvise"));
        }
        // SAFETY(provenance: sysconf): the syscall reads no caller memory.
        let ps = unsafe { ffi::sysconf(ffi::SC_PAGESIZE) };
        if ps <= 0 || !(ps as u64).is_power_of_two() {
            return Err(VmError::InvalidArgument("unusable system page size"));
        }
        let stats = Arc::<OsStats>::default();
        Ok(OsBackend {
            inner: Arc::new(OsInner {
                page_size: ps as u64,
                huge_pages,
                state: RwLock::new(MapState::default()),
                pool: Arc::new(CopyPool {
                    page_size: ps as u64,
                    stats: Arc::clone(&stats),
                    state: Mutex::default(),
                }),
                stats,
                #[cfg(test)]
                calls_before_failure: AtomicU64::new(u64::MAX),
            }),
        })
    }

    /// Count one issued syscall (or event) on `counter`.
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Fail the fallible `call` about to be issued when the test hook says
    /// so, with `ENOMEM` (as at `vm.max_map_count` or a memory cgroup
    /// limit).
    #[inline]
    fn injected_failure(&self, call: &'static str) -> Result<()> {
        #[cfg(test)]
        if self
            .inner
            .calls_before_failure
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_err()
        {
            return Err(VmError::Os { call, errno: 12 });
        }
        let _ = call;
        Ok(())
    }

    /// Backend counters (snapshots, copy-on-write splits, reclaims).
    pub fn stats(&self) -> &OsStats {
        &self.inner.stats
    }

    /// Pages of the open files: the size of every file some view still
    /// maps, counted once however many views map it.
    pub fn file_pages_in_use(&self) -> u64 {
        let st = self.inner.state.read();
        st.lineages
            .values()
            .map(|views| st.areas[&views[0]].bytes() / self.inner.page_size)
            .sum()
    }

    fn check_aligned(&self, v: u64) -> Result<()> {
        if v.is_multiple_of(self.inner.page_size) {
            Ok(())
        } else {
            Err(VmError::Misaligned { addr: v })
        }
    }

    /// A new memfd of `bytes`, reading zero. On failure no descriptor
    /// stays open.
    fn create_file(&self, bytes: u64) -> Result<Arc<OwnedFd>> {
        // SAFETY(provenance: memfd_create): plain syscall; the name is a
        // valid NUL-terminated C string literal.
        let fd = unsafe { ffi::memfd_create(c"ankerdb-column".as_ptr(), ffi::MFD_CLOEXEC) };
        if fd < 0 {
            return Err(os_err("memfd_create"));
        }
        // SAFETY(provenance: fd): memfd_create just opened the descriptor
        // and nothing else owns it.
        let file = unsafe { OwnedFd::from_raw_fd(fd) };
        Self::bump(&self.inner.stats.ftruncate_calls);
        // SAFETY(provenance: file, bounds: bytes): sizing our own fresh
        // memfd, which no view maps yet.
        if unsafe { ffi::ftruncate(file.as_raw_fd(), bytes as i64) } != 0 {
            return Err(os_err("ftruncate"));
        }
        Ok(Arc::new(file))
    }

    /// Map `file` whole — `MAP_PRIVATE` when `private`, else `MAP_SHARED`
    /// — at a kernel-chosen address.
    fn map(&self, file: &OwnedFd, bytes: u64, private: bool) -> Result<Mapping> {
        self.injected_failure("mmap")?;
        Self::bump(&self.inner.stats.mmap_calls);
        let flags = if private {
            ffi::MAP_PRIVATE
        } else {
            ffi::MAP_SHARED
        };
        // SAFETY(provenance: file, bounds: bytes): a fresh mapping at a
        // kernel-chosen address, touching no existing memory; the file is
        // `bytes` long.
        let p = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                bytes as usize,
                ffi::PROT_READ | ffi::PROT_WRITE,
                flags,
                file.as_raw_fd(),
                0,
            )
        };
        if p == ffi::map_failed() {
            return Err(os_err("mmap"));
        }
        Self::bump(&self.inner.stats.wired_runs);
        if self.inner.huge_pages {
            // Every mapped view is advised here — the single point every
            // view passes through.
            // SAFETY(provenance: p, bounds: bytes): advising the mapping
            // just created above; madvise on a valid range cannot corrupt
            // anything (it is a hint).
            unsafe { ffi::madvise(p, bytes as usize, ffi::MADV_HUGEPAGE) };
            Self::bump(&self.inner.stats.huge_page_advices);
        }
        Ok(Mapping {
            base: p as u64,
            bytes,
            aside: None,
            stats: Arc::clone(&self.inner.stats),
        })
    }

    /// Locate the area containing `addr`; returns `(base, &area)`.
    fn area_at(state: &MapState, addr: u64) -> Result<(u64, &Area)> {
        state
            .areas
            .range(..=addr)
            .next_back()
            .filter(|(base, a)| addr < *base + a.bytes())
            .map(|(base, a)| (*base, a))
            .ok_or(VmError::NotMapped { addr })
    }

    /// Make page `page_idx` of the live area at `base` writable: every
    /// image of its file that still reads the page through takes its copy
    /// first — a zero-copy snapshot with one `madvise(MADV_POPULATE_WRITE)`,
    /// an image cut for reading through with one `memcpy` into a resident
    /// pool page, recorded in its copy table before its bit clears. With
    /// none left the page is reclaimed in place, and the pool is trimmed
    /// if it has been idle. Caller holds the write lock and the engine's
    /// serialized write path. The page's bit clears last, so a lock-free
    /// store that sees it clear finds every copy made.
    ///
    /// On failure the page stays frozen: the images that already copied
    /// it keep their byte-identical copies, and a retry copies for the
    /// rest.
    fn ensure_writable(&self, state: &MapState, base: u64, page_idx: usize) -> Result<()> {
        let ps = self.inner.page_size;
        let area = &state.areas[&base];
        if !area.view.bits().get(page_idx) {
            return Ok(());
        }
        let readers: Vec<&Area> = state.lineages[&area.file.as_raw_fd()]
            .iter()
            .filter(|&&b| b != base && state.areas[&b].view.bits().get(page_idx))
            .map(|b| &state.areas[b])
            .collect();
        for r in &readers {
            debug_assert!(!r.view.is_live(), "one live view per file");
            if let Some(copies) = r.view.copies() {
                let copy = self.inner.pool.take(|| self.injected_failure("mmap"))?;
                let live = (base + page_idx as u64 * ps) as *const u8;
                // SAFETY(provenance: base, copy, bounds: ps, page_idx): one
                // page of the tabled live view — frozen, so nothing stores
                // to it while the write lock is held — into a resident pool
                // page no image holds yet.
                unsafe { std::ptr::copy_nonoverlapping(live, copy as *mut u8, ps as usize) };
                copies.set(page_idx, copy);
                Self::bump(&self.inner.stats.user_copies);
            } else {
                self.injected_failure("madvise")?;
                Self::bump(&self.inner.stats.populate_writes);
                let page = (r.view.as_ptr() as u64 + page_idx as u64 * ps) as *mut _;
                // SAFETY(provenance: r, page_idx, bounds: ps): one page of a
                // tabled image, mapped read-write (the write lock keeps it
                // mapped). The kernel copies the file page into the image
                // and changes no byte, so a concurrent reader of the image
                // loads the same data.
                if unsafe { ffi::madvise(page, ps as usize, ffi::MADV_POPULATE_WRITE) } != 0 {
                    return Err(os_err("madvise"));
                }
            }
            // Publishes the copy (see `crate::view`).
            r.view.bits().clear(page_idx);
        }
        if readers.is_empty() {
            Self::bump(&self.inner.stats.cow_reclaims);
            self.inner.pool.trim_if_idle();
        } else {
            Self::bump(&self.inner.stats.cow_copies);
        }
        area.view.bits().clear(page_idx);
        Ok(())
    }

    /// Bounds-check `[addr, addr + bytes)` against its containing area and
    /// return the area's base, the area and the page index range the span
    /// covers.
    fn page_span(
        state: &MapState,
        addr: u64,
        bytes: u64,
        ps: u64,
    ) -> Result<(u64, &Area, std::ops::Range<usize>)> {
        let (base, area) = Self::area_at(state, addr)?;
        if addr + bytes > base + area.bytes() {
            return Err(VmError::NotMapped {
                addr: base + area.bytes(),
            });
        }
        let first = ((addr - base) / ps) as usize;
        let last = ((addr + bytes.max(1) - 1 - base) / ps) as usize;
        Ok((base, area, first..last + 1))
    }

    /// [`OsBackend::page_span`] of a store. An image is read-only: a store
    /// into one is refused before anything changes.
    fn store_span(
        state: &MapState,
        addr: u64,
        bytes: u64,
        ps: u64,
    ) -> Result<(u64, &Area, std::ops::Range<usize>)> {
        let span = Self::page_span(state, addr, bytes, ps)?;
        if !span.1.view.is_live() {
            return Err(VmError::ProtectionFault { addr });
        }
        Ok(span)
    }

    /// Map `file` as a new view of `kind` — a new area, or an image — and
    /// table it.
    fn map_view(
        &self,
        st: &mut MapState,
        file: Arc<OwnedFd>,
        kind: ViewKind,
        bytes: u64,
    ) -> Result<u64> {
        let live = kind == ViewKind::Live;
        let mut map = self.map(&file, bytes, !live)?;
        let pages = (bytes / self.inner.page_size) as usize;
        if kind == ViewKind::ReadThrough {
            map.aside = Some((Arc::new(Copies::new(pages)), Arc::clone(&self.inner.pool)));
        }
        let (base, copies) = (map.base, map.aside.as_ref().map(|(c, _)| Arc::clone(c)));
        // SAFETY(provenance: map, bounds: bytes): the whole of a fresh
        // read-write mapping, which the view keeps alive. Its bits start
        // as a live view's, all clear, or as an image's, all set: every
        // page read through (see `PageBits`). Its copies are pool pages the
        // mapping gives back only when it drops.
        let view = unsafe {
            View::new(
                base,
                (bytes / 8) as usize,
                self.inner.page_size.trailing_zeros(),
                Arc::new(PageBits::new(pages, !live)),
                live,
                copies,
                Arc::new(map),
            )
        };
        st.insert_area(base, Area { view, file });
        Ok(base)
    }

    /// [`VmBackend::vm_snapshot`](crate::VmBackend::vm_snapshot) of the
    /// live area at `src`, cut into an image of `kind`: a zero-copy
    /// [`ViewKind::Snapshot`] drops the live view's page tables after the
    /// cut (`MADV_DONTNEED`), so that a page both views map is resident
    /// once in the process's accounting; a [`ViewKind::ReadThrough`] image
    /// never maps its unsplit pages, so it leaves them. An image is no
    /// source: its split pages are not in its file, and the engine never
    /// snapshots one.
    fn cut(&self, src: u64, bytes: u64, kind: ViewKind) -> Result<u64> {
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
        if src_area.bytes() != bytes {
            return Err(VmError::InvalidArgument(
                "vm_snapshot length does not match the source area",
            ));
        }
        if !src_area.view.is_live() {
            return Err(VmError::InvalidArgument("vm_snapshot of a snapshot image"));
        }
        let file = Arc::clone(&src_area.file);
        // On failure the source is untouched: not frozen, page tables kept.
        let base = self.map_view(&mut st, file, kind, bytes)?;
        // Every page of the live view is frozen until the new image copied
        // it or a write finds nobody reading it through.
        let frozen = st.areas[&src].view.bits();
        frozen.set_all();
        if CHECK_STORES {
            assert_eq!(
                frozen.stores_in_flight(),
                0,
                "a lock-free store raced a vm_snapshot of its area"
            );
        }
        if kind == ViewKind::Snapshot {
            // Drop the live view's page tables: the data stays in the
            // memfd, and a page the new view reads is resident once, not
            // once per view. Never fails on a tabled view; the result would
            // change nothing but memory accounting.
            // SAFETY(provenance: src, st, bounds: bytes): the whole range
            // is a tabled MAP_SHARED view (the write lock keeps it mapped);
            // MADV_DONTNEED on a shared file mapping changes no byte, and a
            // concurrent access simply faults the same file page back in.
            unsafe { ffi::madvise(src as *mut _, bytes as usize, ffi::MADV_DONTNEED) };
            Self::bump(&self.inner.stats.dontneed_advices);
        }
        Self::bump(&self.inner.stats.snapshots);
        Ok(base)
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
        let mut st = self.inner.state.write();
        let file = self.create_file(bytes)?;
        self.map_view(&mut st, file, ViewKind::Live, bytes)
    }

    fn release(&self, addr: u64, bytes: u64) -> Result<()> {
        self.check_aligned(addr)?;
        let mut st = self.inner.state.write();
        let Some(area) = st.areas.get(&addr) else {
            return Err(VmError::NotMapped { addr });
        };
        if area.bytes() != bytes {
            return Err(VmError::InvalidArgument(
                "release length does not match the area",
            ));
        }
        // Unmapped here, or when the last view of it drops.
        st.remove_area(addr);
        Ok(())
    }

    fn vm_snapshot(&self, dst: Option<u64>, src: u64, bytes: u64) -> Result<u64> {
        // No engine path recycles a destination (§4.1.3); the simulated
        // kernel models it, this backend refuses it and touches nothing.
        if let Some(d) = dst {
            return Err(VmError::BadDestination { addr: d });
        }
        self.cut(src, bytes, ViewKind::Snapshot)
    }

    fn vm_snapshot_read_through(&self, src: u64, bytes: u64) -> Result<u64> {
        self.cut(src, bytes, ViewKind::ReadThrough)
    }

    fn read_u64(&self, addr: u64) -> Result<u64> {
        if !addr.is_multiple_of(8) {
            return Err(VmError::Misaligned { addr });
        }
        let st = self.inner.state.read();
        // An aligned word that starts in an area ends in it: areas are
        // whole pages.
        let (base, area) = Self::area_at(&st, addr)?;
        Ok(area.view.load(((addr - base) / 8) as usize))
    }

    fn write_u64(&self, addr: u64, value: u64) -> Result<()> {
        if !addr.is_multiple_of(8) {
            return Err(VmError::Misaligned { addr });
        }
        let ps = self.inner.page_size;
        {
            // The read lock keeps a `vm_snapshot` of the area, which takes
            // the write lock, from racing the store.
            let st = self.inner.state.read();
            let (base, area, _) = Self::store_span(&st, addr, 8, ps)?;
            if area.view.try_store(((addr - base) / 8) as usize, value) {
                return Ok(());
            }
        }
        // Frozen page: split it under the write lock, then store.
        let st = self.inner.state.write();
        let (base, area, pages) = Self::store_span(&st, addr, 8, ps)?;
        self.ensure_writable(&st, base, pages.start)?;
        let stored = area.view.try_store(((addr - base) / 8) as usize, value);
        assert!(stored, "a split page takes the store");
        Ok(())
    }

    fn read_words(&self, addr: u64, buf: &mut [u64]) -> Result<()> {
        if !addr.is_multiple_of(8) {
            return Err(VmError::Misaligned { addr });
        }
        if buf.is_empty() {
            return Ok(());
        }
        let st = self.inner.state.read();
        let (base, area, _) =
            Self::page_span(&st, addr, buf.len() as u64 * 8, self.inner.page_size)?;
        area.view.read_into(((addr - base) / 8) as usize, buf);
        Ok(())
    }

    fn write_words(&self, addr: u64, words: &[u64]) -> Result<()> {
        // A real check, not a debug_assert: this is a safe public entry
        // point, and an unaligned volatile store is UB.
        if !addr.is_multiple_of(8) {
            return Err(VmError::Misaligned { addr });
        }
        if words.is_empty() {
            return Ok(());
        }
        let ps = self.inner.page_size;
        let st = self.inner.state.write();
        let (base, _, pages) = Self::store_span(&st, addr, words.len() as u64 * 8, ps)?;
        for page_idx in pages {
            self.ensure_writable(&st, base, page_idx)?;
        }
        // ORDERING: Release orders the bit clears before the stores (see
        // `crate::view`).
        fence(Ordering::Release);
        let p = addr as *mut u64;
        for (i, &w) in words.iter().enumerate() {
            // SAFETY(provenance: st, store_span, ensure_writable, p, bounds:
            // words): inside the checked span of a live mapping, which
            // holds every word in place, and every page of the span is
            // writable now; still holding the write lock.
            unsafe { p.add(i).write_volatile(w) };
        }
        Ok(())
    }

    fn os_stats(&self) -> Option<OsStatsSnapshot> {
        Some(self.inner.stats.snapshot())
    }

    fn view(&self, addr: u64, bytes: u64) -> Option<View> {
        if !bytes.is_multiple_of(8) {
            return None;
        }
        let st = self.inner.state.read();
        let area = st.areas.get(&addr)?;
        (bytes <= area.bytes()).then(|| area.view.prefix((bytes / 8) as usize))
    }

    fn name(&self) -> &'static str {
        "os"
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

    /// Pages of the open files (stub).
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

    /// Let the next `n` fallible calls through, then fail every further
    /// one (`u64::MAX` = never fail).
    fn fail_after(b: &OsBackend, n: u64) {
        b.inner.calls_before_failure.store(n, Ordering::Relaxed);
    }

    fn is_frozen(b: &OsBackend, base: u64, page: usize) -> bool {
        b.inner.state.read().areas[&base].view.bits().get(page)
    }

    /// The file the view at `base` maps.
    fn file_of(b: &OsBackend, base: u64) -> *const OwnedFd {
        Arc::as_ptr(&b.inner.state.read().areas[&base].file)
    }

    /// An allocation is one new file: one `ftruncate` and one `mmap`.
    #[test]
    fn alloc_is_zeroed_and_round_trips() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        let s = b.stats().snapshot();
        assert_eq!((s.ftruncate_calls, s.mmap_calls, s.wired_runs), (1, 1, 1));
        assert_eq!(b.file_pages_in_use(), 2);
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

    /// A snapshot of a live view is exactly one `MAP_PRIVATE` `mmap` of
    /// its file and one `MADV_DONTNEED` of the live view. A split of a
    /// page two private views read through is exactly one
    /// `MADV_POPULATE_WRITE` per view: no `mmap`, no `munmap`, no
    /// `ftruncate`, and every view keeps its file.
    #[test]
    fn split_is_one_populate_per_private_sharer_and_every_view_keeps_its_pages() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(4 * ps).unwrap();
        for p in 0..4u64 {
            b.write_u64(a + p * ps, 10 + p).unwrap();
        }
        let before = b.stats().snapshot();
        let s1 = b.vm_snapshot(None, a, 4 * ps).unwrap();
        let s2 = b.vm_snapshot(None, a, 4 * ps).unwrap();
        let cut = b.stats().snapshot();
        assert_eq!(cut.mmap_calls - before.mmap_calls, 2);
        assert_eq!(cut.dontneed_advices - before.dontneed_advices, 2);
        assert_eq!(cut.madvise_calls - before.madvise_calls, 2);
        assert_eq!(cut.ftruncate_calls, before.ftruncate_calls);
        let file = file_of(&b, a);
        b.write_u64(a + 2 * ps, 99).unwrap();
        let after = b.stats().snapshot();
        assert_eq!(after.populate_writes - cut.populate_writes, 2);
        assert_eq!(after.madvise_calls - cut.madvise_calls, 2);
        assert_eq!(after.mmap_calls - cut.mmap_calls, 0);
        assert_eq!(after.munmap_calls - cut.munmap_calls, 0);
        assert_eq!(after.ftruncate_calls - cut.ftruncate_calls, 0);
        assert_eq!(after.cow_copies - cut.cow_copies, 1);
        for v in [a, s1, s2] {
            assert_eq!(file_of(&b, v), file, "every view keeps its file");
        }
        assert_eq!(b.read_u64(a + 2 * ps).unwrap(), 99);
        for s in [s1, s2] {
            assert_eq!(b.read_u64(s + 2 * ps).unwrap(), 12);
        }
        // Every later store to the page is a plain store.
        b.write_u64(a + 2 * ps + 8, 100).unwrap();
        assert_eq!(b.stats().snapshot(), after);
        // A view cut after the split copies it again on the next write,
        // alone: the earlier views already hold their copies.
        let s3 = b.vm_snapshot(None, a, 4 * ps).unwrap();
        let cut = b.stats().snapshot();
        b.write_u64(a + 2 * ps, 101).unwrap();
        assert_eq!(
            b.stats().snapshot().populate_writes - cut.populate_writes,
            1
        );
        assert_eq!(
            [a, s1, s2, s3].map(|v| b.read_u64(v + 2 * ps + 8).unwrap()),
            [100, 0, 0, 100]
        );
        assert_eq!(b.read_u64(s3 + 2 * ps).unwrap(), 99);
    }

    /// The wired-runs gauge counts the views mapped: every image is one
    /// more, and a split, a user-space one included, maps no view.
    #[test]
    fn wired_runs_gauge_equals_live_views() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let runs = || b.stats().snapshot().wired_runs;
        let a = b.alloc(8 * ps).unwrap();
        assert_eq!(runs(), 1);
        let snap = b.vm_snapshot(None, a, 8 * ps).unwrap();
        assert_eq!(runs(), 2);
        for p in 0..8 {
            b.write_u64(a + p * ps, 1).unwrap();
        }
        assert_eq!(runs(), 2, "splits map nothing");
        let snap2 = b.vm_snapshot(None, a, 8 * ps).unwrap();
        let hot = b.vm_snapshot_read_through(a, 8 * ps).unwrap();
        assert_eq!(runs(), 4);
        b.write_u64(a + 3 * ps, 2).unwrap();
        assert_eq!(runs(), 4, "a pool slab is no view");
        for v in [snap, snap2, hot] {
            b.release(v, 8 * ps).unwrap();
        }
        assert_eq!(runs(), 1);
        b.release(a, 8 * ps).unwrap();
        assert_eq!(runs(), 0);
    }

    /// Exact file accounting: the views are the only holders of their
    /// files, each file's lineage lists exactly the views that map it, at
    /// most one of them live and all of its size, and
    /// `file_pages_in_use` is the summed size of those files.
    fn assert_files_exact(b: &OsBackend) {
        let in_use = b.file_pages_in_use();
        let st = b.inner.state.read();
        let mut files: BTreeMap<i32, Vec<u64>> = BTreeMap::new();
        for (&base, area) in &st.areas {
            files.entry(area.file.as_raw_fd()).or_default().push(base);
        }
        let mut lineages = st.lineages.clone();
        lineages
            .values_mut()
            .for_each(|views| views.sort_unstable());
        assert_eq!(files, lineages, "lineages are the views of each file");
        let mut pages = 0;
        for views in files.values() {
            let first = &st.areas[&views[0]];
            assert_eq!(Arc::strong_count(&first.file), views.len());
            assert!(views.iter().filter(|&v| st.areas[v].view.is_live()).count() <= 1);
            assert!(views.iter().all(|v| st.areas[v].bytes() == first.bytes()));
            pages += first.bytes() / b.inner.page_size;
        }
        assert_eq!(in_use, pages);
    }

    /// A failed populate fails the write, leaves the page frozen and both
    /// views on their old bytes; the retry splits it.
    #[test]
    fn failed_populate_changes_nothing() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        b.write_u64(a, 7).unwrap();
        let snap = b.vm_snapshot(None, a, 2 * ps).unwrap();
        let (file, in_use) = (file_of(&b, a), b.file_pages_in_use());
        fail_after(&b, 0);
        assert_eq!(
            b.write_u64(a, 8),
            Err(VmError::Os {
                call: "madvise",
                errno: 12
            })
        );
        fail_after(&b, u64::MAX);
        assert!(is_frozen(&b, a, 0), "the page stays frozen");
        assert!(is_frozen(&b, snap, 0), "the view copied nothing");
        assert_eq!(file_of(&b, a), file);
        assert_eq!(file_of(&b, snap), file);
        assert_eq!(b.file_pages_in_use(), in_use);
        let s = b.stats().snapshot();
        assert_eq!((s.cow_copies, s.populate_writes), (0, 0));
        assert_eq!((b.read_u64(a).unwrap(), b.read_u64(snap).unwrap()), (7, 7));
        assert_files_exact(&b);
        // The retry splits it.
        b.write_u64(a, 8).unwrap();
        assert_eq!(b.stats().cow_copies.load(Ordering::Relaxed), 1);
        assert_eq!((b.read_u64(a).unwrap(), b.read_u64(snap).unwrap()), (8, 7));
        assert_files_exact(&b);
    }

    /// A populate failing at the second of two private views leaves the
    /// first with its byte-identical copy, the written page frozen and
    /// the file accounting exact; the retry copies for the remaining view
    /// only.
    #[test]
    fn failed_populate_keeps_copied_sharers_and_refcounts_exact() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(ps).unwrap();
        b.write_u64(a, 7).unwrap();
        let s1 = b.vm_snapshot(None, a, ps).unwrap();
        let s2 = b.vm_snapshot(None, a, ps).unwrap();
        let file = file_of(&b, a);
        fail_after(&b, 1);
        assert!(b.write_u64(a, 8).is_err());
        fail_after(&b, u64::MAX);
        let copied = [s1, s2].iter().filter(|&&s| !is_frozen(&b, s, 0)).count();
        assert_eq!(copied, 1, "exactly one view copied the page");
        assert!(is_frozen(&b, a, 0));
        assert_eq!(b.stats().populate_writes.load(Ordering::Relaxed), 1);
        assert_files_exact(&b);
        for v in [a, s1, s2] {
            assert_eq!(b.read_u64(v).unwrap(), 7);
            assert_eq!(file_of(&b, v), file);
        }
        b.write_u64(a, 8).unwrap();
        assert_eq!(b.stats().populate_writes.load(Ordering::Relaxed), 2);
        assert_eq!(b.stats().cow_copies.load(Ordering::Relaxed), 1);
        assert_files_exact(&b);
        assert_eq!(
            [a, s1, s2].map(|v| b.read_u64(v).unwrap()),
            [8, 7, 7],
            "both snapshots keep the pre-write content"
        );
    }

    /// A failed private map issues nothing else and leaves the source
    /// readable, writable and unfrozen.
    #[test]
    fn failed_private_map_leaves_the_source_untouched() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        b.write_u64(a, 7).unwrap();
        let (before, in_use) = (b.stats().snapshot(), b.file_pages_in_use());
        fail_after(&b, 0);
        assert!(b.vm_snapshot(None, a, 2 * ps).is_err());
        fail_after(&b, u64::MAX);
        let after = b.stats().snapshot();
        assert_eq!(after.mmap_calls, before.mmap_calls, "no mmap was issued");
        assert_eq!(after.munmap_calls, before.munmap_calls, "nothing to unmap");
        assert_eq!((after.snapshots, after.dontneed_advices), (0, 0));
        assert_eq!(after.wired_runs, before.wired_runs);
        assert_eq!(b.file_pages_in_use(), in_use);
        assert!(!is_frozen(&b, a, 0) && !is_frozen(&b, a, 1));
        assert_files_exact(&b);

        assert_eq!(b.read_u64(a).unwrap(), 7);
        b.write_u64(a, 8).unwrap();
        let s = b.stats().snapshot();
        assert_eq!((s.cow_copies, s.cow_reclaims), (0, 0), "a plain store");
        assert_eq!(b.read_u64(a).unwrap(), 8);
    }

    /// An image is read-only: a store into one, word or block, is a
    /// protection fault, and a snapshot of one, zero-copy or read-through,
    /// is an invalid argument. No refusal changes anything: the bytes, the
    /// frozen bits, the open files and every counter stay as they were.
    #[test]
    fn an_image_is_read_only_and_each_refusal_changes_nothing() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        b.write_words(a, &[7, 8]).unwrap();
        let snap = b.vm_snapshot(None, a, 2 * ps).unwrap();
        let hot = b.vm_snapshot_read_through(a, 2 * ps).unwrap();
        // Page 1 splits: each image holds its copy of it, and reads page 0
        // through.
        b.write_u64(a + ps, 9).unwrap();
        let state = || {
            let views = [a, snap, hot].map(|v| {
                let words = [v, v + 8, v + ps].map(|w| b.read_u64(w).unwrap());
                (words, [0, 1].map(|p| is_frozen(&b, v, p)))
            });
            (views, b.file_pages_in_use(), b.stats().snapshot())
        };
        let before = state();
        assert_eq!(before.0[1], ([7, 8, 0], [true, false]));
        assert_eq!(before.0[2], ([7, 8, 0], [true, false]));
        for img in [snap, hot] {
            for at in [img + 8, img + ps] {
                assert_eq!(
                    b.write_u64(at, 1),
                    Err(VmError::ProtectionFault { addr: at })
                );
            }
            assert_eq!(
                b.write_words(img, &[1, 2]),
                Err(VmError::ProtectionFault { addr: img })
            );
            assert!(matches!(
                b.vm_snapshot(None, img, 2 * ps),
                Err(VmError::InvalidArgument(_))
            ));
            assert!(matches!(
                b.vm_snapshot_read_through(img, 2 * ps),
                Err(VmError::InvalidArgument(_))
            ));
            assert_eq!(state(), before, "a refusal at {img:#x} changed something");
        }
        assert_files_exact(&b);
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

    /// A caller-chosen destination is refused before anything happens:
    /// no syscall, no page frozen, both areas as they were.
    #[test]
    fn a_destination_is_refused_and_nothing_changes() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        b.write_u64(a, 1).unwrap();
        let old = b.alloc(2 * ps).unwrap();
        b.write_u64(old, 42).unwrap();
        let before = b.stats().snapshot();
        assert_eq!(
            b.vm_snapshot(Some(old), a, 2 * ps),
            Err(VmError::BadDestination { addr: old })
        );
        assert_eq!(b.stats().snapshot(), before, "no syscall, no snapshot");
        assert!(!is_frozen(&b, a, 0) && !is_frozen(&b, a, 1));
        assert_eq!([a, old].map(|v| b.read_u64(v).unwrap()), [1, 42]);
        assert_files_exact(&b);
    }

    #[test]
    fn an_alloc_after_a_release_reads_zero() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(8 * ps).unwrap();
        for p in 0..8u64 {
            b.write_u64(a + p * ps, u64::MAX).unwrap();
        }
        b.release(a, 8 * ps).unwrap();
        assert_eq!(b.file_pages_in_use(), 0, "the file closed with its view");
        let c = b.alloc(8 * ps).unwrap();
        for p in 0..8u64 {
            assert_eq!(b.read_u64(c + p * ps).unwrap(), 0);
        }
    }

    #[test]
    fn huge_page_hints_fire_on_wire_and_rewire() {
        let b = OsBackend::with_huge_pages(true).unwrap();
        let ps = b.page_size();
        let hints = || b.stats().huge_page_advices.load(Ordering::Relaxed);
        let a = b.alloc(4 * ps).unwrap();
        let after_alloc = hints();
        assert_eq!(after_alloc, 1, "alloc advises its one fresh run");
        // A fresh-destination snapshot maps a second view: one more hint.
        let snap = b.vm_snapshot(None, a, 4 * ps).unwrap();
        assert_eq!(hints(), 2, "snapshot view must be advised");
        // A split maps nothing, so it advises nothing.
        b.write_u64(a, 1).unwrap();
        assert_eq!(hints(), 2);
        let s = b.os_stats().expect("the OS backend surfaces its stats");
        assert_eq!(s, b.stats().snapshot());
        assert_eq!(s.madvise_calls, 2 + s.dontneed_advices + s.populate_writes);
        b.release(snap, 4 * ps).unwrap();
        b.release(a, 4 * ps).unwrap();
        // The knob off means zero hints.
        let plain = OsBackend::new().unwrap();
        let p = plain.alloc(ps).unwrap();
        assert_eq!(plain.stats().huge_page_advices.load(Ordering::Relaxed), 0);
        plain.release(p, ps).unwrap();
    }

    /// A view reads through the mapping, refuses a range past the area,
    /// and stores to a writable page of a live area without the lock.
    #[test]
    fn a_view_reads_and_stores_through_the_mapping() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        b.write_u64(a + 8, 21).unwrap();
        let v = b.view(a, 2 * ps).unwrap();
        assert_eq!(v.len() as u64, 2 * ps / 8);
        assert_eq!(v.load(1), 21);
        assert!(b.view(a, 3 * ps).is_none(), "out of bounds refused");
        assert!(b.view(a + 8, ps).is_none(), "not an area's base");
        assert!(v.try_store(2, 5), "an unfrozen page takes the plain store");
        assert_eq!(b.read_u64(a + 16).unwrap(), 5);
        let mut buf = [0u64; 3];
        v.read_into(0, &mut buf);
        assert_eq!(buf, [0, 21, 5]);
        b.release(a, 2 * ps).unwrap();
    }

    /// After a snapshot a live view's stores fall back to the locked
    /// split, page by page, and a split page takes plain stores again; a
    /// snapshot view never stores without the lock.
    #[test]
    fn a_frozen_page_sends_view_stores_to_the_split() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        let live = b.view(a, 2 * ps).unwrap();
        assert!(live.try_store(0, 7));
        let snap = b.vm_snapshot(None, a, 2 * ps).unwrap();
        let image = b.view(snap, 2 * ps).unwrap();
        assert!(!live.try_store(0, 8), "frozen: the split is the backend's");
        assert!(!image.try_store(0, 9), "an image takes no store");
        assert_eq!((live.load(0), image.load(0)), (7, 7));
        b.write_u64(a, 8).unwrap();
        assert!(live.try_store(1, 9), "the split page is writable again");
        assert!(
            !live.try_store(ps as usize / 8, 1),
            "page 1 is still frozen"
        );
        assert_eq!([live.load(0), live.load(1), image.load(0)], [8, 9, 7]);
        assert_eq!(b.stats().snapshot().cow_copies, 1);
    }

    /// A snapshot view reads a page through until a split gives it its
    /// own copy, and leaves the page unmapped until then; a live view
    /// never reads through.
    #[test]
    fn a_snapshot_view_reads_through_until_the_split() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        let live = b.view(a, 2 * ps).unwrap();
        let snap = b.vm_snapshot(None, a, 2 * ps).unwrap();
        let image = b.view(snap, 2 * ps).unwrap();
        assert_eq!(image.page_words() as u64, ps / 8);
        assert!(!live.reads_through(0) && !live.reads_through(1));
        assert!(image.reads_through(0) && image.reads_through(1));
        b.write_u64(a + ps, 4).unwrap();
        assert!(image.reads_through(0), "page 0 is unsplit");
        assert!(!image.reads_through(1), "page 1 holds its copy");
        assert_eq!(
            [image.load(ps as usize / 8), live.load(ps as usize / 8)],
            [0, 4]
        );
        b.release(snap, 2 * ps).unwrap();
        b.release(a, 2 * ps).unwrap();
    }

    /// Debug and `lockcheck` builds catch a lock-free store in flight
    /// across a `vm_snapshot` of its area.
    #[test]
    fn a_store_in_flight_across_a_snapshot_is_caught() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(ps).unwrap();
        b.inner.state.read().areas[&a].view.bits().begin_store();
        let cut = std::panic::catch_unwind(|| b.vm_snapshot(None, a, ps));
        assert_eq!(cut.is_err(), CHECK_STORES);
    }

    /// A view keeps its mapping alive past `release`: the munmap comes
    /// with the last view, whichever area's view it is.
    #[test]
    fn a_view_defers_the_munmap_and_pins_its_destination() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(ps).unwrap();
        b.write_u64(a, 3).unwrap();
        let d = b.alloc(ps).unwrap();
        let dv = b.view(d, ps).unwrap();
        let v = b.view(a, ps).unwrap();
        let before = b.stats().snapshot();
        b.release(a, ps).unwrap();
        assert_eq!(b.read_u64(a), Err(VmError::NotMapped { addr: a }));
        assert_eq!(v.load(0), 3, "the view still reads its mapping");
        assert_eq!(b.stats().snapshot().munmap_calls, before.munmap_calls);
        let v2 = v.clone();
        drop(v);
        assert_eq!(v2.load(0), 3);
        drop(v2);
        let after = b.stats().snapshot();
        assert_eq!(after.munmap_calls - before.munmap_calls, 1);
        assert_eq!(after.wired_runs, 1, "the destination alone");
        drop(dv);
        assert_eq!(b.stats().snapshot().munmap_calls, after.munmap_calls);
        b.release(d, ps).unwrap();
        assert_eq!(b.stats().snapshot().wired_runs, 0);
    }

    /// A split of an image cut for reading through is one `memcpy` into a
    /// resident pool page: the cut issues no `MADV_DONTNEED`, the first
    /// split maps one populated slab, and every later split issues no
    /// `madvise` and no `mmap` of any kind. The image's own mapping is
    /// never touched, and the copy goes back to the pool with the image.
    #[test]
    fn a_read_through_split_issues_no_syscall() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(4 * ps).unwrap();
        for p in 0..4u64 {
            b.write_u64(a + p * ps, 10 + p).unwrap();
        }
        let before = b.stats().snapshot();
        let img = b.vm_snapshot_read_through(a, 4 * ps).unwrap();
        let cut = b.stats().snapshot();
        assert_eq!(cut.mmap_calls - before.mmap_calls, 1, "the image's view");
        assert_eq!(cut.madvise_calls, before.madvise_calls, "no DONTNEED");
        assert_eq!(cut.snapshots - before.snapshots, 1);
        b.write_u64(a, 20).unwrap();
        let first = b.stats().snapshot();
        assert_eq!(first.slab_maps - cut.slab_maps, 1, "the pool's first slab");
        assert_eq!(first.user_copies - cut.user_copies, 1);
        assert_eq!(first.madvise_calls, cut.madvise_calls);
        for p in 1..4u64 {
            b.write_u64(a + p * ps, 20 + p).unwrap();
        }
        let after = b.stats().snapshot();
        assert_eq!(after.madvise_calls - first.madvise_calls, 0);
        assert_eq!(after.mmap_calls - first.mmap_calls, 0);
        assert_eq!(after.slab_maps - first.slab_maps, 0);
        assert_eq!(after.populate_writes, 0);
        assert_eq!(after.user_copies - first.user_copies, 3);
        assert_eq!(after.cow_copies - cut.cow_copies, 4);
        assert_eq!(after.copy_pages_in_use, 4);
        assert_eq!(after.copy_pages_pooled, SLAB_PAGES - 4);
        for p in 0..4u64 {
            assert!(!is_frozen(&b, img, p as usize), "page {p} holds its copy");
            assert_eq!(b.read_u64(img + p * ps).unwrap(), 10 + p);
            assert_eq!(b.read_u64(a + p * ps).unwrap(), 20 + p);
        }
        b.release(img, 4 * ps).unwrap();
        let s = b.stats().snapshot();
        assert_eq!((s.copy_pages_in_use, s.copy_pages_pooled), (0, SLAB_PAGES));
        assert_eq!(s.slab_unmaps, 0, "the pool stays resident");
    }

    /// Every read entry point of an image cut for reading through reads
    /// the cut, split pages and unsplit ones alike: `read_u64`,
    /// `read_words` across a page boundary, and a [`View`]'s loads and
    /// block reads; a page split after the reads are made reads the cut
    /// too.
    #[test]
    fn every_read_of_a_read_through_image_reads_the_cut() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let pw = (ps / 8) as usize;
        let a = b.alloc(3 * ps).unwrap();
        let cut: Vec<u64> = (0..3 * pw as u64).collect();
        b.write_words(a, &cut).unwrap();
        let img = b.vm_snapshot_read_through(a, 3 * ps).unwrap();
        let view = b.view(img, 3 * ps).unwrap();
        assert!(!view.is_in_place());
        assert!(b.view(a, 3 * ps).unwrap().is_in_place());
        // Split pages 0 and 2; page 1 stays read through.
        b.write_u64(a + 8, 1000).unwrap();
        b.write_words(a + 2 * ps, &[2000, 2001]).unwrap();
        assert!(!is_frozen(&b, img, 0) && is_frozen(&b, img, 1) && !is_frozen(&b, img, 2));
        for i in [0, 1, pw - 1, pw, pw + 3, 2 * pw, 3 * pw - 1] {
            assert_eq!(b.read_u64(img + i as u64 * 8).unwrap(), cut[i], "word {i}");
            assert_eq!(view.load(i), cut[i], "word {i}");
        }
        let mut buf = vec![0; 2 * pw];
        b.read_words(img + 8 * (pw as u64 / 2), &mut buf).unwrap();
        assert!(buf[..] == cut[pw / 2..pw / 2 + 2 * pw]);
        let mut all = vec![0; 3 * pw];
        view.read_into(0, &mut all);
        assert!(all == cut);
        b.write_u64(a + ps + 8, 4000).unwrap();
        assert_eq!(view.load(pw + 1), cut[pw + 1]);
        assert_eq!(b.read_u64(img + ps + 8).unwrap(), cut[pw + 1]);
        b.read_words(img, &mut all).unwrap();
        assert!(all == cut);
        assert_files_exact(&b);
    }

    /// A failed slab `mmap` fails the write and changes nothing: the live
    /// page stays frozen, the image still reads it through and reads the
    /// cut, and no copy is held; the retry splits it.
    #[test]
    fn a_failed_slab_mmap_leaves_the_page_frozen_and_the_image_intact() {
        let b = OsBackend::new().unwrap();
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        b.write_u64(a, 7).unwrap();
        let img = b.vm_snapshot_read_through(a, 2 * ps).unwrap();
        let view = b.view(img, 2 * ps).unwrap();
        fail_after(&b, 0);
        assert_eq!(
            b.write_u64(a, 8),
            Err(VmError::Os {
                call: "mmap",
                errno: 12
            })
        );
        fail_after(&b, u64::MAX);
        assert!(is_frozen(&b, a, 0), "the page stays frozen");
        assert!(view.reads_through(0), "the image copied nothing");
        let s = b.stats().snapshot();
        assert_eq!((s.cow_copies, s.user_copies, s.slab_maps), (0, 0, 0));
        assert_eq!((s.copy_pages_in_use, s.copy_pages_pooled), (0, 0));
        assert_eq!([b.read_u64(a).unwrap(), b.read_u64(img).unwrap()], [7, 7]);
        assert_eq!(view.load(0), 7);
        assert_files_exact(&b);
        b.write_u64(a, 8).unwrap();
        assert_eq!(b.stats().cow_copies.load(Ordering::Relaxed), 1);
        assert_eq!([b.read_u64(a).unwrap(), view.load(0)], [8, 7]);
    }

    /// The copy pool unmaps its slabs on the reclaim path once no image
    /// holds a copy and none was taken for [`POOL_IDLE`], and when the
    /// backend drops.
    #[test]
    fn the_pool_unmaps_its_slabs_when_idle_and_on_drop() {
        let b = OsBackend::new().unwrap();
        let stats = Arc::clone(&b.inner.stats);
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        let img = b.vm_snapshot_read_through(a, 2 * ps).unwrap();
        b.write_u64(a, 1).unwrap();
        b.release(img, 2 * ps).unwrap();
        // A reclaim inside the interval keeps the slab.
        let zero_copy = b.vm_snapshot(None, a, 2 * ps).unwrap();
        b.release(zero_copy, 2 * ps).unwrap();
        b.write_u64(a, 2).unwrap();
        let s = stats.snapshot();
        assert_eq!((s.cow_reclaims, s.slab_maps, s.slab_unmaps), (1, 1, 0));
        assert_eq!(s.copy_pages_pooled, SLAB_PAGES);
        // One past it unmaps the slab.
        std::thread::sleep(POOL_IDLE + Duration::from_millis(20));
        b.write_u64(a + ps, 3).unwrap();
        let s = stats.snapshot();
        assert_eq!((s.cow_reclaims, s.slab_unmaps), (2, 1));
        assert_eq!((s.copy_pages_in_use, s.copy_pages_pooled), (0, 0));
        // A held copy keeps the pool mapped past the interval.
        let img = b.vm_snapshot_read_through(a, 2 * ps).unwrap();
        b.write_u64(a, 4).unwrap();
        std::thread::sleep(POOL_IDLE + Duration::from_millis(20));
        let c = b.alloc(ps).unwrap();
        b.release(b.vm_snapshot(None, c, ps).unwrap(), ps).unwrap();
        b.write_u64(c, 5).unwrap();
        let s = stats.snapshot();
        assert_eq!((s.slab_maps, s.slab_unmaps, s.copy_pages_in_use), (2, 1, 1));
        assert_eq!(b.read_u64(img).unwrap(), 2);
        // The backend drop unmaps the rest.
        drop(b);
        let s = stats.snapshot();
        assert_eq!(
            (s.slab_unmaps, s.copy_pages_in_use, s.copy_pages_pooled),
            (2, 0, 0)
        );
    }
}
