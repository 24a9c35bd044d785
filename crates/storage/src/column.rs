//! A column's virtual memory area, generic over the [`VmBackend`] it is
//! mapped on, with block-wise access for tight scans and per-block min/max
//! zone maps for predicate pruning on frozen areas.

use crate::value::{LogicalType, Value};
use anker_vmem::{Result, Space, View, VmBackend, VmError};
use parking_lot::Mutex;
use std::sync::Arc;

/// Per-block `(min, max)` rank summaries of a column area — classic zone
/// maps. A scan with a pushed-down predicate consults them to skip whole
/// blocks whose value range cannot intersect the predicate.
///
/// Zone maps are only meaningful on a *frozen* area (a snapshot column):
/// the engine never writes a snapshot area after hand-over, so the summary
/// stays valid for the area's lifetime — across every epoch that shares
/// the frozen view. They are built lazily on the first
/// predicate scan and cached inside the [`ColumnArea`] handle (all clones
/// of a view share one cache). The snapshot manager freezes a column into
/// a new view with a fresh handle, so a summary primed on the writable
/// live area never reaches a snapshot scan.
///
/// Each block is summarised by one typed min/max kernel (`i64`, `i32`,
/// `u32` or `f64` with a NaN flag, by [`LogicalType`]), whose bounds equal
/// folding [`crate::rank`] over the block.
#[derive(Debug)]
pub struct ZoneMap {
    ty: LogicalType,
    block_rows: u32,
    /// `(min_rank, max_rank)` per block; a block containing a NaN double
    /// is recorded as `(-inf, +inf)` so it is never pruned.
    ranges: Vec<(f64, f64)>,
}

impl ZoneMap {
    /// The logical type the ranks were computed under.
    pub fn ty(&self) -> LogicalType {
        self.ty
    }

    /// Rows per block this map summarises.
    pub fn block_rows(&self) -> u32 {
        self.block_rows
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.ranges.len()
    }

    /// `(min_rank, max_rank)` of `block`.
    #[inline]
    pub fn block_range(&self, block: usize) -> (f64, f64) {
        self.ranges[block]
    }
}

/// The zone-map kernel: one block's `(min_rank, max_rank)` under `ty`,
/// with the min/max taken in the type's own domain (`i64` ints, `i32`
/// dates, `u32` dictionary codes, `f64` doubles) and converted to the
/// [`crate::rank`] scale once per block. Every conversion to `f64` is
/// monotone, so the result equals folding `rank` over the words; a block
/// holding a NaN double is `(-inf, +inf)`. Blocks are never empty.
fn block_bounds(words: &[u64], ty: LogicalType) -> (f64, f64) {
    match ty {
        LogicalType::Int => {
            let (lo, hi) = min_max(words, |w| w as i64);
            (lo as f64, hi as f64)
        }
        LogicalType::Date => {
            let (lo, hi) = min_max(words, |w| w as i32);
            (lo as f64, hi as f64)
        }
        LogicalType::Dict => {
            let (lo, hi) = min_max(words, |w| w as u32);
            (lo as f64, hi as f64)
        }
        LogicalType::Double => {
            let mut nan = false;
            let (lo, hi) = min_max(words, |w| {
                let x = f64::from_bits(w);
                nan |= x.is_nan();
                x
            });
            if nan {
                (f64::NEG_INFINITY, f64::INFINITY)
            } else {
                (lo, hi)
            }
        }
    }
}

/// Min/max of a non-empty block, seeded with its first value.
/// NaNs (which compare false) never replace a bound — the double kernel
/// flags them separately.
#[inline]
fn min_max<T: Copy + PartialOrd>(words: &[u64], mut lane: impl FnMut(u64) -> T) -> (T, T) {
    let first = lane(words[0]);
    words[1..].iter().fold((first, first), |(lo, hi), &w| {
        let v = lane(w);
        (if v < lo { v } else { lo }, if v > hi { v } else { hi })
    })
}

/// A fixed-size view of one column: `rows` 8-byte values stored densely in
/// the virtual memory area starting at `addr` of some [`VmBackend`] —
/// either the simulated kernel ([`anker_vmem::Space`]) or the real-OS
/// memfd backend ([`anker_vmem::OsBackend`]).
///
/// `ColumnArea` is deliberately a *view*: the heterogeneous snapshot manager
/// freezes a logical column into a new area on every snapshot
/// (paper Figure 1, steps 4 and 7), so areas are created and retired by the
/// layer above. Dropping a `ColumnArea` does not release anything; call
/// [`ColumnArea::unmap`] to release the area.
///
/// Where the backend maps areas as plain memory (the OS backend), the
/// handle caches the area's [`View`] once: a word load is then a volatile
/// load, and a store to a page no snapshot still reads is a volatile
/// store, neither taking the backend's lock. The view keeps the mapping
/// alive, so a handle that outlives [`ColumnArea::unmap`] of a clone
/// still reads mapped memory (its own, never another area's) until the
/// last clone drops. Bulk loads ([`ColumnArea::fill`]) and stores to
/// frozen pages take the backend's locked path.
///
/// A snapshot image may instead be **read through** its column's live
/// area ([`ColumnArea::read_through`]): every page the image holds no
/// private copy of is read from the live area, so the image's own page
/// is never mapped, and the split that later copies it for the image
/// finds no page-table entry to replace. Cut with
/// [`VmBackend::vm_snapshot_read_through`], the split copies it aside in
/// user space, and a read of a split page reads that copy.
#[derive(Debug, Clone)]
pub struct ColumnArea {
    backend: Arc<dyn VmBackend>,
    addr: u64,
    rows: u32,
    /// The direct view, where the backend gives one.
    view: Option<View>,
    /// The live area's view, for an image read through it.
    live: Option<View>,
    /// Lazily built zone maps, shared across clones of this view. A fresh
    /// cell is created per [`ColumnArea::alloc`]/[`ColumnArea::from_raw`],
    /// so a new area at a reused address never inherits a stale summary.
    zones: Arc<Mutex<Option<Arc<ZoneMap>>>>,
}

impl ColumnArea {
    /// Allocate a fresh zero-filled area on the simulated kernel, large
    /// enough for `rows` values, and wrap it.
    pub fn alloc(space: &Space, rows: u32) -> Result<ColumnArea> {
        Self::alloc_on(Arc::new(space.clone()), rows)
    }

    /// Allocate a fresh zero-filled area on any backend.
    pub fn alloc_on(backend: Arc<dyn VmBackend>, rows: u32) -> Result<ColumnArea> {
        let ps = backend.page_size();
        let bytes = (rows as u64 * 8).div_ceil(ps).max(1) * ps;
        let addr = backend.alloc(bytes)?;
        Ok(Self::from_raw_on(backend, addr, rows))
    }

    /// View an existing simulated-kernel area (e.g. one returned by
    /// `vm_snapshot`) as a column of `rows` values.
    pub fn from_raw(space: Space, addr: u64, rows: u32) -> ColumnArea {
        Self::from_raw_on(Arc::new(space), addr, rows)
    }

    /// View an existing area of any backend as a column of `rows` values.
    pub fn from_raw_on(backend: Arc<dyn VmBackend>, addr: u64, rows: u32) -> ColumnArea {
        let view = backend.view(addr, rows as u64 * 8);
        ColumnArea {
            backend,
            addr,
            rows,
            view,
            live: None,
            zones: Arc::new(Mutex::new(None)),
        }
    }

    /// This snapshot image, read through `live`, the live area it was cut
    /// from: a point or block read copies each page the image still reads
    /// through ([`View::reads_through`]) from `live`, and only the pages
    /// it holds its own copy of from the image (see [`anker_vmem::view`]
    /// for why that is exact). The image then has no slice
    /// ([`ColumnArea::as_slice`] is `None`). Unchanged where the backend
    /// gives no views (the simulated kernel).
    ///
    /// # Panics
    ///
    /// If `live` is not a column of as many rows.
    pub fn read_through(mut self, live: &ColumnArea) -> ColumnArea {
        assert_eq!(self.rows, live.rows, "an image of another column");
        if self.view.is_some() {
            self.live = live.view.clone();
        }
        self
    }

    /// Whether reads go through the live area ([`ColumnArea::read_through`]).
    pub fn reads_through(&self) -> bool {
        self.live.is_some()
    }

    /// Start address of the area.
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The backend the area is mapped on.
    pub fn backend(&self) -> &Arc<dyn VmBackend> {
        &self.backend
    }

    /// Values per page.
    #[inline]
    pub fn vals_per_page(&self) -> u32 {
        (self.backend.page_size() / 8) as u32
    }

    /// Size of the mapped area in bytes (page aligned).
    pub fn mapped_bytes(&self) -> u64 {
        let ps = self.backend.page_size();
        (self.rows as u64 * 8).div_ceil(ps).max(1) * ps
    }

    /// Number of pages backing the area.
    pub fn n_pages(&self) -> u64 {
        self.mapped_bytes() / self.backend.page_size()
    }

    /// `Ok` when rows `[start, start + n)` lie in the column. A real check:
    /// past the last row the view ends, and the backend would read page
    /// padding or a neighbouring area.
    #[inline]
    fn check_rows(&self, start: u32, n: u32) -> Result<()> {
        if start as u64 + n as u64 > self.rows as u64 {
            return Err(VmError::OutOfBounds {
                addr: self.addr + start as u64 * 8,
            });
        }
        Ok(())
    }

    /// Load the raw word of `row` (atomic, relaxed). A row past the last
    /// is [`VmError::OutOfBounds`].
    #[inline]
    pub fn get(&self, row: u32) -> Result<u64> {
        self.check_rows(row, 1)?;
        match (&self.view, &self.live) {
            (Some(image), Some(live)) => {
                let mut w = [0u64];
                image.read_through_into(live, row as usize, &mut w);
                Ok(w[0])
            }
            (Some(v), None) => Ok(v.load(row as usize)),
            (None, _) => self.backend.read_u64(self.addr + row as u64 * 8),
        }
    }

    /// Store the raw word of `row` (atomic, relaxed; faults/COWs as
    /// needed). A row past the last is [`VmError::OutOfBounds`]. Must not
    /// race a `vm_snapshot` of this area (see [`anker_vmem::view`]).
    #[inline]
    pub fn set(&self, row: u32, word: u64) -> Result<()> {
        self.check_rows(row, 1)?;
        match &self.view {
            Some(v) if v.try_store(row as usize, word) => Ok(()),
            _ => self.backend.write_u64(self.addr + row as u64 * 8, word),
        }
    }

    /// Typed load.
    pub fn get_value(&self, row: u32, ty: LogicalType) -> Result<Value> {
        Ok(Value::decode(self.get(row)?, ty))
    }

    /// Typed store.
    pub fn set_value(&self, row: u32, value: Value) -> Result<()> {
        self.set(row, value.encode())
    }

    /// The whole column as a plain `&[u64]` slice when the backend maps it
    /// as directly addressable memory (the OS backend) — the zero-copy
    /// fast path scan block loops read through instead of per-word
    /// resolution. Returns `None` on the simulated kernel, for an image
    /// read through its live area (a slice would map every page), and for
    /// an image whose split pages are copied aside, not in its mapping
    /// ([`View::is_in_place`]).
    ///
    /// The slice borrows the handle's cached view, which keeps the mapping
    /// alive: releasing the area through a clone cannot unmap the memory
    /// under the slice, and a `vm_snapshot` cannot map over it.
    ///
    /// # Safety
    ///
    /// The area must be **frozen** (a snapshot column the engine never
    /// writes) and stay unreleased for the lifetime of the returned slice
    /// — the slice type asserts immutability, and a released snapshot view
    /// is no longer copied apart from later stores to its source (in the
    /// engine a `SnapCol` releases its area only when its last handle
    /// drops). A frozen view's *contents* never change; on
    /// the OS backend a write to the live column may first move the view's
    /// page-table entry for that page onto a private copy, but the kernel
    /// swaps it atomically and the copy holds the same bytes, so every
    /// load through the slice sees the same data.
    #[inline]
    pub unsafe fn as_slice(&self) -> Option<&[u64]> {
        let v = self.view.as_ref().filter(|v| v.is_in_place())?;
        if self.live.is_some() {
            return None;
        }
        // SAFETY(provenance: view, v, bounds: len): the view spans exactly
        // the column's words, of a mapping it keeps alive for as long as
        // the slice borrows it; the caller vouches (per this function's
        // contract) that the words stay unwritten for the slice's
        // lifetime.
        Some(unsafe { std::slice::from_raw_parts(v.as_ptr(), v.len()) })
    }

    /// Copy the raw words of rows `[start_row, start_row + n)` into
    /// `buf[..n]` (atomic loads, block-wise). The tight-loop read path for
    /// snapshot scans. Rows past the last are [`VmError::OutOfBounds`].
    pub fn read_block_into(&self, start_row: u32, n: u32, buf: &mut [u64]) -> Result<()> {
        self.check_rows(start_row, n)?;
        let buf = &mut buf[..n as usize];
        match (&self.view, &self.live) {
            (Some(image), Some(live)) => {
                image.read_through_into(live, start_row as usize, buf);
                Ok(())
            }
            (Some(v), None) => {
                v.read_into(start_row as usize, buf);
                Ok(())
            }
            (None, _) => self
                .backend
                .read_words(self.addr + start_row as u64 * 8, buf),
        }
    }

    /// Bulk-load values starting at row 0 (loader convenience).
    pub fn fill<I: IntoIterator<Item = u64>>(&self, values: I) -> Result<u32> {
        let chunk = self.vals_per_page() as usize;
        let mut buf = Vec::with_capacity(chunk);
        let mut row = 0u32;
        for word in values {
            assert!(
                (row as u64 + buf.len() as u64) < self.rows as u64,
                "fill overflows the column"
            );
            buf.push(word);
            if buf.len() == chunk {
                self.backend.write_words(self.addr + row as u64 * 8, &buf)?;
                row += buf.len() as u32;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            self.backend.write_words(self.addr + row as u64 * 8, &buf)?;
            row += buf.len() as u32;
        }
        Ok(row)
    }

    /// The zone map of this area under `ty`, with `block_rows` rows per
    /// block, building and caching it on first use. Blocks are staged
    /// through the backend's locked read path; see
    /// [`ColumnArea::zone_map_with`] for the zero-copy build.
    ///
    /// Only call this on a **frozen** area (a snapshot column): the cache
    /// is never invalidated while the handle lives, so a summary built
    /// while writers are active would go stale. All clones of the view
    /// share the cached map.
    pub fn zone_map(&self, ty: LogicalType, block_rows: u32) -> Result<Arc<ZoneMap>> {
        self.zone_map_with(ty, block_rows, None)
    }

    /// [`ColumnArea::zone_map`], reading the area's words straight from
    /// `frozen` when given: the whole column as a slice (the engine passes
    /// a pinned snapshot column's words), so the build takes no backend
    /// lock and copies nothing. With `None` each block is staged into a
    /// buffer first. Either way every block goes through the one typed
    /// min/max kernel, so both builds produce the same map.
    ///
    /// # Panics
    ///
    /// If `frozen` is not exactly [`ColumnArea::rows`] words long.
    pub fn zone_map_with(
        &self,
        ty: LogicalType,
        block_rows: u32,
        frozen: Option<&[u64]>,
    ) -> Result<Arc<ZoneMap>> {
        assert!(block_rows > 0, "zone map block size must be positive");
        let mut slot = self.zones.lock();
        if let Some(zm) = slot.as_ref() {
            assert!(
                zm.ty == ty && zm.block_rows == block_rows,
                "zone map requested with mismatched type or block size"
            );
            return Ok(Arc::clone(zm));
        }
        let n_blocks = (self.rows as usize).div_ceil(block_rows as usize);
        let mut ranges = Vec::with_capacity(n_blocks);
        if let Some(words) = frozen {
            assert_eq!(words.len(), self.rows as usize, "slice is not this area");
            ranges.extend(
                words
                    .chunks(block_rows as usize)
                    .map(|block| block_bounds(block, ty)),
            );
        } else {
            let mut buf = vec![0u64; block_rows as usize];
            let mut start = 0u32;
            while start < self.rows {
                let n = block_rows.min(self.rows - start);
                self.read_block_into(start, n, &mut buf)?;
                ranges.push(block_bounds(&buf[..n as usize], ty));
                start += n;
            }
        }
        let zm = Arc::new(ZoneMap {
            ty,
            block_rows,
            ranges,
        });
        *slot = Some(Arc::clone(&zm));
        Ok(zm)
    }

    /// Drop any cached zone map, so the next predicate scan rebuilds it
    /// from the area's current content (a summary primed before the
    /// area's last writes would silently skip matching rows).
    pub fn invalidate_zone_map(&self) {
        *self.zones.lock() = None;
    }

    /// Unmap the underlying area, releasing its memory. On the OS backend
    /// the mapping goes with the last clone of this handle (each holds the
    /// view); the backend forgets the area at once.
    pub fn unmap(self) -> Result<()> {
        let bytes = self.mapped_bytes();
        self.backend.release(self.addr, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anker_vmem::{Kernel, OsBackend};

    fn column(rows: u32) -> (Kernel, ColumnArea) {
        let k = Kernel::default();
        let s = k.create_space();
        let c = ColumnArea::alloc(&s, rows).unwrap();
        (k, c)
    }

    #[test]
    fn get_set_round_trip() {
        let (_k, c) = column(2000);
        for r in 0..2000u32 {
            c.set(r, r as u64 * 3).unwrap();
        }
        for r in 0..2000u32 {
            assert_eq!(c.get(r).unwrap(), r as u64 * 3);
        }
    }

    #[test]
    fn typed_access() {
        let (_k, c) = column(4);
        c.set_value(0, Value::Double(0.25)).unwrap();
        c.set_value(1, Value::Int(-7)).unwrap();
        c.set_value(2, Value::Date(100)).unwrap();
        c.set_value(3, Value::Dict(9)).unwrap();
        assert_eq!(
            c.get_value(0, LogicalType::Double).unwrap(),
            Value::Double(0.25)
        );
        assert_eq!(c.get_value(1, LogicalType::Int).unwrap(), Value::Int(-7));
        assert_eq!(c.get_value(2, LogicalType::Date).unwrap(), Value::Date(100));
        assert_eq!(c.get_value(3, LogicalType::Dict).unwrap(), Value::Dict(9));
    }

    #[test]
    fn fill_and_block_scan() {
        let (_k, c) = column(1500);
        let n = c.fill((0..1500).map(|i| i * 2)).unwrap();
        assert_eq!(n, 1500);
        let mut buf = vec![0u64; 512];
        let mut sum = 0u64;
        let mut rows_seen = 0u32;
        let mut start = 0u32;
        while start < c.rows() {
            let take = 512.min(c.rows() - start);
            c.read_block_into(start, take, &mut buf).unwrap();
            sum += buf[..take as usize].iter().sum::<u64>();
            rows_seen += take;
            start += take;
        }
        assert_eq!(rows_seen, 1500);
        assert_eq!(sum, (0..1500u64).map(|i| i * 2).sum::<u64>());
    }

    #[test]
    fn page_count_rounds_up() {
        let (_k, c) = column(513); // 513 * 8 = 4104 bytes -> 2 pages
        assert_eq!(c.n_pages(), 2);
        assert_eq!(c.vals_per_page(), 512);
        // Last row lives on the second page.
        c.set(512, 42).unwrap();
        assert_eq!(c.get(512).unwrap(), 42);
    }

    #[test]
    fn unmap_releases_frames() {
        let k = Kernel::default();
        let s = k.create_space();
        let c = ColumnArea::alloc(&s, 5000).unwrap();
        for r in 0..5000 {
            c.set(r, 1).unwrap();
        }
        assert!(k.frames_in_use() > 0);
        c.unmap().unwrap();
        assert_eq!(k.frames_in_use(), 0);
    }

    #[test]
    fn zone_maps_summarise_blocks() {
        let (_k, c) = column(2500);
        c.fill((0..2500).map(|i| Value::Int(i).encode())).unwrap();
        let zm = c.zone_map(LogicalType::Int, 1024).unwrap();
        assert_eq!(zm.n_blocks(), 3);
        assert_eq!(zm.block_range(0), (0.0, 1023.0));
        assert_eq!(zm.block_range(1), (1024.0, 2047.0));
        assert_eq!(zm.block_range(2), (2048.0, 2499.0));
        // Cached: a second request returns the same map.
        let again = c.zone_map(LogicalType::Int, 1024).unwrap();
        assert!(Arc::ptr_eq(&zm, &again));
        // Clones of the view share the cache.
        let clone = c.clone();
        assert!(Arc::ptr_eq(
            &zm,
            &clone.zone_map(LogicalType::Int, 1024).unwrap()
        ));
    }

    #[test]
    fn zone_map_invalidation_drops_stale_summaries() {
        let (_k, c) = column(100);
        c.fill((0..100).map(|i| Value::Int(i).encode())).unwrap();
        let zm = c.zone_map(LogicalType::Int, 64).unwrap();
        assert_eq!(zm.block_range(0), (0.0, 63.0));
        // A write the summary does not know about...
        c.set_value(3, Value::Int(1_000)).unwrap();
        // ...is reflected once the freeze point invalidates the cache.
        c.invalidate_zone_map();
        let fresh = c.zone_map(LogicalType::Int, 64).unwrap();
        assert!(!Arc::ptr_eq(&zm, &fresh));
        assert_eq!(fresh.block_range(0), (0.0, 1_000.0));
    }

    #[test]
    fn zone_maps_never_prune_nan_blocks() {
        let (_k, c) = column(10);
        c.fill((0..10).map(|_| Value::Double(f64::NAN).encode()))
            .unwrap();
        let zm = c.zone_map(LogicalType::Double, 1024).unwrap();
        let (lo, hi) = zm.block_range(0);
        assert_eq!(lo, f64::NEG_INFINITY);
        assert_eq!(hi, f64::INFINITY);
    }

    #[test]
    fn snapshot_view_reads_frozen_data() {
        let k = Kernel::default();
        let s = k.create_space();
        let c = ColumnArea::alloc(&s, 1024).unwrap();
        c.fill(0..1024).unwrap();
        let snap_addr = s.vm_snapshot(None, c.addr(), c.mapped_bytes()).unwrap();
        let snap = ColumnArea::from_raw(s.clone(), snap_addr, 1024);
        c.set(100, 999).unwrap();
        assert_eq!(snap.get(100).unwrap(), 100);
        assert_eq!(c.get(100).unwrap(), 999);
    }

    /// Past the last row every access is an error on both backends — not
    /// page padding, not a neighbouring area.
    #[test]
    fn rows_past_the_end_are_out_of_bounds() {
        let k = Kernel::default();
        let mut backends: Vec<Arc<dyn VmBackend>> = vec![Arc::new(k.create_space())];
        #[cfg(target_os = "linux")]
        backends.push(Arc::new(OsBackend::new().unwrap()));
        for b in backends {
            let c = ColumnArea::alloc_on(Arc::clone(&b), 100).unwrap();
            let next = ColumnArea::alloc_on(Arc::clone(&b), 100).unwrap();
            next.fill((0..100).map(|_| 88)).unwrap();
            for row in [100, 600, u32::MAX] {
                let oob = VmError::OutOfBounds {
                    addr: c.addr() + row as u64 * 8,
                };
                assert_eq!(c.get(row), Err(oob.clone()), "{}: get({row})", b.name());
                assert_eq!(c.set(row, 1), Err(oob), "{}: set({row})", b.name());
            }
            let mut buf = [0u64; 8];
            assert!(c.read_block_into(96, 5, &mut buf).is_err());
            c.read_block_into(96, 4, &mut buf).unwrap();
            assert_eq!(buf[..4], [0; 4]);
            c.unmap().unwrap();
            next.unmap().unwrap();
        }
    }

    #[test]
    fn sim_backend_has_no_slice_fast_path() {
        let (_k, c) = column(64);
        // SAFETY(provenance: c): the area lives for the whole test and is
        // never written while a slice could exist (it returns None here
        // anyway).
        assert!(unsafe { c.as_slice() }.is_none());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn os_backend_column_and_slice_fast_path() {
        let b: Arc<dyn VmBackend> = Arc::new(OsBackend::new().unwrap());
        let c = ColumnArea::alloc_on(Arc::clone(&b), 3000).unwrap();
        c.fill((0..3000).map(|i| i * 5)).unwrap();
        // Snapshot through the generic path, as the snapshot manager does.
        let snap_addr = b.vm_snapshot(None, c.addr(), c.mapped_bytes()).unwrap();
        let snap = ColumnArea::from_raw_on(Arc::clone(&b), snap_addr, 3000);
        c.set(7, 1).unwrap();
        // SAFETY(provenance: snap): `snap` is frozen (never written below)
        // and not unmapped until after the last use of `s`.
        let s = unsafe { snap.as_slice() }.expect("OS backend exposes raw slices");
        assert_eq!(s.len(), 3000);
        assert_eq!(s[7], 35, "snapshot slice reads frozen content");
        assert_eq!(c.get(7).unwrap(), 1);
        let zm = snap.zone_map(LogicalType::Int, 1024).unwrap();
        assert_eq!(zm.n_blocks(), 3);
        snap.unmap().unwrap();
        c.unmap().unwrap();
    }

    /// A handle outliving `unmap` of its clone keeps reading its own
    /// mapping; the munmap comes with the last clone.
    #[cfg(target_os = "linux")]
    #[test]
    fn os_backend_handle_keeps_its_mapping_past_unmap() {
        let os = OsBackend::new().unwrap();
        let c = ColumnArea::alloc_on(Arc::new(os.clone()), 600).unwrap();
        c.set(599, 42).unwrap();
        let stale = c.clone();
        c.unmap().unwrap();
        let fresh = ColumnArea::alloc_on(Arc::new(os.clone()), 600).unwrap();
        fresh.set(599, 7).unwrap();
        assert_eq!(stale.get(599).unwrap(), 42, "its own words, still mapped");
        assert_eq!(os.stats().snapshot().munmap_calls, 0);
        drop(stale);
        assert_eq!(os.stats().snapshot().munmap_calls, 1);
        fresh.unmap().unwrap();
    }
}
