//! Direct views of real-memory areas: word loads and stores without the
//! backend's lock.
//!
//! A [`View`] is what [`VmBackend::view`](crate::VmBackend::view) hands
//! out on the OS backend: the base pointer of one mapped area, a handle
//! that keeps the mapping alive, and the area's page bits, shared with
//! the backend. A load is a plain volatile load.
//!
//! On a **live** area a bit is set while the page is frozen. A store to a
//! page whose bit is clear is a plain volatile store; a set bit means some
//! snapshot view may still read the page through, so the store must take
//! the backend's locked copy-on-write path
//! ([`VmBackend::write_u64`](crate::VmBackend::write_u64)) instead.
//!
//! On a **snapshot** area a bit is set while the view has no private copy
//! of the page ([`View::reads_through`]): its bytes are still the file's,
//! which are the live view's. A reader may then copy the page from the
//! live view instead, and so never map the snapshot's page. A split
//! clears the snapshot's bit only after the page's copy is published, and
//! every store that follows a split is fenced after the clear
//! (`fence(Release)` in [`View::try_store`] and in the backend's locked
//! stores). So a reader that copied a page from the live view, issued
//! `fence(Acquire)` and found the bit still set read no store made after
//! the snapshot was cut; a reader that finds it cleared reads the page's
//! copy instead. On x86 both fences compile to nothing but a compiler
//! barrier.
//!
//! Where the copy lives depends on how the snapshot was cut. A zero-copy
//! snapshot ([`VmBackend::vm_snapshot`](crate::VmBackend::vm_snapshot))
//! gets it from the kernel, in its own mapping, which therefore reads the
//! cut everywhere. An image cut for reading through
//! ([`VmBackend::vm_snapshot_read_through`](crate::VmBackend::vm_snapshot_read_through))
//! gets it from the backend in user space: one `memcpy` into a page set
//! aside, recorded in the view's copy table before the bit clears. Its
//! mapping keeps reading the file, so [`View::load`] and
//! [`View::read_into`] read a split page from its copy, and an unsplit
//! one from the mapping under the same recheck as above
//! ([`View::is_in_place`] is `false`). The backend's locked reads go
//! through the image's view too, so a split page is found in one place.
//!
//! **The store contract.** A lock-free store must not race a
//! `vm_snapshot` of its area: the snapshot sets every bit, and a store
//! that tested its bit just before would land in the page after the
//! snapshot was cut, visible through it. The engine keeps this by
//! construction (heterogeneous installs and freezes share the serialized
//! commit section; homogeneous installs never meet a snapshot), and
//! debug and `lockcheck` builds check it: every lock-free store counts
//! itself in flight, and `vm_snapshot` asserts the count is zero.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// Whether lock-free stores count themselves in flight and `vm_snapshot`
/// checks the count (see the module docs).
pub(crate) const CHECK_STORES: bool = cfg!(debug_assertions) || anker_util::lockcheck::ENABLED;

/// One bit per page of an area: on a live area, set while the page is
/// frozen; on a snapshot area, set while the page is not privatised yet.
/// Shared between the backend's area table (which sets and clears bits
/// under its write lock) and the area's views (which test them).
#[derive(Debug)]
pub(crate) struct PageBits {
    bits: Box<[AtomicU64]>,
    /// Lock-free stores in progress (counted only when [`CHECK_STORES`]).
    in_flight: AtomicU64,
}

impl PageBits {
    /// `pages` bits, all set when `frozen`.
    pub(crate) fn new(pages: usize, frozen: bool) -> PageBits {
        let fill = if frozen { u64::MAX } else { 0 };
        PageBits {
            bits: (0..pages.div_ceil(64))
                .map(|_| AtomicU64::new(fill))
                .collect(),
            in_flight: AtomicU64::new(0),
        }
    }

    /// Whether `page`'s bit is set.
    #[inline]
    pub(crate) fn get(&self, page: usize) -> bool {
        // ORDERING: Acquire pairs with the Release in `clear`, so a store
        // that sees its page writable also sees the split's copies done.
        self.bits[page / 64].load(Ordering::Acquire) & (1 << (page % 64)) != 0
    }

    /// Clear `page`'s bit: a live page turns writable, a snapshot page
    /// holds its private copy.
    pub(crate) fn clear(&self, page: usize) {
        // ORDERING: Release publishes the private copies the split made
        // before the bit clears (pairs with `get`).
        self.bits[page / 64].fetch_and(!(1 << (page % 64)), Ordering::Release);
    }

    /// Freeze every page.
    pub(crate) fn set_all(&self) {
        for w in self.bits.iter() {
            // ORDERING: Release pairs with `get`'s Acquire; the store
            // contract, not this ordering, keeps stores off the snapshot.
            w.store(u64::MAX, Ordering::Release);
        }
    }

    /// Count one store in flight, as [`View::try_store`] does mid-store.
    #[cfg(test)]
    pub(crate) fn begin_store(&self) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// Lock-free stores in progress right now (0 unless [`CHECK_STORES`]).
    pub(crate) fn stores_in_flight(&self) -> u64 {
        // ORDERING: SeqCst against the stores' SeqCst increments, so a
        // store between its bit test and its store is always seen.
        self.in_flight.load(Ordering::SeqCst)
    }
}

/// Per page of an image cut for reading through: the address of the
/// page's user-space copy once a split took one, else 0. The backend
/// sets a slot under its write lock before it clears the page's bit
/// (Release), so a reader that saw the bit clear with Acquire finds the
/// slot set and the copy's bytes written.
#[derive(Debug)]
pub(crate) struct Copies {
    slots: Box<[AtomicU64]>,
}

impl Copies {
    /// A table for `pages` pages, none copied.
    pub(crate) fn new(pages: usize) -> Copies {
        Copies {
            slots: (0..pages).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The address of `page`'s copy, if a split took one. Relaxed: the
    /// caller holds the backend's lock, or saw the page's bit clear
    /// through [`PageBits::get`]'s Acquire, which orders this load after
    /// the split's publish.
    #[inline]
    pub(crate) fn get(&self, page: usize) -> Option<u64> {
        match self.slots[page].load(Ordering::Relaxed) {
            0 => None,
            addr => Some(addr),
        }
    }

    /// Record `addr` as `page`'s copy; the caller clears the page's bit
    /// after, which publishes it.
    pub(crate) fn set(&self, page: usize, addr: u64) {
        self.slots[page].store(addr, Ordering::Relaxed);
    }

    /// Every copy taken.
    pub(crate) fn taken(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|&a| a != 0)
    }
}

/// Copy `buf.len()` words from `p` with volatile loads, which tolerate
/// racing word stores.
///
/// # Safety
///
/// `[p, p + buf.len())` must be readable, aligned words.
#[inline]
unsafe fn copy_words(mut p: *const u64, buf: &mut [u64]) {
    for w in buf.iter_mut() {
        // SAFETY(provenance: p, bounds: buf): every step stays inside the
        // caller's range.
        unsafe {
            *w = p.read_volatile();
            p = p.add(1);
        }
    }
}

/// A direct view of one mapped area (see the module docs). Cheap to
/// clone; every clone keeps the mapping alive, so the area is unmapped
/// only once the backend released it *and* its last view is dropped.
///
/// A view that outlives the release of its area still reads that area's
/// own memory, never another's. The backend no longer tracks the area,
/// though: a released snapshot view is no longer copied apart from later
/// stores to its source, so its holders must stop reading it at release
/// (the engine releases an image only with its last handle).
#[derive(Clone)]
pub struct View {
    ptr: *mut u64,
    words: usize,
    page_shift: u32,
    /// The area's page bits (see [`PageBits`]).
    bits: Arc<PageBits>,
    /// A live area's view; an image is read-only.
    live: bool,
    /// The copy table of an image cut for reading through: its split
    /// pages live there, not in the mapping.
    copies: Option<Arc<Copies>>,
    /// Keeps the mapping alive.
    _mapping: Arc<dyn std::fmt::Debug + Send + Sync>,
}

// SAFETY(provenance: View): `ptr` addresses a shared mapping that
// `_mapping` keeps alive, and every access through it is a volatile word
// load or store, which any thread may issue; every other field is
// `Send + Sync` by its type (`usize`, `u32`, and `Arc`s of `Send + Sync`
// values).
unsafe impl Send for View {}
// SAFETY(provenance: View): as for `Send` — `&View` only ever issues
// volatile word accesses through `ptr` and reads the other fields.
unsafe impl Sync for View {}

impl std::fmt::Debug for View {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("View")
            .field("addr", &(self.ptr as u64))
            .field("words", &self.words)
            .field("live", &self.live)
            .finish()
    }
}

impl View {
    /// A view of `words` words at `ptr`.
    ///
    /// # Safety
    ///
    /// `[ptr, ptr + words)` must be one readable and writable mapping
    /// that stays mapped while `mapping` lives, whose pages `bits` tracks
    /// from page 0 at `ptr`, in pages of `1 << page_shift` bytes — as the
    /// bits of a live area when `live`, else of a snapshot area. Every
    /// copy `copies` records must be a readable page that stays mapped
    /// while `mapping` lives.
    pub(crate) unsafe fn new(
        ptr: u64,
        words: usize,
        page_shift: u32,
        bits: Arc<PageBits>,
        live: bool,
        copies: Option<Arc<Copies>>,
        mapping: Arc<dyn std::fmt::Debug + Send + Sync>,
    ) -> View {
        View {
            ptr: ptr as *mut u64,
            words,
            page_shift,
            bits,
            live,
            copies,
            _mapping: mapping,
        }
    }

    /// This view cut to its first `words` words.
    ///
    /// # Panics
    ///
    /// If `words` is longer than the view.
    pub(crate) fn prefix(&self, words: usize) -> View {
        assert!(words <= self.words, "a prefix longer than the view");
        View {
            words,
            ..self.clone()
        }
    }

    /// The area's page bits.
    pub(crate) fn bits(&self) -> &PageBits {
        &self.bits
    }

    /// The copy table of an image cut for reading through.
    pub(crate) fn copies(&self) -> Option<&Copies> {
        self.copies.as_deref()
    }

    /// Whether this is a live area's view, not an image's.
    pub(crate) fn is_live(&self) -> bool {
        self.live
    }

    /// Length in words.
    #[inline]
    pub fn len(&self) -> usize {
        self.words
    }

    /// Whether the view covers no word.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    /// The first word's address: the base of the mapping. Word `i` lives
    /// at `as_ptr() + i` only where [`View::is_in_place`] holds.
    #[inline]
    pub fn as_ptr(&self) -> *const u64 {
        self.ptr
    }

    /// Whether every word lives in the mapping, at [`View::as_ptr`] plus
    /// its index. `false` for an image cut for reading through, whose
    /// split pages are copied aside (see the module docs).
    #[inline]
    pub fn is_in_place(&self) -> bool {
        self.copies.is_none()
    }

    /// Words per page.
    #[inline]
    pub fn page_words(&self) -> usize {
        (1 << self.page_shift) / 8
    }

    /// Whether this snapshot view still reads `page` through — holds no
    /// private copy of it, so its bytes are the live view's (see the
    /// module docs). Always `false` on a live view.
    ///
    /// A reader that copied the page from the live view must issue
    /// `fence(Acquire)` and test again: only a bit still set vouches for
    /// the copy.
    #[inline]
    pub fn reads_through(&self, page: usize) -> bool {
        !self.live && self.bits.get(page)
    }

    /// Load word `i` (a racing store yields the old or the new word,
    /// never a torn one).
    ///
    /// # Panics
    ///
    /// If `i` is out of the view.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        assert!(i < self.words, "word {i} out of a view of {}", self.words);
        if self.copies.is_some() {
            let mut w = [0];
            self.read_paged(self, i, &mut w);
            return w[0];
        }
        // SAFETY(provenance: self, ptr, bounds: words, i): in bounds of a
        // mapping the view keeps alive; an aligned volatile word load
        // tolerates racing word stores.
        unsafe { self.ptr.add(i).read_volatile() }
    }

    /// Copy words `[start, start + buf.len())` into `buf`.
    ///
    /// # Panics
    ///
    /// If the range is out of the view.
    #[inline]
    pub fn read_into(&self, start: usize, buf: &mut [u64]) {
        self.check_range(start, buf.len());
        if self.copies.is_some() {
            self.read_paged(self, start, buf);
        } else {
            // SAFETY(provenance: self, ptr, bounds: check_range, start,
            // buf): the range was checked in bounds of the kept-alive
            // mapping.
            unsafe { copy_words(self.ptr.add(start), buf) }
        }
    }

    /// Copy words `[start, start + buf.len())` of this snapshot view into
    /// `buf`, reading every page it still reads through
    /// ([`View::reads_through`]) from `live`, a live view of the same
    /// file, so that this view's own page is never mapped; a page it holds
    /// a copy of is read from that copy (see the module docs for why that
    /// is exact). On a live view this is [`View::read_into`].
    ///
    /// # Panics
    ///
    /// If the range is out of the view, or `live` is shorter.
    #[inline]
    pub fn read_through_into(&self, live: &View, start: usize, buf: &mut [u64]) {
        self.check_range(start, buf.len());
        assert!(
            live.words >= self.words,
            "a live view shorter than the image"
        );
        self.read_paged(live, start, buf);
    }

    fn check_range(&self, start: usize, len: usize) {
        assert!(
            start <= self.words && len <= self.words - start,
            "words {start}+{len} out of a view of {}",
            self.words
        );
    }

    /// Copy words `[start, start + buf.len())`, checked in bounds, page by
    /// page: a page this view still reads through from `file`, a view of
    /// its file at least as long (itself, or the live view); any other
    /// page from its copy, or from this view's mapping when the kernel put
    /// the copy there. A read from `file` counts only if the page's bit is
    /// still set after it, behind `fence(Acquire)`: a split publishes the
    /// copy and clears the bit before any store reaches the file page (see
    /// the module docs), so a read that may have seen such a store finds
    /// the bit clear and is redone from the copy.
    fn read_paged(&self, file: &View, start: usize, buf: &mut [u64]) {
        let pw = self.page_words();
        let mut at = 0;
        while at < buf.len() {
            let word = start + at;
            let page = word / pw;
            let take = (pw - word % pw).min(buf.len() - at);
            let chunk = &mut buf[at..at + take];
            at += take;
            if self.reads_through(page) {
                // SAFETY(provenance: file, ptr, bounds: word, chunk): the
                // chunk lies in the caller's checked range, inside one page
                // of `file`'s kept-alive mapping, which is at least as long.
                unsafe { copy_words(file.ptr.add(word), chunk) };
                // ORDERING: Acquire pairs with the writer's `fence(Release)`
                // between a split's bit clear and its store, so a read that
                // saw such a store sees the clear below.
                fence(Ordering::Acquire);
                if self.reads_through(page) {
                    continue;
                }
            }
            let from = match self.copies.as_ref().and_then(|c| c.get(page)) {
                Some(copy) => copy as *const u64,
                None => self.ptr.cast_const().wrapping_add(page * pw),
            };
            // SAFETY(provenance: copies, self, bounds: word, chunk, pw): the
            // page's copy or its page of the mapping, both kept alive by the
            // view; the chunk stays inside that one page.
            unsafe { copy_words(from.add(word % pw), chunk) };
        }
    }

    /// Store `word` at word `i` if its page is writable without a split:
    /// returns `false`, storing nothing, when the page is frozen or this
    /// is a snapshot view — the caller then takes the backend's locked
    /// [`VmBackend::write_u64`](crate::VmBackend::write_u64), which splits
    /// a frozen page and refuses a store into an image. Must not race a
    /// `vm_snapshot` of the area (see the module docs).
    ///
    /// # Panics
    ///
    /// If `i` is out of the view.
    #[inline]
    pub fn try_store(&self, i: usize, word: u64) -> bool {
        assert!(i < self.words, "word {i} out of a view of {}", self.words);
        if !self.live {
            return false;
        }
        let frozen = &self.bits;
        if CHECK_STORES {
            // ORDERING: SeqCst pairs with `stores_in_flight`.
            frozen.in_flight.fetch_add(1, Ordering::SeqCst);
        }
        let writable = !frozen.get((i * 8) >> self.page_shift);
        if writable {
            // ORDERING: Release orders the split's bit clears (seen by the
            // Acquire test above) before the store, for a reader of a
            // snapshot that copied the page from this view (pairs with the
            // reader's `fence(Acquire)`; see the module docs).
            fence(Ordering::Release);
            // SAFETY(provenance: self, ptr, frozen, bounds: words, i):
            // in bounds of the kept-alive live mapping, and its page is
            // no snapshot's any more (bit clear, tested just above; the
            // store contract keeps a `vm_snapshot` from setting it in
            // between).
            unsafe { self.ptr.add(i).write_volatile(word) };
        }
        if CHECK_STORES {
            // ORDERING: SeqCst pairs with `stores_in_flight`.
            frozen.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        writable
    }
}
