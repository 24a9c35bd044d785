//! Version chains, epoch stores, and the versioned-column read/install
//! protocols (paper §2.1), including the 1024-row block-skip scan
//! optimisation of §5.5.

use crate::timestamp::PENDING;
use anker_storage::column::ColumnArea;
use anker_storage::value::LogicalType;
use anker_util::lockcheck::{self, classes};
use anker_util::FxHashMap;
use parking_lot::RwLock;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Rows per skip block: "for every 1024 rows, we keep the position of the
/// first and of the last versioned row" (§5.5).
pub const BLOCK_ROWS: u32 = 1024;

const CHAIN_SHARDS: usize = 64;
const NO_ROW: u32 = u32::MAX;

/// One version: the value that was current *before* the write at `ts`
/// replaced it... more precisely, `value` was written at `ts` and stayed
/// current until the write that pushed this node.
#[derive(Debug)]
struct VersionNode {
    value: u64,
    ts: u64,
    next: Option<Box<VersionNode>>,
}

/// A newest-to-oldest version chain for one row.
#[derive(Debug, Default)]
struct Chain {
    head: Option<Box<VersionNode>>,
}

impl Chain {
    fn push(&mut self, value: u64, ts: u64) {
        debug_assert!(self.head.as_ref().map(|h| h.ts <= ts).unwrap_or(true) || ts == 0);
        self.head = Some(Box::new(VersionNode {
            value,
            ts,
            next: self.head.take(),
        }));
    }

    /// The newest version visible at `start_ts`, walking newest-to-oldest.
    fn find(&self, start_ts: u64) -> Option<u64> {
        let mut node = self.head.as_deref();
        while let Some(n) = node {
            if n.ts <= start_ts {
                return Some(n.value);
            }
            node = n.next.as_deref();
        }
        None
    }

    fn len(&self) -> usize {
        let mut n = 0;
        let mut node = self.head.as_deref();
        while let Some(v) = node {
            n += 1;
            node = v.next.as_deref();
        }
        n
    }

    /// Drop every version strictly older than the newest one visible at
    /// `min_active`. Returns the number of dropped versions.
    fn prune(&mut self, min_active: u64) -> u64 {
        let mut node = self.head.as_deref_mut();
        while let Some(n) = node {
            if n.ts <= min_active {
                // `n` is the newest version any active reader can need;
                // everything older is garbage.
                let mut dropped = 0;
                let mut tail = n.next.take();
                while let Some(mut t) = tail {
                    dropped += 1;
                    tail = t.next.take();
                }
                return dropped;
            }
            node = n.next.as_deref_mut();
        }
        0
    }
}

/// Seqlock-protected skip-block metadata. Every field other than `seq` is
/// written only inside the seqlock writer section, which is exclusive, so
/// writers update them with a plain load-then-store.
#[derive(Debug)]
struct Block {
    seq: AtomicU32,
    /// First and last row with a version in this store (`NO_ROW`/0 when
    /// none); GC narrows them to the rows it retains.
    first: AtomicU32,
    last: AtomicU32,
    /// The highest commit timestamp installed into the block: monotone,
    /// and never rewritten by GC.
    newest: AtomicU64,
}

impl Block {
    fn new() -> Block {
        Block {
            seq: AtomicU32::new(0),
            first: AtomicU32::new(NO_ROW),
            last: AtomicU32::new(0),
            newest: AtomicU64::new(0),
        }
    }

    /// Acquire the seqlock writer side (even → odd). The commit pipeline
    /// installs concurrently, so writers targeting the same block must
    /// serialize here instead of assuming a single serialized committer.
    fn write_lock(&self) {
        let mut spins = 0u32;
        // ORDERING: the CAS's Acquire pairs with `write_unlock`'s Release,
        // so a new writer sees the previous writer's block updates; the
        // Release fence orders the odd `seq` ahead of the metadata writes
        // that follow, so a seqlock reader that observes those writes also
        // observes `seq` as odd and retries.
        loop {
            let s = self.seq.load(Ordering::Relaxed);
            if s & 1 == 0
                && self
                    .seq
                    .compare_exchange_weak(
                        s,
                        s.wrapping_add(1),
                        Ordering::Acquire,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                // ORDERING: see the Release-fence note above the loop.
                fence(Ordering::Release);
                return;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Release the seqlock writer side (odd → even).
    fn write_unlock(&self) {
        // ORDERING: Release publishes this writer's metadata updates
        // before `seq` returns to even; pairs with the Acquire reads in
        // `block_read`/`block_verify`.
        self.seq.fetch_add(1, Ordering::Release);
    }
}

/// One epoch's version chains for one column: sharded row → chain maps plus
/// the skip-block index. In the heterogeneous design a fresh store is
/// installed on every snapshot and the frozen one is handed over (§2.2,
/// Figure 1 step 4).
pub struct ChainStore {
    shards: Box<[RwLock<FxHashMap<u32, Chain>>]>,
    blocks: Box<[Block]>,
    versions: AtomicU64,
}

impl std::fmt::Debug for ChainStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainStore")
            .field("versions", &self.version_count())
            .finish()
    }
}

impl ChainStore {
    /// Empty store for a column of `rows` rows.
    pub fn new(rows: u32) -> ChainStore {
        let n_blocks = (rows as usize).div_ceil(BLOCK_ROWS as usize).max(1);
        ChainStore {
            shards: (0..CHAIN_SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            blocks: (0..n_blocks)
                .map(|_| Block::new())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            versions: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, row: u32) -> &RwLock<FxHashMap<u32, Chain>> {
        &self.shards[row as usize & (CHAIN_SHARDS - 1)]
    }

    /// Total number of version entries in the store.
    pub fn version_count(&self) -> u64 {
        self.versions.load(Ordering::Relaxed)
    }

    /// True if the store holds no versions.
    pub fn is_empty(&self) -> bool {
        self.version_count() == 0
    }

    /// Prepend the version `value`, written at `ts`, to `row`'s chain for
    /// the install at `commit_ts` that replaces it; widen the row's skip
    /// block and raise its newest-install timestamp to `commit_ts`. That
    /// timestamp is monotone: GC never lowers it.
    ///
    /// Safe under concurrent pushers: the seqlock writer side is acquired
    /// exclusively (even → odd CAS), so pipeline installs landing in the
    /// same block serialize briefly; per-row ordering is the caller's
    /// responsibility (the commit pipeline's per-row install latch).
    pub fn push(&self, row: u32, value: u64, ts: u64, commit_ts: u64) {
        // Seqlock write: mark the block dirty before touching chain or
        // range so concurrent tight scans retry.
        let block = &self.blocks[(row / BLOCK_ROWS) as usize];
        block.write_lock(); // now odd
        {
            let mut shard = self.shard(row).write();
            shard.entry(row).or_default().push(value, ts);
        }
        // The writer section is exclusive: plain stores, no locked
        // read-modify-writes (`fetch_max` here measurably slowed commits).
        if row < block.first.load(Ordering::Relaxed) {
            block.first.store(row, Ordering::Relaxed);
        }
        if row > block.last.load(Ordering::Relaxed) {
            block.last.store(row, Ordering::Relaxed);
        }
        if commit_ts > block.newest.load(Ordering::Relaxed) {
            block.newest.store(commit_ts, Ordering::Relaxed);
        }
        self.versions.fetch_add(1, Ordering::Relaxed);
        block.write_unlock(); // even again
    }

    /// The newest version of `row` visible at `start_ts`, if this store has
    /// one.
    pub fn find_version(&self, row: u32, start_ts: u64) -> Option<u64> {
        self.shard(row)
            .read()
            .get(&row)
            .and_then(|c| c.find(start_ts))
    }

    /// Chain length of `row` (0 when unversioned).
    pub fn chain_len(&self, row: u32) -> usize {
        self.shard(row)
            .read()
            .get(&row)
            .map(Chain::len)
            .unwrap_or(0)
    }

    /// Seqlock read of block metadata: `(seq, first, last, newest)`.
    #[inline]
    fn block_read(&self, block: usize) -> (u32, u32, u32, u64) {
        let b = &self.blocks[block];
        // ORDERING: Acquire on `seq` pairs with `write_unlock`'s Release —
        // if we read an even seq, the metadata loads below are at least as
        // new as the write section that published it.
        let seq = b.seq.load(Ordering::Acquire);
        let first = b.first.load(Ordering::Relaxed);
        let last = b.last.load(Ordering::Relaxed);
        let newest = b.newest.load(Ordering::Relaxed);
        (seq, first, last, newest)
    }

    /// Validate that block metadata (and thus the block's chains) did not
    /// change since [`ChainStore::block_read`] returned `seq`.
    #[inline]
    fn block_verify(&self, block: usize, seq: u32) -> bool {
        // ORDERING: the Acquire fence orders the caller's data reads
        // before the re-read of `seq` (classic seqlock validation); the
        // Acquire load pairs with the writer's Release increments.
        fence(Ordering::Acquire);
        seq.is_multiple_of(2) && self.blocks[block].seq.load(Ordering::Acquire) == seq
    }

    /// Homogeneous-mode garbage collection: drop every version that no
    /// transaction with `start_ts >= min_active` can see. `row_ts` is the
    /// column's in-place write-timestamp array. Returns the number of
    /// removed versions.
    ///
    /// Must run in a **commit-quiescent window** — the engine freezes
    /// `begin_commit` and drains in-flight commits first
    /// ([`crate::TsOracle::freeze_commits`]): the pass recomputes every
    /// block's skip range from the retained chains, and a concurrent
    /// install between the retain and the range rewrite would be erased
    /// from the skip index (scans would then miss its version). The pass
    /// leaves each block's newest-install timestamp as it is: it only
    /// drops versions, and a stale-high `newest` only costs a bracket.
    pub fn gc(&self, min_active: u64, row_ts: &[AtomicU64]) -> u64 {
        let mut removed = 0u64;
        let n_blocks = self.blocks.len();
        // Recompute block ranges as we go.
        let mut block_first = vec![NO_ROW; n_blocks];
        let mut block_last = vec![0u32; n_blocks];
        for shard in self.shards.iter() {
            let mut shard = shard.write();
            shard.retain(|&row, chain| {
                let in_place = row_ts[row as usize].load(Ordering::Relaxed) & !PENDING;
                if in_place <= min_active {
                    // The in-place version satisfies every active reader.
                    removed += chain.len() as u64;
                    return false;
                }
                removed += chain.prune(min_active);
                let b = (row / BLOCK_ROWS) as usize;
                block_first[b] = block_first[b].min(row);
                block_last[b] = block_last[b].max(row);
                true
            });
        }
        for (i, block) in self.blocks.iter().enumerate() {
            block.write_lock();
            block.first.store(block_first[i], Ordering::Relaxed);
            block.last.store(block_last[i], Ordering::Relaxed);
            block.write_unlock();
        }
        self.versions.fetch_sub(removed, Ordering::Relaxed);
        removed
    }
}

/// Statistics of one scan (or the running total of a transaction's scans),
/// for tests, benchmarks, and the `repro` reproduction output.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanStats {
    /// Rows delivered through the tight (unchecked) path.
    pub tight_rows: u64,
    /// Rows that went through per-row visibility checks.
    pub checked_rows: u64,
    /// Rows whose value came from a chain walk.
    pub chain_walks: u64,
    /// Blocks whose tight read failed seqlock validation and was redone.
    pub blocks_retried: u64,
    /// Blocks skipped wholesale because a pushed-down predicate could not
    /// match their zone-map range (snapshot scans only).
    pub blocks_skipped: u64,
    /// Rows read and then eliminated by pushed-down predicates (excludes
    /// rows inside skipped blocks, which were never read).
    pub rows_filtered: u64,
    /// Morsels (1024-row-aligned work ranges) this scan processed. A
    /// sequential scan counts as one morsel.
    pub morsels: u64,
    /// Dispatch width of the scan: the number of worker seats the morsels
    /// were offered to (the requested `parallel(n)`, clamped to the morsel
    /// count; 1 = sequential). On an oversubscribed host fewer threads may
    /// end up doing all the pulling — `morsels` counts actual work.
    pub threads: u64,
    /// Blocks whose filters ran through the selection-vector kernels
    /// (vectorized path; excludes dense and skipped blocks).
    pub vector_blocks: u64,
    /// Blocks the zone maps proved *all-match* for every filter: no
    /// selection vector was materialised and — on the fused count path —
    /// no column data was read at all.
    pub dense_blocks: u64,
    /// Times the adaptive conjunct ordering changed the filter evaluation
    /// order at a block boundary.
    pub sel_reorders: u64,
    /// Projection-column blocks gathered into a buffer (the sim backend's
    /// staging path; the count terminals must keep this at zero).
    pub proj_blocks: u64,
    /// Observed per-filter selectivity of the first
    /// [`TRACKED_FILTERS`] conjuncts, in the order the filters were
    /// declared on the builder (not evaluation order). Zone-map outcomes
    /// count: a filter skipped in an all-match block records `rows_in ==
    /// rows_out` for that block, and pruned blocks record nothing.
    pub filter_sel: [FilterSel; TRACKED_FILTERS],
}

/// Per-filter conjuncts tracked in [`ScanStats::filter_sel`]; filters past
/// this index still run, they just go untracked (kept inline and bounded
/// so `ScanStats` stays `Copy`).
pub const TRACKED_FILTERS: usize = 8;

/// Observed selectivity of one pushed-down filter: rows offered to it and
/// rows that survived it. `rows_out / rows_in` is its pass rate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FilterSel {
    /// Rows the filter was offered (selection-vector length before it).
    pub rows_in: u64,
    /// Rows that passed (selection-vector length after it).
    pub rows_out: u64,
}

impl ScanStats {
    /// Accumulate another scan's counters into this one. All counters sum,
    /// except `threads`, which keeps the widest fan-out observed (summing
    /// per-morsel contributions would count the same worker repeatedly).
    pub fn merge(&mut self, other: &ScanStats) {
        self.tight_rows += other.tight_rows;
        self.checked_rows += other.checked_rows;
        self.chain_walks += other.chain_walks;
        self.blocks_retried += other.blocks_retried;
        self.blocks_skipped += other.blocks_skipped;
        self.rows_filtered += other.rows_filtered;
        self.morsels += other.morsels;
        self.threads = self.threads.max(other.threads);
        self.vector_blocks += other.vector_blocks;
        self.dense_blocks += other.dense_blocks;
        self.sel_reorders += other.sel_reorders;
        self.proj_blocks += other.proj_blocks;
        for (a, b) in self.filter_sel.iter_mut().zip(&other.filter_sel) {
            a.rows_in += b.rows_in;
            a.rows_out += b.rows_out;
        }
    }
}

/// A held install latch on one row of a [`VersionedColumn`], from
/// [`VersionedColumn::lock_row`]: the row's pre-latch timestamp and
/// value, and its lock-order witness.
/// [`VersionedColumn::install_locked`] consumes it. Dropped uninstalled —
/// an abort, a `?`, an unwind — it restores the pre-latch timestamp, so
/// no exit path leaves the row latched, unless
/// [`RowLatch::hold_until_install`] said otherwise.
#[must_use = "dropping a RowLatch releases the row"]
#[derive(Debug)]
pub struct RowLatch<'a> {
    col: &'a VersionedColumn,
    row: u32,
    old_ts: u64,
    old_word: u64,
    /// Whether the drop restores `old_ts`.
    restore: bool,
    _witness: lockcheck::Held,
}

impl RowLatch<'_> {
    /// The row's write timestamp before the latch (no [`PENDING`]).
    pub fn old_ts(&self) -> u64 {
        self.old_ts
    }

    /// The row's in-place value when latched.
    pub fn old_word(&self) -> u64 {
        self.old_word
    }

    /// From here only [`VersionedColumn::install_locked`] releases the
    /// row: dropped uninstalled, the latch leaves it latched. A commit
    /// calls this once its record is durable, so a fail-stop unwind after
    /// that point cannot expose the old value as current.
    pub fn hold_until_install(&mut self) {
        self.restore = false;
    }
}

impl Drop for RowLatch<'_> {
    #[inline]
    fn drop(&mut self) {
        if !self.restore {
            return;
        }
        let slot = &self.col.row_ts[self.row as usize];
        // ORDERING: Release pairs with the Acquire in `lock_row` (and the
        // readers' timestamp brackets): everything this holder did under
        // the latch happens-before the next holder's critical section.
        slot.store(self.old_ts, Ordering::Release);
    }
}

/// MVCC state of one column: per-row write timestamps, the current chain
/// store, and frozen stores handed over to past snapshots.
pub struct VersionedColumn {
    ty: LogicalType,
    rows: u32,
    row_ts: Box<[AtomicU64]>,
    current: RwLock<Arc<ChainStore>>,
    older: RwLock<Vec<(u64, Arc<ChainStore>)>>,
    last_freeze_ts: AtomicU64,
    /// `mvcc_versions_pruned_total` of the registry this column counts in.
    pruned: Arc<obs::Counter>,
}

impl std::fmt::Debug for VersionedColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedColumn")
            .field("rows", &self.rows)
            .field("ty", &self.ty)
            .field("versions", &self.current.read().version_count())
            .field("frozen_epochs", &self.older.read().len())
            .finish()
    }
}

impl VersionedColumn {
    /// Fresh, unversioned column state: all rows carry the load timestamp 0.
    /// Counts into the process-default metric registry.
    pub fn new(rows: u32, ty: LogicalType) -> VersionedColumn {
        VersionedColumn::new_in(rows, ty, obs::global())
    }

    /// [`VersionedColumn::new`] counting in `registry` — the owning
    /// database's.
    pub fn new_in(rows: u32, ty: LogicalType, registry: &obs::Registry) -> VersionedColumn {
        VersionedColumn {
            ty,
            rows,
            row_ts: (0..rows)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            current: RwLock::new(Arc::new(ChainStore::new(rows))),
            older: RwLock::new(Vec::new()),
            last_freeze_ts: AtomicU64::new(0),
            pruned: registry.counter(
                "mvcc_versions_pruned_total",
                "Chain versions reclaimed by GC passes across all columns",
            ),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Logical type of the column.
    pub fn ty(&self) -> LogicalType {
        self.ty
    }

    /// The raw write-timestamp word of `row` (may carry [`PENDING`]).
    #[inline]
    pub fn last_write_ts(&self, row: u32) -> u64 {
        // ORDERING: Acquire pairs with the Release stores in
        // `install_locked` and `RowLatch`'s drop, so a caller that sees a
        // commit's timestamp also sees the chain push that preceded it.
        self.row_ts[row as usize].load(Ordering::Acquire)
    }

    /// The current (newest-epoch) chain store.
    pub fn current_store(&self) -> Arc<ChainStore> {
        Arc::clone(&self.current.read())
    }

    /// Read `row` as of `start_ts`: the in-place value when visible,
    /// otherwise the newest chain version visible at `start_ts`.
    ///
    /// **Never waits on the install latch.** A committer holds a row's
    /// latch across validation and the WAL append — an unbounded window
    /// (a parked sched gate, a slow disk) — so a reader that spun on
    /// [`PENDING`] would stall for the whole pipeline and, under a
    /// deterministic schedule, deadlock against the latch holder. Instead
    /// the latch word is read *through*:
    ///
    /// * While the commit is pre-install, the word is
    ///   `old_ts | PENDING` and the in-place value is still the old
    ///   version — exactly the one a reader with `start_ts >= old_ts`
    ///   must see. It is stable as long as the word does not change:
    ///   [`VersionedColumn::install_locked`] advances the word to
    ///   `commit_ts | PENDING` *before* touching the value.
    /// * Once the word carries `commit_ts` (mid-install or released),
    ///   `commit_ts > start_ts` for every reader — an incomplete commit's
    ///   timestamp is above the stable-ts watermark that bounds all
    ///   reader snapshots — and the replaced value is already in the
    ///   chain (pushed before the word advanced), so the chain walk
    ///   serves the read without touching the in-place slot.
    ///
    /// This is the per-row form of the **timestamp bracket** a versioned
    /// scan applies once per block (see `gather_bracketed` behind
    /// [`VersionedColumn::gather_visible_block`]): load the word (t1),
    /// load the value, re-load the word (t2); an unchanged word proves the
    /// value is the version t1 names.
    pub fn read(&self, area: &ColumnArea, row: u32, start_ts: u64) -> anker_vmem::Result<u64> {
        self.read_path(area, row, start_ts).map(|(v, _)| v)
    }

    /// [`VersionedColumn::read`], also telling whether the value came from
    /// a chain walk (for [`ScanStats::chain_walks`]). Always inlined: `read`
    /// is the point-read hot path, and an outlined call here measurably
    /// slowed chain-walk reads.
    #[inline(always)]
    fn read_path(
        &self,
        area: &ColumnArea,
        row: u32,
        start_ts: u64,
    ) -> anker_vmem::Result<(u64, bool)> {
        // ORDERING: both Acquire loads pair with `install_locked`'s
        // Release stores — t1 orders the value load after the word it
        // observed, and t2 == t1 proves no install moved the word (and
        // hence nobody overwrote the value) across our read.
        loop {
            let t1 = self.row_ts[row as usize].load(Ordering::Acquire);
            if t1 & !PENDING > start_ts {
                return Ok((self.find_version(row, start_ts), true));
            }
            let v = area.get(row)?;
            // Re-validate: a concurrent install may have overwritten the
            // value after we loaded the timestamp (any overwrite first
            // moves the word, latched or not).
            let t2 = self.row_ts[row as usize].load(Ordering::Acquire);
            if t2 == t1 {
                return Ok((v, false));
            }
        }
    }

    /// Read the newest installed value of `row` (never waits on the
    /// install latch; a pre-install latched row reads as its old value,
    /// see [`VersionedColumn::read`]).
    pub fn read_latest(&self, area: &ColumnArea, row: u32) -> anker_vmem::Result<u64> {
        // ORDERING: same timestamp-bracket protocol as `read` — Acquire
        // pairs with the installer's Release stores; t2 == t1 validates
        // the in-place value loaded in between.
        loop {
            let t1 = self.row_ts[row as usize].load(Ordering::Acquire);
            let v = area.get(row)?;
            let t2 = self.row_ts[row as usize].load(Ordering::Acquire);
            if t2 == t1 {
                return Ok(v);
            }
        }
    }

    fn find_version(&self, row: u32, start_ts: u64) -> u64 {
        if let Some(v) = self.current.read().find_version(row, start_ts) {
            return v;
        }
        let older = self.older.read();
        for (_, store) in older.iter().rev() {
            if let Some(v) = store.find_version(row, start_ts) {
                return v;
            }
        }
        panic!(
            "no version of row {row} visible at ts {start_ts}: \
             retention (GC / snapshot drop) violated its contract"
        );
    }

    /// Acquire `row`'s **install latch**: atomically set [`PENDING`] on
    /// its write-timestamp word (spinning out a concurrent holder) and
    /// read the current in-place value. The returned [`RowLatch`] holds
    /// the pre-latch timestamp and value, and the lock-order witness
    /// (`key` is the latch's same-level order key).
    ///
    /// This is stage 1 of the concurrent commit pipeline: a committer
    /// latches **all** its write rows in ascending `(col, row)` order
    /// before taking any validation-shard lock, which (with the sorted
    /// order) makes the two-phase acquisition deadlock-free. The caller
    /// decides write-write conflicts from [`RowLatch::old_ts`]. The latch
    /// ends when [`VersionedColumn::install_locked`] consumes it (commit)
    /// or when it is dropped (abort, on every exit path).
    // `#[inline]` here, on `install_locked` and on the latch's drop: left
    // out of line, a single-site `install` measured ≈ 25 % slower.
    #[inline]
    pub fn lock_row(
        &self,
        area: &ColumnArea,
        row: u32,
        key: u64,
    ) -> anker_vmem::Result<RowLatch<'_>> {
        let witness = lockcheck::acquire(&classes::INSTALL_LATCH, key);
        let slot = &self.row_ts[row as usize];
        let mut spins = 0u32;
        // ORDERING: the Acquire load + AcqRel CAS pair with the Release
        // stores that end a latch hold (`install_locked`, `RowLatch`'s
        // drop), so the new latch holder sees the previous holder's
        // install; the Release half publishes nothing yet but keeps the
        // latch word a full synchronization point for the restore.
        let old_ts = loop {
            let t = slot.load(Ordering::Acquire);
            if t & PENDING == 0
                && slot
                    .compare_exchange_weak(t, t | PENDING, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                break t;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        };
        let mut latch = RowLatch {
            col: self,
            row,
            old_ts,
            old_word: 0,
            restore: true,
            _witness: witness,
        };
        // The in-place value is stable while we hold the latch: only
        // installers mutate it, and they need the latch first. On error
        // the latch drops and restores `old_ts`.
        latch.old_word = area.get(row)?;
        Ok(latch)
    }

    /// Install one committed write on a row latched by
    /// [`VersionedColumn::lock_row`], consuming its latch: move the old
    /// value into the version chain, store the new value in place, and
    /// release the latch at `commit_ts`. `area` is re-resolved by the
    /// caller at install time (a heterogeneous snapshot may have swapped
    /// the column area since the latch was taken; contents are identical,
    /// so the latched old value stays valid).
    ///
    /// On error the latch drops: it restores the pre-latch timestamp,
    /// unless [`RowLatch::hold_until_install`] kept the row latched.
    #[inline]
    pub fn install_locked(
        &self,
        area: &ColumnArea,
        mut latch: RowLatch<'_>,
        new_word: u64,
        commit_ts: u64,
    ) -> anker_vmem::Result<()> {
        debug_assert!(std::ptr::eq(latch.col, self), "latch of another column");
        debug_assert!(latch.old_ts < commit_ts, "non-monotonic install");
        let row = latch.row;
        // ORDERING: order matters for latch-ignoring readers (see
        // [`VersionedColumn::read`]): (1) the replaced value enters the
        // chain, (2) the word advances to `commit_ts | PENDING` so no
        // reader trusts the in-place slot any more, (3) only then is the
        // value overwritten, (4) the latch releases at `commit_ts`. Both
        // stores are Release so a reader's Acquire load of the word also
        // sees the chain push (step 1) that preceded it.
        self.current
            .read()
            .push(row, latch.old_word, latch.old_ts, commit_ts);
        self.row_ts[row as usize].store(commit_ts | PENDING, Ordering::Release);
        area.set(row, new_word)?;
        self.row_ts[row as usize].store(commit_ts, Ordering::Release);
        latch.restore = false;
        Ok(())
    }

    /// Install one committed write: move the old value into the version
    /// chain and store the new value in place, with the PENDING protocol
    /// making the switch atomic for readers. Returns the replaced value
    /// (commit records need it for predicate validation). Convenience
    /// composition of [`VersionedColumn::lock_row`] (order key `row`) +
    /// [`VersionedColumn::install_locked`] for single-site callers; the
    /// engine's pipeline uses the split form.
    ///
    /// A failed install is an abort, not a fatal state: nothing is
    /// published yet, and the only fallible step precedes the in-place
    /// overwrite, so the dropped latch restores the pre-latch timestamp.
    /// The chain entry already pushed is a harmless duplicate of history.
    pub fn install(
        &self,
        area: &ColumnArea,
        row: u32,
        new_word: u64,
        commit_ts: u64,
    ) -> anker_vmem::Result<u64> {
        let latch = self.lock_row(area, row, row as u64)?;
        let old_word = latch.old_word;
        self.install_locked(area, latch, new_word, commit_ts)?;
        Ok(old_word)
    }

    /// Freeze the current chain store for a snapshot at `freeze_ts` and
    /// install a fresh, empty one (Figure 1 steps 4/7: "the current version
    /// chains are handed over"). The frozen store stays reachable for
    /// readers older than `freeze_ts` until
    /// [`VersionedColumn::release_frozen`] retires it.
    ///
    /// Must be called inside the serialized commit section.
    pub fn freeze_epoch(&self, freeze_ts: u64) -> Arc<ChainStore> {
        let fresh = Arc::new(ChainStore::new(self.rows));
        let frozen = self.current_store();
        // List the store as frozen before retiring it as current: a chain
        // walk reads `current`, then `older`, so it finds the store in at
        // least one of the two whenever it runs.
        self.older.write().push((freeze_ts, Arc::clone(&frozen)));
        // ORDERING: Release pairs with the Acquire in `gather_visible_block` —
        // a scanner that sees the new freeze timestamp also sees the
        // frozen store already pushed onto `older`. Published before the
        // fresh store: a gather that finds the fresh store (through the
        // `current` lock) then sees this timestamp, so a reader older than
        // the freeze never trusts the fresh store's empty skip index.
        self.last_freeze_ts.store(freeze_ts, Ordering::Release);
        *self.current.write() = fresh;
        frozen
    }

    /// Drop frozen stores that no active transaction can need: a store
    /// frozen at `T` serves only readers with `start_ts < T`.
    pub fn release_frozen(&self, min_active_start: u64) {
        self.older.write().retain(|(t, _)| *t > min_active_start);
    }

    /// Number of frozen epochs still retained.
    pub fn frozen_epochs(&self) -> usize {
        self.older.read().len()
    }

    /// Version entries held across the current store **and** every frozen
    /// epoch store still retained for old readers.
    pub fn total_version_count(&self) -> u64 {
        let current = self.current.read().version_count();
        let frozen: u64 = self
            .older
            .read()
            .iter()
            .map(|(_, store)| store.version_count())
            .sum();
        current + frozen
    }

    /// Homogeneous-mode GC of the current store (see [`ChainStore::gc`]
    /// for the commit-quiescence requirement).
    pub fn gc(&self, min_active: u64) -> u64 {
        let removed = self.current_store().gc(min_active, &self.row_ts);
        self.pruned.add(removed);
        removed
    }

    /// Full-column scan delivering the version of every row visible at
    /// `start_ts`, in row order, using the block-skip optimisation: a
    /// 1024-row block with nothing installed after `start_ts` is read in a
    /// tight loop (seqlock validated); other blocks check visibility
    /// inside the `[first, last]` versioned range only, with one timestamp
    /// bracket per block (see [`VersionedColumn::gather_visible_block`]).
    pub fn scan_visible(
        &self,
        area: &ColumnArea,
        start_ts: u64,
        mut f: impl FnMut(u32, u64),
        stats: &mut ScanStats,
    ) -> anker_vmem::Result<()> {
        let mut buf = vec![0u64; BLOCK_ROWS as usize];
        let mut block_start = 0u32;
        while block_start < self.rows {
            let n = BLOCK_ROWS.min(self.rows - block_start);
            self.gather_visible_block(area, start_ts, block_start, n, &mut buf, stats)?;
            for i in 0..n {
                f(block_start + i, buf[i as usize]);
            }
            block_start += n;
        }
        Ok(())
    }

    /// Ablation variant of [`VersionedColumn::scan_visible`] with the
    /// block-skip optimisation disabled: every row takes the per-row
    /// visibility check, as in an implementation without §5.5's
    /// first/last-versioned-row positions.
    pub fn scan_visible_unoptimized(
        &self,
        area: &ColumnArea,
        start_ts: u64,
        mut f: impl FnMut(u32, u64),
        stats: &mut ScanStats,
    ) -> anker_vmem::Result<()> {
        for row in 0..self.rows {
            f(row, self.read(area, row, start_ts)?);
            if self.row_ts[row as usize].load(Ordering::Relaxed) & !PENDING > start_ts {
                stats.chain_walks += 1;
            }
        }
        stats.checked_rows += self.rows as u64;
        Ok(())
    }

    /// Gather the visible values of rows `[block_start, block_start + n)`
    /// (one skip block or a prefix of it) into `buf[..n]`, applying the
    /// block-skip optimisation. `block_start` must be block aligned.
    ///
    /// The block is copied once. A block with no versions, or whose
    /// newest install (its monotone `newest` timestamp, which GC never
    /// rewrites) is at or before `start_ts`, is delivered as copied once
    /// its seqlock verifies. Otherwise only the `[first, last]` range is
    /// checked, and a block whose verify fails (or a reader older than the
    /// last freeze) has every row checked; both check their rows with one
    /// timestamp bracket around the copy, so [`VersionedColumn::read`]
    /// runs only for a row an install raced.
    ///
    /// The tight copy is exact because `start_ts` is a completed
    /// watermark: every commit at or before it has installed, and any
    /// later install pushes into the block — bumping `seq`, so the copy
    /// fails to verify — before it stores in place.
    ///
    /// This is the building block of multi-column scans: the executor
    /// gathers one block per column, then combines rows.
    pub fn gather_visible_block(
        &self,
        area: &ColumnArea,
        start_ts: u64,
        block_start: u32,
        n: u32,
        buf: &mut [u64],
        stats: &mut ScanStats,
    ) -> anker_vmem::Result<()> {
        debug_assert!(block_start.is_multiple_of(BLOCK_ROWS));
        debug_assert!(n <= BLOCK_ROWS && block_start + n <= self.rows);
        let buf = &mut buf[..n as usize];
        // The store before the freeze timestamp: `freeze_epoch` publishes
        // them in the other order.
        let store = self.current_store();
        // The skip index only knows versions of the current epoch; readers
        // older than the last freeze must check every row (cannot happen in
        // the paper's configurations — OLAP runs on snapshots — but stay
        // correct for any caller).
        // ORDERING: Acquire pairs with `freeze_epoch`'s Release store, so
        // seeing the freeze timestamp implies the frozen store is visible.
        let force_per_row = start_ts < self.last_freeze_ts.load(Ordering::Acquire);
        let block_idx = (block_start / BLOCK_ROWS) as usize;
        let (seq, first, last, newest) = store.block_read(block_idx);
        let tight_ok = !force_per_row && seq % 2 == 0;
        if tight_ok && (first == NO_ROW || newest <= start_ts) {
            // Nothing in the block is newer than the reader: copy,
            // validate, deliver.
            area.read_block_into(block_start, n, buf)?;
            if store.block_verify(block_idx, seq) && self.still_current(&store) {
                stats.tight_rows += n as u64;
                return Ok(());
            }
            stats.blocks_retried += 1;
        } else if tight_ok {
            // Mixed block: tight head and tail, bracketed middle.
            let lo = (first.max(block_start) - block_start) as usize;
            let hi = (last.min(block_start + n - 1) - block_start) as usize;
            self.gather_bracketed(area, start_ts, block_start, buf, lo..hi + 1, stats)?;
            if store.block_verify(block_idx, seq) && self.still_current(&store) {
                stats.tight_rows += (n as usize - (hi - lo + 1)) as u64;
                return Ok(());
            }
            stats.blocks_retried += 1;
        }
        // Whole-block fallback: every row checked, always correct.
        self.gather_bracketed(area, start_ts, block_start, buf, 0..buf.len(), stats)?;
        Ok(())
    }

    /// True if `store` is still the current store. A freeze during a gather
    /// sends later installs to a fresh store whose pushes `store`'s seqlock
    /// never sees, so a tight copy is trusted only if no freeze intervened.
    fn still_current(&self, store: &Arc<ChainStore>) -> bool {
        Arc::ptr_eq(store, &self.current.read())
    }

    /// Copy the `buf.len()` rows from `block_start` into `buf` and make the
    /// rows at block offsets `check` visible at `start_ts`, with one
    /// **timestamp bracket** around the single block copy — the protocol of
    /// [`VersionedColumn::read`], done once per block instead of once per
    /// row:
    ///
    /// 1. load the checked rows' timestamp words (t1);
    /// 2. copy the block;
    /// 3. re-load each word after an Acquire fence (t2).
    ///
    /// A row whose t1 (PENDING masked) is above `start_ts` is served from
    /// its chain. A row whose word moved (t2 != t1) raced an install or a
    /// latch and is re-read through [`VersionedColumn::read`]. Every other
    /// row's copied word is the visible value: an install advances the
    /// word before it overwrites the value, so an unchanged word proves
    /// the copy saw the version t1 names — latched-but-not-installed rows
    /// included, whose in-place value is still the old one.
    fn gather_bracketed(
        &self,
        area: &ColumnArea,
        start_ts: u64,
        block_start: u32,
        buf: &mut [u64],
        check: std::ops::Range<usize>,
        stats: &mut ScanStats,
    ) -> anker_vmem::Result<()> {
        let first = block_start as usize + check.start;
        let checked = check.len();
        let row_ts = &self.row_ts[first..first + checked];
        let mut t1 = [0u64; BLOCK_ROWS as usize];
        let t1 = &mut t1[..checked];
        // ORDERING: Acquire pairs with `install_locked`'s Release stores,
        // as `read`'s t1 does: the copy below observes at least the value
        // each word names, and a chain walk sees the push that preceded it.
        for (t, slot) in t1.iter_mut().zip(row_ts) {
            *t = slot.load(Ordering::Acquire);
        }
        area.read_block_into(block_start, buf.len() as u32, buf)?;
        // ORDERING: the Acquire fence orders the block copy before the t2
        // re-loads (seqlock-style validation), so t2 == t1 proves no
        // install moved a word, and hence overwrote its value, mid-copy.
        fence(Ordering::Acquire);
        let rows = first as u32..;
        for (((v, &t), slot), row) in buf[check].iter_mut().zip(t1.iter()).zip(row_ts).zip(rows) {
            if t & !PENDING > start_ts {
                *v = self.find_version(row, start_ts);
                stats.chain_walks += 1;
            } else if slot.load(Ordering::Relaxed) != t {
                let (value, walked) = self.read_path(area, row, start_ts)?;
                *v = value;
                stats.chain_walks += walked as u64;
            }
        }
        stats.checked_rows += checked as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anker_vmem::Kernel;

    fn setup(rows: u32) -> (Kernel, ColumnArea, VersionedColumn) {
        let k = Kernel::default();
        let s = k.create_space();
        let area = ColumnArea::alloc(&s, rows).unwrap();
        area.fill((0..rows as u64).map(|i| i * 10)).unwrap();
        let vc = VersionedColumn::new(rows, LogicalType::Int);
        (k, area, vc)
    }

    #[test]
    fn chain_newest_to_oldest() {
        let mut c = Chain::default();
        c.push(100, 0);
        c.push(200, 5);
        c.push(300, 9);
        assert_eq!(c.len(), 3);
        assert_eq!(c.find(10), Some(300));
        assert_eq!(c.find(9), Some(300));
        assert_eq!(c.find(8), Some(200));
        assert_eq!(c.find(5), Some(200));
        assert_eq!(c.find(4), Some(100));
        assert_eq!(c.find(0), Some(100));
    }

    #[test]
    fn chain_prune_keeps_visible_version() {
        let mut c = Chain::default();
        c.push(100, 0);
        c.push(200, 5);
        c.push(300, 9);
        // min_active = 6: a reader at 6 needs the ts-5 version; ts-0 is
        // garbage.
        assert_eq!(c.prune(6), 1);
        assert_eq!(c.find(6), Some(200));
        assert_eq!(c.find(20), Some(300));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn install_and_timed_reads() {
        let (_k, area, vc) = setup(100);
        // Commit ts 5 updates row 3 (old value 30 -> 999).
        vc.install(&area, 3, 999, 5).unwrap();
        // Reader at ts 4 sees the old value via the chain.
        assert_eq!(vc.read(&area, 3, 4).unwrap(), 30);
        // Reader at ts 5 sees the new value in place.
        assert_eq!(vc.read(&area, 3, 5).unwrap(), 999);
        // Unversioned row: direct read at any ts.
        assert_eq!(vc.read(&area, 7, 0).unwrap(), 70);
        // Multiple updates stack.
        vc.install(&area, 3, 1000, 8).unwrap();
        assert_eq!(vc.read(&area, 3, 4).unwrap(), 30);
        assert_eq!(vc.read(&area, 3, 7).unwrap(), 999);
        assert_eq!(vc.read(&area, 3, 8).unwrap(), 1000);
        assert_eq!(vc.current_store().chain_len(3), 2);
    }

    /// A latch dropped on a `?` exit restores the row's pre-latch word,
    /// `PENDING` clear; `install_locked` consumes its latch and ends it at
    /// the commit timestamp; a latch held until install stays latched
    /// when dropped.
    #[test]
    fn a_row_latch_releases_itself_unless_installed() {
        let k = Kernel::default();
        let s = k.create_space();
        let area = ColumnArea::alloc(&s, 16).unwrap();
        area.fill((0..16u64).map(|i| i * 10)).unwrap();
        // More rows than the area: latching row 20 fails on its read.
        let vc = VersionedColumn::new(32, LogicalType::Int);
        vc.install(&area, 2, 7, 3).unwrap();
        let attempt = || -> anker_vmem::Result<()> {
            let a = vc.lock_row(&area, 2, 2)?;
            let b = vc.lock_row(&area, 4, 4)?;
            assert_eq!((a.old_ts(), a.old_word()), (3, 7));
            assert_eq!((b.old_ts(), b.old_word()), (0, 40));
            assert_eq!(vc.last_write_ts(2), 3 | PENDING);
            let _past_the_area = vc.lock_row(&area, 20, 20)?;
            Ok(())
        };
        assert!(attempt().is_err(), "row 20 is past the area");
        assert_eq!([2, 4, 20].map(|r| vc.last_write_ts(r)), [3, 0, 0]);
        let latch = vc.lock_row(&area, 4, 4).unwrap();
        vc.install_locked(&area, latch, 41, 6).unwrap();
        assert_eq!(vc.last_write_ts(4), 6);
        assert_eq!(vc.read(&area, 4, 6).unwrap(), 41);
        assert_eq!(vc.read(&area, 4, 5).unwrap(), 40);
        let mut held = vc.lock_row(&area, 5, 5).unwrap();
        held.hold_until_install();
        drop(held);
        assert_eq!(vc.last_write_ts(5), PENDING);
    }

    #[test]
    fn freeze_hands_over_chains() {
        let (_k, area, vc) = setup(50);
        vc.install(&area, 10, 111, 3).unwrap();
        let frozen = vc.freeze_epoch(4);
        assert_eq!(frozen.version_count(), 1);
        assert!(vc.current_store().is_empty());
        // Old reader still reaches the pre-freeze version via the frozen
        // store.
        assert_eq!(vc.read(&area, 10, 2).unwrap(), 100);
        // Updates after the freeze go to the fresh store.
        vc.install(&area, 10, 222, 6).unwrap();
        assert_eq!(vc.current_store().version_count(), 1);
        assert_eq!(vc.read(&area, 10, 5).unwrap(), 111);
        assert_eq!(vc.read(&area, 10, 2).unwrap(), 100);
        assert_eq!(vc.read(&area, 10, 6).unwrap(), 222);
        // Releasing the frozen epoch (no readers older than 4) drops the
        // old chains implicitly — the paper's "garbage collection for free".
        vc.release_frozen(4);
        assert_eq!(vc.frozen_epochs(), 0);
    }

    #[test]
    #[should_panic(expected = "retention")]
    fn dropping_needed_epoch_is_detected() {
        let (_k, area, vc) = setup(10);
        vc.install(&area, 0, 1, 3).unwrap();
        vc.freeze_epoch(4);
        vc.release_frozen(100); // violates retention for readers < 4
        vc.read(&area, 0, 2).unwrap(); // needs the dropped version
    }

    #[test]
    fn gc_removes_invisible_versions() {
        let (_k, area, vc) = setup(100);
        for ts in 1..=10u64 {
            vc.install(&area, 5, ts * 1000, ts).unwrap();
        }
        assert_eq!(vc.current_store().chain_len(5), 10);
        // Oldest active reader is at ts 7: versions below the newest-≤7
        // are garbage.
        let removed = vc.gc(7);
        assert!(removed >= 6, "removed {removed}");
        assert_eq!(vc.read(&area, 5, 7).unwrap(), 7000);
        assert_eq!(vc.read(&area, 5, 20).unwrap(), 10000);
        // GC with min_active at the in-place version drops the whole chain.
        let removed = vc.gc(10);
        assert!(removed > 0);
        assert_eq!(vc.current_store().chain_len(5), 0);
        assert_eq!(vc.read(&area, 5, 10).unwrap(), 10000);
    }

    #[test]
    fn scan_tight_when_unversioned() {
        let (_k, area, vc) = setup(3000);
        let mut stats = ScanStats::default();
        let mut sum = 0u64;
        vc.scan_visible(&area, 0, |_, v| sum += v, &mut stats)
            .unwrap();
        assert_eq!(sum, (0..3000u64).map(|i| i * 10).sum::<u64>());
        assert_eq!(stats.tight_rows, 3000);
        assert_eq!(stats.checked_rows, 0);
    }

    #[test]
    fn scan_respects_visibility_with_versions() {
        let (_k, area, vc) = setup(3000);
        // Update rows 100 and 2500 at ts 5.
        vc.install(&area, 100, 7, 5).unwrap();
        vc.install(&area, 2500, 9, 5).unwrap();
        // Reader at ts 3 must see the original values.
        let mut stats = ScanStats::default();
        let mut got = Vec::new();
        vc.scan_visible(&area, 3, |r, v| got.push((r, v)), &mut stats)
            .unwrap();
        assert_eq!(got.len(), 3000);
        assert_eq!(got[100], (100, 1000));
        assert_eq!(got[2500], (2500, 25000));
        assert!(stats.chain_walks >= 2, "chain walks: {:?}", stats);
        // Only the two versioned blocks pay per-row checks, and only for
        // the single versioned row each ([first,last] = [row,row]).
        assert_eq!(stats.checked_rows, 2);
        assert_eq!(stats.tight_rows, 2998);
        // Reader at ts 5 sees the updates.
        let mut stats = ScanStats::default();
        let mut got = Vec::new();
        vc.scan_visible(&area, 5, |r, v| got.push((r, v)), &mut stats)
            .unwrap();
        assert_eq!(got[100], (100, 7));
        assert_eq!(got[2500], (2500, 9));
    }

    #[test]
    fn scan_block_range_limits_checks() {
        let (_k, area, vc) = setup(2048);
        // Version rows 10..20 of block 0 at ts 2.
        for r in 10..20 {
            vc.install(&area, r, 0, 2).unwrap();
        }
        let mut stats = ScanStats::default();
        let mut n = 0u32;
        vc.scan_visible(&area, 1, |_, _| n += 1, &mut stats)
            .unwrap();
        assert_eq!(n, 2048);
        // Checked rows = the [first,last] = [10,19] range only.
        assert_eq!(stats.checked_rows, 10);
        assert_eq!(stats.tight_rows, 2048 - 10);
    }

    #[test]
    fn block_reads_tight_once_every_install_predates_the_reader() {
        let (_k, area, vc) = setup(2048);
        // Rows 10..20 of block 0 updated by commits 2..=11, one each.
        for (r, ts) in (10..20).zip(2u64..) {
            vc.install(&area, r, 5000 + r as u64, ts).unwrap();
        }
        let mut buf = vec![0u64; BLOCK_ROWS as usize];
        // A reader at the newest install sees every row in place.
        let mut stats = ScanStats::default();
        vc.gather_visible_block(&area, 11, 0, BLOCK_ROWS, &mut buf, &mut stats)
            .unwrap();
        assert_eq!(buf[19], 5019);
        assert_eq!(buf[20], 200);
        assert_eq!(
            (stats.tight_rows, stats.checked_rows, stats.chain_walks),
            (BLOCK_ROWS as u64, 0, 0)
        );
        // One commit older: the [first, last] = [10, 19] bracket, and row
        // 19 (installed at ts 11) comes from its chain.
        let mut stats = ScanStats::default();
        vc.gather_visible_block(&area, 10, 0, BLOCK_ROWS, &mut buf, &mut stats)
            .unwrap();
        assert_eq!((buf[18], buf[19]), (5018, 190));
        assert_eq!(
            (stats.tight_rows, stats.checked_rows, stats.chain_walks),
            (BLOCK_ROWS as u64 - 10, 10, 1)
        );
    }

    #[test]
    fn concurrent_scans_and_installs_never_tear() {
        // One writer installs serialized commits; several readers scan at
        // their snapshot timestamps and must always see consistent values:
        // every row is either old (row*10) or a committed even update.
        let (_k, area, vc) = setup(4096);
        let area = Arc::new(area);
        let vc = Arc::new(vc);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            {
                let (vc, area) = (vc.clone(), area.clone());
                let stop = &stop;
                s.spawn(move || {
                    for (ts, round) in (1u64..).zip(0..200u64) {
                        let row = (round * 37) % 4096;
                        vc.install(&area, row as u32, round * 2 + 1_000_000, ts)
                            .unwrap();
                    }
                    stop.store(true, Ordering::Release);
                });
            }
            for _ in 0..2 {
                let (vc, area) = (vc.clone(), area.clone());
                let stop = &stop;
                s.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let mut stats = ScanStats::default();
                        // Read as of "now-ish": ts 0 (before all updates).
                        vc.scan_visible(
                            &area,
                            0,
                            |r, v| {
                                assert_eq!(v, r as u64 * 10, "reader at ts 0 saw an update");
                            },
                            &mut stats,
                        )
                        .unwrap();
                    }
                });
            }
        });
    }
}
