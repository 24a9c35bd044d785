//! The typed scan layer: one builder, [`Scan`], generic over its host —
//! a transaction ([`ScanBuilder`], from [`Txn::scan_on`], either
//! processing path) or a detached [`SnapshotReader`]
//! ([`ReaderScanBuilder`], from [`SnapshotReader::scan`], sequential or
//! morsel-parallel) — with predicates pushed down into one block loop and
//! automatic precision-lock registration on the serializable path.
//!
//! The paper's headline fast path is the tight, version-check-free snapshot
//! scan (§2.2, §5.5). The builder keeps that loop structure and adds four
//! things on top:
//!
//! * **Predicate pushdown.** Typed filters ([`Scan::range_i64`],
//!   [`Scan::range_f64`], [`Scan::lt_f64`], [`Scan::dict_eq`],
//!   [`Scan::in_set`]) are declared once for both hosts and evaluated
//!   inside the 1024-row block loop. On frozen snapshot columns, per-block
//!   min/max zone maps ([`anker_storage::ZoneMap`], built lazily on the
//!   frozen areas) let whole blocks skip when no filter can match
//!   (`ScanStats::blocks_skipped`); projection columns are only read for
//!   blocks with at least one surviving row.
//! * **Vectorized kernels.** Filters run column-at-a-time through the
//!   selection-vector kernels of the private `kernels` module: the first
//!   conjunct of a block produces a `u32` selection vector, later
//!   conjuncts refine it touching only surviving lanes, zone-map-proven
//!   *all-match* blocks skip materialisation entirely
//!   (`ScanStats::dense_blocks`), and the count terminals popcount
//!   selections without reading projection columns
//!   (`ScanStats::proj_blocks` stays 0). Conjunct order adapts per work
//!   range, cheapest-and-most-selective-first, re-decided only at block
//!   boundaries from completed-block statistics — deterministic for every
//!   thread count. [`crate::DbConfig::scalar_scan`] (`ANKER_SCALAR_SCAN=1`)
//!   swaps in the row-at-a-time oracle instead, chosen once when the scan
//!   is compiled.
//! * **Automatic precision locking.** Every filter is converted into the
//!   equivalent [`Pred`] for serializable updaters (§2.1), and projected
//!   columns without a filter are logged as full-column reads — the
//!   serializability footgun of forgetting a manual `log_range` call no
//!   longer exists. Registration happens before execution, in declaration
//!   order, regardless of the adaptive evaluation order.
//! * **Morsel parallelism.** A detached reader's scan fans out over
//!   1024-row-aligned morsel ranges on the database's reusable worker pool
//!   ([`ReaderScanBuilder::parallel`]) or splits into caller-driven
//!   [`ScanPartition`]s ([`ReaderScanBuilder::into_partitions`]). Workers
//!   pull morsels dynamically; per-morsel [`ScanStats`] and fold
//!   accumulators are merged **in morsel order**, so results are
//!   deterministic for any worker count.
//!
//! Every terminal compiles the builder into a `ScanCore` (filters, the
//! column layout, the evaluator, and one of two column sources, immutable
//! and `Sync`) and drives it with per-worker `ScanCursor`s over
//! block-aligned row ranges. The cursor's one block loop runs classify →
//! filter → emit, and emit hands a row-delivering terminal each block's
//! selected rows at once; the terminal's own closure then runs in the one
//! width-specialised row loop, `deliver`. The column source decides what
//! a block read is:
//!
//! * **frozen** — resolved snapshot columns with zone maps, read through
//!   zero-copy whole-column slices where the backend exposes them, else
//!   staged block by block (the simulator, and images read through their
//!   live columns; transaction OLAP on a pinned epoch, and every reader
//!   scan);
//! * **versioned** — the live columns, gathered block by block at the
//!   transaction's start timestamp with the §5.5 block-skip optimisation:
//!   one block copy, with the versioned rows checked by one timestamp
//!   bracket around it rather than a locked backend read per row; no zone
//!   maps, since in-place installs would invalidate them (homogeneous MVCC
//!   and OLTP scans).

use crate::db::AnkerDb;
use crate::error::Result;
use crate::kernels::{AdaptiveOrder, Filter, FilterKind, SelVec};
use crate::metrics::Metrics;
use crate::reader::{ReaderPin, SnapshotReader};
use crate::snapman::SnapCol;
use crate::table::{TableId, TableState};
use crate::txn::Txn;
use anker_mvcc::{Pred, ScanStats, BLOCK_ROWS};
use anker_storage::{ColumnId, LogicalType, Value, ZoneMap};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Most blocks per morsel: the work quantum parallel scans hand out.
/// 16 blocks = 16 384 rows = 128 KiB per column — big enough to amortise
/// dispatch, small enough that dynamic pulling balances skewed pruning.
/// Small tables use proportionally smaller morsels (see
/// [`morsel_blocks`]) so they still split.
pub(crate) const MORSEL_BLOCKS: u32 = 16;

/// Blocks per morsel for a table of `blocks` 1024-row blocks: aim for at
/// least [`MORSEL_BLOCKS`] morsels, capped at [`MORSEL_BLOCKS`] blocks
/// each. Depends **only** on table size — never on the thread count — so
/// morsel boundaries (and therefore fold groupings, adaptive-ordering
/// reset points, and merged results, even for non-associative `f64`
/// accumulation) are identical for every fan-out.
fn morsel_blocks(blocks: u32) -> u32 {
    blocks.div_ceil(MORSEL_BLOCKS).clamp(1, MORSEL_BLOCKS)
}

/// An in-transaction scan under construction (see [`Scan`]).
pub type ScanBuilder<'t> = Scan<&'t mut Txn>;

/// A scan under construction on a [`SnapshotReader`] (see [`Scan`]).
///
/// Reader scans run **only** on the reader's pinned frozen epoch: no
/// version checks, no commit-lock acquisition after the scanned columns
/// are materialised, and snapshot-isolation semantics at the epoch
/// timestamp (see [`SnapshotReader`] for the contract). Parallel
/// terminals merge per-morsel results in morsel order, so for associative
/// merge operators the result is deterministic and identical across
/// thread counts.
pub type ReaderScanBuilder<'r> = Scan<&'r SnapshotReader>;

/// A scan under construction: obtain one with [`Txn::scan_on`] or
/// [`SnapshotReader::scan`], chain typed predicates and a projection,
/// finish with a terminal method of the host.
///
/// Filters combine conjunctively (logical AND). The projection decides what
/// the row callback receives, in the order given to [`Scan::project`];
/// without a projection the callback receives an empty slice (useful with
/// the count terminals or when only row ids matter). A column may appear
/// in both a filter and the projection; its block is read once.
#[must_use = "a scan builder does nothing until a terminal method runs it"]
pub struct Scan<H> {
    host: H,
    table: TableId,
    state: Arc<TableState>,
    filters: Vec<Filter>,
    projection: Vec<ColumnId>,
    /// Requested fan-out ([`ReaderScanBuilder::parallel`]; 1 otherwise).
    threads: usize,
}

impl<H> Scan<H> {
    pub(crate) fn new(host: H, table: TableId, state: Arc<TableState>) -> Scan<H> {
        Scan {
            host,
            table,
            state,
            filters: Vec::new(),
            projection: Vec::new(),
            threads: 1,
        }
    }

    /// Append a filter on `col` after checking the column's type is one
    /// of `allowed` (`what` names the predicate in the panic message).
    fn filter(
        mut self,
        col: ColumnId,
        what: &str,
        allowed: &[LogicalType],
        kind: FilterKind,
    ) -> Self {
        let ty = self.state.schema.def(col).ty;
        assert!(
            allowed.contains(&ty),
            "{what} applies to {allowed:?} columns, found {ty:?}"
        );
        self.filters.push(Filter { col, ty, kind });
        self
    }

    /// Keep rows with `lo <= col <= hi` (inclusive). `col` must be an
    /// `Int` or `Date` column (dates are their day counts). The comparison
    /// is exact over the full `i64` domain.
    pub fn range_i64(self, col: ColumnId, lo: i64, hi: i64) -> Self {
        let allowed = [LogicalType::Int, LogicalType::Date];
        self.filter(col, "range_i64", &allowed, FilterKind::RangeI { lo, hi })
    }

    /// Keep rows with `lo <= col <= hi` (inclusive). `col` must be a
    /// `Double` column.
    pub fn range_f64(self, col: ColumnId, lo: f64, hi: f64) -> Self {
        let kind = FilterKind::Range {
            lo,
            hi,
            hi_exclusive: false,
        };
        self.filter(col, "range_f64", &[LogicalType::Double], kind)
    }

    /// Keep rows with `col < hi` (strict). `col` must be a `Double`
    /// column.
    pub fn lt_f64(self, col: ColumnId, hi: f64) -> Self {
        let kind = FilterKind::Range {
            lo: f64::NEG_INFINITY,
            hi,
            hi_exclusive: true,
        };
        self.filter(col, "lt_f64", &[LogicalType::Double], kind)
    }

    /// Keep rows whose dictionary code equals `code`. `col` must be a
    /// `Dict` column.
    pub fn dict_eq(self, col: ColumnId, code: u32) -> Self {
        self.filter(
            col,
            "dict_eq",
            &[LogicalType::Dict],
            FilterKind::DictEq(code),
        )
    }

    /// Keep rows whose dictionary code is one of `codes` (an empty set
    /// matches nothing). `col` must be a `Dict` column.
    pub fn in_set(self, col: ColumnId, codes: impl IntoIterator<Item = u32>) -> Self {
        let kind = FilterKind::InSet(codes.into_iter().collect());
        self.filter(col, "in_set", &[LogicalType::Dict], kind)
    }

    /// Set the columns the row callback receives, in this order.
    pub fn project(mut self, cols: &[ColumnId]) -> Self {
        self.projection = cols.to_vec();
        self
    }

    /// The logical types of the projection, for decoding delivered rows.
    fn projection_types(&self) -> Vec<LogicalType> {
        self.projection
            .iter()
            .map(|&c| self.state.schema.def(c).ty)
            .collect()
    }
}

/// Decode one delivered row's projected words into `vals` (a buffer
/// reused across rows).
fn decode_row(vals: &mut Vec<Value>, words: &[u64], tys: &[LogicalType]) {
    vals.clear();
    vals.extend(words.iter().zip(tys).map(|(&w, &ty)| Value::decode(w, ty)));
}

// ---------------------------------------------------------------------
// In-transaction terminals
// ---------------------------------------------------------------------

impl Scan<&mut Txn> {
    /// Run the scan, calling `f(row, words)` with the **raw 8-byte words**
    /// of the projection for every row that passes all filters — the
    /// escape hatch for hot aggregation loops that decode inline.
    ///
    /// `words` borrows the scan's current block (a frozen image's pages
    /// or a staging buffer) for one call only, so the borrow checker
    /// keeps it from outliving the scan or the epoch pin behind it; copy
    /// what must be kept:
    ///
    /// ```compile_fail
    /// use anker_core::{AnkerDb, ColumnDef, DbConfig, LogicalType, Schema, TxnKind};
    ///
    /// let db = AnkerDb::new(DbConfig::heterogeneous_serializable());
    /// let schema = Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]);
    /// let t = db.create_table("t", schema, 4).unwrap();
    /// let v = db.schema(t).col("v");
    /// let mut olap = db.begin(TxnKind::Olap);
    /// let mut kept: Vec<&[u64]> = Vec::new();
    /// olap.scan_on(t)
    ///     .project(&[v])
    ///     .for_each(|_, words| kept.push(words))
    ///     .unwrap();
    /// ```
    pub fn for_each(self, mut f: impl FnMut(u32, &[u64])) -> Result<ScanStats> {
        let (_, stats) = self.execute(Some(&mut |rows| deliver(rows, &mut f)))?;
        Ok(stats)
    }

    /// Run the scan, calling `f(row, values)` with the decoded
    /// [`Value`]s of the projection for every row that passes all filters.
    pub fn for_each_typed(self, mut f: impl FnMut(u32, &[Value])) -> Result<ScanStats> {
        let tys = self.projection_types();
        let mut vals: Vec<Value> = Vec::with_capacity(tys.len());
        self.for_each(move |row, words| {
            decode_row(&mut vals, words, &tys);
            f(row, &vals);
        })
    }

    /// Run the scan, folding the decoded projection of every passing row
    /// into an accumulator.
    pub fn fold<A>(
        self,
        init: A,
        mut f: impl FnMut(A, u32, &[Value]) -> A,
    ) -> Result<(A, ScanStats)> {
        let mut acc = Some(init);
        let stats = self.for_each_typed(|row, vals| {
            let a = acc.take().expect("accumulator present");
            acc = Some(f(a, row, vals));
        })?;
        Ok((acc.expect("accumulator present"), stats))
    }

    /// Run the scan and count the rows passing all filters. The projection
    /// is ignored (no value columns are read): counting popcounts the
    /// selection vectors, so neither projection blocks nor per-row
    /// callbacks are touched ([`ScanStats::proj_blocks`] stays 0).
    pub fn count(mut self) -> Result<(u64, ScanStats)> {
        self.projection.clear();
        self.execute(None)
    }

    /// Execute: log precision locks, compile the scan against the
    /// transaction's pinned epoch (frozen source) or its start timestamp
    /// (versioned source), and run one cursor over all rows as a single
    /// work range. `sink` is `Some` for row-delivering terminals and
    /// `None` for the fused count path; the returned count is only
    /// meaningful in the latter case.
    fn execute(self, sink: Option<BlockSink>) -> Result<(u64, ScanStats)> {
        let Scan {
            host: txn,
            table,
            state,
            filters,
            projection,
            ..
        } = self;
        if txn.serializable_updater() {
            for flt in &filters {
                flt.log_preds(Txn::colref(table, flt.col), &mut txn.inner);
            }
            // Projection columns without a filter are full-column reads;
            // filtered columns are covered (more precisely) by their
            // filter's predicate.
            for &c in &projection {
                if !filters.iter().any(|flt| flt.col == c) {
                    txn.inner.log_predicate(Pred::FullColumn {
                        col: Txn::colref(table, c),
                    });
                }
            }
        }
        let mut stats = ScanStats {
            threads: 1,
            ..ScanStats::default()
        };
        // A sequential scan is one morsel for the tracer too.
        let m = Arc::clone(&txn.db.inner.m);
        let obs_span = obs::Span::begin(&m.scan_morsel);
        let db = txn.db.clone();
        let core = if txn.epoch.is_some() {
            // Heterogeneous OLAP: the frozen snapshot columns of the
            // pinned epoch, materialised through the per-transaction
            // cache; the transaction's handles keep them mapped.
            ScanCore::compile(&db, state.rows, filters, &projection, |cols, filters| {
                Source::frozen(cols, filters, None, &mut |c| txn.snapshot_col(table, c))
            })
        } else {
            let start_ts = txn.inner.start_ts();
            ScanCore::compile(&db, state.rows, filters, &projection, |_, _| {
                Ok(Source::Versioned { state, start_ts })
            })
        }?;
        let count = ScanCursor::new(&core).run(0, core.rows, sink, &mut stats)?;
        drop(obs_span);
        stats.morsels += 1;
        txn.scan_stats.merge(&stats);
        note_scan_stats(&m, &stats);
        Ok((count, stats))
    }
}

// ---------------------------------------------------------------------
// Detached reader terminals: sequential, morsel-parallel, partitioned
// ---------------------------------------------------------------------

impl Scan<&SnapshotReader> {
    /// Fan the scan out over `threads` threads of execution (the caller
    /// is one of them; the rest come from the database's reusable scan
    /// pool). Workers pull 1024-row-aligned morsels dynamically;
    /// per-morsel results merge in morsel order. `parallel(1)` (the
    /// default) runs entirely on the calling thread.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Compile against the reader's pinned epoch. The core takes a handle
    /// on the pin, so whatever holds the core keeps the epoch alive.
    fn build_core(self) -> Result<ScanCore> {
        let Scan {
            host: reader,
            table,
            state,
            filters,
            projection,
            ..
        } = self;
        ScanCore::compile(
            reader.db(),
            state.rows,
            filters,
            &projection,
            |cols, filters| {
                Source::frozen(cols, filters, Some(reader.pin_handle()), &mut |c| {
                    reader.snap_col(table, c)
                })
            },
        )
    }

    /// Run the scan and count the rows passing all filters. The
    /// projection is ignored (no value columns are read): each morsel
    /// popcounts its selection vectors — no per-row callback, no
    /// projection buffers ([`ScanStats::proj_blocks`] stays 0) — and the
    /// per-morsel counts sum in morsel order.
    pub fn count(mut self) -> Result<(u64, ScanStats)> {
        self.projection.clear();
        let (reader, threads) = (self.host, self.threads);
        let core = self.build_core()?;
        let (counts, stats) = run_morsels(reader, &core, threads, &|cursor, start, end, st| {
            cursor.run(start, end, None, st)
        })?;
        Ok((counts.into_iter().sum(), stats))
    }

    /// Run the scan, calling `f(row, words)` with the raw 8-byte words of
    /// the projection for every passing row. Under [`parallel`], `f` is
    /// called concurrently from multiple threads and rows of different
    /// morsels arrive in no particular order (within a morsel, row order
    /// holds); use [`fold`] when you need a deterministic reduction.
    ///
    /// [`parallel`]: ReaderScanBuilder::parallel
    /// [`fold`]: ReaderScanBuilder::fold
    pub fn for_each(self, f: impl Fn(u32, &[u64]) + Sync) -> Result<ScanStats> {
        let (reader, threads) = (self.host, self.threads);
        let core = self.build_core()?;
        let (_, stats) = run_morsels(reader, &core, threads, &|cursor, start, end, st| {
            let mut f = &f;
            cursor.run(start, end, Some(&mut |rows| deliver(rows, &mut f)), st)
        })?;
        Ok(stats)
    }

    /// Run the scan, folding every passing row's decoded projection into
    /// per-morsel accumulators (each seeded with a clone of `init`) and
    /// merging them **in morsel order** with `merge`. For an associative
    /// `merge` the result equals the sequential fold and is identical for
    /// every thread count.
    pub fn fold<A, F, M>(self, init: A, f: F, merge: M) -> Result<(A, ScanStats)>
    where
        A: Clone + Send + Sync,
        F: Fn(A, u32, &[Value]) -> A + Sync,
        M: Fn(A, A) -> A,
    {
        let tys = self.projection_types();
        let (reader, threads) = (self.host, self.threads);
        let core = self.build_core()?;
        let init = &init;
        let (accs, stats) = run_morsels(reader, &core, threads, &|cursor, start, end, st| {
            let mut acc = Some(init.clone());
            // One decode buffer per morsel, reused across its rows.
            let mut vals: Vec<Value> = Vec::with_capacity(tys.len());
            let mut sink = |row, words: &[u64]| {
                decode_row(&mut vals, words, &tys);
                let a = acc.take().expect("accumulator present");
                acc = Some(f(a, row, &vals));
            };
            cursor.run(start, end, Some(&mut |rows| deliver(rows, &mut sink)), st)?;
            Ok(acc.expect("accumulator present"))
        })?;
        let folded = accs
            .into_iter()
            .reduce(merge)
            .unwrap_or_else(|| init.clone());
        Ok((folded, stats))
    }

    /// Split the scan into `n` contiguous, 1024-row-aligned partitions the
    /// caller drives on threads of its own ([`ScanPartition`] is `Send` +
    /// `Sync` and keeps the epoch pinned). Exactly `n` partitions are
    /// returned; trailing ones may be empty when the table is small. The
    /// union of the partitions is the whole table, disjointly.
    ///
    /// The partitions share one compiled scan, so — unlike the builder's
    /// own [`count`](ReaderScanBuilder::count) — a partition holding a
    /// projection keeps it; omit [`project`](Scan::project) when the
    /// partitions will only count.
    pub fn into_partitions(self, n: usize) -> Result<Vec<ScanPartition>> {
        let threads = n.max(1) as u32;
        let m = Arc::clone(&self.host.db().inner.m);
        let core = Arc::new(self.build_core()?);
        let rows = core.rows;
        let blocks = rows.div_ceil(BLOCK_ROWS);
        let base = blocks / threads;
        let extra = blocks % threads;
        let mut out = Vec::with_capacity(threads as usize);
        let mut block = 0u32;
        for i in 0..threads {
            let take = base + u32::from(i < extra);
            let start = block * BLOCK_ROWS;
            let end = ((block + take) * BLOCK_ROWS).min(rows);
            out.push(ScanPartition {
                core: Arc::clone(&core),
                m: Arc::clone(&m),
                start: start.min(rows),
                end,
            });
            block += take;
        }
        Ok(out)
    }
}

/// One contiguous, block-aligned slice of a reader scan, detached from
/// the builder: `Send + Sync`, keeps the snapshot epoch pinned, and runs
/// sequentially on whatever thread the caller gives it. Produced by
/// [`ReaderScanBuilder::into_partitions`] for executors that manage their
/// own threads instead of using the built-in pool.
///
/// Each partition is its own adaptive-ordering domain (the conjunct
/// order resets at its start), so a partition's results and counters
/// depend only on its row range and the table content.
pub struct ScanPartition {
    // The core owns the epoch pin, so the partition keeps the epoch
    // pinned transitively for as long as it lives.
    core: Arc<ScanCore>,
    m: Arc<Metrics>,
    start: u32,
    end: u32,
}

impl std::fmt::Debug for ScanPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanPartition")
            .field("rows", &(self.start..self.end))
            .finish()
    }
}

impl ScanPartition {
    /// The row range this partition covers (may be empty).
    pub fn rows(&self) -> std::ops::Range<u32> {
        self.start..self.end
    }

    /// Scan this partition, calling `f(row, words)` for every passing row
    /// in row order.
    pub fn for_each(&self, mut f: impl FnMut(u32, &[u64])) -> Result<ScanStats> {
        Ok(self.run(Some(&mut |rows| deliver(rows, &mut f)))?.1)
    }

    /// Count the partition's passing rows through the fused
    /// selection-vector popcount path (no projection reads, no per-row
    /// callback).
    pub fn count(&self) -> Result<(u64, ScanStats)> {
        self.run(None)
    }

    /// One sequential cursor over the partition's range — one morsel.
    fn run(&self, sink: Option<BlockSink>) -> Result<(u64, ScanStats)> {
        let mut stats = ScanStats {
            threads: 1,
            morsels: 1,
            ..ScanStats::default()
        };
        let mut cursor = ScanCursor::new(&self.core);
        let obs_span = obs::Span::begin(&self.m.scan_morsel);
        let n = cursor.run(self.start, self.end, sink, &mut stats)?;
        drop(obs_span);
        note_scan_stats(&self.m, &stats);
        Ok((n, stats))
    }
}

/// The morsel-parallel driver: split `core`'s rows into
/// [`MORSEL_BLOCKS`]-sized, block-aligned morsels, let `threads` workers
/// (the caller plus pool workers) pull them dynamically, and return the
/// per-morsel results **in morsel order** together with the merged
/// stats. Each morsel runs through `run` on the pulling worker's cursor;
/// `threads == 1` runs entirely inline.
fn run_morsels<A: Send>(
    reader: &SnapshotReader,
    core: &ScanCore,
    threads: usize,
    run: &(dyn Fn(&mut ScanCursor, u32, u32, &mut ScanStats) -> Result<A> + Sync),
) -> Result<(Vec<A>, ScanStats)> {
    let rows = core.rows;
    let morsel_rows = morsel_blocks(rows.div_ceil(BLOCK_ROWS)) * BLOCK_ROWS;
    let n_morsels = rows.div_ceil(morsel_rows) as usize;
    let threads = threads.clamp(1, n_morsels.max(1));
    let next = AtomicU32::new(0);
    let slots: Vec<Mutex<Option<(A, ScanStats)>>> =
        (0..n_morsels).map(|_| Mutex::new(None)).collect();
    let error: Mutex<Option<crate::error::DbError>> = Mutex::new(None);
    let failed = std::sync::atomic::AtomicBool::new(false);
    let metrics = &*reader.db().inner.m;
    let worker = |_seat: usize| {
        let mut cursor = ScanCursor::new(core);
        loop {
            // One worker's error cancels the whole scan: the others stop
            // pulling instead of draining the remaining morsels for a
            // result that will be discarded.
            // ORDERING: Acquire pairs with the failing worker's Release
            // store below, so a cancelled worker also sees the error it
            // defers to already recorded.
            if failed.load(Ordering::Acquire) {
                break;
            }
            let m = next.fetch_add(1, Ordering::Relaxed) as usize;
            if m >= n_morsels {
                break;
            }
            let start = m as u32 * morsel_rows;
            let end = (start + morsel_rows).min(rows);
            let mut stats = ScanStats {
                morsels: 1,
                ..ScanStats::default()
            };
            let res = {
                let _obs = obs::Span::begin(&metrics.scan_morsel);
                run(&mut cursor, start, end, &mut stats)
            };
            match res {
                Ok(acc) => *slots[m].lock() = Some((acc, stats)),
                Err(e) => {
                    error.lock().get_or_insert(e);
                    // ORDERING: Release — the recorded error above must be
                    // visible to any worker whose Acquire load sees the
                    // cancel flag.
                    failed.store(true, Ordering::Release);
                    break;
                }
            }
        }
    };
    if threads == 1 {
        worker(0);
    } else {
        reader.db().scan_pool(threads).run(threads, &worker);
    }
    if let Some(e) = error.into_inner() {
        return Err(e);
    }
    let mut stats = ScanStats {
        threads: threads as u64,
        ..ScanStats::default()
    };
    let mut accs = Vec::with_capacity(n_morsels);
    for slot in slots {
        let (acc, morsel_stats) = slot.into_inner().expect("morsel completed without error");
        stats.merge(&morsel_stats);
        accs.push(acc);
    }
    note_scan_stats(metrics, &stats);
    Ok((accs, stats))
}

/// Fold a finished scan's merged [`ScanStats`] into the database's
/// `scan_*` counters. Called once per completed scan (sequential
/// `execute`, the morsel-parallel driver, and explicit [`ScanPartition`]
/// runs), so the counters stay bit-identical across thread counts — the
/// same invariant the per-scan stats already keep.
fn note_scan_stats(m: &Metrics, stats: &ScanStats) {
    m.scan_morsels.add(stats.morsels);
    m.scan_tight_rows.add(stats.tight_rows);
    m.scan_checked_rows.add(stats.checked_rows);
    m.scan_chain_walks.add(stats.chain_walks);
    m.scan_blocks_skipped.add(stats.blocks_skipped);
    m.scan_rows_filtered.add(stats.rows_filtered);
    m.scan_vector_blocks.add(stats.vector_blocks);
    m.scan_dense_blocks.add(stats.dense_blocks);
}

// ---------------------------------------------------------------------
// The compiled scan and its one block loop
// ---------------------------------------------------------------------

/// How a compiled scan evaluates its filters — fixed at compile time, so
/// the block loop dispatches on it once per block.
#[derive(Debug, Clone, Copy)]
enum Eval {
    /// Column-at-a-time selection-vector kernels: lazy gathers in
    /// adaptive conjunct order, zone-map dense blocks, fused counting.
    Kernels,
    /// Row at a time through [`Filter::matches`], in declaration order,
    /// with every filter column gathered up front — the oracle the
    /// kernels are property-tested against
    /// ([`crate::DbConfig::scalar_scan`]). Zone-map pruning stays on; the
    /// all-match verdicts, adaptive ordering and fused counting do not
    /// apply.
    RowOracle,
}

/// Where a compiled scan's column blocks come from. Columns are indexed
/// like [`ScanCore::cols`].
enum Source {
    /// Frozen snapshot columns. Holding the `Arc<SnapCol>`s keeps every
    /// scanned area mapped, which is all the cursor's zero-copy slices
    /// need ([`SnapCol::words`]). On the reader path the
    /// source also owns the [`ReaderPin`], so the reader's epoch stays
    /// pinned while any partition of the scan can still run; on the
    /// transaction path the pin is `None` and the transaction holds it.
    Frozen {
        snaps: Vec<Arc<SnapCol>>,
        /// Per filter (the first `filters.len()` columns).
        zone_maps: Vec<Arc<ZoneMap>>,
        _pin: Option<Arc<ReaderPin>>,
    },
    /// The live columns, gathered at `start_ts`. Live data is never
    /// borrowed as a slice (concurrent installs mutate it), and carries no
    /// zone maps, so no block is pruned or provably all-match.
    Versioned {
        state: Arc<TableState>,
        start_ts: u64,
    },
}

impl Source {
    /// Resolve every column through `resolve` (which materialises on
    /// first access) and build the filters' zone maps. `pin` is the epoch
    /// pin the source takes ownership of on the reader path.
    fn frozen(
        cols: &[ColumnId],
        filters: &[Filter],
        pin: Option<Arc<ReaderPin>>,
        resolve: &mut dyn FnMut(ColumnId) -> Result<Arc<SnapCol>>,
    ) -> Result<Source> {
        let snaps = cols
            .iter()
            .map(|&c| resolve(c))
            .collect::<Result<Vec<_>>>()?;
        // Zone maps live on the frozen snapshot areas; building them is a
        // one-time cost per (epoch, column) amortised over every filtered
        // scan of that snapshot.
        let zone_maps: Vec<Arc<ZoneMap>> = filters
            .iter()
            .zip(&snaps)
            .map(|(flt, sc)| sc.zone_map(flt.ty, BLOCK_ROWS))
            .collect::<std::result::Result<_, _>>()?;
        Ok(Source::Frozen {
            snaps,
            zone_maps,
            _pin: pin,
        })
    }
}

/// A compiled scan: the filters, the columns to read, the evaluator and
/// the column source. Immutable and `Sync` — parallel workers share one
/// core by reference and drive their own [`ScanCursor`]s over disjoint
/// row ranges.
pub(crate) struct ScanCore {
    rows: u32,
    filters: Vec<Filter>,
    /// The columns the cursor reads: one per filter (index = filter
    /// index), then each projection column no filter covers.
    cols: Vec<ColumnId>,
    /// For each projection position, the index into `cols` serving it —
    /// a filter's column when one covers it, so its block is read once.
    proj: Vec<usize>,
    eval: Eval,
    source: Source,
}

impl ScanCore {
    /// Lay out the columns, pick the evaluator from the database's
    /// configuration, and open the column source through `open`.
    fn compile(
        db: &AnkerDb,
        rows: u32,
        filters: Vec<Filter>,
        projection: &[ColumnId],
        open: impl FnOnce(&[ColumnId], &[Filter]) -> Result<Source>,
    ) -> Result<ScanCore> {
        let mut cols: Vec<ColumnId> = filters.iter().map(|flt| flt.col).collect();
        let proj = projection
            .iter()
            .map(|&c| match filters.iter().position(|flt| flt.col == c) {
                Some(fi) => fi,
                None => {
                    cols.push(c);
                    cols.len() - 1
                }
            })
            .collect();
        let source = open(&cols, &filters)?;
        let eval = if db.config().scalar_scan {
            Eval::RowOracle
        } else {
            Eval::Kernels
        };
        Ok(ScanCore {
            rows,
            filters,
            cols,
            proj,
            eval,
            source,
        })
    }
}

/// The current block's column words, indexed like [`ScanCore::cols`]:
/// whole-column slices where the source exposes them (the OS backend's
/// zero-copy path), else per-column buffers filled on first use within
/// the block.
struct BlockCols<'c> {
    core: &'c ScanCore,
    slices: Vec<Option<&'c [u64]>>,
    bufs: Vec<Vec<u64>>,
    filled: Vec<bool>,
}

impl BlockCols<'_> {
    /// Column `ci`'s words for the block `[start, start + n)`, read from
    /// the source on first use within the block.
    fn fetch(&mut self, ci: usize, start: u32, n: u32, stats: &mut ScanStats) -> Result<&[u64]> {
        if self.slices[ci].is_none() && !self.filled[ci] {
            self.read(ci, start, n, stats)?;
        }
        Ok(self.block(ci, start, n))
    }

    /// Column `ci`'s words for the block `[start, start + n)`, already
    /// fetched.
    #[inline]
    fn block(&self, ci: usize, start: u32, n: u32) -> &[u64] {
        match self.slices[ci] {
            Some(s) => &s[start as usize..(start + n) as usize],
            None => &self.bufs[ci][..n as usize],
        }
    }

    /// Read column `ci`'s block into its buffer: stage it from the frozen
    /// area, or gather it visible at the versioned source's timestamp.
    fn read(&mut self, ci: usize, start: u32, n: u32, stats: &mut ScanStats) -> Result<()> {
        let buf = &mut self.bufs[ci];
        match &self.core.source {
            Source::Frozen { snaps, .. } => snaps[ci].area().read_block_into(start, n, buf)?,
            Source::Versioned { state, start_ts } => {
                let col = state.col(self.core.cols[ci].0);
                col.versioned.gather_visible_block(
                    col.current_area(),
                    *start_ts,
                    start,
                    n,
                    buf,
                    stats,
                )?
            }
        }
        self.filled[ci] = true;
        Ok(())
    }
}

/// Per-worker scan state over a shared [`ScanCore`]: the block's column
/// words, the selection vector, the adaptive conjunct order and the
/// per-block all-match flags. Creating a cursor is cheap relative to a
/// morsel; each parallel worker owns one and reuses it across all morsels
/// it pulls.
pub(crate) struct ScanCursor<'c> {
    core: &'c ScanCore,
    cols: BlockCols<'c>,
    /// Per-filter zone-map all-match flags of the current block, reused
    /// (never set on the versioned source).
    all_match: Vec<bool>,
    sel: SelVec,
    /// Evaluation-order scratch (copied from `order` per block so the
    /// order can update while iterating).
    eval_order: Vec<u32>,
    order: AdaptiveOrder,
    /// The projection's column blocks handed to the sink, kept empty
    /// between blocks only to reuse its allocation (see [`recycle`]).
    proj_cols: Vec<&'static [u64]>,
}

impl<'c> ScanCursor<'c> {
    pub(crate) fn new(core: &'c ScanCore) -> ScanCursor<'c> {
        let slices: Vec<Option<&[u64]>> = match &core.source {
            // The core holds an `Arc<SnapCol>` per column, so each slice
            // lives as long as the cursor's borrow of the core.
            Source::Frozen { snaps, .. } => snaps.iter().map(|sc| sc.words()).collect(),
            Source::Versioned { .. } => vec![None; core.cols.len()],
        };
        let bufs = slices
            .iter()
            .map(|s| match s {
                Some(_) => Vec::new(),
                None => vec![0u64; BLOCK_ROWS as usize],
            })
            .collect();
        ScanCursor {
            core,
            cols: BlockCols {
                core,
                slices,
                bufs,
                filled: vec![false; core.cols.len()],
            },
            all_match: vec![false; core.filters.len()],
            sel: SelVec::new(BLOCK_ROWS),
            eval_order: Vec::with_capacity(core.filters.len()),
            order: AdaptiveOrder::new(&core.filters),
            proj_cols: Vec::with_capacity(core.proj.len()),
        }
    }

    /// The block loop. Scan rows `[start, end)` — `start` must be
    /// 1024-row (block) aligned — block by block: classify against the
    /// zone maps, filter, then hand each block's surviving rows to `sink`
    /// at once (a terminal runs them through [`deliver`]), or,
    /// with no sink, count them (the fused count path: selections are
    /// popcounted, never gathered into projection buffers, and the final
    /// conjunct of a still-dense block runs as a pure popcount kernel).
    /// Returns the count (0 when emitting); counters accumulate into
    /// `stats`. The adaptive conjunct order resets here: one range = one
    /// deterministic adaptation domain (see
    /// [`crate::kernels::AdaptiveOrder`]).
    pub(crate) fn run(
        &mut self,
        start: u32,
        end: u32,
        mut sink: Option<BlockSink>,
        stats: &mut ScanStats,
    ) -> Result<u64> {
        if start >= end {
            // Empty ranges (e.g. a trailing empty partition of a small
            // table) are legal and need not be block-aligned.
            return Ok(0);
        }
        debug_assert!(
            start.is_multiple_of(BLOCK_ROWS),
            "morsels are block-aligned"
        );
        self.order.begin_range();
        let end = end.min(self.core.rows);
        let mut count = 0u64;
        for start in (start..end).step_by(BLOCK_ROWS as usize) {
            let n = BLOCK_ROWS.min(end - start);
            if !self.classify_block(start, n, stats) {
                continue;
            }
            self.sel.reset_dense(n);
            self.cols.filled.fill(false);
            match self.core.eval {
                Eval::Kernels => self.filter_kernels(start, n, sink.is_none(), stats)?,
                Eval::RowOracle => self.filter_rows(start, n, stats)?,
            }
            match sink.as_deref_mut() {
                Some(sink) => self.emit(start, n, sink, stats)?,
                None => count += self.sel.len() as u64,
            }
        }
        Ok(count)
    }

    /// Zone-map verdict for the block at `start`: `false` when the block
    /// is pruned (some filter cannot match), otherwise `true` with
    /// `self.all_match[fi]` set for every filter the zone map proves
    /// all-matching. Only the frozen source has zone maps; a frozen block
    /// that survives is read tight — no version checks.
    fn classify_block(&mut self, start: u32, n: u32, stats: &mut ScanStats) -> bool {
        let Source::Frozen { zone_maps, .. } = &self.core.source else {
            return true;
        };
        let block_idx = (start / BLOCK_ROWS) as usize;
        for (fi, (zm, flt)) in zone_maps.iter().zip(&self.core.filters).enumerate() {
            let (lo, hi) = zm.block_range(block_idx);
            if !flt.block_can_match(lo, hi) {
                stats.blocks_skipped += 1;
                return false;
            }
            self.all_match[fi] = flt.block_all_match(lo, hi);
        }
        stats.tight_rows += n as u64;
        true
    }

    /// The kernel evaluator: refine the block's selection filter by
    /// filter in adaptive order. Filter columns are gathered **lazily in
    /// evaluation order** — a conjunct that empties the selection, or a
    /// zone-map all-match verdict, saves the gathers behind it.
    /// `count_fuse` lets the final remaining conjunct run as a pure
    /// popcount with no index materialisation (count path only — the
    /// selection is not enumerable afterwards).
    fn filter_kernels(
        &mut self,
        start: u32,
        n: u32,
        count_fuse: bool,
        stats: &mut ScanStats,
    ) -> Result<()> {
        let ScanCursor {
            core,
            cols,
            all_match,
            sel,
            eval_order,
            order,
            ..
        } = self;
        eval_order.clear();
        eval_order.extend_from_slice(order.order());
        let todo = eval_order
            .iter()
            .filter(|&&fi| !all_match[fi as usize])
            .count();
        let mut done = 0usize;
        for &fi in eval_order.iter() {
            let fi = fi as usize;
            if all_match[fi] {
                // The zone map proved every row of this block passes:
                // nothing to evaluate, nothing to read.
                let len = sel.len() as u64;
                order.record(fi, len, len, stats);
                continue;
            }
            let words = cols.fetch(fi, start, n, stats)?;
            let rows_in = sel.len() as u64;
            done += 1;
            let count_only = count_fuse && sel.is_dense() && done == todo;
            core.filters[fi].kernel(words, sel, count_only);
            order.record(fi, rows_in, sel.len() as u64, stats);
            if sel.is_empty() {
                break;
            }
        }
        if sel.is_dense() {
            stats.dense_blocks += 1;
        } else {
            stats.vector_blocks += 1;
        }
        stats.rows_filtered += n as u64 - sel.len() as u64;
        order.end_block(stats);
        Ok(())
    }

    /// The row-at-a-time oracle ([`Eval::RowOracle`]): gather every
    /// filter column of the block first, then refine the selection
    /// through [`Filter::matches`] in declaration order.
    fn filter_rows(&mut self, start: u32, n: u32, stats: &mut ScanStats) -> Result<()> {
        let ScanCursor {
            core,
            cols,
            sel,
            order,
            ..
        } = self;
        for fi in 0..core.filters.len() {
            cols.fetch(fi, start, n, stats)?;
        }
        for (fi, flt) in core.filters.iter().enumerate() {
            let words = cols.fetch(fi, start, n, stats)?;
            let rows_in = sel.len() as u64;
            sel.apply(words, |w| flt.matches(w));
            order.record(fi, rows_in, sel.len() as u64, stats);
            if sel.is_empty() {
                break;
            }
        }
        stats.rows_filtered += n as u64 - sel.len() as u64;
        Ok(())
    }

    /// Hand the selected rows of the current block to `sink`, once.
    /// Projection blocks (and filter blocks that double as projection
    /// sources but were skipped by all-match or early exit) are fetched
    /// here, only when at least one row survived; projection columns no
    /// filter covers count in [`ScanStats::proj_blocks`] when read into a
    /// buffer.
    fn emit(&mut self, start: u32, n: u32, sink: BlockSink, stats: &mut ScanStats) -> Result<()> {
        if self.sel.is_empty() {
            return Ok(());
        }
        let ScanCursor {
            core,
            cols,
            sel,
            proj_cols,
            ..
        } = self;
        let filters = core.filters.len();
        for &ci in &core.proj {
            if ci >= filters && cols.slices[ci].is_none() {
                stats.proj_blocks += 1;
            }
            cols.fetch(ci, start, n, stats)?;
        }
        let mut blocks = recycle(std::mem::take(proj_cols));
        blocks.extend(core.proj.iter().map(|&ci| cols.block(ci, start, n)));
        sink(&Rows {
            start,
            n,
            sel: sel.as_indices(),
            cols: &blocks,
        });
        *proj_cols = recycle(blocks);
        Ok(())
    }
}

/// An emptied vector of slices, as a vector of slices of another
/// lifetime, keeping its allocation (the in-place `collect` of an empty
/// iterator; it never calls the closure).
fn recycle<'b>(mut v: Vec<&[u64]>) -> Vec<&'b [u64]> {
    v.clear();
    v.into_iter().map(|_| unreachable!()).collect()
}

/// One block's selected rows, handed to a row-delivering terminal at
/// once: rows `start + i` for every `i` of `sel`, ascending (every
/// `i < n` when `sel` is `None`), with `cols[p]` the `n` words of
/// projection column `p` in the block.
pub(crate) struct Rows<'a> {
    start: u32,
    n: u32,
    sel: Option<&'a [u32]>,
    cols: &'a [&'a [u64]],
}

/// The sink a row-delivering terminal gives the block loop: one call per
/// block with surviving rows.
type BlockSink<'s> = &'s mut dyn FnMut(&Rows);

/// Call `f(row, words)` for every row of `rows`, in row order, with its
/// projected words. The one row loop of every row-delivering terminal,
/// each calling it with its own closure, which the compiler can inline.
/// Specialised on the projection width up to 8 columns, so the loop
/// gathers into a fixed-size row buffer; wider projections run one
/// dynamic loop.
fn deliver<F: FnMut(u32, &[u64])>(rows: &Rows, f: &mut F) {
    match rows.cols.len() {
        0 => deliver_fixed::<0, F>(rows, f),
        1 => deliver_fixed::<1, F>(rows, f),
        2 => deliver_fixed::<2, F>(rows, f),
        3 => deliver_fixed::<3, F>(rows, f),
        4 => deliver_fixed::<4, F>(rows, f),
        5 => deliver_fixed::<5, F>(rows, f),
        6 => deliver_fixed::<6, F>(rows, f),
        7 => deliver_fixed::<7, F>(rows, f),
        8 => deliver_fixed::<8, F>(rows, f),
        _ => {
            let mut row = vec![0u64; rows.cols.len()];
            each_selected(rows, |i| {
                for (w, col) in row.iter_mut().zip(rows.cols) {
                    *w = col[i];
                }
                f(rows.start + i as u32, &row);
            });
        }
    }
}

/// [`deliver`] for a projection of exactly `P` columns.
#[inline(always)]
fn deliver_fixed<const P: usize, F: FnMut(u32, &[u64])>(rows: &Rows, f: &mut F) {
    let n = rows.n as usize;
    let cols: [&[u64]; P] = std::array::from_fn(|p| &rows.cols[p][..n]);
    let mut row = [0u64; P];
    each_selected(rows, |i| {
        for (w, col) in row.iter_mut().zip(&cols) {
            *w = col[i];
        }
        f(rows.start + i as u32, &row);
    });
}

/// Call `one(i)` for every selected block-local row `i`, ascending.
#[inline(always)]
fn each_selected(rows: &Rows, mut one: impl FnMut(usize)) {
    match rows.sel {
        None => (0..rows.n as usize).for_each(one),
        Some(ix) => ix.iter().for_each(|&i| one(i as usize)),
    }
}
