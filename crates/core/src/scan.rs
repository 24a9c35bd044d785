//! The typed scan layer: [`ScanBuilder`] (in-transaction scans, both
//! processing paths) and [`ReaderScanBuilder`] (detached
//! [`crate::SnapshotReader`] scans, sequential or morsel-parallel) —
//! predicates pushed down into the block loops, with automatic
//! precision-lock registration on the serializable path.
//!
//! The paper's headline fast path is the tight, version-check-free snapshot
//! scan (§2.2, §5.5). The builders keep that loop structure and add four
//! things on top:
//!
//! * **Predicate pushdown.** Typed filters ([`ScanBuilder::range_i64`],
//!   [`ScanBuilder::range_f64`], [`ScanBuilder::lt_f64`],
//!   [`ScanBuilder::dict_eq`], [`ScanBuilder::in_set`]) are evaluated inside
//!   the 1024-row block loops. On the snapshot path, per-block min/max zone
//!   maps ([`anker_storage::ZoneMap`], built lazily on the frozen snapshot
//!   areas) let whole blocks skip when no filter can match
//!   (`ScanStats::blocks_skipped`); projection columns are only read for
//!   blocks with at least one surviving row.
//! * **Vectorized kernels.** Filters run column-at-a-time through the
//!   selection-vector kernels of the private `kernels` module: the first conjunct of
//!   a block produces a `u32` selection vector, later conjuncts refine it
//!   touching only surviving lanes, zone-map-proven *all-match* blocks
//!   skip materialisation entirely (`ScanStats::dense_blocks`), and the
//!   count terminals popcount selections without reading projection
//!   columns (`ScanStats::proj_blocks` stays 0). Conjunct order adapts
//!   per work range, cheapest-and-most-selective-first, re-decided only
//!   at block boundaries from completed-block statistics — deterministic
//!   for every thread count. `ANKER_SCALAR_SCAN=1` (or
//!   [`crate::DbConfig::scalar_scan`]) restores the row-at-a-time
//!   dispatch for ablations.
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
//! The frozen-scan machinery is shared: both builders compile into a
//! `FrozenScanCore` (resolved snapshot columns + zone maps, immutable,
//! `Sync`) driven by per-worker `FrozenCursor`s over arbitrary
//! block-aligned row ranges.

use crate::error::Result;
use crate::kernels::{AdaptiveOrder, Filter, FilterKind, SelVec};
use crate::metrics::Metrics;
use crate::reader::SnapshotReader;
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

/// What to scan: the compiled filters and the projection, independent of
/// which host (transaction or detached reader) drives the scan. Both
/// builders delegate their typed predicate methods here so the assertion
/// and compilation logic exists exactly once.
#[derive(Debug, Clone, Default)]
struct ScanSpec {
    filters: Vec<Filter>,
    projection: Vec<ColumnId>,
    /// Run the pre-vectorized row-at-a-time baseline instead of the
    /// selection-vector kernels (`ANKER_SCALAR_SCAN=1` /
    /// [`crate::DbConfig::scalar_scan`]).
    scalar: bool,
}

impl ScanSpec {
    fn range_i64(&mut self, col: ColumnId, ty: LogicalType, lo: i64, hi: i64) {
        assert!(
            matches!(ty, LogicalType::Int | LogicalType::Date),
            "range_i64 applies to Int or Date columns, found {ty:?}"
        );
        self.filters.push(Filter {
            col,
            ty,
            kind: FilterKind::RangeI { lo, hi },
        });
    }

    fn range_f64(&mut self, col: ColumnId, ty: LogicalType, lo: f64, hi: f64) {
        assert!(
            ty == LogicalType::Double,
            "range_f64 applies to Double columns, found {ty:?}"
        );
        self.filters.push(Filter {
            col,
            ty,
            kind: FilterKind::Range {
                lo,
                hi,
                hi_exclusive: false,
            },
        });
    }

    fn lt_f64(&mut self, col: ColumnId, ty: LogicalType, hi: f64) {
        assert!(
            ty == LogicalType::Double,
            "lt_f64 applies to Double columns, found {ty:?}"
        );
        self.filters.push(Filter {
            col,
            ty,
            kind: FilterKind::Range {
                lo: f64::NEG_INFINITY,
                hi,
                hi_exclusive: true,
            },
        });
    }

    fn dict_eq(&mut self, col: ColumnId, ty: LogicalType, code: u32) {
        assert!(
            ty == LogicalType::Dict,
            "dict_eq applies to Dict columns, found {ty:?}"
        );
        self.filters.push(Filter {
            col,
            ty,
            kind: FilterKind::DictEq(code),
        });
    }

    fn in_set(&mut self, col: ColumnId, ty: LogicalType, codes: Vec<u32>) {
        assert!(
            ty == LogicalType::Dict,
            "in_set applies to Dict columns, found {ty:?}"
        );
        self.filters.push(Filter {
            col,
            ty,
            kind: FilterKind::InSet(codes),
        });
    }
}

/// A scan under construction: obtain with [`Txn::scan_on`], chain typed
/// predicates and a projection, finish with a terminal method.
///
/// Filters combine conjunctively (logical AND). The projection decides what
/// the row callback receives, in the order given to
/// [`ScanBuilder::project`]; without a projection the callback receives an
/// empty slice (useful with [`ScanBuilder::count`] or when only row ids
/// matter). A column may appear in both a filter and the projection; its
/// block is read once.
#[must_use = "a ScanBuilder does nothing until a terminal method runs it"]
pub struct ScanBuilder<'t> {
    txn: &'t mut Txn,
    table: TableId,
    spec: ScanSpec,
}

impl<'t> ScanBuilder<'t> {
    pub(crate) fn new(txn: &'t mut Txn, table: TableId) -> ScanBuilder<'t> {
        let scalar = txn.db.config().scalar_scan;
        ScanBuilder {
            txn,
            table,
            spec: ScanSpec {
                scalar,
                ..ScanSpec::default()
            },
        }
    }

    fn col_ty(&mut self, col: ColumnId) -> LogicalType {
        self.txn.table(self.table).schema.def(col).ty
    }

    /// Keep rows with `lo <= col <= hi` (inclusive). `col` must be an
    /// `Int` or `Date` column (dates are their day counts). The comparison
    /// is exact over the full `i64` domain.
    pub fn range_i64(mut self, col: ColumnId, lo: i64, hi: i64) -> Self {
        let ty = self.col_ty(col);
        self.spec.range_i64(col, ty, lo, hi);
        self
    }

    /// Keep rows with `lo <= col <= hi` (inclusive). `col` must be a
    /// `Double` column.
    pub fn range_f64(mut self, col: ColumnId, lo: f64, hi: f64) -> Self {
        let ty = self.col_ty(col);
        self.spec.range_f64(col, ty, lo, hi);
        self
    }

    /// Keep rows with `col < hi` (strict). `col` must be a `Double`
    /// column.
    pub fn lt_f64(mut self, col: ColumnId, hi: f64) -> Self {
        let ty = self.col_ty(col);
        self.spec.lt_f64(col, ty, hi);
        self
    }

    /// Keep rows whose dictionary code equals `code`. `col` must be a
    /// `Dict` column.
    pub fn dict_eq(mut self, col: ColumnId, code: u32) -> Self {
        let ty = self.col_ty(col);
        self.spec.dict_eq(col, ty, code);
        self
    }

    /// Keep rows whose dictionary code is one of `codes` (an empty set
    /// matches nothing). `col` must be a `Dict` column.
    pub fn in_set(mut self, col: ColumnId, codes: impl IntoIterator<Item = u32>) -> Self {
        let ty = self.col_ty(col);
        self.spec.in_set(col, ty, codes.into_iter().collect());
        self
    }

    /// Set the columns the row callback receives, in this order.
    pub fn project(mut self, cols: &[ColumnId]) -> Self {
        self.spec.projection = cols.to_vec();
        self
    }

    /// Run the scan, calling `f(row, words)` with the **raw 8-byte words**
    /// of the projection for every row that passes all filters — the
    /// escape hatch for hot aggregation loops that decode inline.
    pub fn for_each(self, mut f: impl FnMut(u32, &[u64])) -> Result<ScanStats> {
        let (_, stats) = self.execute(Some(&mut f))?;
        Ok(stats)
    }

    /// Run the scan, calling `f(row, values)` with the decoded
    /// [`Value`]s of the projection for every row that passes all filters.
    pub fn for_each_typed(self, mut f: impl FnMut(u32, &[Value])) -> Result<ScanStats> {
        let tys: Vec<LogicalType> = {
            let state = self.txn.table(self.table);
            self.spec
                .projection
                .iter()
                .map(|&c| state.schema.def(c).ty)
                .collect()
        };
        let mut vals: Vec<Value> = Vec::with_capacity(tys.len());
        self.for_each(move |row, words| {
            vals.clear();
            vals.extend(words.iter().zip(&tys).map(|(&w, &ty)| Value::decode(w, ty)));
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
        self.spec.projection.clear();
        self.execute(None)
    }

    /// Execute: log precision locks, then drive the snapshot or the
    /// versioned block loop. `sink` is `Some` for row-delivering
    /// terminals and `None` for the fused count path; the returned count
    /// is only meaningful in the latter case.
    fn execute(self, sink: Option<&mut dyn FnMut(u32, &[u64])>) -> Result<(u64, ScanStats)> {
        let ScanBuilder { txn, table, spec } = self;
        if txn.serializable_updater() {
            for flt in &spec.filters {
                flt.log_preds(Txn::colref(table, flt.col), &mut txn.inner);
            }
            // Projection columns without a filter are full-column reads;
            // filtered columns are covered (more precisely) by their
            // filter's predicate.
            for &c in &spec.projection {
                if !spec.filters.iter().any(|flt| flt.col == c) {
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
        let obs_tok = obs::span_begin(&m.scan_morsel);
        let count = if txn.epoch.is_some() {
            Self::run_snapshot(txn, table, spec, sink, &mut stats)
        } else {
            Self::run_versioned(txn, table, &spec, sink, &mut stats)
        };
        obs::span_end(obs_tok);
        let count = count?;
        stats.morsels += 1;
        txn.scan_stats.merge(&stats);
        note_scan_stats(&m, &stats);
        Ok((count, stats))
    }

    /// Heterogeneous OLAP: the in-transaction sequential variant of the
    /// frozen snapshot scan — compile a [`FrozenScanCore`] against the
    /// transaction's pinned epoch (materialising columns through the
    /// per-transaction cache) and drive one cursor over all rows.
    fn run_snapshot(
        txn: &mut Txn,
        table: TableId,
        spec: ScanSpec,
        sink: Option<&mut dyn FnMut(u32, &[u64])>,
        stats: &mut ScanStats,
    ) -> Result<u64> {
        let rows = txn.db.rows(table);
        let core = FrozenScanCore::build(rows, spec, None, &mut |c| txn.snapshot_col(table, c))?;
        let mut cursor = FrozenCursor::new(&core);
        match sink {
            Some(sink) => {
                cursor.run_range(0, rows, sink, stats)?;
                Ok(0)
            }
            None => cursor.count_range(0, rows, stats),
        }
    }

    /// Versioned scan at the transaction's start timestamp with the
    /// 1024-row block-skip optimisation (§5.5). Live data carries no zone
    /// maps (in-place installs would invalidate them), but filters still
    /// run through the selection-vector kernels over the gathered blocks,
    /// filter columns are gathered lazily in adaptive order (a conjunct
    /// that empties the selection saves the remaining gathers), and
    /// projection columns are only gathered for blocks with surviving
    /// rows.
    fn run_versioned(
        txn: &mut Txn,
        table: TableId,
        spec: &ScanSpec,
        mut sink: Option<&mut dyn FnMut(u32, &[u64])>,
        stats: &mut ScanStats,
    ) -> Result<u64> {
        let filters = &spec.filters;
        let projection = &spec.projection;
        let rows = txn.db.rows(table);
        let state: Arc<TableState> = txn.table(table);
        let start_ts = txn.inner.start_ts();
        let filter_states: Vec<_> = filters.iter().map(|flt| state.col(flt.col.0)).collect();
        let filter_areas: Vec<_> = filter_states.iter().map(|cs| cs.current_area()).collect();
        let proj_states: Vec<_> = projection.iter().map(|&c| state.col(c.0)).collect();
        let proj_areas: Vec<_> = proj_states.iter().map(|cs| cs.current_area()).collect();
        // Live data is never borrowed as a slice (concurrent installs
        // mutate it); every block goes through the versioned gather.
        let no_fslices: Vec<Option<&[u64]>> = vec![None; filters.len()];
        let no_pslices: Vec<Option<&[u64]>> = vec![None; projection.len()];
        // No zone maps on live data: no block is provably all-match.
        let no_all_match = vec![false; filters.len()];
        let counting = sink.is_none();
        let mut em = BlockEmitter::new(
            filters,
            projection,
            &vec![false; filters.len()],
            &vec![false; projection.len()],
            spec.scalar,
        );
        em.begin_range();
        let mut count = 0u64;
        let mut start = 0u32;
        while start < rows {
            let n = BLOCK_ROWS.min(rows - start);
            em.filter_block(
                filters,
                &no_fslices,
                &no_all_match,
                start,
                n,
                stats,
                &mut |fi, buf, stats| {
                    Ok(filter_states[fi].versioned.gather_visible_block(
                        &filter_areas[fi],
                        start_ts,
                        start,
                        n,
                        buf,
                        stats,
                    )?)
                },
                counting,
            )?;
            match sink.as_deref_mut() {
                Some(sink) => em.emit(
                    &no_fslices,
                    &no_pslices,
                    start,
                    n,
                    stats,
                    &mut |fi, buf, stats| {
                        Ok(filter_states[fi].versioned.gather_visible_block(
                            &filter_areas[fi],
                            start_ts,
                            start,
                            n,
                            buf,
                            stats,
                        )?)
                    },
                    &mut |pi, buf, stats| {
                        Ok(proj_states[pi].versioned.gather_visible_block(
                            &proj_areas[pi],
                            start_ts,
                            start,
                            n,
                            buf,
                            stats,
                        )?)
                    },
                    sink,
                )?,
                None => count += em.selected() as u64,
            }
            start += n;
        }
        Ok(count)
    }
}

// ---------------------------------------------------------------------
// The shared frozen-scan machinery
// ---------------------------------------------------------------------

/// A compiled scan over frozen snapshot columns: the resolved
/// [`SnapCol`]s, their zone maps, and the spec. Immutable and `Sync` —
/// parallel workers share one core by reference and drive their own
/// [`FrozenCursor`]s over disjoint row ranges. Holding the core keeps
/// every scanned area alive (the `Arc<SnapCol>`s) **and** — on the
/// reader path — keeps the epoch pinned: the core owns the
/// [`ReaderPin`](crate::reader::ReaderPin), so anything holding the core
/// carries the §4.1.3 recycling-rule justification for its zero-copy
/// slices with it. On the transaction path `pin` is `None`; there the
/// active-transaction horizon covers the scan (the engine never recycles
/// an area a live transaction can reach).
pub(crate) struct FrozenScanCore {
    rows: u32,
    spec: ScanSpec,
    filter_snaps: Vec<Arc<SnapCol>>,
    proj_snaps: Vec<Arc<SnapCol>>,
    zone_maps: Vec<Arc<ZoneMap>>,
    #[allow(dead_code)] // held for its Drop (epoch unpin), never read
    pin: Option<Arc<crate::reader::ReaderPin>>,
}

impl FrozenScanCore {
    /// Resolve every filter and projection column through `resolve`
    /// (which materialises on first access), build the zone maps, and
    /// advise the backend of the impending sequential read. `pin` is the
    /// epoch pin the core takes ownership of on the reader path.
    fn build(
        rows: u32,
        spec: ScanSpec,
        pin: Option<Arc<crate::reader::ReaderPin>>,
        resolve: &mut dyn FnMut(ColumnId) -> Result<Arc<SnapCol>>,
    ) -> Result<FrozenScanCore> {
        let filter_snaps = spec
            .filters
            .iter()
            .map(|flt| resolve(flt.col))
            .collect::<Result<Vec<_>>>()?;
        let proj_snaps = spec
            .projection
            .iter()
            .map(|&c| resolve(c))
            .collect::<Result<Vec<_>>>()?;
        // Zone maps live on the frozen snapshot areas; building them is a
        // one-time cost per (epoch, column) amortised over every filtered
        // scan of that snapshot.
        let zone_maps: Vec<Arc<ZoneMap>> = spec
            .filters
            .iter()
            .zip(&filter_snaps)
            .map(|(flt, sc)| sc.area().zone_map(flt.ty, BLOCK_ROWS))
            .collect::<std::result::Result<_, _>>()?;
        // One sequential-readahead hint per distinct area about to be
        // streamed (madvise on the OS backend, no-op simulated).
        let mut advised: Vec<u64> = Vec::new();
        for sc in filter_snaps.iter().chain(&proj_snaps) {
            let addr = sc.area().addr();
            if !advised.contains(&addr) {
                advised.push(addr);
                sc.area().advise_sequential();
            }
        }
        Ok(FrozenScanCore {
            rows,
            spec,
            filter_snaps,
            proj_snaps,
            zone_maps,
            pin,
        })
    }

    pub(crate) fn rows(&self) -> u32 {
        self.rows
    }
}

/// Per-worker scan state over a shared [`FrozenScanCore`]: the zero-copy
/// column slices (where the backend exposes them), the block emitter with
/// its selection vector and gather buffers, and the per-block all-match
/// flags. Creating a cursor is cheap relative to a morsel; each parallel
/// worker owns one and reuses it across all morsels it pulls.
pub(crate) struct FrozenCursor<'c> {
    core: &'c FrozenScanCore,
    f_slices: Vec<Option<&'c [u64]>>,
    p_slices: Vec<Option<&'c [u64]>>,
    /// Per-filter zone-map all-match flags of the current block, reused.
    all_match: Vec<bool>,
    em: BlockEmitter,
}

impl<'c> FrozenCursor<'c> {
    pub(crate) fn new(core: &'c FrozenScanCore) -> FrozenCursor<'c> {
        // SAFETY(provenance: core, sc): the core holds an `Arc<SnapCol>`
        // per column and owns the epoch pin (or, on the transaction path,
        // is covered by the active-transaction horizon), so the frozen
        // areas can neither be unmapped nor recycled while these borrows
        // live; frozen areas are never written after hand-over, so the
        // slices are genuinely immutable.
        let f_slices: Vec<Option<&[u64]>> = core
            .filter_snaps
            .iter()
            .map(|sc| unsafe { sc.area().as_slice() })
            .collect();
        // SAFETY(provenance: core, sc): same contract as the filter
        // slices above — pinned epoch, frozen areas.
        let p_slices: Vec<Option<&[u64]>> = core
            .proj_snaps
            .iter()
            .map(|sc| unsafe { sc.area().as_slice() })
            .collect();
        let f_sliced: Vec<bool> = f_slices.iter().map(Option::is_some).collect();
        let proj_sliced: Vec<bool> = p_slices.iter().map(Option::is_some).collect();
        let em = BlockEmitter::new(
            &core.spec.filters,
            &core.spec.projection,
            &f_sliced,
            &proj_sliced,
            core.spec.scalar,
        );
        FrozenCursor {
            core,
            f_slices,
            p_slices,
            all_match: vec![false; core.spec.filters.len()],
            em,
        }
    }

    /// Zone-map verdict for `block_idx`: `false` when the block is pruned
    /// (some filter cannot match), otherwise `true` with
    /// `self.all_match[fi]` set for every filter the zone map proves
    /// all-matching (vector path only — the scalar baseline evaluates
    /// every conjunct like the pre-vectorized code did).
    fn classify_block(&mut self, block_idx: usize) -> bool {
        let filters = &self.core.spec.filters;
        let scalar = self.core.spec.scalar;
        for (fi, (zm, flt)) in self.core.zone_maps.iter().zip(filters).enumerate() {
            let (lo, hi) = zm.block_range(block_idx);
            if !flt.block_can_match(lo, hi) {
                return false;
            }
            self.all_match[fi] = !scalar && flt.block_all_match(lo, hi);
        }
        true
    }

    /// Scan rows `[start, end)` — `start` must be 1024-row (block)
    /// aligned — applying zone-map pruning per block and emitting
    /// surviving rows into `sink`. Counters accumulate into `stats`. The
    /// adaptive conjunct order resets here: one range = one deterministic
    /// adaptation domain (see [`crate::kernels::AdaptiveOrder`]).
    pub(crate) fn run_range(
        &mut self,
        start: u32,
        end: u32,
        sink: &mut dyn FnMut(u32, &[u64]),
        stats: &mut ScanStats,
    ) -> Result<()> {
        if start >= end {
            // Empty ranges (e.g. a trailing empty partition of a small
            // table) are legal and need not be block-aligned.
            return Ok(());
        }
        debug_assert!(
            start.is_multiple_of(BLOCK_ROWS),
            "morsels are block-aligned"
        );
        self.em.begin_range();
        let end = end.min(self.core.rows);
        let mut start = start;
        while start < end {
            let n = BLOCK_ROWS.min(end - start);
            let block_idx = (start / BLOCK_ROWS) as usize;
            if !self.classify_block(block_idx) {
                stats.blocks_skipped += 1;
                start += n;
                continue;
            }
            stats.tight_rows += n as u64;
            let FrozenCursor {
                core,
                f_slices,
                p_slices,
                all_match,
                em,
            } = self;
            let filters = &core.spec.filters;
            em.filter_block(
                filters,
                f_slices,
                all_match,
                start,
                n,
                stats,
                &mut |fi, buf, _| {
                    Ok(core.filter_snaps[fi]
                        .area()
                        .read_block_into(start, n, buf)?)
                },
                false,
            )?;
            em.emit(
                f_slices,
                p_slices,
                start,
                n,
                stats,
                &mut |fi, buf, _| {
                    Ok(core.filter_snaps[fi]
                        .area()
                        .read_block_into(start, n, buf)?)
                },
                &mut |pi, buf, _| Ok(core.proj_snaps[pi].area().read_block_into(start, n, buf)?),
                sink,
            )?;
            start += n;
        }
        Ok(())
    }

    /// Count the passing rows of `[start, end)` without delivering them:
    /// the fused count path. Selections are popcounted — never gathered
    /// into projection buffers — all-match blocks contribute their row
    /// count without reading any column data, and the final conjunct of a
    /// block runs as a pure popcount kernel with no index
    /// materialisation.
    pub(crate) fn count_range(
        &mut self,
        start: u32,
        end: u32,
        stats: &mut ScanStats,
    ) -> Result<u64> {
        if start >= end {
            return Ok(0);
        }
        debug_assert!(
            start.is_multiple_of(BLOCK_ROWS),
            "morsels are block-aligned"
        );
        self.em.begin_range();
        let end = end.min(self.core.rows);
        let mut count = 0u64;
        let mut start = start;
        while start < end {
            let n = BLOCK_ROWS.min(end - start);
            let block_idx = (start / BLOCK_ROWS) as usize;
            if !self.classify_block(block_idx) {
                stats.blocks_skipped += 1;
                start += n;
                continue;
            }
            stats.tight_rows += n as u64;
            let FrozenCursor {
                core,
                f_slices,
                all_match,
                em,
                ..
            } = self;
            let filters = &core.spec.filters;
            em.filter_block(
                filters,
                f_slices,
                all_match,
                start,
                n,
                stats,
                &mut |fi, buf, _| {
                    Ok(core.filter_snaps[fi]
                        .area()
                        .read_block_into(start, n, buf)?)
                },
                true,
            )?;
            count += em.selected() as u64;
            start += n;
        }
        Ok(count)
    }
}

// ---------------------------------------------------------------------
// Detached reader scans: sequential, morsel-parallel, partitioned
// ---------------------------------------------------------------------

/// A scan under construction on a [`SnapshotReader`]: obtain with
/// [`SnapshotReader::scan`], chain the same typed predicates and
/// projection as [`ScanBuilder`], optionally fan out with
/// [`ReaderScanBuilder::parallel`], and finish with a terminal method.
///
/// Reader scans run **only** on the reader's pinned frozen epoch: no
/// version checks, no commit-lock acquisition after the scanned columns
/// are materialised, and snapshot-isolation semantics at the epoch
/// timestamp (see [`SnapshotReader`] for the contract).
///
/// Parallel terminals merge per-morsel results in morsel order, so for
/// associative merge operators the result is deterministic and identical
/// across thread counts.
#[must_use = "a ReaderScanBuilder does nothing until a terminal method runs it"]
pub struct ReaderScanBuilder<'r> {
    reader: &'r SnapshotReader,
    table: TableId,
    spec: ScanSpec,
    threads: usize,
}

impl<'r> ReaderScanBuilder<'r> {
    pub(crate) fn new(reader: &'r SnapshotReader, table: TableId) -> ReaderScanBuilder<'r> {
        let scalar = reader.db().config().scalar_scan;
        ReaderScanBuilder {
            reader,
            table,
            spec: ScanSpec {
                scalar,
                ..ScanSpec::default()
            },
            threads: 1,
        }
    }

    fn col_ty(&self, col: ColumnId) -> LogicalType {
        self.reader.db().table_state(self.table).schema.def(col).ty
    }

    /// Keep rows with `lo <= col <= hi` (inclusive; `Int`/`Date` column).
    pub fn range_i64(mut self, col: ColumnId, lo: i64, hi: i64) -> Self {
        let ty = self.col_ty(col);
        self.spec.range_i64(col, ty, lo, hi);
        self
    }

    /// Keep rows with `lo <= col <= hi` (inclusive; `Double` column).
    pub fn range_f64(mut self, col: ColumnId, lo: f64, hi: f64) -> Self {
        let ty = self.col_ty(col);
        self.spec.range_f64(col, ty, lo, hi);
        self
    }

    /// Keep rows with `col < hi` (strict; `Double` column).
    pub fn lt_f64(mut self, col: ColumnId, hi: f64) -> Self {
        let ty = self.col_ty(col);
        self.spec.lt_f64(col, ty, hi);
        self
    }

    /// Keep rows whose dictionary code equals `code` (`Dict` column).
    pub fn dict_eq(mut self, col: ColumnId, code: u32) -> Self {
        let ty = self.col_ty(col);
        self.spec.dict_eq(col, ty, code);
        self
    }

    /// Keep rows whose dictionary code is one of `codes` (`Dict` column;
    /// an empty set matches nothing).
    pub fn in_set(mut self, col: ColumnId, codes: impl IntoIterator<Item = u32>) -> Self {
        let ty = self.col_ty(col);
        self.spec.in_set(col, ty, codes.into_iter().collect());
        self
    }

    /// Set the columns the row callback receives, in this order.
    pub fn project(mut self, cols: &[ColumnId]) -> Self {
        self.spec.projection = cols.to_vec();
        self
    }

    /// Fan the scan out over `threads` threads of execution (the caller
    /// is one of them; the rest come from the database's reusable scan
    /// pool). Workers pull 1024-row-aligned morsels dynamically;
    /// per-morsel results merge in morsel order. `parallel(1)` (the
    /// default) runs entirely on the calling thread.
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    fn build_core(&mut self) -> Result<FrozenScanCore> {
        let reader = self.reader;
        let table = self.table;
        let rows = reader.db().rows(table);
        let spec = std::mem::take(&mut self.spec);
        FrozenScanCore::build(rows, spec, Some(reader.pin_handle()), &mut |c| {
            reader.snap_col(table, c)
        })
    }

    /// Run the scan and count the rows passing all filters. The
    /// projection is ignored (no value columns are read): each morsel
    /// popcounts its selection vectors through
    /// `FrozenCursor::count_range` — no per-row callback, no
    /// projection buffers ([`ScanStats::proj_blocks`] stays 0) — and the
    /// per-morsel counts sum in morsel order.
    pub fn count(mut self) -> Result<(u64, ScanStats)> {
        self.spec.projection.clear();
        let threads = self.threads;
        let core = self.build_core()?;
        let (counts, stats) =
            run_morsels(self.reader, &core, threads, &|cursor, start, end, st| {
                cursor.count_range(start, end, st)
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
    pub fn for_each(mut self, f: impl Fn(u32, &[u64]) + Sync) -> Result<ScanStats> {
        let threads = self.threads;
        let core = self.build_core()?;
        let (_, stats) = run_morsels(self.reader, &core, threads, &|cursor, start, end, st| {
            cursor.run_range(start, end, &mut |row, words| f(row, words), st)
        })?;
        Ok(stats)
    }

    /// Run the scan, folding every passing row's decoded projection into
    /// per-morsel accumulators (each seeded with a clone of `init`) and
    /// merging them **in morsel order** with `merge`. For an associative
    /// `merge` the result equals the sequential fold and is identical for
    /// every thread count.
    pub fn fold<A, F, M>(mut self, init: A, f: F, merge: M) -> Result<(A, ScanStats)>
    where
        A: Clone + Send + Sync,
        F: Fn(A, u32, &[Value]) -> A + Sync,
        M: Fn(A, A) -> A,
    {
        let tys: Vec<LogicalType> = {
            let state = self.reader.db().table_state(self.table);
            self.spec
                .projection
                .iter()
                .map(|&c| state.schema.def(c).ty)
                .collect()
        };
        let threads = self.threads;
        let core = self.build_core()?;
        let init = &init;
        let (accs, stats) = run_morsels(self.reader, &core, threads, &|cursor, start, end, st| {
            let mut acc = Some(init.clone());
            // One decode buffer per morsel, reused across its rows.
            let mut vals: Vec<Value> = Vec::with_capacity(tys.len());
            cursor.run_range(
                start,
                end,
                &mut |row, words| {
                    vals.clear();
                    vals.extend(words.iter().zip(&tys).map(|(&w, &ty)| Value::decode(w, ty)));
                    let a = acc.take().expect("accumulator present");
                    acc = Some(f(a, row, &vals));
                },
                st,
            )?;
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
    /// projection keeps it; omit [`project`](ReaderScanBuilder::project)
    /// when the partitions will only count.
    pub fn into_partitions(mut self, n: usize) -> Result<Vec<ScanPartition>> {
        let threads = n.max(1) as u32;
        let core = Arc::new(self.build_core()?);
        let rows = core.rows();
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
                m: Arc::clone(&self.reader.db().inner.m),
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
    core: Arc<FrozenScanCore>,
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
        let mut stats = ScanStats {
            threads: 1,
            morsels: 1,
            ..ScanStats::default()
        };
        let mut cursor = FrozenCursor::new(&self.core);
        let obs_tok = obs::span_begin(&self.m.scan_morsel);
        let res = cursor.run_range(self.start, self.end, &mut f, &mut stats);
        obs::span_end(obs_tok);
        res?;
        note_scan_stats(&self.m, &stats);
        Ok(stats)
    }

    /// Count the partition's passing rows through the fused
    /// selection-vector popcount path (no projection reads, no per-row
    /// callback).
    pub fn count(&self) -> Result<(u64, ScanStats)> {
        let mut stats = ScanStats {
            threads: 1,
            morsels: 1,
            ..ScanStats::default()
        };
        let mut cursor = FrozenCursor::new(&self.core);
        let obs_tok = obs::span_begin(&self.m.scan_morsel);
        let res = cursor.count_range(self.start, self.end, &mut stats);
        obs::span_end(obs_tok);
        let n = res?;
        note_scan_stats(&self.m, &stats);
        Ok((n, stats))
    }
}

/// The morsel-parallel driver: split `core`'s rows into
/// [`MORSEL_BLOCKS`]-sized, block-aligned morsels, let `threads` workers
/// (the caller plus pool workers) pull them dynamically, and return the
/// per-morsel results **in morsel order** together with the merged
/// stats. Each morsel runs through `run` on the pulling worker's cursor
/// (`run_range` for row terminals, `count_range` for the fused count);
/// `threads == 1` runs entirely inline.
fn run_morsels<A: Send>(
    reader: &SnapshotReader,
    core: &FrozenScanCore,
    threads: usize,
    run: &(dyn Fn(&mut FrozenCursor, u32, u32, &mut ScanStats) -> Result<A> + Sync),
) -> Result<(Vec<A>, ScanStats)> {
    let rows = core.rows();
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
        let mut cursor = FrozenCursor::new(core);
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
            let obs_tok = obs::span_begin(&metrics.scan_morsel);
            let res = run(&mut cursor, start, end, &mut stats);
            obs::span_end(obs_tok);
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

/// Reads filter/projection column `idx`'s current block into `buf`
/// (versioned gather or frozen-area staging, depending on the scan path).
type ReadCol<'a> = &'a mut dyn FnMut(usize, &mut [u64], &mut ScanStats) -> Result<()>;

/// Per-block machinery shared by both scan paths: evaluate the filters
/// column-at-a-time over the block (selection-vector kernels, or the
/// scalar row-at-a-time baseline under `ANKER_SCALAR_SCAN=1`), then —
/// when any row survives and the terminal wants rows — emit the
/// surviving rows into the sink.
///
/// Filter columns are gathered **lazily in evaluation order** (a conjunct
/// that empties the selection, or a zone-map all-match verdict, saves the
/// gathers behind it); whole-column slices (`f_slices`/`pslices`, the OS
/// backend's zero-copy path) need no gathering at all. Projection words
/// come, in order of preference, from a filter's block (column read
/// once), from a whole-column slice, or from a buffer filled through
/// `read_proj` (counted in [`ScanStats::proj_blocks`]).
struct BlockEmitter {
    /// Row-at-a-time ablation baseline instead of the kernels.
    scalar: bool,
    /// For each projection column, the index of the filter whose block
    /// already holds it (read each block once).
    proj_from_filter: Vec<Option<usize>>,
    /// Per-filter gather buffers (empty placeholders for slice-served
    /// filters) and the current block's filled flags.
    fbufs: Vec<Vec<u64>>,
    f_filled: Vec<bool>,
    pbufs: Vec<Vec<u64>>,
    sel: SelVec,
    /// Evaluation-order scratch (copied from `order` per block so the
    /// order can update while iterating).
    eval_order: Vec<u32>,
    order: AdaptiveOrder,
    vals: Vec<u64>,
}

/// Resolve filter `fi`'s words for the current block: the whole-column
/// slice when the backend exposes one, else the gather buffer — filled
/// through `read_filter` on first use within the block. Free function
/// over the emitter's split-off fields so the filter loop can hold other
/// borrows concurrently.
fn filter_words<'b>(
    fbufs: &'b mut [Vec<u64>],
    f_filled: &mut [bool],
    f_slices: &[Option<&'b [u64]>],
    fi: usize,
    start: u32,
    n: u32,
    stats: &mut ScanStats,
    read_filter: ReadCol<'_>,
) -> Result<&'b [u64]> {
    match f_slices[fi] {
        Some(s) => Ok(&s[start as usize..(start + n) as usize]),
        None => {
            if !f_filled[fi] {
                read_filter(fi, &mut fbufs[fi], stats)?;
                f_filled[fi] = true;
            }
            Ok(&fbufs[fi][..n as usize])
        }
    }
}

impl BlockEmitter {
    /// `f_sliced[fi]` / `proj_sliced[pi]` mark columns a whole-column
    /// slice will serve (no gather buffer needed).
    fn new(
        filters: &[Filter],
        projection: &[ColumnId],
        f_sliced: &[bool],
        proj_sliced: &[bool],
        scalar: bool,
    ) -> BlockEmitter {
        let block = BLOCK_ROWS as usize;
        let proj_from_filter: Vec<Option<usize>> = projection
            .iter()
            .map(|&c| filters.iter().position(|flt| flt.col == c))
            .collect();
        let fbufs = f_sliced
            .iter()
            .map(|sliced| {
                if *sliced {
                    Vec::new()
                } else {
                    vec![0u64; block]
                }
            })
            .collect();
        // Columns served from a filter block or a whole-column slice get an
        // empty placeholder so `pbufs` stays indexable by projection
        // position without allocating storage nothing will read.
        let pbufs = proj_from_filter
            .iter()
            .zip(proj_sliced)
            .map(|(src, sliced)| match (src, sliced) {
                (Some(_), _) | (None, true) => Vec::new(),
                (None, false) => vec![0u64; block],
            })
            .collect();
        BlockEmitter {
            scalar,
            proj_from_filter,
            fbufs,
            f_filled: vec![false; filters.len()],
            pbufs,
            sel: SelVec::new(BLOCK_ROWS),
            eval_order: Vec::with_capacity(filters.len()),
            order: AdaptiveOrder::new(filters),
            vals: vec![0u64; projection.len()],
        }
    }

    /// Start a new work range: reset the adaptive conjunct order (the
    /// determinism boundary — one morsel, partition, or sequential scan
    /// per range).
    fn begin_range(&mut self) {
        self.order.begin_range();
    }

    /// Rows selected by the last [`BlockEmitter::filter_block`] — the
    /// popcount the fused count terminals sum.
    fn selected(&self) -> u32 {
        self.sel.len()
    }

    /// Evaluate the block's filters into the selection vector. `start` is
    /// the block's absolute first row (whole-column slices are indexed
    /// from it); `all_match[fi]` carries the zone maps' all-match
    /// verdicts (always false on the versioned path); `count_fuse` lets
    /// the final remaining conjunct run as a pure popcount with no index
    /// materialisation (count terminals only — the selection is not
    /// enumerable afterwards).
    #[allow(clippy::too_many_arguments)]
    fn filter_block(
        &mut self,
        filters: &[Filter],
        f_slices: &[Option<&[u64]>],
        all_match: &[bool],
        start: u32,
        n: u32,
        stats: &mut ScanStats,
        read_filter: ReadCol<'_>,
        count_fuse: bool,
    ) -> Result<()> {
        let BlockEmitter {
            scalar,
            fbufs,
            f_filled,
            sel,
            eval_order,
            order,
            ..
        } = self;
        sel.reset_dense(n);
        f_filled.fill(false);
        if *scalar {
            // The pre-vectorized baseline: gather every filter column
            // eagerly (as the old block loop did), then evaluate in
            // declaration order through the branchy per-row dispatch.
            for fi in 0..filters.len() {
                filter_words(
                    fbufs,
                    f_filled,
                    f_slices,
                    fi,
                    start,
                    n,
                    stats,
                    &mut *read_filter,
                )?;
            }
            for (fi, flt) in filters.iter().enumerate() {
                let words = filter_words(
                    fbufs,
                    f_filled,
                    f_slices,
                    fi,
                    start,
                    n,
                    stats,
                    &mut *read_filter,
                )?;
                let rows_in = sel.len() as u64;
                sel.retain_scalar(words, flt);
                order.record(fi, rows_in, sel.len() as u64, stats);
                if sel.is_empty() {
                    break;
                }
            }
            stats.rows_filtered += n as u64 - sel.len() as u64;
            return Ok(());
        }
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
            let words = filter_words(
                fbufs,
                f_filled,
                f_slices,
                fi,
                start,
                n,
                stats,
                &mut *read_filter,
            )?;
            let rows_in = sel.len() as u64;
            done += 1;
            if count_fuse && sel.is_dense() && done == todo {
                filters[fi].count_kernel(words, sel);
            } else {
                filters[fi].apply_kernel(words, sel);
            }
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

    /// Emit the selected rows of the current block into `sink`.
    /// Projection blocks (and filter blocks that double as projection
    /// sources but were skipped by all-match or early exit) are fetched
    /// here, only when at least one row survived.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        f_slices: &[Option<&[u64]>],
        pslices: &[Option<&[u64]>],
        start: u32,
        n: u32,
        stats: &mut ScanStats,
        read_filter: ReadCol<'_>,
        read_proj: ReadCol<'_>,
        sink: &mut dyn FnMut(u32, &[u64]),
    ) -> Result<()> {
        if self.sel.is_empty() {
            return Ok(());
        }
        let BlockEmitter {
            proj_from_filter,
            fbufs,
            f_filled,
            pbufs,
            sel,
            vals,
            ..
        } = self;
        // Fetch what emission needs and evaluation did not: projection
        // columns served by neither a filter block nor a whole-column
        // slice, and filter blocks that serve a projection but were never
        // gathered (zone-map all-match skip or early exit after them).
        for (pi, src) in proj_from_filter.iter().enumerate() {
            match src {
                Some(fi) => {
                    if f_slices[*fi].is_none() && !f_filled[*fi] {
                        read_filter(*fi, &mut fbufs[*fi], stats)?;
                        f_filled[*fi] = true;
                    }
                }
                None => {
                    if pslices[pi].is_none() {
                        read_proj(pi, &mut pbufs[pi], stats)?;
                        stats.proj_blocks += 1;
                    }
                }
            }
        }
        let fw = |fi: usize| -> &[u64] {
            match f_slices[fi] {
                Some(s) => &s[start as usize..(start + n) as usize],
                None => &fbufs[fi][..n as usize],
            }
        };
        let mut do_row = |i: u32| {
            for (ci, src) in proj_from_filter.iter().enumerate() {
                vals[ci] = match (src, pslices[ci]) {
                    (Some(fi), _) => fw(*fi)[i as usize],
                    (None, Some(s)) => s[(start + i) as usize],
                    (None, None) => pbufs[ci][i as usize],
                };
            }
            sink(start + i, vals);
        };
        match sel.as_indices() {
            // Dense block: every row passes; walk 0..n directly.
            None => (0..sel.len()).for_each(&mut do_row),
            Some(ix) => ix.iter().for_each(|&i| do_row(i)),
        }
        Ok(())
    }
}
