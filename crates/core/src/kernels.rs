//! Vectorized scan kernels: column-at-a-time predicate evaluation over
//! 1024-row blocks through reusable **selection vectors**, with
//! monomorphized, branch-free inner loops and deterministic **adaptive
//! conjunct ordering**.
//!
//! The paper makes analytical scans cheap by scanning frozen snapshot
//! columns without version checks; this module removes the remaining
//! per-tuple interpretation cost. Instead of calling a `matches(word)`
//! dispatch once per row per filter, each filter runs as one
//! *kernel* over a whole block:
//!
//! * the **first** kernel of a block consumes the raw column block and
//!   produces a selection vector (`u32` row offsets within the block);
//! * every **later** kernel refines the selection in place, touching only
//!   the still-selected lanes of its own column;
//! * a block whose zone map proves *all-match* for every filter never
//!   materialises indices at all — the selection stays **dense**
//!   ([`SelVec::is_dense`]), the fused count path adds the block's row
//!   count without reading any column data, and emission walks `0..n`
//!   directly ([`ScanStats::dense_blocks`]).
//!
//! The inner loops are written branch-free (`out[m] = i; m += pred as
//! usize`) so LLVM can flatten them to straight-line compare/select code;
//! each [`FilterKind`] gets its own monomorphized instantiation of the
//! generic loop via [`SelVec::apply`]'s closure parameter.
//!
//! **Adaptive ordering** ([`AdaptiveOrder`]) re-ranks the conjuncts
//! cheapest-and-most-selective-first from observed pass rates, re-deciding
//! only at block boundaries and only from *completed* blocks of the
//! current work range. Order never affects which rows a conjunction
//! selects (filters are exact and intersective) and the per-range state
//! resets at every morsel start, so results, fold accumulators, and even
//! the kernel counters are bit-identical across thread counts — morsel
//! boundaries depend only on table size.
//!
//! Each kind's predicate is written once, in [`Filter::kernel`], and
//! serves both uses: refining a selection ([`SelVec::apply`]) and the
//! fused count path's popcount of a block's last conjunct.
//!
//! The row-at-a-time oracle is [`Filter::matches`]. A scan compiled under
//! [`crate::DbConfig::scalar_scan`] (`ANKER_SCALAR_SCAN=1`) evaluates
//! through it instead of the kernels, in declaration order — the choice is
//! made once per scan, outside the kernel loops — and the two are
//! property-tested bit-identical (`tests/vector_scan.rs`).

use anker_mvcc::{Pred, ScanStats, Transaction, TRACKED_FILTERS};
use anker_storage::{rank, ColumnId, LogicalType};

/// Integer bounds within `±2^52` convert to `f64` exactly *and* sit where
/// an integer-valued rank equal to them can only have come from that very
/// integer (the rounding error of `v as f64` stays below 1 there). Used
/// by the all-match test, which — unlike pruning — needs the implication
/// in the strict direction.
fn exact_i64(x: i64) -> bool {
    const EXACT: i64 = 1 << 52;
    (-EXACT..=EXACT).contains(&x)
}

/// One compiled per-column filter.
#[derive(Debug, Clone)]
pub(crate) enum FilterKind {
    /// `lo <= value <= hi` on the decoded `i64` of an Int or Date column.
    /// Compared exactly — no `f64` rank — so values beyond the 53-bit
    /// mantissa filter correctly.
    RangeI { lo: i64, hi: i64 },
    /// `lo <= rank(value)` and `rank(value) <= hi` (or `< hi` when
    /// `hi_exclusive`) on a Double column.
    Range {
        lo: f64,
        hi: f64,
        hi_exclusive: bool,
    },
    /// Dictionary code equality.
    DictEq(u32),
    /// Dictionary code set membership.
    InSet(Vec<u32>),
}

#[derive(Debug, Clone)]
pub(crate) struct Filter {
    pub(crate) col: ColumnId,
    pub(crate) ty: LogicalType,
    pub(crate) kind: FilterKind,
}

impl Filter {
    /// Row-at-a-time evaluation — the oracle evaluator a scan compiles
    /// to under [`crate::DbConfig::scalar_scan`], which the kernel
    /// equivalence proptests compare against.
    #[inline]
    pub(crate) fn matches(&self, word: u64) -> bool {
        match &self.kind {
            FilterKind::RangeI { lo, hi } => {
                let v = word as i64;
                v >= *lo && v <= *hi
            }
            FilterKind::Range {
                lo,
                hi,
                hi_exclusive,
            } => {
                let r = rank(word, self.ty);
                r >= *lo && if *hi_exclusive { r < *hi } else { r <= *hi }
            }
            FilterKind::DictEq(code) => word as u32 == *code,
            FilterKind::InSet(codes) => codes.contains(&(word as u32)),
        }
    }

    /// Vectorized evaluation over this filter's column block `words`
    /// (`words[i]` is the word of block-local row `i`): refine `sel`, or —
    /// `count_only`, on a still-dense selection — popcount the matches
    /// without materialising indices ([`SelVec::count_only`]; after it only
    /// the selected-row *count* is observable, which is all the fused count
    /// path reads of a block's final conjunct). Each arm hands
    /// [`SelVec::run`] its own closure, so every filter kind gets a
    /// monomorphized, branch-free kernel instantiation for both uses.
    #[inline]
    pub(crate) fn kernel(&self, words: &[u64], sel: &mut SelVec, count_only: bool) {
        match &self.kind {
            FilterKind::RangeI { lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                sel.run(words, count_only, move |w| {
                    let v = w as i64;
                    (v >= lo) & (v <= hi)
                });
            }
            FilterKind::Range {
                lo,
                hi,
                hi_exclusive: false,
            } => {
                let (lo, hi) = (*lo, *hi);
                sel.run(words, count_only, move |w| {
                    let r = f64::from_bits(w);
                    (r >= lo) & (r <= hi)
                });
            }
            FilterKind::Range {
                lo,
                hi,
                hi_exclusive: true,
            } => {
                let (lo, hi) = (*lo, *hi);
                sel.run(words, count_only, move |w| {
                    let r = f64::from_bits(w);
                    (r >= lo) & (r < hi)
                });
            }
            FilterKind::DictEq(code) => {
                let code = *code;
                sel.run(words, count_only, move |w| w as u32 == code);
            }
            FilterKind::InSet(codes) => {
                let codes: &[u32] = codes;
                sel.run(words, count_only, move |w| {
                    let c = w as u32;
                    codes.iter().fold(false, |acc, &x| acc | (x == c))
                });
            }
        }
    }

    /// Can any value in a block with rank range `[min, max]` match?
    ///
    /// Zone maps store `f64` ranks, so integer bounds compare through
    /// their rounded images here. That stays conservative: rounding is
    /// monotone, so `max_rank < round(lo)` implies every value in the
    /// block is exactly `< lo` (and symmetrically for the upper bound) —
    /// a block is only pruned when no value can match exactly.
    pub(crate) fn block_can_match(&self, min: f64, max: f64) -> bool {
        match &self.kind {
            FilterKind::RangeI { lo, hi } => max >= *lo as f64 && min <= *hi as f64,
            FilterKind::Range {
                lo,
                hi,
                hi_exclusive,
            } => max >= *lo && if *hi_exclusive { min < *hi } else { min <= *hi },
            FilterKind::DictEq(code) => {
                let c = *code as f64;
                c >= min && c <= max
            }
            FilterKind::InSet(codes) => codes.iter().any(|&c| {
                let c = c as f64;
                c >= min && c <= max
            }),
        }
    }

    /// Must **every** value in a block with rank range `[min, max]` match?
    /// The dense-block fast path: when this holds for all filters the
    /// block's selection stays dense and the filter columns are not read.
    ///
    /// Strictly conservative in the opposite direction from
    /// [`Filter::block_can_match`]: `false` never breaks correctness, it
    /// only misses the fast path. Because ranks round monotonically, a
    /// rank strictly above `rank(lo)` implies the value is above `lo`;
    /// rank *equality* with a bound only proves the value equals the
    /// bound when the bound is exactly representable and small enough
    /// that nothing else rounds onto it ([`exact_i64`]). NaN-containing
    /// double blocks are summarised as `(-inf, +inf)` and therefore never
    /// all-match.
    pub(crate) fn block_all_match(&self, min: f64, max: f64) -> bool {
        match &self.kind {
            FilterKind::RangeI { lo, hi } => {
                let (lo_f, hi_f) = (*lo as f64, *hi as f64);
                (min > lo_f || (min == lo_f && exact_i64(*lo)))
                    && (max < hi_f || (max == hi_f && exact_i64(*hi)))
            }
            FilterKind::Range {
                lo,
                hi,
                hi_exclusive,
            } => {
                // The `(-inf, +inf)` summary is how zone maps flag a
                // NaN-holding block — indistinguishable from a genuine
                // all-infinite block, so neither may take the fast path
                // (NaN matches no range filter).
                !(min == f64::NEG_INFINITY && max == f64::INFINITY)
                    && min >= *lo
                    && if *hi_exclusive { max < *hi } else { max <= *hi }
            }
            FilterKind::DictEq(code) => {
                let c = *code as f64;
                min == c && max == c
            }
            FilterKind::InSet(codes) => {
                // Codes are u32 → exact in f64, so a single-valued block
                // all-matches iff that one code is in the set.
                min == max
                    && min >= 0.0
                    && min <= u32::MAX as f64
                    && min.fract() == 0.0
                    && codes.contains(&(min as u32))
            }
        }
    }

    /// Register the precision locks equivalent to this filter. Bounds are
    /// only ever widened — exclusive bounds become inclusive, and integer
    /// bounds beyond the 53-bit mantissa are padded by one ULP against
    /// `f64` rounding — strictly conservative, never under-locking.
    pub(crate) fn log_preds(&self, col: anker_mvcc::ColRef, txn: &mut Transaction) {
        match &self.kind {
            FilterKind::RangeI { lo, hi } => txn.log_predicate(Pred::Range {
                col,
                ty: self.ty,
                lo: (*lo as f64).next_down(),
                hi: (*hi as f64).next_up(),
            }),
            FilterKind::Range { lo, hi, .. } => txn.log_predicate(Pred::Range {
                col,
                ty: self.ty,
                lo: *lo,
                hi: *hi,
            }),
            FilterKind::DictEq(code) => txn.log_predicate(Pred::DictEq { col, code: *code }),
            FilterKind::InSet(codes) => {
                for &code in codes {
                    txn.log_predicate(Pred::DictEq { col, code });
                }
            }
        }
    }

    /// Static cost weight of one kernel invocation per row, for the
    /// adaptive rank. Comparisons are near-uniform; only set membership
    /// grows with the set.
    fn cost_weight(&self) -> f64 {
        match &self.kind {
            FilterKind::RangeI { .. } | FilterKind::Range { .. } => 1.0,
            FilterKind::DictEq(_) => 0.75,
            FilterKind::InSet(codes) => 1.0 + codes.len() as f64 * 0.25,
        }
    }
}

/// A reusable selection vector over one 1024-row block: either **dense**
/// (`0..n`, nothing materialised) or a strictly ascending list of
/// block-local row offsets. Ascending order is a contract — it is what
/// keeps emission (and therefore `f64` fold accumulation) in row order,
/// bit-identical to the row-at-a-time oracle.
pub(crate) struct SelVec {
    idx: Vec<u32>,
    n: u32,
    dense: bool,
}

impl SelVec {
    /// A selection sized for blocks of up to `block_rows` rows.
    pub(crate) fn new(block_rows: u32) -> SelVec {
        SelVec {
            idx: vec![0u32; block_rows as usize],
            n: 0,
            dense: true,
        }
    }

    /// Reset to the dense all-selected state over `n` rows.
    #[inline]
    pub(crate) fn reset_dense(&mut self, n: u32) {
        debug_assert!(n as usize <= self.idx.len());
        self.n = n;
        self.dense = true;
    }

    /// Selected-row count (the popcount the fused count path sums).
    #[inline]
    pub(crate) fn len(&self) -> u32 {
        self.n
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Still the dense `0..n` fast path (no indices materialised)?
    #[inline]
    pub(crate) fn is_dense(&self) -> bool {
        self.dense
    }

    /// The materialised indices, or `None` while dense (iterate `0..len`).
    #[inline]
    pub(crate) fn as_indices(&self) -> Option<&[u32]> {
        if self.dense {
            None
        } else {
            Some(&self.idx[..self.n as usize])
        }
    }

    /// Refine the selection with predicate `p` over `words` (indexed by
    /// block-local row). The first non-dense application materialises the
    /// indices; later ones compact in place (the write cursor never
    /// overtakes the read cursor). Both loops are branch-free so each
    /// monomorphized instantiation compiles to straight-line
    /// compare/accumulate code.
    #[inline]
    pub(crate) fn apply(&mut self, words: &[u64], p: impl Fn(u64) -> bool) {
        if self.dense {
            let words = &words[..self.n as usize];
            let out = &mut self.idx[..];
            let mut m = 0usize;
            for (i, &w) in words.iter().enumerate() {
                out[m] = i as u32;
                m += p(w) as usize;
            }
            self.n = m as u32;
            self.dense = false;
        } else {
            let mut m = 0usize;
            for r in 0..self.n as usize {
                let i = self.idx[r];
                self.idx[m] = i;
                m += p(words[i as usize]) as usize;
            }
            self.n = m as u32;
        }
    }

    /// Count `p`-matching rows of a dense selection **without**
    /// materialising indices — the popcount kernel the fused count path
    /// uses when a single conjunct remains. A plain predicate-sum loop,
    /// which LLVM autovectorizes outright.
    #[inline]
    fn count_only(&mut self, words: &[u64], p: impl Fn(u64) -> bool) {
        debug_assert!(self.dense);
        let words = &words[..self.n as usize];
        let m: u32 = words.iter().map(|&w| p(w) as u32).sum();
        self.n = m;
        // The indices were never written; the selection is no longer
        // enumerable, which the count path never needs.
        self.dense = false;
    }

    /// [`SelVec::count_only`] or [`SelVec::apply`] with the same
    /// predicate: one branch per block, not per row.
    #[inline]
    fn run(&mut self, words: &[u64], count_only: bool, p: impl Fn(u64) -> bool) {
        if count_only {
            self.count_only(words, p);
        } else {
            self.apply(words, p);
        }
    }
}

/// Deterministic adaptive conjunct ordering: rank filters
/// cheapest-and-most-selective-first from the pass rates observed in the
/// **completed** blocks of the current work range, re-deciding only at
/// block boundaries.
///
/// Determinism rule: state resets at every [`AdaptiveOrder::begin_range`]
/// (one call per morsel / per sequential scan), so the order used for any
/// given block is a pure function of (table content, morsel boundaries,
/// block index) — never of thread count or scheduling. Combined with
/// exact intersective filters (any order selects the same rows) this
/// keeps results *and* counters bit-identical across fan-outs.
pub(crate) struct AdaptiveOrder {
    /// Evaluation order (indices into the filter list).
    order: Vec<u32>,
    /// Rows offered to each filter in this range, by declaration index.
    rows_in: Vec<u64>,
    /// Rows that passed each filter in this range.
    rows_out: Vec<u64>,
    /// Static per-row cost weights.
    cost: Vec<f64>,
}

impl AdaptiveOrder {
    pub(crate) fn new(filters: &[Filter]) -> AdaptiveOrder {
        AdaptiveOrder {
            order: (0..filters.len() as u32).collect(),
            rows_in: vec![0; filters.len()],
            rows_out: vec![0; filters.len()],
            cost: filters.iter().map(Filter::cost_weight).collect(),
        }
    }

    /// Reset to declaration order with no observations — called at the
    /// start of every work range (the determinism boundary).
    pub(crate) fn begin_range(&mut self) {
        for (i, o) in self.order.iter_mut().enumerate() {
            *o = i as u32;
        }
        self.rows_in.fill(0);
        self.rows_out.fill(0);
    }

    /// Current evaluation order.
    #[inline]
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// Record one filter's block outcome (also feeds
    /// [`ScanStats::filter_sel`] for the first [`TRACKED_FILTERS`]
    /// conjuncts).
    #[inline]
    pub(crate) fn record(&mut self, fi: usize, rows_in: u64, rows_out: u64, stats: &mut ScanStats) {
        self.rows_in[fi] += rows_in;
        self.rows_out[fi] += rows_out;
        if fi < TRACKED_FILTERS {
            stats.filter_sel[fi].rows_in += rows_in;
            stats.filter_sel[fi].rows_out += rows_out;
        }
    }

    /// Re-decide the order from the range's accumulated stats — called at
    /// a block boundary (a fixed, thread-count-independent point). Bumps
    /// `stats.sel_reorders` when the order actually changes. Unobserved
    /// filters keep a neutral pass rate of 1 so they sink behind anything
    /// observed to be selective; ties keep declaration order (sort is
    /// stable, key falls back to the index).
    pub(crate) fn end_block(&mut self, stats: &mut ScanStats) {
        if self.order.len() < 2 {
            return;
        }
        let key = |fi: u32| -> f64 {
            let (inn, out) = (self.rows_in[fi as usize], self.rows_out[fi as usize]);
            let pass = if inn == 0 {
                1.0
            } else {
                out as f64 / inn as f64
            };
            pass * self.cost[fi as usize]
        };
        let before = self.order.clone();
        self.order.sort_by(|&a, &b| {
            key(a)
                .partial_cmp(&key(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        if self.order != before {
            stats.sel_reorders += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(kind: FilterKind, ty: LogicalType) -> Filter {
        Filter {
            col: ColumnId(0),
            ty,
            kind,
        }
    }

    #[test]
    fn selvec_dense_apply_and_refine() {
        let mut sel = SelVec::new(8);
        sel.reset_dense(8);
        assert!(sel.is_dense());
        assert_eq!(sel.len(), 8);
        let words: Vec<u64> = (0..8).collect();
        sel.apply(&words, |w| w % 2 == 0); // 0 2 4 6
        assert_eq!(sel.as_indices(), Some(&[0u32, 2, 4, 6][..]));
        sel.apply(&words, |w| w > 2); // refine → 4 6
        assert_eq!(sel.as_indices(), Some(&[4u32, 6][..]));
        sel.reset_dense(5);
        assert!(sel.is_dense());
        assert!(sel.as_indices().is_none());
    }

    #[test]
    fn selvec_count_only_popcounts() {
        let mut sel = SelVec::new(16);
        sel.reset_dense(10);
        let words: Vec<u64> = (0..10).collect();
        sel.count_only(&words, |w| w >= 7);
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn kernels_agree_with_scalar_dispatch() {
        let words: Vec<u64> = vec![
            5u64,
            (-3i64) as u64,
            i64::MAX as u64,
            f64::NAN.to_bits(),
            (-0.0f64).to_bits(),
            0.5f64.to_bits(),
            7,
            u32::MAX as u64,
        ];
        let filters = [
            f(FilterKind::RangeI { lo: -3, hi: 7 }, LogicalType::Int),
            f(
                FilterKind::Range {
                    lo: -1.0,
                    hi: 0.5,
                    hi_exclusive: false,
                },
                LogicalType::Double,
            ),
            f(
                FilterKind::Range {
                    lo: f64::NEG_INFINITY,
                    hi: 0.5,
                    hi_exclusive: true,
                },
                LogicalType::Double,
            ),
            f(FilterKind::DictEq(7), LogicalType::Dict),
            f(FilterKind::InSet(vec![5, 7]), LogicalType::Dict),
            f(FilterKind::InSet(vec![]), LogicalType::Dict),
        ];
        for flt in &filters {
            let scalar: Vec<u32> = (0..words.len() as u32)
                .filter(|&i| flt.matches(words[i as usize]))
                .collect();
            let mut sel = SelVec::new(words.len() as u32);
            sel.reset_dense(words.len() as u32);
            flt.kernel(&words, &mut sel, false);
            assert_eq!(sel.as_indices(), Some(&scalar[..]), "kind {:?}", flt.kind);
            sel.reset_dense(words.len() as u32);
            flt.kernel(&words, &mut sel, true);
            assert_eq!(sel.len() as usize, scalar.len(), "kind {:?}", flt.kind);
        }
    }

    #[test]
    fn all_match_is_conservative_at_inexact_integer_bounds() {
        // 2^53 + 1 is not exactly representable; equality with the
        // rounded bound must not claim all-match.
        let lo = (1i64 << 53) + 1;
        let flt = f(FilterKind::RangeI { lo, hi: i64::MAX }, LogicalType::Int);
        let r = lo as f64; // rounded image
        assert!(!flt.block_all_match(r, r + 4.0));
        // Strictly inside the (rounded) bound is fine.
        assert!(flt.block_all_match(r + 3.0, r + 4.0));
        // Small bounds take the equality arm.
        let flt = f(FilterKind::RangeI { lo: 10, hi: 20 }, LogicalType::Int);
        assert!(flt.block_all_match(10.0, 20.0));
        assert!(!flt.block_all_match(9.0, 20.0));
    }

    #[test]
    fn nan_blocks_never_all_match() {
        // Zone maps summarise NaN-holding blocks as (-inf, +inf).
        let flt = f(
            FilterKind::Range {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
                hi_exclusive: false,
            },
            LogicalType::Double,
        );
        assert!(!flt.block_all_match(f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn adaptive_order_moves_selective_filter_first_and_is_resettable() {
        let filters = [
            f(FilterKind::RangeI { lo: 0, hi: 100 }, LogicalType::Int),
            f(
                FilterKind::Range {
                    lo: 0.0,
                    hi: 1.0,
                    hi_exclusive: false,
                },
                LogicalType::Double,
            ),
        ];
        let mut ord = AdaptiveOrder::new(&filters);
        let mut stats = ScanStats::default();
        ord.begin_range();
        assert_eq!(ord.order(), &[0, 1]);
        // Filter 0 passes everything, filter 1 kills everything.
        ord.record(0, 1024, 1024, &mut stats);
        ord.record(1, 1024, 0, &mut stats);
        ord.end_block(&mut stats);
        assert_eq!(ord.order(), &[1, 0]);
        assert_eq!(stats.sel_reorders, 1);
        assert_eq!(stats.filter_sel[0].rows_in, 1024);
        assert_eq!(stats.filter_sel[1].rows_out, 0);
        // The reset restores declaration order — the determinism boundary.
        ord.begin_range();
        assert_eq!(ord.order(), &[0, 1]);
    }
}
