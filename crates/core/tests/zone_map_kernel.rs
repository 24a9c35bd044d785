//! The typed zone-map kernel against a `rank()` oracle: every block's
//! `(min, max)` must equal folding [`anker_storage::rank`] over its words
//! (a block holding a NaN double reads `(-inf, +inf)`), for all four
//! logical types, through both builds — the backend's locked block reads
//! ([`ColumnArea::zone_map`]) and a whole-column slice
//! ([`ColumnArea::zone_map_with`], the path pinned snapshot columns
//! take) — on both memory backends. The palettes cover NaN, ±0.0, ±inf,
//! `i64::MIN`/`MAX`, negative dates, `u32::MAX` dictionary codes, and
//! row counts with a partial last block. Pruning decisions only ever
//! read these bounds, so equality here keeps `scan_counters.rs` exact.

use anker_core::{LogicalType, Value};
use anker_storage::{rank, ColumnArea};
use anker_vmem::{Kernel, VmBackend};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::Arc;

const TYPES: [LogicalType; 4] = [
    LogicalType::Int,
    LogicalType::Date,
    LogicalType::Dict,
    LogicalType::Double,
];

/// The backends to build on: the simulator, plus the real-OS backend on
/// Linux. The kernel is returned alongside so the simulated space it
/// owns outlives the areas.
fn backends() -> Vec<(Option<Kernel>, Arc<dyn VmBackend>)> {
    let kernel = Kernel::default();
    let space: Arc<dyn VmBackend> = Arc::new(kernel.create_space());
    #[allow(unused_mut)]
    let mut out = vec![(Some(kernel), space)];
    #[cfg(target_os = "linux")]
    out.push((None, Arc::new(anker_vmem::OsBackend::new().unwrap())));
    out
}

/// One stored word of type `ty`: `sel` picks an edge value or, mostly,
/// `base` cast into the type's domain. NaN is rare (1 in 32) so most
/// short blocks summarise real bounds.
fn palette(ty: LogicalType, sel: u8, base: i64) -> u64 {
    let v = match ty {
        LogicalType::Int => Value::Int(match sel % 8 {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -1,
            _ => base,
        }),
        LogicalType::Date => Value::Date(match sel % 8 {
            0 => i32::MIN,
            1 => i32::MAX,
            2 => -(base % 4_000) as i32 - 1,
            _ => base as i32,
        }),
        LogicalType::Dict => Value::Dict(match sel % 8 {
            0 => u32::MAX,
            1 => 0,
            _ => base as u32,
        }),
        LogicalType::Double => Value::Double(match sel % 32 {
            0 => f64::NAN,
            1 | 9 => -0.0,
            2 | 10 => 0.0,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => f64::MAX,
            6 => f64::MIN_POSITIVE,
            _ => base as f64 / 7.0,
        }),
    };
    v.encode()
}

/// The specification: fold `rank` over each block, NaN poisoning the
/// block to `(-inf, +inf)`.
fn oracle(words: &[u64], ty: LogicalType, block_rows: u32) -> Vec<(f64, f64)> {
    words
        .chunks(block_rows as usize)
        .map(|block| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for &w in block {
                let r = rank(w, ty);
                if r.is_nan() {
                    return (f64::NEG_INFINITY, f64::INFINITY);
                }
                lo = lo.min(r);
                hi = hi.max(r);
            }
            (lo, hi)
        })
        .collect()
}

/// Build `words`' zone map both ways on every backend and compare each
/// block with the oracle (`==` on `f64`, so `-0.0` and `0.0` agree — as
/// they do for every pruning comparison).
fn check(words: &[u64], ty: LogicalType, block_rows: u32) -> Result<(), TestCaseError> {
    let want = oracle(words, ty, block_rows);
    for (_kernel, backend) in backends() {
        let area = ColumnArea::alloc_on(Arc::clone(&backend), words.len() as u32).unwrap();
        area.fill(words.iter().copied()).unwrap();
        for slice in [false, true] {
            area.invalidate_zone_map();
            let zm = area
                .zone_map_with(ty, block_rows, slice.then_some(words))
                .unwrap();
            let got: Vec<(f64, f64)> = (0..zm.n_blocks()).map(|b| zm.block_range(b)).collect();
            prop_assert_eq!(
                &got,
                &want,
                "{:?}, {} rows, blocks of {}, slice build {}, backend page {}",
                ty,
                words.len(),
                block_rows,
                slice,
                backend.page_size()
            );
        }
        area.unmap().unwrap();
    }
    Ok(())
}

/// Every edge of every type in one column, blocks of 4 over 2 full blocks
/// and a partial one, plus the engine's 1024-row blocks.
#[test]
fn every_edge_matches_the_rank_oracle() {
    for ty in TYPES {
        let words: Vec<u64> = (0..42u8)
            .map(|sel| palette(ty, sel, -(sel as i64) * 1_000_003))
            .collect();
        for block_rows in [4, 1_024] {
            check(&words[..11], ty, block_rows).unwrap();
            check(&words, ty, block_rows).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random columns of every type, random block sizes (including the
    /// engine's 1024) and row counts with a partial last block.
    #[test]
    fn typed_kernel_matches_the_rank_oracle(
        ty in 0usize..4,
        rows in 1usize..2_600,
        block_rows in prop_oneof![1 => Just(1_024u32), 2 => 1u32..70],
        data in proptest::collection::vec((any::<u8>(), any::<i64>()), 1..64),
    ) {
        let ty = TYPES[ty];
        let words: Vec<u64> = (0..rows)
            .map(|i| {
                let (sel, base) = data[i.wrapping_mul(2_654_435_761) % data.len()];
                palette(ty, sel, base)
            })
            .collect();
        check(&words, ty, block_rows)?;
    }
}
