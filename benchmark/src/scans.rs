//! The six sequential scan queries of `olap_*` — one per scan kernel the
//! engine has — their row-at-a-time reference answers, and the analyst
//! that cycles them on one pinned `SnapshotReader`.
//!
//! Every answer is a `u64` that does not depend on evaluation order
//! (counts, an integer sum, a wrapping checksum), so the reference, the
//! sequential scan and the `.parallel(2)` scan must agree bit for bit.

use crate::common::{Ctl, OlapTally, MEASURE, STOP};
use crate::trace::{SpanBuf, NO_PARENT};
use ankerdb::core::{
    AnkerDb, ColumnId, LogicalType, Result, ScanStats, SnapshotReader, TableId, Value,
};
use ankerdb::tpch::gen::days;
use rand::rngs::SmallRng;
use rand::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub const QUERIES: [&str; 6] = [
    "count_sel0.1",
    "count_sel10",
    "count_sel50",
    "fold_q6",
    "dict_eq",
    "project6",
];

/// LINEITEM and the columns the queries touch, resolved by name so the
/// same code runs on a generated and on a recovered database.
#[derive(Debug, Clone, Copy)]
pub struct Lineitem {
    pub table: TableId,
    pub rows: u32,
    pub shipdate: ColumnId,
    pub discount: ColumnId,
    pub quantity: ColumnId,
    pub extendedprice: ColumnId,
    pub returnflag: ColumnId,
    pub project: [ColumnId; 6],
}

impl Lineitem {
    pub fn of(db: &AnkerDb) -> Lineitem {
        let table = db.table_id("lineitem").expect("lineitem table");
        let s = db.schema(table);
        Lineitem {
            table,
            rows: db.rows(table),
            shipdate: s.col("l_shipdate"),
            discount: s.col("l_discount"),
            quantity: s.col("l_quantity"),
            extendedprice: s.col("l_extendedprice"),
            returnflag: s.col("l_returnflag"),
            project: [
                s.col("l_returnflag"),
                s.col("l_linestatus"),
                s.col("l_quantity"),
                s.col("l_extendedprice"),
                s.col("l_discount"),
                s.col("l_tax"),
            ],
        }
    }
}

/// Query parameters, drawn from `--seed`. Ship dates are clustered in
/// load order, so a date window of a given width is that share of the
/// table *and* of its blocks: the three count queries differ in how much
/// zone maps prune.
#[derive(Debug, Clone, Copy)]
pub struct ScanParams {
    /// Inclusive ship-date windows of ≈ 0.1 %, 10 % and 50 % of the rows.
    pub windows: [(i64, i64); 3],
    pub q6_dates: (i64, i64),
    pub q6_discount: f64,
    pub q6_qty: f64,
    pub returnflag: u32,
}

impl ScanParams {
    pub fn sample(rng: &mut SmallRng) -> ScanParams {
        // Ship dates span about 2 500 days at near-uniform density.
        let window = |rng: &mut SmallRng, width: i64| {
            let lo = rng.random_range(121..=2_405 - width);
            (lo, lo + width - 1)
        };
        let year = rng.random_range(1993..=1997);
        ScanParams {
            windows: [window(rng, 3), window(rng, 247), window(rng, 1_233)],
            q6_dates: (days(year, 1, 1) as i64, days(year + 1, 1, 1) as i64 - 1),
            q6_discount: rng.random_range(2..=9) as f64 / 100.0,
            q6_qty: if rng.random_bool() { 24.0 } else { 25.0 },
            returnflag: rng.random_range(0..3),
        }
    }
}

/// Cents of `price × discount`: an integer, so per-morsel partial sums
/// merge to the same total in any grouping.
fn revenue_cents(price: f64, discount: f64) -> i64 {
    (price * discount * 100.0).round() as i64
}

fn row_mix(row: u32, words: &[u64]) -> u64 {
    words.iter().fold(row as u64, |h, &w| {
        h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(w)
    })
}

/// Checksum slots of the projection query: `for_each` takes a shared
/// closure, so rows add into one of 64 cache-line-separated atomics
/// picked by morsel — two scan threads work on different morsels and do
/// not share a line. A statistic, hence `Relaxed`; the scan joins its
/// threads before returning.
#[repr(align(64))]
struct Slot(AtomicU64);

/// Run query `q` on `reader` with `threads` threads of execution
/// (1 = the caller's thread only). Returns the answer and the scan's
/// statistics.
pub fn run_query(
    reader: &SnapshotReader,
    t: &Lineitem,
    p: &ScanParams,
    q: usize,
    threads: usize,
) -> Result<(u64, ScanStats)> {
    let scan = || reader.scan(t.table).parallel(threads);
    match q {
        0..=2 => {
            let (lo, hi) = p.windows[q];
            scan().range_i64(t.shipdate, lo, hi).count()
        }
        3 => {
            let (sum, stats) = scan()
                .range_i64(t.shipdate, p.q6_dates.0, p.q6_dates.1)
                .range_f64(
                    t.discount,
                    p.q6_discount - 0.01 - 1e-9,
                    p.q6_discount + 0.01 + 1e-9,
                )
                .lt_f64(t.quantity, p.q6_qty)
                .project(&[t.extendedprice, t.discount])
                .fold(
                    0i64,
                    |acc, _row, v| acc + revenue_cents(v[0].as_double(), v[1].as_double()),
                    |a, b| a + b,
                )?;
            Ok((sum as u64, stats))
        }
        4 => scan().dict_eq(t.returnflag, p.returnflag).count(),
        5 => {
            let slots: Vec<Slot> = (0..64).map(|_| Slot(AtomicU64::new(0))).collect();
            let stats = scan().project(&t.project).for_each(|row, words| {
                slots[(row >> 14) as usize & 63]
                    .0
                    .fetch_add(row_mix(row, words), Ordering::Relaxed);
            })?;
            let sum = slots
                .iter()
                .fold(0u64, |a, s| a.wrapping_add(s.0.load(Ordering::Relaxed)));
            Ok((sum, stats))
        }
        _ => unreachable!("six queries"),
    }
}

/// The six answers computed one row at a time through
/// `SnapshotReader::get` — no scan kernel, no zone map, no morsel.
pub fn reference(reader: &SnapshotReader, t: &Lineitem, p: &ScanParams) -> Result<[u64; 6]> {
    let mut out = [0u64; 6];
    let mut cents = 0i64;
    for row in 0..t.rows {
        let ship = Value::decode(reader.get(t.table, t.shipdate, row)?, LogicalType::Date).as_date()
            as i64;
        for (i, &(lo, hi)) in p.windows.iter().enumerate() {
            out[i] += (lo <= ship && ship <= hi) as u64;
        }
        let disc = f64::from_bits(reader.get(t.table, t.discount, row)?);
        let qty = f64::from_bits(reader.get(t.table, t.quantity, row)?);
        if (p.q6_dates.0 <= ship && ship <= p.q6_dates.1)
            && (p.q6_discount - 0.01 - 1e-9 <= disc && disc <= p.q6_discount + 0.01 + 1e-9)
            && qty < p.q6_qty
        {
            let price = f64::from_bits(reader.get(t.table, t.extendedprice, row)?);
            cents += revenue_cents(price, disc);
        }
        let mut words = [0u64; 6];
        for (w, &c) in words.iter_mut().zip(&t.project) {
            *w = reader.get(t.table, c, row)?;
        }
        out[4] += (words[0] as u32 == p.returnflag) as u64;
        out[5] = out[5].wrapping_add(row_mix(row, &words));
    }
    out[3] = cents as u64;
    Ok(out)
}

/// One analyst's assignment: the pinned reader, the query parameters,
/// the reference answers and the scan fan-out.
pub struct Job<'a> {
    pub reader: &'a SnapshotReader,
    pub table: &'a Lineitem,
    pub params: &'a ScanParams,
    pub want: &'a [u64; 6],
    /// 1 = sequential on the caller's thread; 2 = `.parallel(2)`.
    pub threads: usize,
}

/// Cycle the six queries until the phase clock stops (or for `rounds`
/// full rounds when there is no clock), checking every answer against
/// the reference. A wrong answer, an error or a panic is a failed
/// operation.
pub fn analyst(
    job: &Job,
    ctl: Option<&Ctl>,
    rounds: Option<u32>,
    spans: &mut SpanBuf,
) -> OlapTally {
    let Job {
        reader,
        table: t,
        params: p,
        want,
        threads,
    } = *job;
    let mut tally = OlapTally::new(QUERIES.len());
    let mut op = 0u64;
    let mut round = 0u32;
    loop {
        if rounds.is_some_and(|n| round >= n) {
            return tally;
        }
        // Tracing alternates per round, so both modes run the same mix.
        let traced = ctl.is_some_and(|c| c.trace) && round % 2 == 1;
        round += 1;
        let cycle_start = Instant::now();
        let (mut whole, mut done) = (true, 0u64);
        for q in 0..QUERIES.len() {
            if ctl.is_some_and(|c| c.phase() == STOP) {
                return tally;
            }
            let t0 = Instant::now();
            let got = catch_unwind(AssertUnwindSafe(|| run_query(reader, t, p, q, threads)));
            let t1 = Instant::now();
            op += 1;
            // Without a phase clock (the recovery epilogue) everything counts.
            if ctl.is_some_and(|c| c.phase() != MEASURE) {
                whole = false;
                continue;
            }
            tally.attempted += 1;
            match got {
                Ok(Ok((answer, _))) if answer == want[q] => {
                    let ns = (t1 - t0).as_nanos() as u64;
                    tally.queries += 1;
                    done += 1;
                    tally.lat.record(ns);
                    tally.class[q].record(ns);
                    if let (true, Some(c)) = (traced, ctl) {
                        let (a, b) = (c.clock.ns(t0), c.clock.ns(t1));
                        let root = spans.push("olap", NO_PARENT, op, a, b);
                        if root != NO_PARENT {
                            spans.push(SCAN_SPANS[q], root, op, a, b);
                        }
                    }
                }
                Ok(Ok((answer, _))) => {
                    tally.failed += 1;
                    eprintln!(
                        "wrong answer: {} returned {answer}, reference {}",
                        QUERIES[q], want[q]
                    );
                }
                Ok(Err(e)) => {
                    tally.failed += 1;
                    eprintln!("scan query {} failed: {e}", QUERIES[q]);
                }
                Err(_) => {
                    tally.failed += 1;
                    eprintln!("scan query {} panicked", QUERIES[q]);
                }
            }
        }
        if whole {
            tally.round(traced, cycle_start.elapsed(), done, done * t.rows as u64);
        }
    }
}

const SCAN_SPANS: [&str; 6] = [
    "core.scan.count_sel0.1",
    "core.scan.count_sel10",
    "core.scan.count_sel50",
    "core.scan.fold_q6",
    "core.scan.dict_eq",
    "core.scan.project6",
];
