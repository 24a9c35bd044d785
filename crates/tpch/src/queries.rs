//! The OLAP side of the workload: TPC-H Q1, Q4, Q6, Q17 and the three
//! full-table scans (§5.2 — "in total, we have 7 OLAP transactions").
//!
//! Queries are hand-planned physical operators over the typed scan API:
//! predicates go through [`Txn::scan_on`]'s `ScanBuilder`, which pushes
//! them into the block loops (zone-map pruning on snapshots) and registers
//! the matching precision locks automatically; small-group aggregation
//! runs over dictionary codes, and index probes drive the Q4 semi-join and
//! the Q17 part → lineitem join.

use crate::gen::{days, TpchDb};
use anker_core::{Result, Txn};
use rand::Rng;

/// The seven OLAP transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OlapQuery {
    Q1,
    Q4,
    Q6,
    Q17,
    ScanLineitem,
    ScanOrders,
    ScanPart,
}

impl OlapQuery {
    /// All seven, in the paper's order.
    pub const ALL: [OlapQuery; 7] = [
        OlapQuery::Q1,
        OlapQuery::Q4,
        OlapQuery::Q6,
        OlapQuery::Q17,
        OlapQuery::ScanLineitem,
        OlapQuery::ScanOrders,
        OlapQuery::ScanPart,
    ];

    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            OlapQuery::Q1 => "TPCH-Q1",
            OlapQuery::Q4 => "TPCH-Q4",
            OlapQuery::Q6 => "TPCH-Q6",
            OlapQuery::Q17 => "TPCH-Q17",
            OlapQuery::ScanLineitem => "LINEITEM-Scan",
            OlapQuery::ScanOrders => "ORDERS-Scan",
            OlapQuery::ScanPart => "PART-Scan",
        }
    }
}

/// One result row of Q1 (group by return flag, line status).
#[derive(Debug, Clone, PartialEq)]
pub struct Q1Row {
    pub returnflag: u32,
    pub linestatus: u32,
    pub sum_qty: f64,
    pub sum_base_price: f64,
    pub sum_disc_price: f64,
    pub sum_charge: f64,
    pub avg_qty: f64,
    pub avg_price: f64,
    pub avg_disc: f64,
    pub count: u64,
}

/// TPC-H Q1: pricing summary report over LINEITEM with
/// `l_shipdate <= '1998-12-01' - delta days`, `delta ∈ [60, 120]`.
pub fn q1(t: &TpchDb, txn: &mut Txn, delta_days: i32) -> Result<Vec<Q1Row>> {
    assert!((60..=120).contains(&delta_days), "per TPC-H spec");
    let cutoff = days(1998, 12, 1) - delta_days;
    let li = &t.li;
    // 3 return flags x 2 line statuses = 6 groups, array-aggregated.
    #[derive(Default, Clone, Copy)]
    struct Acc {
        qty: f64,
        base: f64,
        disc_price: f64,
        charge: f64,
        disc: f64,
        count: u64,
    }
    let mut groups = [Acc::default(); 6];
    txn.scan_on(t.lineitem)
        .range_i64(li.shipdate, i64::MIN, cutoff as i64)
        .project(&[
            li.returnflag,
            li.linestatus,
            li.quantity,
            li.extendedprice,
            li.discount,
            li.tax,
        ])
        .for_each(|_, v| {
            let rf = v[0] as u32 as usize;
            let ls = v[1] as u32 as usize;
            let qty = f64::from_bits(v[2]);
            let price = f64::from_bits(v[3]);
            let disc = f64::from_bits(v[4]);
            let tax = f64::from_bits(v[5]);
            let g = &mut groups[rf * 2 + ls];
            g.qty += qty;
            g.base += price;
            g.disc_price += price * (1.0 - disc);
            g.charge += price * (1.0 - disc) * (1.0 + tax);
            g.disc += disc;
            g.count += 1;
        })?;
    let mut rows = Vec::new();
    for rf in 0..3u32 {
        for ls in 0..2u32 {
            let g = groups[(rf * 2 + ls) as usize];
            if g.count == 0 {
                continue;
            }
            let n = g.count as f64;
            rows.push(Q1Row {
                returnflag: rf,
                linestatus: ls,
                sum_qty: g.qty,
                sum_base_price: g.base,
                sum_disc_price: g.disc_price,
                sum_charge: g.charge,
                avg_qty: g.qty / n,
                avg_price: g.base / n,
                avg_disc: g.disc / n,
                count: g.count,
            });
        }
    }
    Ok(rows)
}

/// TPC-H Q4: order-priority checking. Counts orders per priority placed in
/// a given quarter that have at least one lineitem with
/// `l_commitdate < l_receiptdate` (semi-join probed through the
/// orderkey → lineitem-range index).
pub fn q4(t: &TpchDb, txn: &mut Txn, quarter_start: i32) -> Result<Vec<(u32, u64)>> {
    let lo = quarter_start;
    // Three months, spec-approximate.
    let hi = quarter_start + 90;
    // Pass 1: collect qualifying orders from the ORDERS scan (dates are
    // integral, so `[lo, hi)` is `[lo, hi - 1]`).
    let mut candidates: Vec<(u32, i64)> = Vec::new(); // (priority, orderkey)
    txn.scan_on(t.orders)
        .range_i64(t.ord.orderdate, lo as i64, hi as i64 - 1)
        .project(&[t.ord.orderpriority, t.ord.orderkey])
        .for_each(|_, v| candidates.push((v[0] as u32, v[1] as i64)))?;
    // Pass 2: EXISTS probe per candidate order.
    let mut counts = [0u64; 5];
    for (prio, okey) in candidates {
        let Some((start, n)) = t.li_by_orderkey.get(&okey) else {
            continue;
        };
        for row in start..start + n {
            let commit = txn.get_value(t.lineitem, t.li.commitdate, row)?.as_date();
            let receipt = txn.get_value(t.lineitem, t.li.receiptdate, row)?.as_date();
            if commit < receipt {
                counts[prio as usize] += 1;
                break;
            }
        }
    }
    Ok((0..5u32).map(|p| (p, counts[p as usize])).collect())
}

/// TPC-H Q6: forecasting revenue change.
/// `sum(l_extendedprice * l_discount)` where shipdate in `[year, year+1)`,
/// `discount in [d - 0.01, d + 0.01]`, `quantity < qty`.
pub fn q6(t: &TpchDb, txn: &mut Txn, year: i32, discount: f64, qty: f64) -> Result<f64> {
    let lo = days(year, 1, 1);
    let hi = days(year + 1, 1, 1);
    let dlo = discount - 0.01;
    let dhi = discount + 0.01;
    let li = &t.li;
    let mut revenue = 0.0;
    // The shipdate range is the selective predicate: on chronologically
    // loaded lineitems, zone maps prune every block outside the year.
    txn.scan_on(t.lineitem)
        .range_i64(li.shipdate, lo as i64, hi as i64 - 1)
        .range_f64(li.discount, dlo - 1e-9, dhi + 1e-9)
        .lt_f64(li.quantity, qty)
        .project(&[li.extendedprice, li.discount])
        .for_each(|_, v| revenue += f64::from_bits(v[0]) * f64::from_bits(v[1]))?;
    Ok(revenue)
}

/// TPC-H Q17: small-quantity-order revenue. For parts of one brand and
/// container, sums the price of lineitems whose quantity is below 20 % of
/// the part's average quantity; probes lineitems through the partkey
/// multi-index.
pub fn q17(t: &TpchDb, txn: &mut Txn, brand_code: u32, container_code: u32) -> Result<f64> {
    // Scan PART for matching part keys (dense keys: partkey = row + 1).
    // Both equality predicates push down; no projection is needed — the
    // row id is the key.
    let mut parts: Vec<i64> = Vec::new();
    txn.scan_on(t.part)
        .dict_eq(t.prt.brand, brand_code)
        .dict_eq(t.prt.container, container_code)
        .for_each(|row, _| parts.push(row as i64 + 1))?;
    let mut total = 0.0;
    for pk in parts {
        let rows = t.li_by_partkey.get(&pk);
        if rows.is_empty() {
            continue;
        }
        let mut sum_q = 0.0;
        for &r in rows {
            sum_q += txn.get_value(t.lineitem, t.li.quantity, r)?.as_double();
        }
        let threshold = 0.2 * (sum_q / rows.len() as f64);
        for &r in rows {
            let q = txn.get_value(t.lineitem, t.li.quantity, r)?.as_double();
            if q < threshold {
                total += txn
                    .get_value(t.lineitem, t.li.extendedprice, r)?
                    .as_double();
            }
        }
    }
    Ok(total / 7.0)
}

/// Full-table scan transaction: reads every column of the table and folds
/// a checksum (the paper adds "a simple scan transaction that runs over the
/// respective table" for each table).
pub fn scan_table(t: &TpchDb, txn: &mut Txn, which: OlapQuery) -> Result<u64> {
    let (table, cols): (_, Vec<_>) = match which {
        OlapQuery::ScanLineitem => (
            t.lineitem,
            vec![
                t.li.orderkey,
                t.li.partkey,
                t.li.quantity,
                t.li.extendedprice,
                t.li.discount,
                t.li.tax,
                t.li.returnflag,
                t.li.linestatus,
                t.li.shipdate,
                t.li.commitdate,
                t.li.receiptdate,
            ],
        ),
        OlapQuery::ScanOrders => (
            t.orders,
            vec![
                t.ord.orderkey,
                t.ord.orderdate,
                t.ord.orderpriority,
                t.ord.orderstatus,
                t.ord.totalprice,
            ],
        ),
        OlapQuery::ScanPart => (
            t.part,
            vec![
                t.prt.partkey,
                t.prt.brand,
                t.prt.container,
                t.prt.retailprice,
            ],
        ),
        other => panic!("scan_table called with {other:?}"),
    };
    let mut checksum = 0u64;
    txn.scan_on(table).project(&cols).for_each(|_, v| {
        for &w in v {
            checksum = checksum.wrapping_mul(31).wrapping_add(w);
        }
    })?;
    Ok(checksum)
}

/// A sampled parameter set for one OLAP query, drawn per the TPC-H
/// specification bounds (§5.2: "we pick the configuration parameters of the
/// query randomly within the bounds given in the TPC-H specification").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OlapParams {
    Q1 { delta_days: i32 },
    Q4 { quarter_start: i32 },
    Q6 { year: i32, discount: f64, qty: f64 },
    Q17 { brand: u32, container: u32 },
    Scan(OlapQuery),
}

/// Sample parameters for `q` using `rng`.
pub fn sample_params(q: OlapQuery, rng: &mut impl Rng) -> OlapParams {
    match q {
        OlapQuery::Q1 => OlapParams::Q1 {
            delta_days: rng.random_range(60..=120),
        },
        OlapQuery::Q4 => {
            // A random quarter between 1993-01 and 1997-10.
            let quarter = rng.random_range(0..20);
            let year = 1993 + quarter / 4;
            let month = 1 + (quarter % 4) * 3;
            OlapParams::Q4 {
                quarter_start: days(year, month as u32, 1),
            }
        }
        OlapQuery::Q6 => OlapParams::Q6 {
            year: rng.random_range(1993..=1997),
            discount: rng.random_range(2..=9) as f64 / 100.0,
            qty: if rng.random_range(0..2) == 0 {
                24.0
            } else {
                25.0
            },
        },
        OlapQuery::Q17 => OlapParams::Q17 {
            brand: rng.random_range(0..25),
            container: rng.random_range(0..40),
        },
        scan => OlapParams::Scan(scan),
    }
}

/// Opaque result of one OLAP execution (comparable across configurations).
#[derive(Debug, Clone, PartialEq)]
pub enum OlapResult {
    Q1(Vec<Q1Row>),
    Q4(Vec<(u32, u64)>),
    Revenue(f64),
    Checksum(u64),
}

/// Execute `params` inside `txn`.
pub fn run_olap(t: &TpchDb, txn: &mut Txn, params: OlapParams) -> Result<OlapResult> {
    Ok(match params {
        OlapParams::Q1 { delta_days } => OlapResult::Q1(q1(t, txn, delta_days)?),
        OlapParams::Q4 { quarter_start } => OlapResult::Q4(q4(t, txn, quarter_start)?),
        OlapParams::Q6 {
            year,
            discount,
            qty,
        } => OlapResult::Revenue(q6(t, txn, year, discount, qty)?),
        OlapParams::Q17 { brand, container } => OlapResult::Revenue(q17(t, txn, brand, container)?),
        OlapParams::Scan(which) => OlapResult::Checksum(scan_table(t, txn, which)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::LAST_ORDER_DATE;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    /// Q4's date arithmetic: `sample_params` draws exactly the first days
    /// of the twenty quarters 1993-01 … 1997-10; each 90-day window
    /// `[start, start + 90)` stays inside its quarter (quarters are 90–92
    /// days long) and inside the generated order dates
    /// (`0..=LAST_ORDER_DATE`).
    #[test]
    fn q4_quarters_fit_the_order_dates() {
        let firsts: BTreeSet<i32> = (1993..=1997)
            .flat_map(|y| [1, 4, 7, 10].map(|m| days(y, m, 1)))
            .collect();
        let mut rng = SmallRng::seed_from_u64(4);
        let drawn: BTreeSet<i32> = (0..1_000)
            .map(|_| match sample_params(OlapQuery::Q4, &mut rng) {
                OlapParams::Q4 { quarter_start } => quarter_start,
                other => panic!("Q4 sampled {other:?}"),
            })
            .collect();
        assert_eq!(drawn, firsts);
        let starts: Vec<i32> = firsts.into_iter().collect();
        for pair in starts.windows(2) {
            let len = pair[1] - pair[0];
            assert!((90..=92).contains(&len), "a quarter of {len} days");
        }
        assert!(starts[0] >= 0);
        let last = *starts.last().unwrap();
        assert!(last + 89 <= LAST_ORDER_DATE, "the last window's final day");
        assert_eq!(days(1998, 1, 1) - last, 92, "1997-Q4 is 92 days long");
    }
}
