//! Deterministic TPC-H-shaped data generation for LINEITEM, ORDERS, and
//! PART (the tables of the paper's workload, §5.2).
//!
//! The official `dbgen` is not redistributable here; this generator
//! reproduces the schema, key structure (sparse order keys, dense part
//! keys, 1–7 lineitems per order), value domains, and the date and
//! selectivity relationships the evaluated queries depend on.

use anker_core::{AnkerDb, DbConfig, TableId};
use anker_storage::value::date;
use anker_storage::{
    ColumnDef, ColumnId, ContiguousIndex, Dictionary, HashIndex, LogicalType, MultiIndex, Schema,
    Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The day every TPC-H date ends by (1998-12-01 is the "current date").
pub const END_DATE_1998_12_01: i32 = 2526;
/// Last generatable order date: 1998-08-02.
pub const LAST_ORDER_DATE: i32 = 2405;
/// Cutoff deciding return flags and line status: 1995-06-17.
pub const CUTOFF_1995_06_17: i32 = 1263;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Scale factor of this generator, a tenth of TPC-H's row counts: SF 1
    /// is 150 000 orders rows, ≈ 600 000 lineitem rows (1–7 per order) and
    /// 200 000 part rows. The paper's experiments fit SF ≈ 0.25 of real
    /// TPC-H (1.5 GB of tables); the scaled default here is 0.05.
    pub scale_factor: f64,
    /// RNG seed; identical seeds generate identical databases.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale_factor: 0.05,
            seed: 42,
        }
    }
}

impl TpchConfig {
    /// Configuration at a given scale factor (default seed).
    pub fn at_scale(scale_factor: f64) -> TpchConfig {
        TpchConfig {
            scale_factor,
            ..Default::default()
        }
    }
}

/// Cached column ids of LINEITEM.
#[derive(Debug, Clone, Copy)]
pub struct LineitemCols {
    pub orderkey: ColumnId,
    pub linenumber: ColumnId,
    pub partkey: ColumnId,
    pub quantity: ColumnId,
    pub extendedprice: ColumnId,
    pub discount: ColumnId,
    pub tax: ColumnId,
    pub returnflag: ColumnId,
    pub linestatus: ColumnId,
    pub shipdate: ColumnId,
    pub commitdate: ColumnId,
    pub receiptdate: ColumnId,
}

/// Cached column ids of ORDERS.
#[derive(Debug, Clone, Copy)]
pub struct OrdersCols {
    pub orderkey: ColumnId,
    pub orderdate: ColumnId,
    pub orderpriority: ColumnId,
    pub orderstatus: ColumnId,
    pub totalprice: ColumnId,
}

/// Cached column ids of PART.
#[derive(Debug, Clone, Copy)]
pub struct PartCols {
    pub partkey: ColumnId,
    pub brand: ColumnId,
    pub container: ColumnId,
    pub retailprice: ColumnId,
}

/// The loaded TPC-H database: an [`AnkerDb`] with the three tables, their
/// dictionaries, and the indexes used by OLTP point updates and the
/// Q4/Q17 join paths.
pub struct TpchDb {
    pub db: AnkerDb,
    pub lineitem: TableId,
    pub orders: TableId,
    pub part: TableId,
    pub li: LineitemCols,
    pub ord: OrdersCols,
    pub prt: PartCols,
    /// `(l_orderkey, l_linenumber)` → lineitem row.
    pub li_by_key: HashIndex<(i64, i64)>,
    /// `l_orderkey` → contiguous lineitem row range.
    pub li_by_orderkey: ContiguousIndex<i64>,
    /// `l_partkey` → lineitem rows.
    pub li_by_partkey: MultiIndex<i64>,
    /// `o_orderkey` → orders row.
    pub ord_by_key: HashIndex<i64>,
    /// All order keys (parameter sampling).
    pub order_keys: Vec<i64>,
    /// `(orderkey, linenumber)` of every lineitem row (parameter
    /// sampling).
    pub lineitem_keys: Vec<(i64, i64)>,
    /// Number of parts (part keys are dense `1..=n_parts`).
    pub n_parts: i64,
    pub rf_dict: Arc<Dictionary>,
    pub ls_dict: Arc<Dictionary>,
    pub prio_dict: Arc<Dictionary>,
    pub status_dict: Arc<Dictionary>,
    pub brand_dict: Arc<Dictionary>,
    pub container_dict: Arc<Dictionary>,
}

impl std::fmt::Debug for TpchDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TpchDb")
            .field("lineitem_rows", &self.db.rows(self.lineitem))
            .field("orders_rows", &self.db.rows(self.orders))
            .field("part_rows", &self.db.rows(self.part))
            .finish()
    }
}

/// The 5 order priorities.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

fn brands() -> Vec<String> {
    let mut v = Vec::with_capacity(25);
    for m in 1..=5 {
        for n in 1..=5 {
            v.push(format!("Brand#{m}{n}"));
        }
    }
    v
}

fn containers() -> Vec<String> {
    let sizes = ["SM", "LG", "MED", "JUMBO", "WRAP"];
    let types = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
    let mut v = Vec::with_capacity(40);
    for s in sizes {
        for t in types {
            v.push(format!("{s} {t}"));
        }
    }
    v
}

/// TPC-H retail price formula (scaled to dollars).
fn retail_price(partkey: i64) -> f64 {
    (90_000.0 + ((partkey % 20_001) as f64) / 10.0 + 100.0 * ((partkey % 1_000) as f64)) / 100.0
}

/// Generate and load a TPC-H database under the given database
/// configuration.
pub fn generate(db_config: DbConfig, cfg: &TpchConfig) -> TpchDb {
    let sf = cfg.scale_factor;
    assert!(sf > 0.0, "scale factor must be positive");
    let n_orders = ((150_000.0 * sf) as usize).max(16);
    let n_parts = ((200_000.0 * sf) as usize).max(64) as i64;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // ---------------- dictionaries ----------------
    let rf_dict = Arc::new(Dictionary::with_values(["A", "N", "R"]));
    let ls_dict = Arc::new(Dictionary::with_values(["F", "O"]));
    let prio_dict = Arc::new(Dictionary::with_values(PRIORITIES));
    let status_dict = Arc::new(Dictionary::with_values(["F", "O", "P"]));
    let brand_dict = Arc::new(Dictionary::with_values(brands()));
    let container_dict = Arc::new(Dictionary::with_values(containers()));

    // ---------------- ORDERS ----------------
    let mut o_orderkey = Vec::with_capacity(n_orders);
    let mut o_orderdate = Vec::with_capacity(n_orders);
    let mut o_priority = Vec::with_capacity(n_orders);
    let mut o_status = Vec::with_capacity(n_orders);
    let mut o_totalprice = Vec::with_capacity(n_orders);
    for i in 0..n_orders {
        // Sparse keys: the first 8 keys of every 32-key block, like dbgen.
        let key = ((i as i64) / 8) * 32 + (i as i64) % 8 + 1;
        o_orderkey.push(key);
        // Orders arrive roughly chronologically: the date advances with the
        // key, jittered by ±45 days. Key ranges and date ranges stay the
        // same as before; the correlation is what gives date predicates
        // their zone-map pruning on clustered storage (every real OLTP
        // system appends in arrival order).
        let base = (i as i64 * LAST_ORDER_DATE as i64 / n_orders.max(1) as i64) as i32;
        let jitter = rng.random_range(-45..=45);
        o_orderdate.push((base + jitter).clamp(0, LAST_ORDER_DATE));
        o_priority.push(rng.random_range(0..PRIORITIES.len() as u32));
        o_status.push(rng.random_range(0..3u32));
        o_totalprice.push(rng.random_range(1_000.0..500_000.0f64));
    }

    // ---------------- LINEITEM ----------------
    let mut l_orderkey: Vec<i64> = Vec::new();
    let mut l_linenumber: Vec<i64> = Vec::new();
    let mut l_partkey: Vec<i64> = Vec::new();
    let mut l_quantity: Vec<f64> = Vec::new();
    let mut l_extprice: Vec<f64> = Vec::new();
    let mut l_discount: Vec<f64> = Vec::new();
    let mut l_tax: Vec<f64> = Vec::new();
    let mut l_rf: Vec<u32> = Vec::new();
    let mut l_ls: Vec<u32> = Vec::new();
    let mut l_ship: Vec<i32> = Vec::new();
    let mut l_commit: Vec<i32> = Vec::new();
    let mut l_receipt: Vec<i32> = Vec::new();
    for (i, &okey) in o_orderkey.iter().enumerate() {
        let lines = rng.random_range(1..=7);
        let odate = o_orderdate[i];
        for line in 1..=lines {
            let partkey = rng.random_range(1..=n_parts);
            let qty = rng.random_range(1..=50) as f64;
            let ship = odate + rng.random_range(1..=121);
            let commit = odate + rng.random_range(30..=90);
            let receipt = ship + rng.random_range(1..=30);
            l_orderkey.push(okey);
            l_linenumber.push(line);
            l_partkey.push(partkey);
            l_quantity.push(qty);
            l_extprice.push(qty * retail_price(partkey));
            l_discount.push(rng.random_range(0..=10) as f64 / 100.0);
            l_tax.push(rng.random_range(0..=8) as f64 / 100.0);
            // Return-flag codes: A=0, N=1, R=2. Early receipts are returned
            // (A or R, uniform); later ones are N — like dbgen.
            l_rf.push(if receipt <= CUTOFF_1995_06_17 {
                if rng.random_range(0..2) == 0 {
                    0
                } else {
                    2
                }
            } else {
                1
            });
            l_ls.push(if ship > CUTOFF_1995_06_17 { 1 } else { 0 }); // O : F
            l_ship.push(ship);
            l_commit.push(commit);
            l_receipt.push(receipt);
        }
    }

    let n_lineitem = l_orderkey.len();

    // ---------------- PART ----------------
    let mut p_brand = Vec::with_capacity(n_parts as usize);
    let mut p_container = Vec::with_capacity(n_parts as usize);
    for _ in 0..n_parts {
        p_brand.push(rng.random_range(0..25u32));
        p_container.push(rng.random_range(0..40u32));
    }

    // ---------------- load into AnKerDB ----------------
    let db = AnkerDb::new(db_config);
    let lineitem = db
        .create_table(
            "lineitem",
            Schema::new(vec![
                ColumnDef::new("l_orderkey", LogicalType::Int),
                ColumnDef::new("l_linenumber", LogicalType::Int),
                ColumnDef::new("l_partkey", LogicalType::Int),
                ColumnDef::new("l_quantity", LogicalType::Double),
                ColumnDef::new("l_extendedprice", LogicalType::Double),
                ColumnDef::new("l_discount", LogicalType::Double),
                ColumnDef::new("l_tax", LogicalType::Double),
                ColumnDef::dict("l_returnflag", Arc::clone(&rf_dict)),
                ColumnDef::dict("l_linestatus", Arc::clone(&ls_dict)),
                ColumnDef::new("l_shipdate", LogicalType::Date),
                ColumnDef::new("l_commitdate", LogicalType::Date),
                ColumnDef::new("l_receiptdate", LogicalType::Date),
            ]),
            n_lineitem as u32,
        )
        .expect("TPC-H table allocation failed");
    let orders = db
        .create_table(
            "orders",
            Schema::new(vec![
                ColumnDef::new("o_orderkey", LogicalType::Int),
                ColumnDef::new("o_orderdate", LogicalType::Date),
                ColumnDef::dict("o_orderpriority", Arc::clone(&prio_dict)),
                ColumnDef::dict("o_orderstatus", Arc::clone(&status_dict)),
                ColumnDef::new("o_totalprice", LogicalType::Double),
            ]),
            n_orders as u32,
        )
        .expect("TPC-H table allocation failed");
    let part = db
        .create_table(
            "part",
            Schema::new(vec![
                ColumnDef::new("p_partkey", LogicalType::Int),
                ColumnDef::dict("p_brand", Arc::clone(&brand_dict)),
                ColumnDef::dict("p_container", Arc::clone(&container_dict)),
                ColumnDef::new("p_retailprice", LogicalType::Double),
            ]),
            n_parts as u32,
        )
        .expect("TPC-H table allocation failed");

    let ls = db.schema(lineitem);
    let li = LineitemCols {
        orderkey: ls.col("l_orderkey"),
        linenumber: ls.col("l_linenumber"),
        partkey: ls.col("l_partkey"),
        quantity: ls.col("l_quantity"),
        extendedprice: ls.col("l_extendedprice"),
        discount: ls.col("l_discount"),
        tax: ls.col("l_tax"),
        returnflag: ls.col("l_returnflag"),
        linestatus: ls.col("l_linestatus"),
        shipdate: ls.col("l_shipdate"),
        commitdate: ls.col("l_commitdate"),
        receiptdate: ls.col("l_receiptdate"),
    };
    let os = db.schema(orders);
    let ord = OrdersCols {
        orderkey: os.col("o_orderkey"),
        orderdate: os.col("o_orderdate"),
        orderpriority: os.col("o_orderpriority"),
        orderstatus: os.col("o_orderstatus"),
        totalprice: os.col("o_totalprice"),
    };
    let ps = db.schema(part);
    let prt = PartCols {
        partkey: ps.col("p_partkey"),
        brand: ps.col("p_brand"),
        container: ps.col("p_container"),
        retailprice: ps.col("p_retailprice"),
    };

    let fill_i = |t, c, v: &Vec<i64>| {
        db.fill_column(t, c, v.iter().map(|&x| Value::Int(x).encode()))
            .unwrap();
    };
    let fill_f = |t, c, v: &Vec<f64>| {
        db.fill_column(t, c, v.iter().map(|&x| Value::Double(x).encode()))
            .unwrap();
    };
    let fill_d = |t, c, v: &Vec<i32>| {
        db.fill_column(t, c, v.iter().map(|&x| Value::Date(x).encode()))
            .unwrap();
    };
    let fill_u = |t, c, v: &Vec<u32>| {
        db.fill_column(t, c, v.iter().map(|&x| Value::Dict(x).encode()))
            .unwrap();
    };

    fill_i(lineitem, li.orderkey, &l_orderkey);
    fill_i(lineitem, li.linenumber, &l_linenumber);
    fill_i(lineitem, li.partkey, &l_partkey);
    fill_f(lineitem, li.quantity, &l_quantity);
    fill_f(lineitem, li.extendedprice, &l_extprice);
    fill_f(lineitem, li.discount, &l_discount);
    fill_f(lineitem, li.tax, &l_tax);
    fill_u(lineitem, li.returnflag, &l_rf);
    fill_u(lineitem, li.linestatus, &l_ls);
    fill_d(lineitem, li.shipdate, &l_ship);
    fill_d(lineitem, li.commitdate, &l_commit);
    fill_d(lineitem, li.receiptdate, &l_receipt);

    fill_i(orders, ord.orderkey, &o_orderkey);
    fill_d(orders, ord.orderdate, &o_orderdate);
    fill_u(orders, ord.orderpriority, &o_priority);
    fill_u(orders, ord.orderstatus, &o_status);
    fill_f(orders, ord.totalprice, &o_totalprice);

    fill_i(part, prt.partkey, &(1..=n_parts).collect::<Vec<_>>());
    fill_u(part, prt.brand, &p_brand);
    fill_u(part, prt.container, &p_container);
    fill_f(
        part,
        prt.retailprice,
        &(1..=n_parts).map(retail_price).collect::<Vec<_>>(),
    );

    // ---------------- indexes ----------------
    let li_by_key = HashIndex::new();
    let mut lineitem_keys = Vec::with_capacity(n_lineitem);
    for row in 0..n_lineitem {
        let key = (l_orderkey[row], l_linenumber[row]);
        li_by_key.insert(key, row as u32);
        lineitem_keys.push(key);
    }
    let li_by_orderkey = ContiguousIndex::from_grouped_keys(l_orderkey.iter().copied());
    let li_by_partkey =
        MultiIndex::from_pairs(l_partkey.iter().enumerate().map(|(r, &k)| (k, r as u32)));
    let ord_by_key = HashIndex::new();
    for (row, &k) in o_orderkey.iter().enumerate() {
        ord_by_key.insert(k, row as u32);
    }

    TpchDb {
        db,
        lineitem,
        orders,
        part,
        li,
        ord,
        prt,
        li_by_key,
        li_by_orderkey,
        li_by_partkey,
        ord_by_key,
        order_keys: o_orderkey,
        lineitem_keys,
        n_parts,
        rf_dict,
        ls_dict,
        prio_dict,
        status_dict,
        brand_dict,
        container_dict,
    }
}

/// Convenience: generate with [`TpchConfig::default`] scale.
pub fn generate_default(db_config: DbConfig) -> TpchDb {
    generate(db_config, &TpchConfig::default())
}

/// Days-since-epoch for a calendar date (re-exported convenience).
pub fn days(y: i32, m: u32, d: u32) -> i32 {
    date::to_days(y, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchDb {
        generate(
            DbConfig::heterogeneous_serializable().with_gc_interval(None),
            &TpchConfig {
                scale_factor: 0.002,
                seed: 7,
            },
        )
    }

    #[test]
    fn sizes_scale() {
        let t = tiny();
        let orders = t.db.rows(t.orders) as f64;
        let lineitem = t.db.rows(t.lineitem) as f64;
        assert!(orders >= 16.0);
        let per_order = lineitem / orders;
        assert!((2.0..6.0).contains(&per_order), "lines/order = {per_order}");
        assert_eq!(t.db.rows(t.part) as i64, t.n_parts);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.order_keys, b.order_keys);
        assert_eq!(a.lineitem_keys, b.lineitem_keys);
    }

    #[test]
    fn keys_and_indexes_agree() {
        let t = tiny();
        for (row, key) in t.lineitem_keys.iter().enumerate() {
            assert_eq!(t.li_by_key.get(key), Some(row as u32));
        }
        // Sparse order keys: 8 per 32-block.
        assert_eq!(t.order_keys[0], 1);
        assert_eq!(t.order_keys[8], 33);
        // Contiguous lineitem ranges match the key arrays.
        let (start, count) = t.li_by_orderkey.get(&t.order_keys[3]).unwrap();
        for r in start..start + count {
            assert_eq!(t.lineitem_keys[r as usize].0, t.order_keys[3]);
        }
    }

    #[test]
    fn date_relationships_hold() {
        let t = tiny();
        let mut txn = t.db.begin(anker_core::TxnKind::Olap);
        let rows = t.db.rows(t.lineitem);
        for row in (0..rows).step_by(17) {
            let ship = txn
                .get_value(t.lineitem, t.li.shipdate, row)
                .unwrap()
                .as_date();
            let receipt = txn
                .get_value(t.lineitem, t.li.receiptdate, row)
                .unwrap()
                .as_date();
            assert!(receipt > ship, "receipt after ship");
            let rf = txn
                .get_value(t.lineitem, t.li.returnflag, row)
                .unwrap()
                .as_dict();
            if receipt <= CUTOFF_1995_06_17 {
                assert!(rf == 0 || rf == 2, "early receipts are A or R");
            } else {
                assert_eq!(rf, 1, "late receipts are N");
            }
        }
        txn.commit().unwrap();
    }

    #[test]
    fn dictionaries_cover_domains() {
        let t = tiny();
        assert_eq!(t.brand_dict.len(), 25);
        assert_eq!(t.container_dict.len(), 40);
        assert_eq!(t.prio_dict.len(), 5);
        assert_eq!(&*t.rf_dict.value(2), "R");
    }
}
