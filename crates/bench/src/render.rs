//! One `render_*` function per paper artifact: run the experiment at the
//! given scale, print the paper-style table (banner line first) and write
//! `results/<id>.csv`. `repro <id>` calls one of them; `repro all` calls
//! all seven in [`ARTIFACTS`] order.

use crate::args::{host_cpus, write_results_file, RunScale};
use crate::experiments::{fig10_run, fig11_run, fig7_run, fig8_run, fig9_run};
use anker_snapshot::{fig5_run, table1_run, Fig5Config, Table1Config};
use anker_util::TableBuilder;

/// Every paper artifact: its `repro` subcommand and its renderer.
pub const ARTIFACTS: [(&str, fn(&RunScale)); 7] = [
    ("table1", render_table1),
    ("fig5", render_fig5),
    ("fig7", render_fig7),
    ("fig8", render_fig8),
    ("fig9", render_fig9),
    ("fig10", render_fig10),
    ("fig11", render_fig11),
];

/// **Table 1**: snapshot creation cost of the state-of-the-art techniques
/// (physical, fork-based, rewired) for 1/25/50 of 50 columns, with 0 … many
/// pages modified per column (paper §3.3.2). Virtual clock: deterministic.
pub fn render_table1(scale: &RunScale) {
    let cfg = Table1Config {
        n_cols: scale.n_cols,
        pages_per_col: scale.pages_per_col,
        col_counts: vec![1, scale.n_cols / 2, scale.n_cols],
        modified_pages: vec![
            0,
            scale.pages_per_col / 100,
            scale.pages_per_col / 10,
            scale.pages_per_col,
        ],
    };
    println!(
        "Table 1 — snapshot creation (virtual time). {} columns x {} pages ({} per column)\n",
        cfg.n_cols,
        cfg.pages_per_col,
        anker_util::stats::fmt_bytes(cfg.pages_per_col * 4096),
    );
    let rows = table1_run(&cfg).expect("table 1 experiment failed");
    let headers: Vec<String> = ["Method", "Pages Modified/Col", "VMAs/Col"]
        .into_iter()
        .map(String::from)
        .chain(cfg.col_counts.iter().map(|c| format!("{c} Col [ms]")))
        .collect();
    let mut table = TableBuilder::new("").header(headers);
    for r in &rows {
        let mut cells = vec![
            r.method.to_string(),
            r.modified_per_col
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".into()),
            r.vmas_per_col.to_string(),
        ];
        cells.extend(r.virtual_ms.iter().map(|ms| format!("{ms:.2}")));
        table.row(cells);
    }
    println!("{}", table.render());
    write_results_file("table1.csv", &table.render_csv());
}

/// **Figure 5**: snapshot creation time (5a) and 8-byte write cost (5b)
/// for rewiring vs `vm_snapshot`, as one page after another is written and
/// re-snapshotted (paper §4.1.4). Virtual clock: deterministic.
pub fn render_fig5(scale: &RunScale) {
    let cfg = Fig5Config {
        pages: scale.pages_per_col,
        record_every: (scale.pages_per_col / 32).max(1),
    };
    println!(
        "Figure 5 — rewiring vs vm_snapshot over {} pages (snapshot after every write)\n",
        cfg.pages
    );
    let points = fig5_run(&cfg).expect("figure 5 experiment failed");
    let mut table = TableBuilder::new("").header([
        "Pages written",
        "VMAs (rewiring)",
        "5a rewiring snap [ms]",
        "5a vm_snapshot snap [ms]",
        "5b rewiring write [us]",
        "5b vm_snapshot write [us]",
    ]);
    for p in &points {
        table.row([
            p.pages_written.to_string(),
            p.rewiring_vmas.to_string(),
            format!("{:.3}", p.rewiring_snapshot_ns as f64 / 1e6),
            format!("{:.3}", p.vmsnap_snapshot_ns as f64 / 1e6),
            format!("{:.2}", p.rewiring_write_ns as f64 / 1e3),
            format!("{:.2}", p.vmsnap_write_ns as f64 / 1e3),
        ]);
    }
    println!("{}", table.render());
    let last = points.last().expect("at least one point");
    println!(
        "final speedup of vm_snapshot over rewiring: {:.1}x (paper: 68x at 51,200 pages)",
        last.rewiring_snapshot_ns as f64 / last.vmsnap_snapshot_ns as f64
    );
    write_results_file("fig5.csv", &table.render_csv());
}

/// **Figure 7**: latency of the 7 OLAP transactions while OLTP
/// transactions pressure the remaining threads, under the three
/// configurations, normalized to heterogeneous processing (paper §5.3).
pub fn render_fig7(scale: &RunScale) {
    println!(
        "Figure 7 — OLAP latency under load (sf={}, {} threads)\n",
        scale.sf, scale.threads
    );
    let rows = fig7_run(scale, 5);
    let mut table = TableBuilder::new("").header([
        "OLAP transaction",
        "Homo/Ser [ms]",
        "Homo/SI [ms]",
        "Hetero [ms]",
        "Homo/Ser (norm)",
        "Homo/SI (norm)",
        "Hetero blocks skipped",
        "Hetero rows filtered",
        "Hetero vector/dense blocks",
    ]);
    for r in &rows {
        let (ns, si, _) = r.normalized();
        table.row([
            r.query.to_string(),
            format!("{:.2}", r.homo_ser_ms),
            format!("{:.2}", r.homo_si_ms),
            format!("{:.2}", r.hetero_ms),
            format!("{ns:.2}x"),
            format!("{si:.2}x"),
            r.hetero_stats.blocks_skipped.to_string(),
            r.hetero_stats.rows_filtered.to_string(),
            format!(
                "{}/{}",
                r.hetero_stats.vector_blocks, r.hetero_stats.dense_blocks
            ),
        ]);
    }
    println!("{}", table.render());
    println!("(paper: homogeneous is 2x-4x slower than heterogeneous across all 7;");
    println!(" blocks skipped = whole 1024-row blocks pruned by zone maps before reading;");
    println!(" vector/dense = blocks predicate-evaluated by the kernels vs proved all-match");
    println!(" by zone maps and never index-materialized)");
    write_results_file("fig7.csv", &table.render_csv());
}

/// **Figure 8**: end-to-end transaction throughput for a pure OLTP batch
/// and a mixed batch with 10 OLAP transactions, under the three
/// configurations (paper §5.4).
pub fn render_fig8(scale: &RunScale) {
    println!(
        "Figure 8 — throughput, {} OLTP transactions (sf={}, {} threads)\n",
        scale.oltp_txns, scale.sf, scale.threads
    );
    let rows = fig8_run(scale);
    let mut table = TableBuilder::new("").header([
        "Configuration",
        "OLTP only [tps]",
        "OLTP+10 OLAP [tps]",
        "OLAP work [ms]",
        "aborts (pure/mixed)",
    ]);
    for r in &rows {
        table.row([
            r.config.to_string(),
            format!("{:.0}", r.oltp_only_tps),
            format!("{:.0}", r.mixed_tps),
            format!("{:.0}", r.olap_wall_ms),
            format!("{}/{}", r.oltp_aborts, r.mixed_aborts),
        ]);
    }
    println!("{}", table.render());
    let hetero = &rows[2];
    let homo_best = rows[0].mixed_tps.max(rows[1].mixed_tps);
    println!(
        "mixed-workload speedup of heterogeneous over best homogeneous: {:.2}x (paper: ~2x)",
        hetero.mixed_tps / homo_best
    );
    println!(
        "OLAP work for the same 10 queries: homogeneous pays {:.1}x (ser) / {:.1}x (SI) the\n\
         heterogeneous cost — the separation mechanism, isolated from scheduler noise",
        rows[0].olap_wall_ms / hetero.olap_wall_ms,
        rows[1].olap_wall_ms / hetero.olap_wall_ms,
    );
    write_results_file("fig8.csv", &table.render_csv());
}

/// **Figure 9**: runtime of a full scan as the fraction of versioned rows
/// grows from 0 % to 100 % (paper §5.5). The scanning transaction is older
/// than the updates, so every versioned row forces a chain traversal — the
/// homogeneous-processing situation.
pub fn render_fig9(scale: &RunScale) {
    println!(
        "Figure 9 — scan time vs versioned fraction (sf={})\n",
        scale.sf
    );
    let fractions: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
    let rows = fig9_run(scale, &fractions);
    let point = |name: &str, f: f64| {
        rows.iter()
            .find(|r| r.table == name && (r.fraction - f).abs() < 1e-9)
            .expect("fig9_run measures every table at every fraction")
    };
    let mut table = TableBuilder::new("").header([
        "Versioned rows",
        "LineItem [ms]",
        "Orders [ms]",
        "Part [ms]",
        "LineItem chain walks",
    ]);
    for &f in &fractions {
        table.row([
            format!("{:.0}%", f * 100.0),
            format!("{:.2}", point("LineItem", f).scan_ms),
            format!("{:.2}", point("Orders", f).scan_ms),
            format!("{:.2}", point("Part", f).scan_ms),
            point("LineItem", f).chain_walks.to_string(),
        ]);
    }
    println!("{}", table.render());
    let ratio = |name: &str| point(name, 1.0).scan_ms / point(name, 0.0).scan_ms;
    println!(
        "fully-versioned / unversioned scan: LineItem {:.1}x, Orders {:.1}x, Part {:.1}x (paper: ~5x)",
        ratio("LineItem"),
        ratio("Orders"),
        ratio("Part")
    );
    write_results_file("fig9.csv", &table.render_csv());
}

/// **Figure 10**: cost of snapshotting each column of LINEITEM, ORDERS and
/// PART individually via `vm_snapshot`, stacked per table, vs forking the
/// whole database process (paper §5.6). Virtual clock: deterministic.
pub fn render_fig10(scale: &RunScale) {
    println!(
        "Figure 10 — column snapshot cost vs fork (sf={})\n",
        scale.sf
    );
    let r = fig10_run(scale);
    let mut table = TableBuilder::new("").header(["Table / column", "vm_snapshot [ms]"]);
    for (tname, cols) in &r.tables {
        let total: f64 = cols.iter().map(|(_, ms)| ms).sum();
        table.row([
            format!("{tname} (all {} columns)", cols.len()),
            format!("{total:.3}"),
        ]);
        for (col, ms) in cols {
            table.row([format!("  {col}"), format!("{ms:.3}")]);
        }
    }
    table.row(["ALL three tables".to_string(), format!("{:.3}", r.all_ms)]);
    table.row(["fork()".to_string(), format!("{:.3}", r.fork_ms)]);
    println!("{}", table.render());
    println!(
        "fork / all-columns: {:.2}x; fork / single LINEITEM column: {:.1}x\n\
         (paper: even snapshotting all columns of all three tables beats fork)",
        r.fork_ms / r.all_ms,
        r.fork_ms
            / r.tables[0]
                .1
                .iter()
                .map(|(_, ms)| ms)
                .fold(f64::INFINITY, |a, &b| a.min(b)),
    );
    write_results_file("fig10.csv", &table.render_csv());
}

/// **Figure 11**: throughput scaling of heterogeneous processing (full
/// serializability) with 1–8 threads, pure OLTP and mixed (paper §5.7).
/// The host may have fewer hardware threads than 8 — the paper's point
/// (sub-linear scaling limited by the partially-sequential commit
/// validation) shows regardless.
pub fn render_fig11(scale: &RunScale) {
    let host = host_cpus();
    println!(
        "Figure 11 — scaling (sf={}, {} OLTP txns, host has {host} hardware threads)\n",
        scale.sf, scale.oltp_txns
    );
    let rows = fig11_run(scale, &[1, 2, 4, 8]);
    let base_oltp = rows[0].oltp_only_tps;
    let base_mixed = rows[0].mixed_tps;
    let mut table = TableBuilder::new("").header([
        "Threads",
        "OLTP only [tps]",
        "speedup",
        "OLTP+10 OLAP [tps]",
        "speedup",
    ]);
    for r in &rows {
        table.row([
            r.threads.to_string(),
            format!("{:.0}", r.oltp_only_tps),
            format!("{:.2}x", r.oltp_only_tps / base_oltp),
            format!("{:.0}", r.mixed_tps),
            format!("{:.2}x", r.mixed_tps / base_mixed),
        ]);
    }
    println!("{}", table.render());
    println!("(paper: 2.1x at 8 threads for OLTP, 2.6x mixed — sub-linear due to the");
    println!(" mutex-protected commit validation; same mechanism applies here)");
    write_results_file("fig11.csv", &table.render_csv());
}
