//! Reusable drivers for the paper's snapshotting micro-benchmarks
//! (Table 1 and Figure 5). The `repro` binary in `anker-bench` and the
//! ledger's probes (`benchmark/`) call into these, and the unit tests run
//! them at small scale to validate the experimental shapes.

use crate::{
    ForkSnapshotter, PhysicalSnapshotter, RewiredSnapshotter, SnapshotId, Snapshotter,
    VmSnapshotter,
};
use anker_vmem::Result;
use std::time::Instant;

/// Configuration of the Table 1 experiment (§3.3.2).
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Number of columns in the table (paper: 50).
    pub n_cols: usize,
    /// Pages per column (paper: 51 200 = 200 MB of 4 KiB pages).
    pub pages_per_col: u64,
    /// Numbers of columns to snapshot (paper: 1, 25, 50).
    pub col_counts: Vec<usize>,
    /// Modified-page counts for the rewiring rows (paper: 0, 500, 5 000,
    /// 50 000).
    pub modified_pages: Vec<u64>,
}

impl Default for Table1Config {
    fn default() -> Self {
        // Scaled-down defaults (16 MB columns): same shape, laptop runtime.
        Table1Config {
            n_cols: 50,
            pages_per_col: 4096,
            col_counts: vec![1, 25, 50],
            modified_pages: vec![0, 40, 400, 4000],
        }
    }
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Technique name.
    pub method: &'static str,
    /// Pages modified per column before the snapshot (rewiring rows only).
    pub modified_per_col: Option<u64>,
    /// VMAs per column at snapshot time.
    pub vmas_per_col: usize,
    /// Snapshot creation time in **virtual** milliseconds, one entry per
    /// `col_counts` value.
    pub virtual_ms: Vec<f64>,
    /// Snapshot creation wall time in milliseconds (simulator structural
    /// work; secondary metric).
    pub wall_ms: Vec<f64>,
}

fn populate(s: &mut dyn Snapshotter) -> Result<()> {
    for col in 0..s.n_cols() {
        for page in 0..s.pages_per_col() {
            s.write_base(col, page, 0, page)?;
        }
    }
    Ok(())
}

fn measure_snapshots(
    s: &mut dyn Snapshotter,
    col_counts: &[usize],
) -> Result<(Vec<f64>, Vec<f64>)> {
    let mut virtual_ms = Vec::with_capacity(col_counts.len());
    let mut wall_ms = Vec::with_capacity(col_counts.len());
    for &p in col_counts {
        let v0 = s.kernel().virtual_ns();
        let w0 = Instant::now();
        let id = s.snapshot_columns(p)?;
        virtual_ms.push((s.kernel().virtual_ns() - v0) as f64 / 1e6);
        wall_ms.push(w0.elapsed().as_secs_f64() * 1e3);
        s.drop_snapshot(id)?;
    }
    Ok((virtual_ms, wall_ms))
}

/// Run the Table 1 experiment: snapshot creation cost for physical,
/// fork-based, and rewired snapshotting (the paper's state of the art).
pub fn table1_run(cfg: &Table1Config) -> Result<Vec<Table1Row>> {
    let mut rows = Vec::new();

    // Physical.
    {
        let mut s = PhysicalSnapshotter::new(cfg.n_cols, cfg.pages_per_col)?;
        populate(&mut s)?;
        let (virtual_ms, wall_ms) = measure_snapshots(&mut s, &cfg.col_counts)?;
        rows.push(Table1Row {
            method: "Physical",
            modified_per_col: None,
            vmas_per_col: s.base_vma_count(0),
            virtual_ms,
            wall_ms,
        });
    }

    // Fork-based.
    {
        let mut s = ForkSnapshotter::new(cfg.n_cols, cfg.pages_per_col)?;
        populate(&mut s)?;
        let (virtual_ms, wall_ms) = measure_snapshots(&mut s, &cfg.col_counts)?;
        rows.push(Table1Row {
            method: "Fork-based",
            modified_per_col: None,
            vmas_per_col: s.base_vma_count(0),
            virtual_ms,
            wall_ms,
        });
    }

    // Rewiring, one row per modified-page count.
    for &modified in &cfg.modified_pages {
        let mut s = RewiredSnapshotter::new(cfg.n_cols, cfg.pages_per_col)?;
        populate(&mut s)?;
        if modified > 0 {
            // Arm copy-on-write, then fragment every column by writing the
            // first 8 bytes of the first `modified` pages.
            let arm = s.snapshot_columns(cfg.n_cols)?;
            for col in 0..cfg.n_cols {
                for page in 0..modified.min(cfg.pages_per_col) {
                    s.write_base(col, page, 0, page + 1)?;
                }
            }
            s.drop_snapshot(arm)?;
        }
        let vmas = s.base_vma_count(0);
        let (virtual_ms, wall_ms) = measure_snapshots(&mut s, &cfg.col_counts)?;
        rows.push(Table1Row {
            method: "Rewiring",
            modified_per_col: Some(modified),
            vmas_per_col: vmas,
            virtual_ms,
            wall_ms,
        });
    }
    Ok(rows)
}

/// Configuration of the Figure 5 experiment (§4.1.4).
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Pages in the single column (paper: 51 200).
    pub pages: u64,
    /// Record a data point every this many writes (keeps output readable).
    pub record_every: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            pages: 2048,
            record_every: 64,
        }
    }
}

/// One recorded point of the Figure 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Total pages written so far.
    pub pages_written: u64,
    /// Figure 5a: snapshot creation time (virtual ns).
    pub rewiring_snapshot_ns: u64,
    pub vmsnap_snapshot_ns: u64,
    /// Figure 5b: cost of the 8-byte write preceding the snapshot
    /// (virtual ns).
    pub rewiring_write_ns: u64,
    pub vmsnap_write_ns: u64,
    /// VMAs backing the rewired column (right y-axis of both figures).
    pub rewiring_vmas: usize,
}

/// Run the Figure 5 experiment: for each page, write 8 bytes into it, then
/// take a fresh snapshot of the whole column (dropping the previous one);
/// report write cost, snapshot cost, and VMA growth for rewiring vs
/// `vm_snapshot`.
pub fn fig5_run(cfg: &Fig5Config) -> Result<Vec<Fig5Point>> {
    let mut rew = RewiredSnapshotter::new(1, cfg.pages)?;
    let mut vms = VmSnapshotter::new(1, cfg.pages)?;
    populate(&mut rew)?;
    populate(&mut vms)?;
    let mut rew_snap: Option<SnapshotId> = Some(rew.snapshot_columns(1)?);
    let mut vms_snap: Option<SnapshotId> = Some(vms.snapshot_columns(1)?);

    let mut points = Vec::new();
    for page in 0..cfg.pages {
        // -------- writes (Fig 5b) --------
        let t0 = rew.kernel().virtual_ns();
        rew.write_base(0, page, 0, page + 7)?;
        let rewiring_write_ns = rew.kernel().virtual_ns() - t0;

        let t0 = vms.kernel().virtual_ns();
        vms.write_base(0, page, 0, page + 7)?;
        let vmsnap_write_ns = vms.kernel().virtual_ns() - t0;

        // -------- snapshots (Fig 5a) --------
        let t0 = rew.kernel().virtual_ns();
        let new_rew = rew.snapshot_columns(1)?;
        let rewiring_snapshot_ns = rew.kernel().virtual_ns() - t0;
        if let Some(old) = rew_snap.replace(new_rew) {
            rew.drop_snapshot(old)?;
        }

        let t0 = vms.kernel().virtual_ns();
        let new_vms = vms.snapshot_columns(1)?;
        let vmsnap_snapshot_ns = vms.kernel().virtual_ns() - t0;
        if let Some(old) = vms_snap.replace(new_vms) {
            vms.drop_snapshot(old)?;
        }

        let written = page + 1;
        if written % cfg.record_every == 0 || written == cfg.pages {
            points.push(Fig5Point {
                pages_written: written,
                rewiring_snapshot_ns,
                vmsnap_snapshot_ns,
                rewiring_write_ns,
                vmsnap_write_ns,
                rewiring_vmas: rew.base_vma_count(0),
            });
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds_at_small_scale() {
        let cfg = Table1Config {
            n_cols: 8,
            pages_per_col: 64,
            col_counts: vec![1, 4, 8],
            modified_pages: vec![0, 16, 64],
        };
        let rows = table1_run(&cfg).unwrap();
        assert_eq!(rows.len(), 2 + 3);
        let by_name = |m: &str, modified: Option<u64>| {
            rows.iter()
                .find(|r| r.method == m && r.modified_per_col == modified)
                .unwrap()
        };
        let physical = by_name("Physical", None);
        let fork = by_name("Fork-based", None);
        let rew0 = by_name("Rewiring", Some(0));
        let rew_full = by_name("Rewiring", Some(64));

        // Physical scales with column count.
        assert!(physical.virtual_ms[2] > physical.virtual_ms[0] * 4.0);
        // Fork is independent of p.
        let f_ratio = fork.virtual_ms[2] / fork.virtual_ms[0];
        assert!((0.5..2.0).contains(&f_ratio), "fork ratio {f_ratio}");
        // Unfragmented rewiring beats physical and fork on a single column.
        assert!(rew0.virtual_ms[0] < physical.virtual_ms[0]);
        assert!(rew0.virtual_ms[0] < fork.virtual_ms[0]);
        // Fully fragmented rewiring is far worse than unfragmented.
        assert!(rew_full.virtual_ms[0] > rew0.virtual_ms[0] * 10.0);
        assert!(rew_full.vmas_per_col >= 64);
    }

    #[test]
    fn fig5_crossover_and_write_costs() {
        let cfg = Fig5Config {
            pages: 256,
            record_every: 16,
        };
        let points = fig5_run(&cfg).unwrap();
        assert_eq!(points.len(), 16);
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        // Rewiring snapshot cost grows with VMAs; vm_snapshot stays flat.
        assert!(last.rewiring_snapshot_ns > first.rewiring_snapshot_ns * 4);
        let vm_growth = last.vmsnap_snapshot_ns as f64 / first.vmsnap_snapshot_ns as f64;
        assert!(vm_growth < 2.0, "vm_snapshot should stay flat: {vm_growth}");
        // At the end, vm_snapshot wins clearly (paper: 68x at full scale).
        assert!(last.vmsnap_snapshot_ns * 4 < last.rewiring_snapshot_ns);
        // Fig 5b: manual COW write is several times the kernel COW write.
        assert!(last.rewiring_write_ns > last.vmsnap_write_ns * 3);
        // VMA count grows to ~1 VMA per written page once all are rewired.
        assert!(last.rewiring_vmas >= 256);
    }
}
