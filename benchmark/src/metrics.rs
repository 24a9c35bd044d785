//! The metric catalogue: every name the harness emits, with its unit and
//! direction. `BENCHMARK.json` at the repo root carries the same names
//! (plus the regression bounds); a test keeps the two in step.
//!
//! Later issues cite these names — renaming one breaks every comparison
//! against an earlier record.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or virtual-clock value that must repeat bit for bit;
    /// `compare` checks these for equality instead of against a bound.
    pub exact: bool,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

pub const WORKLOADS: [&str; 5] = [
    "htap_hetero",
    "htap_homog",
    "oltp_fsync",
    "olap_frozen",
    "olap_fanout",
];

/// What a user of the embedded database sees. Every workload reports
/// every one of these from its untraced pass (README.md says which
/// phase of each workload feeds which metric).
pub const END_TO_END: &[Def] = &[
    lo("setup_s", "s"),
    hi("oltp_tps", "1/s"),
    lo("oltp_commit_p50_us", "us"),
    hi("olap_qps", "1/s"),
    lo("olap_cycle_p50_ms", "ms"),
    hi("scan_mrows_s", "Mrows/s"),
    lo("mem_peak_mb", "MB"),
];

/// One layer each (layer = crate or `core` module), from the traced
/// pass: counts and spans of the workload window, then the layer probes.
pub const PER_LAYER: &[Def] = &[
    // vmem: the OS backend timed directly, on one LINEITEM column's worth of pages.
    lo("vmem.os.snapshot_ns_per_page", "ns"),
    lo("vmem.os.cow_split_ns", "ns"),
    lo("vmem.os.write_warm_ns", "ns"),
    lo("vmem.os.release_ns_per_page", "ns"),
    hi("vmem.os.read_words_gbps", "GB/s"),
    lo("vmem.os.mappings", "count"),
    lo("vmem.os.cow_copies_per_kcommit", "count"),
    lo("vmem.os.pages_rewired_per_epoch", "count"),
    exact("vmem.sim.snapshot_virtual_ns_per_page", "ns"),
    exact("vmem.sim.cow_fault_virtual_ns", "ns"),
    // snapshot: the paper's Table 1 on the simulator's virtual clock.
    exact("snapshot.physical.create_virtual_us", "us"),
    exact("snapshot.fork.create_virtual_us", "us"),
    exact("snapshot.rewired.create_virtual_us", "us"),
    exact("snapshot.vmsnap.create_virtual_us", "us"),
    // storage
    lo("storage.area_get_ns", "ns"),
    lo("storage.area_set_ns", "ns"),
    lo("storage.index_probe_ns", "ns"),
    lo("storage.read_block_ns_per_row", "ns"),
    lo("storage.zone_map_build_ns_per_row", "ns"),
    // mvcc
    lo("mvcc.ts_pair_ns", "ns"),
    lo("mvcc.validate_ns", "ns"),
    lo("mvcc.install_ns", "ns"),
    lo("mvcc.read_unversioned_ns", "ns"),
    lo("mvcc.read_chain4_ns", "ns"),
    lo("mvcc.scan_visible_ns_per_row.v0", "ns"),
    lo("mvcc.scan_visible_ns_per_row.v5", "ns"),
    lo("mvcc.gc_ns_per_version", "ns"),
    lo("mvcc.abort_share", "share"),
    lo("mvcc.chain_walks_per_query", "count"),
    lo("mvcc.versions_live_end", "count"),
    // dura
    lo("dura.encode_ns", "ns"),
    lo("dura.append_ns", "ns"),
    lo("dura.sync_us", "us"),
    hi("dura.checkpoint_mb_s", "MB/s"),
    hi("dura.ckpt_load_mb_s", "MB/s"),
    lo("dura.replay_ns_per_commit", "ns"),
    hi("dura.batch_factor", "ratio"),
    lo("dura.bytes_per_commit", "B"),
    lo("dura.ckpt_commit_p99_ratio", "ratio"),
    lo("dura.recover_s", "s"),
    // core: transactions, snapshot management, scans, GC
    lo("core.txn.begin_ns", "ns"),
    lo("core.txn.commit_ns", "ns"),
    lo("core.txn.commit_p99_ns", "ns"),
    lo("core.snap.pin_us", "us"),
    lo("core.snap.pin_p95_us", "us"),
    lo("core.snap.first_touch_ms", "ms"),
    lo("core.snap.epochs_per_s", "1/s"),
    lo("core.snap.cols_materialized_per_epoch", "count"),
    lo("core.scan.count_ns_per_row.sel0.1", "ns"),
    lo("core.scan.count_ns_per_row.sel10", "ns"),
    lo("core.scan.count_ns_per_row.sel50", "ns"),
    lo("core.scan.fold_ns_per_row", "ns"),
    lo("core.scan.dict_eq_ns_per_row", "ns"),
    lo("core.scan.project_ns_per_row", "ns"),
    hi("core.scan.blocks_skipped_share", "share"),
    lo("core.scan.versioned_ns_per_row", "ns"),
    hi("core.scan.par2_speedup", "ratio"),
    lo("core.gc.pass_ms", "ms"),
    // obs
    lo("obs.counter_inc_ns", "ns"),
    lo("obs.span_ns", "ns"),
    lo("obs.metrics_snapshot_us", "us"),
    // tpch
    lo("tpch.q1_p50_ms", "ms"),
    lo("tpch.q4_p50_ms", "ms"),
    lo("tpch.q6_p50_ms", "ms"),
    lo("tpch.q17_p50_ms", "ms"),
    lo("tpch.scan_lineitem_p50_ms", "ms"),
    lo("tpch.scan_orders_p50_ms", "ms"),
    lo("tpch.scan_part_p50_ms", "ms"),
    lo("tpch.oltp_body_ns", "ns"),
    hi("tpch.gen_mrows_s", "Mrows/s"),
    // the harness itself
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.unattributed_share", "share"),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values of one pass, in catalogue order. `set` panics on a
/// name missing from the catalogue so a typo cannot emit a metric the
/// contract does not list.
pub struct Values {
    defs: &'static [Def],
    vals: Vec<Option<f64>>,
}

impl Values {
    pub fn new(defs: &'static [Def]) -> Values {
        Values {
            defs,
            vals: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, v: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        self.vals[i] = Some(v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.defs.iter().position(|d| d.name == name)?;
        self.vals[i]
    }

    /// `(def, value)` for every metric of the pass; a metric nothing set
    /// (its layer does no work on this workload) reads 0.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.vals)
            .map(|(d, v)| (d, v.unwrap_or(0.0)))
    }

    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.vals)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what
    /// the harness emits. They must list the same names, units and
    /// directions in the same order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let want = |defs: &[Def]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = if d.better == Better::Higher {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), want(END_TO_END));
        assert_eq!(names("per_layer"), want(PER_LAYER));
        for m in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = m.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                assert!(w.get("why").unwrap().as_str().unwrap().len() <= 200);
                w.get("name").unwrap().as_str().unwrap()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
