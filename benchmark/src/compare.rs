//! Run records and `compare A.json B.json`.
//!
//! A record is what `run` writes: host, commit, seed, run length, sizes,
//! and one entry per (repeat, workload) with every metric. `compare`
//! takes the median per (metric, workload) on each side and prints one
//! row per pair: `ok`, `worse` (B's median is worse than A's by more than
//! the bound `BENCHMARK.json` fixes) or `unresolved` (a side's own
//! run-to-run spread is wider than the bound, so the bound cannot
//! resolve the question). Exact metrics are compared for equality.

use crate::common::median;
use crate::json::Json;
use crate::metrics::{self, Better};
use std::collections::BTreeMap;

/// `(workload, metric) → values`, one per repeat, in record order.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

pub fn samples_of(record: &Json) -> Result<Samples, String> {
    let mut out = Samples::new();
    let runs = record
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("record has no \"runs\" array")?;
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no numeric value"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// `end_to_end` bounds of `BENCHMARK.json`, by metric name.
pub fn bounds_of(benchmark: &Json) -> Result<BTreeMap<String, f64>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Distance between the first and third quartile as a share of the
/// median — the driver's spread (Python's `statistics.quantiles(n=4)`,
/// exclusive method). Fewer than two values have no spread.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    let med = median(&mut v);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)).abs() / med.abs()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    Equal,
    Differs,
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share by which B is worse than A (negative = better).
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

pub fn compare(a: &Samples, b: &Samples, bounds: &BTreeMap<String, f64>) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), va) in a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(def) = metrics::find(metric) else {
            continue;
        };
        let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
        let worse_by = if ma == 0.0 {
            0.0
        } else {
            match def.better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            }
        };
        let spread = spread(va).max(spread(vb));
        let verdict = if def.exact {
            if va == vb {
                Verdict::Equal
            } else {
                Verdict::Differs
            }
        } else {
            match bounds.get(metric) {
                // Per-layer metrics carry no bound: listed, never judged.
                None => continue,
                Some(&bound) if spread > bound => Verdict::Unresolved,
                Some(&bound) if worse_by > bound => Verdict::Worse,
                Some(_) => Verdict::Ok,
            }
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            a: ma,
            b: mb,
            worse_by,
            spread,
            verdict,
        });
    }
    rows
}

/// Print the table; true when no row is `worse` or `differs`.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<12} {:<40} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread"
    );
    for r in rows {
        println!(
            "{:<12} {:<40} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
                Verdict::Equal => "equal",
                Verdict::Differs => "DIFFERS",
            }
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved, {} exact equal, {} exact differ",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Equal),
        count(Verdict::Differs)
    );
    count(Verdict::Worse) == 0 && count(Verdict::Differs) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(runs: &[(&str, &[(&str, f64)])]) -> Json {
        Json::obj(vec![(
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|(w, ms)| {
                        Json::obj(vec![
                            ("workload", Json::str(*w)),
                            (
                                "metrics",
                                Json::Obj(
                                    ms.iter()
                                        .map(|(n, v)| {
                                            (
                                                n.to_string(),
                                                Json::obj(vec![("value", Json::Num(*v))]),
                                            )
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    fn bounds() -> BTreeMap<String, f64> {
        [("oltp_tps", 0.10), ("oltp_commit_p50_us", 0.15)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
        // quantiles([10, 12], n=4) extrapolates: [9.5, 11, 12.5]
        assert!((spread(&[10.0, 12.0]) - 3.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let a = samples_of(&record(&[(
            "htap_homog",
            &[("oltp_tps", 1000.0), ("oltp_commit_p50_us", 10.0)],
        )]))
        .unwrap();
        // Throughput down 5 % (inside 10 %), p99 up 20 % (outside 15 %).
        let b = samples_of(&record(&[(
            "htap_homog",
            &[("oltp_tps", 950.0), ("oltp_commit_p50_us", 12.0)],
        )]))
        .unwrap();
        let rows = compare(&a, &b, &bounds());
        assert_eq!(verdict_of(&rows, "oltp_tps"), Verdict::Ok);
        assert_eq!(verdict_of(&rows, "oltp_commit_p50_us"), Verdict::Worse);
        assert!(!report(&rows));
        // Better in both directions is never worse.
        let rows = compare(&b, &a, &bounds());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(report(&rows));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<(&str, &[(&str, f64)])> = vec![
            ("htap_homog", &[("oltp_tps", 700.0)]),
            ("htap_homog", &[("oltp_tps", 1000.0)]),
            ("htap_homog", &[("oltp_tps", 1300.0)]),
        ];
        let a = samples_of(&record(&noisy)).unwrap();
        let b = samples_of(&record(&[("htap_homog", &[("oltp_tps", 500.0)])])).unwrap();
        let rows = compare(&a, &b, &bounds());
        assert_eq!(verdict_of(&rows, "oltp_tps"), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_compare_for_equality_and_unbounded_ones_are_skipped() {
        let exact = "vmem.sim.cow_fault_virtual_ns";
        let a = samples_of(&record(&[(
            "olap_frozen",
            &[(exact, 2100.0), ("mvcc.install_ns", 50.0)],
        )]))
        .unwrap();
        let same = compare(&a, &a, &bounds());
        assert_eq!(
            same.len(),
            1,
            "per-layer metrics without a bound are not judged"
        );
        assert_eq!(verdict_of(&same, exact), Verdict::Equal);
        let b = samples_of(&record(&[("olap_frozen", &[(exact, 2101.0)])])).unwrap();
        assert_eq!(
            verdict_of(&compare(&a, &b, &bounds()), exact),
            Verdict::Differs
        );
    }
}
