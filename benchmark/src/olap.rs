//! `olap_frozen` and `olap_fanout`: no writers, one analyst cycling the
//! six scan queries on one pinned `SnapshotReader` — sequentially on its
//! own thread, or through the morsel pool with `.parallel(2)`. Same
//! database, same queries, same reference answers.

use crate::common::*;
use crate::scans::{self, Job, Lineitem, ScanParams};
use crate::trace::SpanBuf;
use ankerdb::core::{DurabilityLevel, ProcessingMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub fn run(opts: &Opts, threads: usize) -> Outcome {
    let scale = Scale::of(opts);
    let mut out = Outcome::new();
    // Both workloads draw the same parameters from a seed, so their
    // reference answers are identical.
    let params = ScanParams::sample(&mut SmallRng::seed_from_u64(opts.seed ^ 0x5CA9));
    let ((t, reader, li, want), setup_s) = timed_setups(scale.setups, || {
        let t = generate(
            db_config(ProcessingMode::Heterogeneous, DurabilityLevel::Off, None),
            scale.sf_olap,
        );
        // One commit before the reader pins (README.md, finding (a)).
        let (first, _) = oltp_burst(&t, SmallRng::seed_from_u64(DATA_SEED), 1);
        assert_eq!(first.done.total_ops(), 1, "the set-up commit must succeed");
        let reader =
            t.db.snapshot_reader()
                .expect("heterogeneous database pins a reader");
        let li = Lineitem::of(&t.db);
        let want = scans::reference(&reader, &li, &params).expect("reference answers");
        (t, reader, li, want)
    });
    out.e2e.set("setup_s", setup_s);
    out.info.push(("scale_factor", scale.sf_olap));
    out.info.push(("lineitem_rows", li.rows as f64));
    out.info
        .push(("lineitem_mb", li.rows as f64 * 12.0 * 8.0 / 1e6));
    out.info.push(("scan_threads", threads as f64));
    for (q, answer) in scans::QUERIES.iter().zip(want) {
        out.notes.push(format!("reference {q} = {answer}"));
    }

    let mut spans = SpanBuf::new("analyst");
    let job = Job {
        reader: &reader,
        table: &li,
        params: &params,
        want: &want,
        threads,
    };
    let ctl = Ctl::new(opts.trace, scale.warm_s, opts.window_s());
    let before = t.db.metrics();
    let olap = std::thread::scope(|s| {
        let analyst = s.spawn(|| scans::analyst(&job, Some(&ctl), None, &mut spans));
        ctl.drive();
        analyst.join().expect("analyst thread")
    });
    let after = t.db.metrics();
    out.set_olap(&olap);
    out.attempted = olap.attempted;
    out.failed = olap.failed;
    out.check(
        delta(&before, &after, "db_committed_total") == 0.0,
        "no transaction committed during the scan window",
    );
    drop(reader);

    if !opts.trace {
        // Epilogue: the side this workload leaves idle, measured
        // unloaded — a fixed burst of OLTP transactions, no analyst.
        let (oltp, secs) = oltp_burst(&t, SmallRng::seed_from_u64(opts.seed), scale.epilogue_txns);
        out.set_oltp(&oltp.done, &secs);
        out.attempted += oltp.attempted;
        out.failed += oltp.failed;
    }
    out.e2e.set("mem_peak_mb", mem_peak_mb());

    if opts.trace {
        let l = &mut out.layer;
        l.set("vmem.os.mappings", mappings());
        l.set("mvcc.versions_live_end", t.db.total_versions() as f64);
        l.set("bench.trace_overhead_pct", olap.split.overhead_pct());
        crate::probes::write_trace(&opts.workload, &[spans]);
        let model = crate::probes::Model::ScanCycle {
            measured_cycle_ns: olap.cycle_p50_ns(),
            threads: threads as f64,
        };
        drop(t);
        crate::probes::run_all(&mut out, scale.sf_olap, model);
    }
    out
}
