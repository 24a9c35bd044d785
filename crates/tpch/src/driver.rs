//! Multi-threaded workload execution: the experiments of §5.3 (OLAP
//! latency under load), §5.4 (throughput, pure and mixed), §5.7
//! (scaling), and the detached-reader HTAP mode (M updaters + N
//! morsel-parallel scan threads, the shape of the paper's figs. 8–9
//! analytical fleet).

use crate::gen::{days, TpchDb};
use crate::oltp::{is_abort, run_oltp, run_oltp_in, OltpKind};
use crate::queries::{run_olap, sample_params, OlapParams, OlapQuery};
use anker_core::{ScanStats, TxnKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of a throughput run (Figure 8 / Figure 11).
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of OLTP transactions to fire (paper: 500 000).
    pub oltp_txns: u64,
    /// Number of OLAP transactions interleaved into the stream (paper: 10
    /// for the mixed workload, 0 for pure OLTP).
    pub olap_txns: u64,
    /// Worker threads (paper: 8).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Busy-work per OLTP transaction in microseconds, outside any lock.
    /// Models the per-request processing cost (parsing, planning, network)
    /// of a full system; 0 disables it. The paper's system spent ~20 µs per
    /// transaction per thread, ~7x this reproduction's streamlined path —
    /// without comparable per-transaction work, the serialized commit
    /// section dominates and thread scaling cannot appear on any machine.
    pub think_us: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            oltp_txns: 100_000,
            olap_txns: 0,
            threads: 2,
            seed: 7,
            think_us: 0.0,
        }
    }
}

/// Spin for approximately `us` microseconds (calibration-free busy work).
fn think(us: f64) {
    if us <= 0.0 {
        return;
    }
    let start = Instant::now();
    while start.elapsed().as_secs_f64() * 1e6 < us {
        std::hint::spin_loop();
    }
}

/// Outcome of a throughput run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub wall: Duration,
    /// Committed OLTP transactions.
    pub committed: u64,
    /// Aborted OLTP transactions (write-write or validation).
    pub aborted: u64,
    /// Completed OLAP transactions.
    pub olap_done: u64,
    /// Total wall time spent inside OLAP transactions (sum across
    /// workers). The mixed-workload mechanism in one number: how much scan
    /// work the configuration had to do for the same 10 queries.
    pub olap_wall: Duration,
    /// End-to-end transactions per second (committed + aborted + OLAP over
    /// wall time, matching the paper's batch measure).
    pub tps: f64,
}

/// Run a batch of `oltp_txns` transactions (with `olap_txns` analytical
/// transactions spread uniformly through the stream) on `threads` workers
/// and measure end-to-end throughput.
pub fn run_workload(t: &TpchDb, cfg: &WorkloadConfig) -> WorkloadResult {
    let next = AtomicU64::new(0);
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let olap_done = AtomicU64::new(0);
    let olap_nanos = AtomicU64::new(0);
    // Interleave OLAP transactions at evenly spaced stream positions.
    let olap_every = cfg
        .oltp_txns
        .checked_div(cfg.olap_txns)
        .unwrap_or(u64::MAX)
        .max(1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..cfg.threads {
            let next = &next;
            let committed = &committed;
            let aborted = &aborted;
            let olap_done = &olap_done;
            let olap_nanos = &olap_nanos;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (worker as u64) << 32);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cfg.oltp_txns {
                        break;
                    }
                    // OLAP slots sit mid-interval so none lands at stream
                    // position 0 (before any update history exists).
                    if i % olap_every == olap_every / 2 && i / olap_every < cfg.olap_txns {
                        let q = OlapQuery::ALL[(i / olap_every) as usize % OlapQuery::ALL.len()];
                        let params = sample_params(q, &mut rng);
                        let began = Instant::now();
                        let mut txn = t.db.begin(TxnKind::Olap);
                        run_olap(t, &mut txn, params).expect("olap query failed");
                        txn.commit().expect("read-only commit cannot fail");
                        olap_nanos.fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        olap_done.fetch_add(1, Ordering::Relaxed);
                    }
                    think(cfg.think_us);
                    let kind = OltpKind::sample(&mut rng);
                    let mut txn = t.db.begin(TxnKind::Oltp);
                    match run_oltp_in(t, &mut txn, kind, &mut rng) {
                        Ok(()) => match txn.commit() {
                            Ok(_) => {
                                committed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) if is_abort(&e) => {
                                aborted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("commit failed: {e}"),
                        },
                        Err(e) if is_abort(&e) => {
                            txn.abort();
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("oltp body failed: {e}"),
                    }
                }
            });
        }
    });
    let wall = start.elapsed();
    let committed = committed.load(Ordering::Relaxed);
    let aborted = aborted.load(Ordering::Relaxed);
    let olap_done = olap_done.load(Ordering::Relaxed);
    WorkloadResult {
        wall,
        committed,
        aborted,
        olap_done,
        olap_wall: Duration::from_nanos(olap_nanos.load(Ordering::Relaxed)),
        tps: (committed + aborted + olap_done) as f64 / wall.as_secs_f64(),
    }
}

/// Configuration of the HTAP mode: `updaters` OLTP threads run
/// continuously while the calling thread executes `scans` analytical
/// queries, each on a **fresh** [`anker_core::SnapshotReader`] (so every
/// query sees a current epoch) fanned out over `scan_threads`
/// morsel-parallel workers.
#[derive(Debug, Clone)]
pub struct HtapConfig {
    /// Concurrent OLTP updater threads (`M` in the paper's mixed runs).
    pub updaters: usize,
    /// Threads per analytical scan (`N`; 1 = sequential).
    pub scan_threads: usize,
    /// Analytical queries to run (alternating Q6-style predicate scans
    /// and full LINEITEM scans).
    pub scans: u64,
    /// RNG seed (query parameters and updater streams).
    pub seed: u64,
    /// Busy-work per OLTP transaction in microseconds (see
    /// [`WorkloadConfig::think_us`]).
    pub think_us: f64,
}

impl Default for HtapConfig {
    fn default() -> Self {
        HtapConfig {
            updaters: 1,
            scan_threads: 2,
            scans: 8,
            seed: 13,
            think_us: 0.0,
        }
    }
}

/// Outcome of an HTAP run.
#[derive(Debug, Clone)]
pub struct HtapResult {
    pub wall: Duration,
    /// Analytical queries completed.
    pub scans_done: u64,
    /// Wall time spent inside the analytical queries (reader open + scan).
    pub scan_wall: Duration,
    /// Analytical queries per second over the whole run.
    pub olap_qps: f64,
    /// OLTP transactions committed / aborted by the updaters meanwhile.
    pub oltp_committed: u64,
    pub oltp_aborted: u64,
    /// Updater throughput (committed + aborted per second).
    pub oltp_tps: f64,
    /// Scan statistics summed over all analytical queries (`morsels`
    /// counts the work ranges processed; `threads` the dispatch width the
    /// scans fanned out over).
    pub stats: ScanStats,
    /// Sum of the Q6-style revenues (result validation across configs).
    pub revenue: f64,
}

/// Run the HTAP mode: `cfg.updaters` threads fire OLTP transactions until
/// the analytical side — the calling thread, opening a fresh detached
/// reader per query and scanning morsel-parallel with
/// `cfg.scan_threads` — has completed `cfg.scans` queries. Requires
/// heterogeneous mode (detached readers pin snapshot epochs).
pub fn run_htap(t: &TpchDb, cfg: &HtapConfig) -> HtapResult {
    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let mut stats = ScanStats::default();
    let mut revenue = 0.0f64;
    let mut scan_nanos = 0u64;
    let start = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..cfg.updaters {
            let stop = &stop;
            let committed = &committed;
            let aborted = &aborted;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x717A ^ (worker as u64) << 20);
                // ORDERING: Acquire pairs with the scan thread's Release
                // store of `stop`, so a stopping updater sees the final
                // scan state that ended the run.
                while !stop.load(Ordering::Acquire) {
                    think(cfg.think_us);
                    match run_oltp(t, OltpKind::sample(&mut rng), &mut rng) {
                        Ok(_) => committed.fetch_add(1, Ordering::Relaxed),
                        Err(e) if is_abort(&e) => aborted.fetch_add(1, Ordering::Relaxed),
                        Err(e) => panic!("oltp failed: {e}"),
                    };
                }
            });
        }
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let li = &t.li;
        for i in 0..cfg.scans {
            let began = Instant::now();
            let reader =
                t.db.snapshot_reader()
                    .expect("HTAP mode needs heterogeneous processing");
            if i % 2 == 0 {
                // Q6-style predicate scan, parameters drawn by the same
                // sampler as the transactional Q6 (paper §5.2 bounds) and
                // the same predicate epsilons as `queries::q6`.
                let OlapParams::Q6 {
                    year,
                    discount,
                    qty,
                } = sample_params(OlapQuery::Q6, &mut rng)
                else {
                    unreachable!("Q6 sampler returns Q6 params")
                };
                let lo = days(year, 1, 1) as i64;
                let hi = days(year + 1, 1, 1) as i64;
                let (rev, s) = reader
                    .scan(t.lineitem)
                    .range_i64(li.shipdate, lo, hi - 1)
                    .range_f64(li.discount, discount - 0.01 - 1e-9, discount + 0.01 + 1e-9)
                    .lt_f64(li.quantity, qty)
                    .project(&[li.extendedprice, li.discount])
                    .parallel(cfg.scan_threads)
                    .fold(
                        0.0f64,
                        |acc, _, v| acc + v[0].as_double() * v[1].as_double(),
                        |a, b| a + b,
                    )
                    .expect("q6 scan failed");
                revenue += rev;
                stats.merge(&s);
            } else {
                // Full LINEITEM scan: every column, commutative checksum
                // (parallel `for_each` delivers morsels in any order).
                let cols = [
                    li.orderkey,
                    li.partkey,
                    li.quantity,
                    li.extendedprice,
                    li.discount,
                    li.shipdate,
                ];
                let checksum = AtomicU64::new(0);
                let s = reader
                    .scan(t.lineitem)
                    .project(&cols)
                    .parallel(cfg.scan_threads)
                    .for_each(|row, words| {
                        let mut h = row as u64;
                        for &w in words {
                            h = h.rotate_left(7) ^ w;
                        }
                        checksum.fetch_add(h, Ordering::Relaxed);
                    })
                    .expect("full scan failed");
                stats.merge(&s);
            }
            scan_nanos += began.elapsed().as_nanos() as u64;
        }
        // ORDERING: Release pairs with the updaters' Acquire polls.
        stop.store(true, Ordering::Release);
    });
    let wall = start.elapsed();
    let committed = committed.load(Ordering::Relaxed);
    let aborted = aborted.load(Ordering::Relaxed);
    HtapResult {
        wall,
        scans_done: cfg.scans,
        scan_wall: Duration::from_nanos(scan_nanos),
        olap_qps: cfg.scans as f64 / wall.as_secs_f64(),
        oltp_committed: committed,
        oltp_aborted: aborted,
        oltp_tps: (committed + aborted) as f64 / wall.as_secs_f64(),
        stats,
        revenue,
    }
}

/// Configuration of the durability mode: the fig-8-style pure-OLTP
/// stream, instrumented per commit, against a database whose
/// [`anker_core::DurabilityLevel`] decides what each commit pays before
/// returning.
#[derive(Debug, Clone)]
pub struct DurabilityRunConfig {
    /// OLTP transactions to fire.
    pub oltp_txns: u64,
    /// Worker threads (group commit only batches with > 1).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Busy-work per transaction in microseconds (see
    /// [`WorkloadConfig::think_us`]).
    pub think_us: f64,
}

impl Default for DurabilityRunConfig {
    fn default() -> Self {
        DurabilityRunConfig {
            oltp_txns: 20_000,
            threads: 2,
            seed: 23,
            think_us: 0.0,
        }
    }
}

/// Outcome of a durability run: throughput plus the commit-latency
/// distribution (the WAL overhead made visible) and the WAL's own
/// counters (`commit_records / syncs` = group-commit batching factor).
#[derive(Debug, Clone)]
pub struct DurabilityRunResult {
    pub wall: Duration,
    pub committed: u64,
    pub aborted: u64,
    pub tps: f64,
    /// Commit-latency percentiles over every *committed* transaction
    /// (begin → commit returned), in microseconds.
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    /// `wal_syncs_total` / `wal_commit_records_total` deltas over the run
    /// (0 when the database has no durability directory).
    pub wal_syncs: u64,
    pub wal_commit_records: u64,
}

/// Run `cfg.oltp_txns` fig-style OLTP transactions on `threads` workers,
/// recording each committed transaction's end-to-end latency. The
/// database's durability level decides whether commits pay nothing
/// (`Off`), a buffered WAL append (`Buffered`), or a group-commit fsync
/// (`Fsync`) — this driver measures exactly that difference.
pub fn run_durability(t: &TpchDb, cfg: &DurabilityRunConfig) -> DurabilityRunResult {
    let before = t.db.metrics();
    let next = AtomicU64::new(0);
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let all_latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..cfg.threads.max(1) {
            let next = &next;
            let committed = &committed;
            let aborted = &aborted;
            let all_latencies = &all_latencies;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xD17A ^ (worker as u64) << 28);
                let mut local = Vec::with_capacity(4096);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cfg.oltp_txns {
                        break;
                    }
                    think(cfg.think_us);
                    let kind = OltpKind::sample(&mut rng);
                    let began = Instant::now();
                    match run_oltp(t, kind, &mut rng) {
                        Ok(_) => {
                            local.push(began.elapsed().as_nanos() as u64);
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if is_abort(&e) => {
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("oltp failed: {e}"),
                    }
                }
                all_latencies.lock().unwrap().extend_from_slice(&local);
            });
        }
    });
    let wall = start.elapsed();
    let committed = committed.load(Ordering::Relaxed);
    let aborted = aborted.load(Ordering::Relaxed);
    let mut lat = all_latencies.into_inner().unwrap();
    lat.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
        lat[idx] as f64 / 1_000.0
    };
    let after = t.db.metrics();
    let delta = |name| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    DurabilityRunResult {
        wall,
        committed,
        aborted,
        tps: (committed + aborted) as f64 / wall.as_secs_f64(),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        max_us: lat.last().map(|&n| n as f64 / 1_000.0).unwrap_or(0.0),
        wal_syncs: delta("wal_syncs_total"),
        wal_commit_records: delta("wal_commit_records_total"),
    }
}

/// Configuration of the OLAP-latency experiment (Figure 7).
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Total worker threads; one runs the measured OLAP transaction, the
    /// rest pressure the system with OLTP transactions (paper: 8 threads,
    /// 7 OLTP + 1 OLAP).
    pub threads: usize,
    /// Repetitions of the OLAP transaction (paper: 5, averaged).
    pub repetitions: usize,
    pub seed: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            threads: 2,
            repetitions: 5,
            seed: 11,
        }
    }
}

/// Outcome of the latency experiment for one OLAP query.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    pub query: OlapQuery,
    /// Mean latency over the repetitions.
    pub mean: Duration,
    pub samples: Vec<Duration>,
    /// Scan statistics summed over the repetitions (tight vs checked rows,
    /// chain walks, zone-map block skips, filtered rows).
    pub stats: ScanStats,
}

/// Measure the latency of `query` while the remaining threads continuously
/// fire OLTP transactions (§5.3).
pub fn run_olap_latency(t: &TpchDb, query: OlapQuery, cfg: &LatencyConfig) -> LatencyResult {
    let stop = AtomicBool::new(false);
    let pressure_threads = cfg.threads.saturating_sub(1).max(1);
    let mut samples = Vec::with_capacity(cfg.repetitions);
    let mut stats = ScanStats::default();
    std::thread::scope(|s| {
        for worker in 0..pressure_threads {
            let stop = &stop;
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xABCD ^ (worker as u64) << 24);
                // ORDERING: Acquire pairs with the measuring thread's
                // Release store of `stop` once sampling finishes.
                while !stop.load(Ordering::Acquire) {
                    let kind = OltpKind::sample(&mut rng);
                    let _ = run_oltp(t, kind, &mut rng);
                }
            });
        }
        // Let the pressure build up before measuring.
        std::thread::sleep(Duration::from_millis(30));
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        for _ in 0..cfg.repetitions {
            let params = sample_params(query, &mut rng);
            let begin = Instant::now();
            let mut txn = t.db.begin(TxnKind::Olap);
            run_olap(t, &mut txn, params).expect("olap query failed");
            stats.merge(&txn.scan_stats());
            txn.commit().expect("read-only commit cannot fail");
            samples.push(begin.elapsed());
        }
        // ORDERING: Release pairs with the pressure workers' Acquire polls.
        stop.store(true, Ordering::Release);
    });
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    LatencyResult {
        query,
        mean,
        samples,
        stats,
    }
}
