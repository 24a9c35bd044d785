//! Per-layer probes of the traced pass, and the attribution table.
//!
//! Each probe times one public function of one layer (layer = crate or
//! `core` module) from outside, through the `ankerdb` facade, on the
//! table shape of the workload that just ran: areas the size of one of
//! its LINEITEM columns, a probe database at its scale factor. Work is
//! fixed, so a probe's cost moves only when its layer does. README.md
//! lists which end-to-end metric each probe should move, on which
//! workload.

use crate::common::*;
use crate::scans::{self, Lineitem, ScanParams};
use crate::trace::SpanBuf;
use ankerdb::core::obs::MetricsSnapshot;
use ankerdb::core::{AnkerDb, DurabilityLevel, LogicalType, ProcessingMode, TxnKind, Value};
use ankerdb::dura::{self, Wal, WalRecord, WalWrite};
use ankerdb::mvcc::commit::{CommitRecord, RecentCommits, WriteRecord};
use ankerdb::mvcc::predicate::{ColRef, PredicateSet};
use ankerdb::mvcc::timestamp::TsOracle;
use ankerdb::mvcc::version::VersionedColumn;
use ankerdb::mvcc::ScanStats;
use ankerdb::obs;
use ankerdb::snapshot::{table1_run, Snapshotter, Table1Config, VmSnapshotter};
use ankerdb::storage::ColumnArea;
use ankerdb::vmem::{Kernel, MapBacking, OsBackend, Prot, Share, VmBackend};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub fn write_trace(workload: &str, bufs: &[SpanBuf]) {
    let path = out_dir().join(format!("{workload}.trace.json"));
    match crate::trace::write_chrome_file(&path, bufs) {
        Ok(()) => {
            let (n, dropped) = bufs
                .iter()
                .fold((0, 0), |(n, d), b| (n + b.spans.len(), d + b.dropped));
            println!("trace: {} ({n} spans, {dropped} dropped)", path.display());
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Median over `batches` of `f`'s nanoseconds per operation; `f` returns
/// how many operations it ran.
fn ns_per_op(batches: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut per_op: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            let ops = f();
            t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&mut per_op)
}

/// Cheap deterministic row picker for the point-access probes.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as u32
    }
}

// ------------------------------------------------------------------ vmem

fn vmem_os(l: &mut crate::metrics::Values, rows: u32) {
    let os = OsBackend::new().expect("OS backend");
    let ps = os.page_size();
    let pages = (rows as u64 * 8).div_ceil(ps);
    let bytes = pages * ps;
    let src = os.alloc(bytes).expect("alloc");
    let block: Vec<u64> = (0..ps / 8).collect();
    for p in 0..pages {
        os.write_words(src + p * ps, &block).expect("fill");
    }
    // First write to a frozen, shared page: the engine-mediated COW
    // split. Every fourth page, so the area ends up fragmented the way a
    // column under updates is (each split moves a page elsewhere in the
    // memfd and breaks a run of contiguous file pages).
    let snap = os.vm_snapshot(None, src, bytes).expect("vm_snapshot");
    let split: Vec<u64> = (0..pages).step_by(4).collect();
    let t0 = Instant::now();
    for &p in &split {
        os.write_u64(src + p * ps, p).expect("cow write");
    }
    l.set(
        "vmem.os.cow_split_ns",
        t0.elapsed().as_nanos() as f64 / split.len() as f64,
    );
    l.set(
        "vmem.os.write_warm_ns",
        ns_per_op(5, || {
            for i in 0..200_000u64 {
                let p = split[i as usize % split.len()];
                os.write_u64(src + p * ps + (i % 64) * 8, i)
                    .expect("warm write");
            }
            200_000
        }),
    );
    os.release(snap, bytes).expect("release");
    // Rewiring cost is per run of contiguous file pages, so it is timed
    // on the fragmented area, not on a pristine one-run area.
    let (mut snap_ns, mut release_ns) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        let t0 = Instant::now();
        let snap = os.vm_snapshot(None, src, bytes).expect("vm_snapshot");
        let t1 = Instant::now();
        os.release(snap, bytes).expect("release");
        snap_ns.push((t1 - t0).as_nanos() as f64 / pages as f64);
        release_ns.push(t1.elapsed().as_nanos() as f64 / pages as f64);
    }
    l.set("vmem.os.snapshot_ns_per_page", median(&mut snap_ns));
    l.set("vmem.os.release_ns_per_page", median(&mut release_ns));
    let mut buf = vec![0u64; 1_024];
    let ns_per_word = ns_per_op(5, || {
        for chunk in 0..bytes / 8 / 1_024 {
            os.read_words(src + chunk * 8_192, &mut buf)
                .expect("read_words");
            black_box(&buf);
        }
        bytes / 8 / 1_024 * 1_024
    });
    l.set("vmem.os.read_words_gbps", 8.0 / ns_per_word);
    os.release(src, bytes).expect("release");
}

/// The simulator's cost model on its virtual clock: exact, so any change
/// is a change to the model behind Table 1 / Figure 5.
fn vmem_sim(l: &mut crate::metrics::Values) {
    const PAGES: u64 = 1_024;
    let kernel = Kernel::default();
    let space = kernel.create_space();
    let ps = space.page_size();
    let col = space
        .mmap(
            PAGES * ps,
            Prot::READ_WRITE,
            Share::Private,
            MapBacking::Anon,
        )
        .expect("mmap");
    for p in 0..PAGES {
        space.write_u64(col + p * ps, p).expect("fault in");
    }
    let v0 = kernel.virtual_ns();
    let _snap = space
        .vm_snapshot(None, col, PAGES * ps)
        .expect("vm_snapshot");
    let v1 = kernel.virtual_ns();
    space.write_u64(col, 7).expect("cow fault");
    let v2 = kernel.virtual_ns();
    l.set(
        "vmem.sim.snapshot_virtual_ns_per_page",
        (v1 - v0) as f64 / PAGES as f64,
    );
    l.set("vmem.sim.cow_fault_virtual_ns", (v2 - v1) as f64);
}

/// Table 1 at 8 columns × 4 096 pages, all columns snapshotted, on the
/// virtual clock.
fn snapshot_techniques(l: &mut crate::metrics::Values) {
    const COLS: usize = 8;
    const PAGES: u64 = 4_096;
    let rows = table1_run(&Table1Config {
        n_cols: COLS,
        pages_per_col: PAGES,
        col_counts: vec![COLS],
        modified_pages: vec![0],
    })
    .expect("table1_run");
    for (method, name) in [
        ("Physical", "snapshot.physical.create_virtual_us"),
        ("Fork-based", "snapshot.fork.create_virtual_us"),
        ("Rewiring", "snapshot.rewired.create_virtual_us"),
    ] {
        let row = rows
            .iter()
            .find(|r| r.method == method)
            .expect("Table 1 row");
        l.set(name, row.virtual_ms[0] * 1e3);
    }
    let mut s = VmSnapshotter::new(COLS, PAGES).expect("VmSnapshotter");
    for col in 0..COLS {
        for page in 0..PAGES {
            s.write_base(col, page, 0, page).expect("populate");
        }
    }
    let v0 = s.kernel().virtual_ns();
    s.snapshot_columns(COLS)
        .expect("vm_snapshot of all columns");
    l.set(
        "snapshot.vmsnap.create_virtual_us",
        (s.kernel().virtual_ns() - v0) as f64 / 1e3,
    );
}

// --------------------------------------------------------------- storage

fn storage(l: &mut crate::metrics::Values, rows: u32) {
    let os: Arc<dyn VmBackend> = Arc::new(OsBackend::new().expect("OS backend"));
    let area = ColumnArea::alloc_on(os, rows).expect("alloc");
    // Ascending dates, like a clustered l_shipdate.
    area.fill((0..rows).map(|r| Value::Date((r / 240) as i32).encode()))
        .expect("fill");
    let mut pick = Lcg(1);
    l.set(
        "storage.area_get_ns",
        ns_per_op(5, || {
            for _ in 0..400_000 {
                black_box(area.get(pick.below(rows)).expect("get"));
            }
            400_000
        }),
    );
    l.set(
        "storage.area_set_ns",
        ns_per_op(5, || {
            for i in 0..400_000u64 {
                area.set(pick.below(rows), i).expect("set");
            }
            400_000
        }),
    );
    let mut buf = vec![0u64; 1_024];
    l.set(
        "storage.read_block_ns_per_row",
        ns_per_op(5, || {
            let mut start = 0;
            while start < rows {
                let n = 1_024.min(rows - start);
                area.read_block_into(start, n, &mut buf)
                    .expect("read_block_into");
                black_box(&buf);
                start += n;
            }
            rows as u64
        }),
    );
    l.set(
        "storage.zone_map_build_ns_per_row",
        ns_per_op(5, || {
            area.invalidate_zone_map();
            black_box(area.zone_map(LogicalType::Date, 1_024).expect("zone_map"));
            rows as u64
        }),
    );
    area.unmap().expect("unmap");
}

// ------------------------------------------------------------------ mvcc

fn mvcc(l: &mut crate::metrics::Values, rows: u32) {
    let oracle = TsOracle::new();
    l.set(
        "mvcc.ts_pair_ns",
        ns_per_op(5, || {
            for _ in 0..200_000 {
                let ts = oracle.begin_commit();
                oracle.complete_commit(ts);
            }
            200_000
        }),
    );

    // Validation as a committer meets it: 2 000 recent commits of two
    // writes each on the shard, two point reads to validate, sixteen
    // commits younger than the reader.
    let recent = RecentCommits::new();
    let col = ColRef::new(0, 0);
    {
        let mut shard = recent.lock_tables(&[0]);
        for ts in 1..=2_000u64 {
            let writes = (0..2)
                .map(|k| WriteRecord {
                    col,
                    row: (ts * 2 + k) as u32,
                    old: 0,
                    new: 1,
                })
                .collect();
            shard.push(CommitRecord {
                commit_ts: ts,
                writes,
            });
        }
    }
    let mut preds = PredicateSet::new();
    preds.add_row(col, 1);
    preds.add_row(col, 3);
    l.set(
        "mvcc.validate_ns",
        ns_per_op(5, || {
            for _ in 0..100_000 {
                black_box(recent.lock_tables(&[0]).validate(2_000 - 16, &preds))
                    .expect("no conflict");
            }
            100_000
        }),
    );

    let os: Arc<dyn VmBackend> = Arc::new(OsBackend::new().expect("OS backend"));
    let area = ColumnArea::alloc_on(os, rows).expect("alloc");
    area.fill((0..rows).map(|r| r as u64)).expect("fill");
    let vc = VersionedColumn::new(rows, LogicalType::Int);
    let mut stats = ScanStats::default();
    let mut sink = 0u64;
    l.set(
        "mvcc.scan_visible_ns_per_row.v0",
        ns_per_op(3, || {
            vc.scan_visible(&area, 1, |_, w| sink = sink.wrapping_add(w), &mut stats)
                .expect("scan_visible");
            rows as u64
        }),
    );
    // Every 20th row gets four versions: 5 % of the rows are versioned.
    let versioned = rows / 20;
    let mut ts = 10u64;
    let t0 = Instant::now();
    for round in 0..4u64 {
        for i in 0..versioned {
            ts += 1;
            vc.install(&area, i * 20, round, ts).expect("install");
        }
    }
    l.set(
        "mvcc.install_ns",
        t0.elapsed().as_nanos() as f64 / (4 * versioned) as f64,
    );
    let mut pick = Lcg(2);
    l.set(
        "mvcc.read_unversioned_ns",
        ns_per_op(5, || {
            for _ in 0..400_000 {
                black_box(
                    vc.read(&area, pick.below(rows), u64::MAX >> 2)
                        .expect("read"),
                );
            }
            400_000
        }),
    );
    // A reader older than every install walks all four versions back.
    l.set(
        "mvcc.read_chain4_ns",
        ns_per_op(5, || {
            for _ in 0..200_000 {
                black_box(vc.read(&area, pick.below(versioned) * 20, 5).expect("read"));
            }
            200_000
        }),
    );
    l.set(
        "mvcc.scan_visible_ns_per_row.v5",
        ns_per_op(3, || {
            vc.scan_visible(&area, 5, |_, w| sink = sink.wrapping_add(w), &mut stats)
                .expect("scan_visible");
            rows as u64
        }),
    );
    black_box(sink);
    let t0 = Instant::now();
    let removed = vc.gc(u64::MAX >> 2);
    l.set(
        "mvcc.gc_ns_per_version",
        ratio(t0.elapsed().as_nanos() as f64, removed as f64),
    );
    area.unmap().expect("unmap");
}

// ------------------------------------------------------------------ dura

fn commit_record(ts: u64) -> WalRecord {
    WalRecord::Commit {
        commit_ts: ts,
        seq: ts,
        writes: (0..2)
            .map(|k| WalWrite {
                table: 0,
                col: k,
                row: ts as u32,
                word: ts,
            })
            .collect(),
    }
}

fn dura_wal(l: &mut crate::metrics::Values) {
    l.set(
        "dura.encode_ns",
        ns_per_op(5, || {
            for ts in 0..200_000 {
                black_box(commit_record(ts).encode());
            }
            200_000
        }),
    );
    let dir = ScratchDir::new("probe-wal");
    const APPENDS: u64 = 100_000;
    {
        let wal = Wal::open(&dir.0).expect("open WAL");
        let rec = commit_record(1);
        l.set(
            "dura.append_ns",
            ns_per_op(5, || {
                for _ in 0..APPENDS / 5 {
                    wal.append(&rec).expect("append");
                }
                APPENDS / 5
            }),
        );
        let mut sync_us: Vec<f64> = (0..100)
            .map(|_| {
                let lsn = wal.append(&rec).expect("append");
                let t0 = Instant::now();
                wal.sync_to(lsn).expect("sync_to");
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        l.set("dura.sync_us", median(&mut sync_us));
    }
    let t0 = Instant::now();
    let summary = dura::replay_dir(&dir.0, |rec| {
        black_box(rec);
        Ok(())
    })
    .expect("replay_dir");
    l.set(
        "dura.replay_ns_per_commit",
        ratio(t0.elapsed().as_nanos() as f64, summary.commits as f64),
    );
}

// ------------------------------------------------- core, on a probe database

/// Rounds of "age the epoch out, then touch it": each needs
/// [`SNAPSHOT_EVERY`] commits.
const FIRST_TOUCH_ROUNDS: usize = 3;

fn core_and_friends(l: &mut crate::metrics::Values, sf: f64) -> [f64; 6] {
    let dir = ScratchDir::new("probe-db");
    let t0 = Instant::now();
    let t = generate(
        db_config(
            ProcessingMode::Heterogeneous,
            DurabilityLevel::Buffered,
            Some(dir.0.clone()),
        ),
        sf,
    );
    let total_rows = (t.db.rows(t.lineitem) + t.db.rows(t.orders) + t.db.rows(t.part)) as f64;
    l.set(
        "tpch.gen_mrows_s",
        total_rows / t0.elapsed().as_secs_f64() / 1e6,
    );
    let db: &AnkerDb = &t.db;
    let li = Lineitem::of(db);
    let mut rng = SmallRng::seed_from_u64(DATA_SEED);
    let params = ScanParams::sample(&mut rng);

    let mut pick = Lcg(3);
    let keys = t.lineitem_keys.len() as u32;
    l.set(
        "storage.index_probe_ns",
        ns_per_op(5, || {
            for _ in 0..200_000 {
                black_box(t.li_by_key.get(&t.lineitem_keys[pick.below(keys) as usize]));
            }
            200_000
        }),
    );

    // Checkpoint write and load, in MB of column data.
    let table_mb = [(t.lineitem, 12.0), (t.orders, 5.0), (t.part, 4.0)]
        .iter()
        .map(|&(table, cols)| db.rows(table) as f64 * cols * 8.0 / 1e6)
        .sum::<f64>();
    let t0 = Instant::now();
    db.checkpoint().expect("probe checkpoint");
    l.set(
        "dura.checkpoint_mb_s",
        table_mb / t0.elapsed().as_secs_f64(),
    );
    let t0 = Instant::now();
    black_box(dura::load_newest(&dir.0).expect("load_newest"));
    l.set("dura.ckpt_load_mb_s", table_mb / t0.elapsed().as_secs_f64());

    // First touch: the first scan on a new epoch pays the lazy
    // materialisation (vm_snapshot of each touched column) and the
    // zone-map builds; the second scan on the same reader does not.
    let mut excess_ms = Vec::new();
    for _ in 0..FIRST_TOUCH_ROUNDS {
        let (burst, _) = oltp_burst(&t, SmallRng::seed_from_u64(rng.next_u64()), SNAPSHOT_EVERY);
        assert_eq!(burst.failed, 0, "probe commits must succeed");
        let reader = db.snapshot_reader().expect("reader");
        let t0 = Instant::now();
        scans::run_query(&reader, &li, &params, 3, 1).expect("cold scan");
        let t1 = Instant::now();
        scans::run_query(&reader, &li, &params, 3, 1).expect("warm scan");
        excess_ms.push(((t1 - t0).as_secs_f64() - t1.elapsed().as_secs_f64()) * 1e3);
    }
    l.set("core.snap.first_touch_ms", median(&mut excess_ms));

    // The six scan queries, sequential and through the morsel pool.
    let reader = db.snapshot_reader().expect("reader");
    let names = [
        "core.scan.count_ns_per_row.sel0.1",
        "core.scan.count_ns_per_row.sel10",
        "core.scan.count_ns_per_row.sel50",
        "core.scan.fold_ns_per_row",
        "core.scan.dict_eq_ns_per_row",
        "core.scan.project_ns_per_row",
    ];
    let mut seq_ns = [0.0; 6];
    let (mut par_total, mut skipped, mut blocks) = (0.0, 0u64, 0u64);
    for q in 0..6 {
        // One untimed run first: its zone maps are built, its pages mapped.
        let (_, stats) = scans::run_query(&reader, &li, &params, q, 1).expect("scan");
        skipped += stats.blocks_skipped;
        blocks += (li.rows as u64).div_ceil(1_024);
        seq_ns[q] = ns_per_op(5, || {
            black_box(scans::run_query(&reader, &li, &params, q, 1).expect("scan"));
            1
        });
        par_total += ns_per_op(5, || {
            black_box(scans::run_query(&reader, &li, &params, q, 2).expect("parallel scan"));
            1
        });
        l.set(names[q], seq_ns[q] / li.rows as f64);
    }
    l.set(
        "core.scan.blocks_skipped_share",
        ratio(skipped as f64, blocks as f64),
    );
    l.set(
        "core.scan.par2_speedup",
        ratio(seq_ns.iter().sum(), par_total),
    );
    drop(reader);

    // The versioned path: 5 % of one column's rows updated, then a
    // full-column scan through a transaction on the live data.
    for chunk in (0..li.rows / 20).collect::<Vec<_>>().chunks(256) {
        let mut txn = db.begin(TxnKind::Oltp);
        for &i in chunk {
            txn.update(li.table, li.quantity, i * 20, Value::Double(1.0).encode())
                .expect("update");
        }
        txn.commit().expect("probe update commit");
    }
    l.set(
        "core.scan.versioned_ns_per_row",
        ns_per_op(3, || {
            let mut txn = db.begin(TxnKind::Oltp);
            let mut sum = 0u64;
            txn.scan_on(li.table)
                .project(&[li.quantity])
                .for_each(|_, w| sum = sum.wrapping_add(w[0]))
                .expect("versioned scan");
            txn.commit().expect("read-only commit");
            black_box(sum);
            li.rows as u64
        }),
    );
    let t0 = Instant::now();
    black_box(db.run_gc_once());
    l.set("core.gc.pass_ms", t0.elapsed().as_secs_f64() * 1e3);

    let mut snapshot_us: Vec<f64> = (0..30)
        .map(|_| {
            let t0 = Instant::now();
            black_box(db.metrics());
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    l.set("obs.metrics_snapshot_us", median(&mut snapshot_us));
    seq_ns
}

fn obs_primitives(l: &mut crate::metrics::Values) {
    l.set(
        "obs.counter_inc_ns",
        ns_per_op(5, || {
            for _ in 0..2_000_000 {
                obs::counter!(
                    "bench_probe_total",
                    "Increments made by the benchmark's obs probe"
                )
                .inc();
            }
            2_000_000
        }),
    );
    l.set(
        "obs.span_ns",
        ns_per_op(5, || {
            for _ in 0..500_000 {
                drop(obs::span!("bench_probe"));
            }
            500_000
        }),
    );
}

// ------------------------------------------------------------ attribution

/// Registry counts of the workload window that the commit model needs.
pub struct CommitCounts {
    pub commits: f64,
    pub cow_copies: f64,
    pub pages_rewired: f64,
    pub wal_syncs: f64,
    pub durable: bool,
}

/// What a window with committers contributes to the layer metrics:
/// registry deltas between `before` and `after` (`counted_s` apart) and
/// the sampled commit spans. Returns the counts the attribution needs.
pub fn commit_window(
    l: &mut crate::metrics::Values,
    oltp: &OltpTally,
    (before, after): (&MetricsSnapshot, &MetricsSnapshot),
    counted_s: f64,
    durable: bool,
) -> CommitCounts {
    let d = |name: &str| delta(before, after, name);
    let counts = CommitCounts {
        commits: d("db_committed_total"),
        cow_copies: d("os_cow_copies_total"),
        pages_rewired: d("snapshot_pages_rewired_total"),
        wal_syncs: d("wal_syncs_total"),
        durable,
    };
    let epochs = d("db_epochs_triggered_total");
    l.set(
        "vmem.os.cow_copies_per_kcommit",
        ratio(counts.cow_copies * 1e3, counts.commits),
    );
    l.set(
        "vmem.os.pages_rewired_per_epoch",
        ratio(counts.pages_rewired, epochs),
    );
    l.set(
        "mvcc.abort_share",
        ratio(oltp.aborts as f64, oltp.attempts as f64),
    );
    l.set("core.txn.begin_ns", oltp.begin.estimate(0.5));
    l.set("core.txn.commit_ns", oltp.commit.estimate(0.5));
    l.set("core.txn.commit_p99_ns", oltp.commit.estimate(0.99));
    l.set("tpch.oltp_body_ns", oltp.body.estimate(0.5));
    l.set("core.snap.epochs_per_s", ratio(epochs, counted_s));
    l.set(
        "core.snap.cols_materialized_per_epoch",
        ratio(d("db_columns_materialized_total"), epochs),
    );
    l.set("bench.trace_overhead_pct", oltp.split.overhead_pct());
    counts
}

/// Which median operation the attribution table models.
pub enum Model {
    /// `core.txn.commit` of an OLTP transaction.
    Commit(CommitCounts),
    /// One round of the six scan queries.
    ScanCycle {
        measured_cycle_ns: f64,
        threads: f64,
    },
}

/// What the commit pipeline spends on `obs` (`crates/core/src/txn.rs`):
/// one exact attempt counter per commit, and its six stage boundaries
/// for one commit in 32 (`COMMIT_SAMPLE_SHIFT = 5`).
const COUNTERS_PER_COMMIT: f64 = 1.0;
const SPANS_PER_COMMIT: f64 = 6.0 / 32.0;

/// Model the workload's median operation as Σ(probe cost × count per
/// operation), print it beside the measured span, and report what the
/// model does not explain. No pass/fail: unattributed time — waiting,
/// contention, work no probe covers — is the finding.
fn attribute(out: &mut Outcome, model: Model, scan_ns: [f64; 6]) {
    let l = &out.layer;
    let probe = |name: &str| l.get(name).unwrap_or(0.0);
    let (what, measured_ns, parts): (&str, f64, Vec<(String, f64)>) = match model {
        Model::Commit(c) => {
            let per_commit = |n: f64| ratio(n, c.commits);
            let mut parts = vec![
                ("mvcc.ts_pair".to_string(), probe("mvcc.ts_pair_ns")),
                ("mvcc.validate".to_string(), probe("mvcc.validate_ns")),
                (
                    format!("mvcc.install x {WRITES_PER_TXN:.2} writes"),
                    probe("mvcc.install_ns") * WRITES_PER_TXN,
                ),
                (
                    format!("vmem.os.cow_split x {:.3}/commit", per_commit(c.cow_copies)),
                    probe("vmem.os.cow_split_ns") * per_commit(c.cow_copies),
                ),
                (
                    format!(
                        "vmem.os.snapshot x {:.3} pages/commit",
                        per_commit(c.pages_rewired)
                    ),
                    probe("vmem.os.snapshot_ns_per_page") * per_commit(c.pages_rewired),
                ),
                (
                    format!("obs spans x {SPANS_PER_COMMIT:.2} + counters x {COUNTERS_PER_COMMIT}"),
                    probe("obs.span_ns") * SPANS_PER_COMMIT
                        + probe("obs.counter_inc_ns") * COUNTERS_PER_COMMIT,
                ),
            ];
            if c.durable {
                parts.push((
                    "dura.encode + dura.append".to_string(),
                    probe("dura.encode_ns") + probe("dura.append_ns"),
                ));
                parts.push((
                    format!("dura.sync x {:.3} syncs/commit", per_commit(c.wal_syncs)),
                    probe("dura.sync_us") * 1e3 * per_commit(c.wal_syncs),
                ));
            }
            (
                "core.txn.commit (median)",
                probe("core.txn.commit_ns"),
                parts,
            )
        }
        Model::ScanCycle {
            measured_cycle_ns,
            threads,
        } => {
            // Probe cost of each query, split ideally over the scan's
            // threads: what `.parallel(n)` loses shows as unattributed.
            let parts = scans::QUERIES
                .iter()
                .zip(scan_ns)
                .map(|(q, ns)| (format!("core.scan {q} / {threads} threads"), ns / threads))
                .collect();
            ("scan cycle (median)", measured_cycle_ns, parts)
        }
    };
    let modelled: f64 = parts.iter().map(|(_, ns)| ns).sum();
    let share = |ns: f64| ratio(ns * 100.0, measured_ns);
    println!("\nattribution: {what}");
    println!("  {:<46} {:>11} {:>9}", "component", "us", "% of total");
    for (name, ns) in &parts {
        println!("  {:<46} {:>11.3} {:>8.1}%", name, ns / 1e3, share(*ns));
    }
    println!(
        "  {:<46} {:>11.3} {:>8.1}%",
        "unattributed",
        (measured_ns - modelled) / 1e3,
        share(measured_ns - modelled)
    );
    println!(
        "  {:<46} {:>11.3} {:>8.1}%",
        "measured",
        measured_ns / 1e3,
        100.0
    );
    out.layer.set(
        "bench.unattributed_share",
        ratio(measured_ns - modelled, measured_ns),
    );
}

/// Run every probe and the attribution table. The workload's own
/// database is gone by now; the probes build what they need.
pub fn run_all(out: &mut Outcome, sf: f64, model: Model) {
    let rows = out
        .info
        .iter()
        .find(|(k, _)| *k == "lineitem_rows")
        .map(|&(_, v)| v as u32)
        .expect("workloads record lineitem_rows");
    let t0 = Instant::now();
    let l = &mut out.layer;
    vmem_os(l, rows);
    vmem_sim(l);
    snapshot_techniques(l);
    storage(l, rows);
    mvcc(l, rows);
    dura_wal(l);
    obs_primitives(l);
    let scan_ns = core_and_friends(l, sf);
    attribute(out, model, scan_ns);
    out.info.push(("probe_seconds", t0.elapsed().as_secs_f64()));
}
