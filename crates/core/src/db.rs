//! The database object: tables, the MVCC engine state, the snapshot
//! manager, and the homogeneous-mode garbage collection thread.

use crate::config::{BackendKind, DbConfig, ProcessingMode};
use crate::durability::DuraState;
use crate::error::{DbError, Result};
use crate::metrics::Metrics;
use crate::reader::SnapshotReader;
use crate::snapman::{Epoch, SnapCol, SnapshotManager};
use crate::table::{ColumnState, TableId, TableState};
use crate::txn::{Txn, TxnKind};
use anker_dura::DurabilityLevel;
use anker_mvcc::{ActiveTxns, RecentCommits, TsOracle, VersionedColumn};
use anker_storage::{ColumnArea, Schema};
use anker_util::lockcheck::{self, classes};
use anker_util::{sched, FxHashMap, WorkerPool};
use anker_vmem::{Kernel, OsBackend, Space, VmBackend};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// State owned by the serialized commit section. Holding the guard is the
/// capability to install writes, trigger epochs, and materialise snapshots.
#[derive(Default)]
pub(crate) struct CommitState {
    pub(crate) commits_since_snapshot: u64,
    pub(crate) commits_since_prune: u64,
    /// The newest frozen image of each `(table, col)`, which the snapshot
    /// manager hands to later epochs while the column stays unwritten
    /// (see [`SnapshotManager::materialize_column`]).
    pub(crate) images: FxHashMap<(u16, u16), Arc<SnapCol>>,
}

/// A ticket-fair lock around the serialized commit section.
///
/// The previous implementation barged: a `try_lock` spin loop let a fast
/// committer re-acquire the section past a parked epoch-pinning reader
/// indefinitely (a slow WAL fsync inside the section made
/// `snapshot_reader()` creation stall behind it unboundedly). Tickets
/// grant the section strictly in arrival order, so every waiter is served
/// after at most the holders queued ahead of it.
pub(crate) struct CommitLock {
    next: AtomicU64,
    serving: AtomicU64,
    state: Mutex<CommitState>,
}

impl CommitLock {
    fn new() -> CommitLock {
        CommitLock {
            next: AtomicU64::new(0),
            serving: AtomicU64::new(0),
            state: Mutex::new(CommitState::default()),
        }
    }

    /// Acquire in strict arrival order, spinning with periodic yields
    /// instead of parking: the section is a microsecond-scale critical
    /// region, far below a park/unpark round trip.
    fn lock(&self) -> CommitGuard<'_> {
        // Witness before queuing: a hierarchy violation must panic under
        // `lockcheck` even on schedules where the section is free.
        let witness = lockcheck::acquire(&classes::COMMIT_LOCK, 0);
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0u32;
        // ORDERING: Acquire pairs with the guard drop's Release increment
        // of `serving` — entering the section sees everything the previous
        // holder did inside it.
        while self.serving.load(Ordering::Acquire) != ticket {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Uncontended by construction: only the serving ticket locks.
        CommitGuard {
            lock: self,
            guard: Some(self.state.lock()),
            _witness: witness,
        }
    }
}

/// Guard of the serialized commit section; dereferences to
/// [`CommitState`]. Dropping it admits the next queued ticket.
pub(crate) struct CommitGuard<'a> {
    lock: &'a CommitLock,
    guard: Option<parking_lot::MutexGuard<'a, CommitState>>,
    /// Hand-rolled ticket lock, so the lockcheck wrappers cannot cover
    /// it; the raw witness token does instead.
    _witness: lockcheck::Held,
}

impl std::ops::Deref for CommitGuard<'_> {
    type Target = CommitState;
    fn deref(&self) -> &CommitState {
        self.guard.as_ref().expect("commit guard already released")
    }
}

impl std::ops::DerefMut for CommitGuard<'_> {
    fn deref_mut(&mut self) -> &mut CommitState {
        self.guard.as_mut().expect("commit guard already released")
    }
}

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        self.guard.take();
        // ORDERING: Release publishes the whole critical section to the
        // next ticket holder's Acquire spin.
        self.lock.serving.fetch_add(1, Ordering::Release);
    }
}

/// A stoppable background thread (GC, checkpointer): a stop flag +
/// condvar pair and the join handle.
struct BgThread {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl BgThread {
    /// Spawn a thread that calls `tick` every `interval` until stopped or
    /// until the database is dropped (the thread holds only a weak
    /// reference).
    fn spawn(
        name: &str,
        interval: std::time::Duration,
        weak: std::sync::Weak<DbInner>,
        tick: impl Fn(&AnkerDb) + Send + 'static,
    ) -> BgThread {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || loop {
                {
                    let (lock, cvar) = &*stop2;
                    let mut stopped = lock.lock();
                    if !*stopped {
                        cvar.wait_for(&mut stopped, interval);
                    }
                    if *stopped {
                        return;
                    }
                }
                match weak.upgrade() {
                    Some(inner) => tick(&AnkerDb { inner }),
                    None => return,
                }
            })
            .expect("failed to spawn background thread");
        BgThread {
            stop,
            handle: Some(handle),
        }
    }

    /// Signal the thread to stop and join it. Idempotent by construction
    /// (callers `take()` the thread out of its slot first).
    ///
    /// A background thread can end up running this **itself**: its tick
    /// upgrades the weak reference to a temporary strong one, and if the
    /// user drops the last database handle mid-tick, that temporary is
    /// the last owner — `DbInner::drop` then runs *on* the GC or
    /// checkpointer thread. Joining ourselves would deadlock, so in that
    /// case the stop flag is set and the thread is left to exit on its
    /// own (it is past its weak-upgrade already, so it terminates right
    /// after the tick returns).
    fn stop_and_join(mut self) {
        {
            let (lock, cvar) = &*self.stop;
            *lock.lock() = true;
            cvar.notify_all();
        }
        if let Some(h) = self.handle.take() {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

pub(crate) struct DbInner {
    pub config: DbConfig,
    pub kernel: Kernel,
    pub space: Space,
    /// The substrate column areas live on: the simulated kernel's `space`
    /// (default) or the real-OS memfd backend, per `config.backend`.
    pub backend: Arc<dyn VmBackend>,
    pub tables: lockcheck::RwLock<Vec<Arc<TableState>>>,
    pub oracle: TsOracle,
    /// Start timestamps of the transactions that may read a version chain
    /// (OLTP and homogeneous OLAP): the version-GC and pruning horizon.
    pub active: ActiveTxns,
    pub recent: RecentCommits,
    pub commit_mx: CommitLock,
    /// Commit counter driving homogeneous-mode housekeeping (the
    /// heterogeneous path keeps its counters in [`CommitState`] because it
    /// already holds the commit section to install; the homogeneous
    /// install path is lock-free, so its cadence lives here).
    pub prune_tick: AtomicU64,
    pub snapman: SnapshotManager,
    /// This database's metric registry: every engine event is counted
    /// here and nowhere else ([`AnkerDb::metrics`] snapshots it).
    pub registry: obs::Registry,
    /// The handles `anker-core` bumps, resolved in `registry` at boot.
    pub m: Arc<Metrics>,
    /// The reusable worker pool behind morsel-parallel reader scans,
    /// created on first use and grown (replaced) when a scan asks for
    /// more threads than it has. See [`AnkerDb::scan_pool`].
    scan_pool: Mutex<Option<Arc<WorkerPool>>>,
    gc: Mutex<Option<BgThread>>,
    /// Durability subsystem (WAL + checkpoint directory), attached during
    /// boot when the configuration names a durability directory. Set at
    /// most once; `None` keeps the engine process-lifetime-only.
    pub(crate) dura: OnceLock<Arc<DuraState>>,
    /// Background checkpointer thread, when configured.
    ckpt: Mutex<Option<BgThread>>,
    /// What recovery found at boot (`None` for a fresh or non-durable
    /// database).
    pub(crate) recovery: Mutex<Option<crate::durability::RecoveryReport>>,
}

/// AnKerDB: a main-memory, column-oriented transaction processing system
/// with heterogeneous OLTP/OLAP processing over high-frequency virtual
/// column snapshots.
///
/// ```
/// use anker_core::{AnkerDb, DbConfig, TxnKind};
/// use anker_storage::{ColumnDef, LogicalType, Schema};
///
/// let db = AnkerDb::new(DbConfig::default());
/// let t = db.create_table(
///     "accounts",
///     Schema::new(vec![ColumnDef::new("balance", LogicalType::Int)]),
///     4,
/// ).unwrap();
/// let balance = db.schema(t).col("balance");
///
/// // An OLTP transaction updates an account.
/// let mut txn = db.begin(TxnKind::Oltp);
/// txn.update(t, balance, 0, 100).unwrap();
/// txn.commit().unwrap();
///
/// // An OLAP transaction sums all balances on a virtual snapshot.
/// let mut olap = db.begin(TxnKind::Olap);
/// let mut sum = 0i64;
/// olap.scan_on(t)
///     .project(&[balance])
///     .for_each(|_, vals| sum += vals[0] as i64)
///     .unwrap();
/// olap.commit().unwrap();
/// assert_eq!(sum, 100);
/// ```
#[derive(Clone)]
pub struct AnkerDb {
    pub(crate) inner: Arc<DbInner>,
}

impl std::fmt::Debug for AnkerDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnkerDb")
            .field("mode", &self.inner.config.mode)
            .field("isolation", &self.inner.config.isolation)
            .field("tables", &self.inner.tables.read().len())
            .finish()
    }
}

impl AnkerDb {
    /// Boot a database with the given configuration. In homogeneous mode
    /// with a `gc_interval`, a background garbage-collection thread starts
    /// immediately (§5.1(1): "a thread that makes a pass over the version
    /// chains every second").
    ///
    /// When the configuration names a [`DbConfig::durability_dir`], this
    /// recovers whatever state the directory holds (checkpoint + WAL
    /// tail) and attaches the write-ahead log, exactly like
    /// [`AnkerDb::open`] — and panics if that fails. Prefer
    /// [`AnkerDb::open`] (or [`AnkerDb::try_new`]) for durable databases
    /// so I/O failures surface as errors.
    pub fn new(config: DbConfig) -> AnkerDb {
        AnkerDb::try_new(config).expect("database boot failed")
    }

    /// [`AnkerDb::new`] with boot errors (an unavailable OS memory
    /// backend, recovery I/O, corrupt durable state) surfaced instead of
    /// panicking.
    pub fn try_new(config: DbConfig) -> Result<AnkerDb> {
        let kernel = Kernel::new(config.kernel.clone());
        let space = kernel.create_space();
        let backend: Arc<dyn VmBackend> = match config.backend {
            BackendKind::Sim => Arc::new(space.clone()),
            BackendKind::Os => Arc::new(OsBackend::with_huge_pages(config.os_huge_pages)?),
        };
        let registry = obs::Registry::new();
        let m = Arc::new(Metrics::new(&registry));
        let snapman = SnapshotManager::new(Arc::clone(&backend), Arc::clone(&m));
        let inner = Arc::new(DbInner {
            kernel,
            space,
            backend,
            tables: lockcheck::RwLock::new(&classes::TABLES, 0, Vec::new()),
            oracle: TsOracle::new(),
            active: ActiveTxns::new(),
            recent: RecentCommits::new(),
            commit_mx: CommitLock::new(),
            prune_tick: AtomicU64::new(0),
            snapman,
            registry,
            m,
            scan_pool: Mutex::new(None),
            gc: Mutex::new(None),
            dura: OnceLock::new(),
            ckpt: Mutex::new(None),
            recovery: Mutex::new(None),
            config,
        });
        let db = AnkerDb { inner };
        // Durable boot: rebuild from checkpoint + WAL tail, then attach
        // the log — all before any background thread or transaction runs.
        if db.inner.config.durability_dir.is_some() {
            crate::durability::boot_durable(&db)?;
        }
        if db.inner.config.mode == ProcessingMode::Homogeneous {
            if let Some(interval) = db.inner.config.gc_interval {
                let weak = Arc::downgrade(&db.inner);
                *db.inner.gc.lock() = Some(BgThread::spawn("ankerdb-gc", interval, weak, |db| {
                    db.run_gc_once();
                }));
            }
        }
        if db.inner.config.mode == ProcessingMode::Heterogeneous && db.inner.dura.get().is_some() {
            if let Some(interval) = db.inner.config.checkpoint_interval {
                let weak = Arc::downgrade(&db.inner);
                *db.inner.ckpt.lock() =
                    Some(BgThread::spawn("ankerdb-ckpt", interval, weak, |db| {
                        // Skip idle passes; log failures rather than
                        // crashing the thread (the next pass retries).
                        if let Some(d) = db.inner.dura.get() {
                            if d.commits_since_ckpt.load(Ordering::Relaxed) > 0 {
                                if let Err(e) = db.checkpoint() {
                                    eprintln!("ankerdb-ckpt: checkpoint failed: {e}");
                                }
                            }
                        }
                    }));
            }
        }
        Ok(db)
    }

    /// Open (or create) a **durable** database in `dir`: load the newest
    /// complete checkpoint, replay the WAL tail up to the last durable
    /// commit, and attach the write-ahead log so new commits append to it
    /// under `config.durability`'s contract. An empty or missing
    /// directory boots a fresh durable database.
    ///
    /// ```no_run
    /// use anker_core::{AnkerDb, DbConfig, DurabilityLevel};
    ///
    /// let config = DbConfig::default().with_durability(DurabilityLevel::Fsync);
    /// let db = AnkerDb::open("/var/lib/ankerdb", config).unwrap();
    /// # drop(db);
    /// ```
    pub fn open(dir: impl Into<std::path::PathBuf>, config: DbConfig) -> Result<AnkerDb> {
        AnkerDb::try_new(DbConfig {
            durability_dir: Some(dir.into()),
            ..config
        })
    }

    /// The simulated kernel (stats, virtual clock).
    pub fn kernel(&self) -> &Kernel {
        &self.inner.kernel
    }

    /// The configuration the database was booted with.
    pub fn config(&self) -> &DbConfig {
        &self.inner.config
    }

    /// Create a table of `rows` rows; content is zero until filled. On a
    /// durable database the catalog change is appended to the WAL (under
    /// the same lock that assigns the table id, so log order matches id
    /// order). Fails — consuming no table id and leaking no column — when
    /// a column cannot be allocated (on the OS backend each column is a
    /// file, so this includes running out of descriptors), every table id
    /// is taken ([`DbError::TooManyTables`]) or the WAL append fails.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        rows: u32,
    ) -> Result<TableId> {
        self.create_table_internal(name.into(), schema, rows, true)
    }

    pub(crate) fn create_table_internal(
        &self,
        name: String,
        schema: Schema,
        rows: u32,
        log: bool,
    ) -> Result<TableId> {
        // A `ColumnArea` does not unmap on drop: every failure below
        // releases the areas this call allocated.
        let unmap_all = |cols: &[ColumnState]| {
            for c in cols {
                let _ = c.current_area().clone().unmap();
            }
        };
        let mut cols = Vec::with_capacity(schema.len());
        for (_, def) in schema.iter() {
            match ColumnArea::alloc_on(Arc::clone(&self.inner.backend), rows) {
                Ok(area) => cols.push(ColumnState::new(
                    VersionedColumn::new_in(rows, def.ty, &self.inner.registry),
                    area,
                )),
                Err(e) => {
                    unmap_all(&cols);
                    return Err(e.into());
                }
            }
        }
        let state = Arc::new(TableState {
            name,
            schema,
            rows,
            cols,
            observed: AtomicBool::new(false),
        });
        let mut tables = self.inner.tables.write();
        if tables.len() >= u16::MAX as usize {
            drop(tables);
            unmap_all(&state.cols);
            return Err(DbError::TooManyTables);
        }
        let id = TableId(tables.len() as u16);
        if log {
            if let Some(d) = self.inner.dura.get() {
                if d.level != DurabilityLevel::Off {
                    let rec = crate::durability::create_record(id.0, &state);
                    if let Err(e) = d.wal.append(&rec) {
                        drop(tables);
                        unmap_all(&state.cols);
                        return Err(e.into());
                    }
                }
            }
        }
        tables.push(state);
        Ok(id)
    }

    /// Bulk-load a column (load timestamp 0). Loading a table must
    /// complete before the first transaction touches it: the fill bypasses
    /// versioning, so a load racing live readers would corrupt visibility
    /// silently. Once any transaction has resolved the table, this returns
    /// [`crate::DbError::LoadAfterBegin`] instead. The latch is per table —
    /// a table created after transactions have run elsewhere can still be
    /// loaded.
    ///
    /// The latch detects ordering violations; it does not make a load that
    /// *races* the table's very first transactional access on another
    /// thread safe (nothing can — a table's load phase is single-threaded
    /// by contract). The fill itself runs inside the serialized commit
    /// section, so it can never interleave with a commit's installs.
    pub fn fill_column(
        &self,
        table: TableId,
        col: anker_storage::ColumnId,
        values: impl IntoIterator<Item = u64>,
    ) -> Result<u32> {
        let t = self.table_state(table);
        let mut cs = self.lock_commit();
        // ORDERING: Acquire pairs with `mark_observed`'s Release — seeing
        // the latch implies the observing transaction's resolution is
        // visible, so rejecting the load here is never stale.
        if t.observed.load(Ordering::Acquire) {
            return Err(DbError::LoadAfterBegin);
        }
        // A load leaves `last_mutation` alone, so an image frozen before
        // it (only the eager-materialisation ablation freezes unobserved
        // tables) must not serve a later epoch.
        cs.images.remove(&(table.0, col.0 as u16));
        let logging = self
            .inner
            .dura
            .get()
            .filter(|d| d.level != DurabilityLevel::Off);
        let n = if let Some(d) = logging {
            // Durable load: buffer the words so the same content goes to
            // the log (in bounded chunks — a torn tail costs one chunk,
            // not the whole load) and to the column area. Validate the
            // size *before* the first append: an oversized fill must
            // panic exactly like the in-memory path does, not after
            // logging out-of-bounds records that would make every future
            // recovery of the directory fail.
            let words: Vec<u64> = values.into_iter().collect();
            assert!(
                words.len() as u64 <= t.rows as u64,
                "fill overflows the column"
            );
            for (i, chunk) in words
                .chunks(crate::durability::FILL_CHUNK_WORDS)
                .enumerate()
            {
                d.wal
                    .append(&anker_dura::WalRecord::FillColumn {
                        table: table.0,
                        col: col.0 as u16,
                        start_row: (i * crate::durability::FILL_CHUNK_WORDS) as u32,
                        words: chunk.to_vec(),
                    })
                    .map_err(DbError::from)?;
            }
            t.col(col.0).current_area().fill(words)?
        } else {
            t.col(col.0).current_area().fill(values)?
        };
        Ok(n)
    }

    /// Table id of `name`.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.inner
            .tables
            .read()
            .iter()
            .position(|t| t.name == name)
            .map(|i| TableId(i as u16))
    }

    /// Schema of `table` (cloned; schemas are small).
    pub fn schema(&self, table: TableId) -> Schema {
        self.table_state(table).schema.clone()
    }

    /// Number of rows of `table`.
    pub fn rows(&self, table: TableId) -> u32 {
        self.table_state(table).rows
    }

    pub(crate) fn table_state(&self, table: TableId) -> Arc<TableState> {
        Arc::clone(&self.inner.tables.read()[table.0 as usize])
    }

    /// Begin a transaction of the given kind. The caller classifies the
    /// transaction (§2.2: "incoming transactions are classified into being
    /// either an OLTP or an OLAP transaction"); OLAP transactions are
    /// read-only by contract and, in heterogeneous mode, run on the newest
    /// snapshot epoch.
    pub fn begin(&self, kind: TxnKind) -> Txn {
        Txn::begin(self.clone(), kind)
    }

    /// Open a detached, `Send + Sync` [`SnapshotReader`] pinned to the
    /// newest serviceable snapshot epoch (creating one at a commit
    /// boundary when none is fresh). Heterogeneous mode only; see
    /// [`SnapshotReader`] for the pinning and snapshot-isolation
    /// contract.
    pub fn snapshot_reader(&self) -> Result<SnapshotReader> {
        SnapshotReader::open(self, self.inner.config.snapshot_every_commits)
    }

    /// Pin a snapshot epoch for an arriving OLAP transaction, detached
    /// reader or checkpoint: the newest epoch if it is undamaged and at
    /// most `max_age` commits behind the watermark, otherwise a brand-new
    /// epoch cut at the watermark (Figure 1, step 4: "as no snapshot is
    /// present yet to run T3 on, the first snapshot is taken"). OLAP
    /// arrivals pass `snapshot_every_commits`; a checkpoint passes 0, so
    /// its image is never older than the log.
    ///
    /// A cut costs one commit-section acquisition: heterogeneous commits
    /// draw and settle their timestamps inside the section, so holding it
    /// is commit quiescence and the live columns match the watermark.
    pub(crate) fn pin_current_epoch(&self, max_age: u64) -> Arc<Epoch> {
        let now = self.inner.oracle.last_completed();
        if let Some(e) = self.inner.snapman.pin_newest_fresh(now, max_age) {
            return e;
        }
        let mut cs = self.lock_commit();
        debug_assert!(self.inner.oracle.drained(), "commit outside the section");
        // Re-check under the commit lock (another arrival may have cut an
        // epoch meanwhile).
        let now = self.inner.oracle.last_completed();
        if let Some(e) = self.inner.snapman.pin_newest_fresh(now, max_age) {
            return e;
        }
        // Pin before releasing the commit lock: once the lock drops, a
        // concurrent commit could damage the fresh epoch.
        let epoch = self.inner.snapman.trigger_epoch(&mut cs, now);
        self.inner.snapman.pin_epoch(&epoch);
        epoch
    }

    /// The reusable scan-worker pool, sized for at least `threads`
    /// threads of execution (growing — by replacement — when a scan asks
    /// for more than any before it). One job runs at a time per pool, so
    /// concurrent parallel scans normally serialize — the right shape for
    /// an analytical fleet that fans out one query at a time (use
    /// [`crate::ReaderScanBuilder::into_partitions`] to drive threads of
    /// your own instead). Exception: a scan that triggers growth gets the
    /// fresh, larger pool and runs alongside any scan still draining the
    /// old one — a one-off oversubscription per growth step, not a
    /// correctness concern.
    pub(crate) fn scan_pool(&self, threads: usize) -> Arc<WorkerPool> {
        let mut slot = self.inner.scan_pool.lock();
        match &*slot {
            Some(pool) if pool.threads() >= threads => Arc::clone(pool),
            _ => {
                let pool = Arc::new(WorkerPool::new(threads));
                *slot = Some(Arc::clone(&pool));
                pool
            }
        }
    }

    /// The observability surface: a point-in-time copy of this database's
    /// own metric registry — every `db_*`, `commit_*`, `snapshot_*`,
    /// `scan_*`, `mvcc_*` and (with a durability directory) `wal_*`
    /// counter and gauge plus the span-derived `*_ns` histograms, each
    /// counted once, here, by the layer the event happens in. Two
    /// databases in one process never see each other's values. The only
    /// values folded in at snapshot time are the two ledgers `anker-vmem`
    /// keeps for itself: `kernel_*` (the simulated kernel, all zeros on
    /// the OS backend) and `os_*` (the OS backend only). Render with
    /// [`obs::MetricsSnapshot::render_text`] (Prometheus exposition) or
    /// [`obs::MetricsSnapshot::render_json`].
    pub fn metrics(&self) -> obs::MetricsSnapshot {
        let mut m = self.inner.registry.snapshot();
        let k = self.inner.kernel.stats();
        const KERNEL: [(&str, &str); 14] = [
            (
                "kernel_virtual_ns",
                "Virtual nanoseconds on the simulated kernel clock",
            ),
            ("kernel_mmap_calls_total", "Simulated mmap calls"),
            ("kernel_munmap_calls_total", "Simulated munmap calls"),
            ("kernel_mprotect_calls_total", "Simulated mprotect calls"),
            (
                "kernel_vm_snapshot_calls_total",
                "Simulated vm_snapshot calls",
            ),
            ("kernel_fork_calls_total", "Simulated fork calls"),
            ("kernel_page_faults_total", "Simulated page faults"),
            ("kernel_cow_faults_total", "Simulated copy-on-write faults"),
            (
                "kernel_protection_faults_total",
                "Simulated protection faults",
            ),
            ("kernel_frames_allocated_total", "Physical frames allocated"),
            ("kernel_frames_freed_total", "Physical frames freed"),
            ("kernel_ptes_copied_total", "Page-table entries copied"),
            ("kernel_vmas_copied_total", "VMA descriptors copied"),
            (
                "kernel_pages_copied_total",
                "Whole pages copied (CoW resolution)",
            ),
        ];
        let kernel_vals = [
            k.virtual_ns,
            k.mmap_calls,
            k.munmap_calls,
            k.mprotect_calls,
            k.vm_snapshot_calls,
            k.fork_calls,
            k.page_faults,
            k.cow_faults,
            k.protection_faults,
            k.frames_allocated,
            k.frames_freed,
            k.ptes_copied,
            k.vmas_copied,
            k.pages_copied,
        ];
        for ((name, help), v) in KERNEL.iter().zip(kernel_vals) {
            m.set_counter(name, help, v);
        }
        if let Some(os) = self.inner.backend.os_stats() {
            let counters: [(&str, &str, u64); 12] = [
                (
                    "os_snapshots_total",
                    "vm_snapshot and vm_snapshot_read_through calls served by the OS backend",
                    os.snapshots,
                ),
                (
                    "os_cow_copies_total",
                    "Copy-on-write page splits: first stores to a frozen live page that private snapshot views still read through (each view takes its copy: a zero-copy snapshot with one populate, an image cut for reading through with one user-space copy)",
                    os.cow_copies,
                ),
                (
                    "os_cow_reclaims_total",
                    "Frozen pages made writable in place at write time because no private view still read them through",
                    os.cow_reclaims,
                ),
                (
                    "os_populate_writes_total",
                    "MADV_POPULATE_WRITE calls issued: one per zero-copy snapshot copying one page in a split",
                    os.populate_writes,
                ),
                (
                    "os_user_copies_total",
                    "User-space split copies: one memcpy of the live page into a resident pool page per image cut for reading through, per split",
                    os.user_copies,
                ),
                (
                    "os_dontneed_advices_total",
                    "MADV_DONTNEED calls issued: one per zero-copy snapshot, dropping the live view's page tables",
                    os.dontneed_advices,
                ),
                (
                    "os_huge_page_advices_total",
                    "MADV_HUGEPAGE hints issued",
                    os.huge_page_advices,
                ),
                (
                    "os_mmap_calls_total",
                    "mmap calls issued: one per view mapped (each alloc, snapshot and physical copy); the copy pool's slabs are not views and not counted",
                    os.mmap_calls,
                ),
                (
                    "os_munmap_calls_total",
                    "munmap calls issued for views; the copy pool's slabs are not counted",
                    os.munmap_calls,
                ),
                (
                    "os_pwrite_calls_total",
                    "pwrite calls issued: one per physical copy (a snapshot of a private view); the engine issues none",
                    os.pwrite_calls,
                ),
                (
                    "os_ftruncate_calls_total",
                    "ftruncate calls issued: one per memfd, sizing it (one per live column and per physical copy)",
                    os.ftruncate_calls,
                ),
                (
                    "os_madvise_calls_total",
                    "madvise calls issued (populates, DONTNEEDs and hints)",
                    os.madvise_calls,
                ),
            ];
            for (name, help, v) in counters {
                m.set_counter(name, help, v);
            }
            m.set_gauge(
                "os_wired_runs",
                "Views mapped: one mmap of one whole memfd each (the backend's mappings); splits never change it",
                os.wired_runs as i64,
            );
            m.set_gauge(
                "os_copy_pages_in_use",
                "Copy-pool pages images hold as the copies of their split pages",
                os.copy_pages_in_use as i64,
            );
            m.set_gauge(
                "os_copy_pages_pooled",
                "Resident copy-pool pages no image holds, kept for the next splits",
                os.copy_pages_pooled as i64,
            );
        }
        m
    }

    /// Dump the per-thread span journals as Chrome-tracing JSON (load in
    /// `chrome://tracing` or Perfetto). Unlike [`AnkerDb::metrics`] the
    /// journal is process-wide: a thread's ring holds its spans whichever
    /// database they were for. Ring buffers hold the most recent
    /// [`ANKER_OBS_RING`](obs) events per thread, so this is a tail, not a
    /// full history; each thread reports how many events it overwrote.
    pub fn trace_dump(&self) -> String {
        obs::trace_json()
    }

    /// Version-chain entries currently held for one column across its
    /// current store **and** every frozen epoch store still retained for
    /// old readers (diagnostics).
    pub fn column_versions(&self, table: TableId, col: anker_storage::ColumnId) -> u64 {
        self.table_state(table)
            .col(col.0)
            .versioned
            .total_version_count()
    }

    /// Total version-chain entries currently held across all tables and
    /// epochs — current stores plus retained frozen epoch stores
    /// (diagnostics for Figure 9-style experiments).
    pub fn total_versions(&self) -> u64 {
        self.inner
            .tables
            .read()
            .iter()
            .flat_map(|t| t.cols.iter())
            .map(|c| c.versioned.total_version_count())
            .sum()
    }

    /// Acquire the serialized commit section in strict arrival order (see
    /// [`CommitLock`]). It covers heterogeneous commits from their shard
    /// locks through completion (never the fsync), snapshot
    /// materialisation, epoch cuts, bulk loads, and housekeeping.
    /// Homogeneous commits validate, log and install outside it.
    pub(crate) fn lock_commit(&self) -> CommitGuard<'_> {
        self.inner.commit_mx.lock()
    }

    /// Experiment support (§5.6, Figure 10): measure the cost of
    /// snapshotting each column of `table` individually with `vm_snapshot`.
    /// Returns per-column `(name, stats-delta)`; the probe snapshots are
    /// dropped again immediately. On the OS backend the snapshots are real
    /// but the virtual-clock deltas are zero (wall-clock benches measure
    /// that backend instead).
    pub fn snapshot_cost_probe(
        &self,
        table: TableId,
    ) -> Result<Vec<(String, anker_vmem::KernelStats)>> {
        let state = self.table_state(table);
        let _cs = self.lock_commit();
        // No lock-free store may race a `vm_snapshot` of its area (see
        // `anker_vmem::view`). Homogeneous installs run outside the commit
        // section, so drain them first, as a GC pass does.
        let quiesce = self.inner.config.mode == ProcessingMode::Homogeneous;
        if quiesce {
            self.inner.oracle.freeze_commits();
            while !self.inner.oracle.drained() {
                std::thread::yield_now();
            }
        }
        let out = self.snapshot_each_column(&state);
        if quiesce {
            self.inner.oracle.unfreeze_commits();
        }
        out
    }

    fn snapshot_each_column(
        &self,
        state: &TableState,
    ) -> Result<Vec<(String, anker_vmem::KernelStats)>> {
        let mut out = Vec::with_capacity(state.cols.len());
        for (id, def) in state.schema.iter() {
            let area = state.col(id.0).current_area();
            let before = self.inner.kernel.stats();
            let snap = self
                .inner
                .backend
                .vm_snapshot(None, area.addr(), area.mapped_bytes())?;
            let delta = self.inner.kernel.stats().delta_since(&before);
            self.inner.backend.release(snap, area.mapped_bytes())?;
            out.push((def.name.clone(), delta));
        }
        Ok(out)
    }

    /// Experiment support (§5.6, Figure 10): the cost of snapshotting via
    /// `fork`, which duplicates the *entire* database address space —
    /// every column of every table plus all live snapshot areas. (The
    /// paper's process also contained indexes and version chains; ours
    /// keeps those outside the simulated space, which only understates
    /// fork's disadvantage.)
    pub fn fork_cost_probe(&self) -> Result<anker_vmem::KernelStats> {
        if self.inner.config.backend != BackendKind::Sim {
            // Really forking the process is not something a library should
            // do to its host; the fork comparison is a simulator-only
            // experiment.
            return Err(anker_vmem::VmError::InvalidArgument(
                "the fork cost probe requires the simulated backend",
            )
            .into());
        }
        let _cs = self.lock_commit();
        let before = self.inner.kernel.stats();
        let child = self.inner.space.fork()?;
        let delta = self.inner.kernel.stats().delta_since(&before);
        drop(child);
        Ok(delta)
    }

    /// Run one garbage-collection pass (homogeneous mode). Takes the
    /// commit lock and — in homogeneous mode, where installs run outside
    /// it — additionally freezes commit-timestamp allocation and drains
    /// in-flight committers first. The freeze is still needed although a
    /// block's newest-install timestamp is never rewritten: the pass
    /// rewrites every block's `[first, last]` range from the chains it
    /// retains, which would erase a concurrent push, and it drops a whole
    /// chain when the row's word names a visible timestamp, which on a
    /// latched row mid-install could drop the version the install just
    /// pushed (see [`anker_mvcc::ChainStore::gc`]). This stop-the-world
    /// window is exactly the cost the paper attributes to classical MVCC
    /// GC.
    pub fn run_gc_once(&self) -> u64 {
        // Whole-pass latency, commit-lock wait and quiesce spin included —
        // that wait is the cost OLTP actually pays for a GC pass.
        let _obs_gc = obs::Span::begin(&self.inner.m.gc_pass);
        let _cs = self.lock_commit();
        let quiesce = self.inner.config.mode == ProcessingMode::Homogeneous;
        if quiesce {
            self.inner.oracle.freeze_commits();
            sched::hit("gc:frozen");
            while !self.inner.oracle.drained() {
                std::thread::yield_now();
            }
        }
        // In heterogeneous mode installs happen under the commit lock we
        // already hold, so the pass is quiescent either way.
        let min = self
            .inner
            .active
            .min_active_or(self.inner.oracle.last_completed());
        let mut removed = 0u64;
        for table in self.inner.tables.read().iter() {
            for col in &table.cols {
                removed += col.versioned.gc(min);
            }
        }
        if quiesce {
            self.inner.oracle.unfreeze_commits();
        }
        // Housekeeping that only needs shard locks runs after commits
        // resume: a committer parked in `begin_commit` during the freeze
        // may hold validation-shard locks, so taking them before
        // unfreezing could deadlock.
        for table in self.inner.tables.read().iter() {
            for col in &table.cols {
                col.versioned.release_frozen(min);
            }
        }
        self.inner.recent.prune(min);
        self.inner.m.gc_passes.inc();
        removed
    }

    /// Shut the database down cleanly: stop the background checkpointer
    /// and GC threads, drop the cached scan worker pool (joining its
    /// threads), and flush + `fdatasync` the write-ahead log so every
    /// acknowledged commit is durable regardless of durability level.
    ///
    /// **Idempotent** — safe to call any number of times — and also
    /// invoked automatically when the last database handle drops, so a
    /// forgotten call no longer leaks the worker-pool threads or an
    /// unsynced WAL tail. Call it explicitly when you need the flush to
    /// happen at a deterministic point (e.g. before copying the
    /// durability directory).
    pub fn shutdown(&self) {
        self.inner.shutdown_inner();
    }
}

impl DbInner {
    fn shutdown_inner(&self) {
        if let Some(t) = self.ckpt.lock().take() {
            t.stop_and_join();
        }
        if let Some(t) = self.gc.lock().take() {
            t.stop_and_join();
        }
        // Dropping the last Arc joins the pool's worker threads; scans
        // still holding a clone keep theirs alive until they finish.
        self.scan_pool.lock().take();
        if let Some(d) = self.dura.get() {
            if d.level != DurabilityLevel::Off {
                if let Err(e) = d.wal.sync_all() {
                    eprintln!("ankerdb: WAL flush on shutdown failed: {e}");
                }
            }
        }
    }
}

impl Drop for DbInner {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendKind;
    use anker_storage::{ColumnDef, LogicalType};

    /// With every table id taken, `create_table` fails typed: no id is
    /// consumed and the columns it allocated are unmapped again.
    #[test]
    fn the_last_table_id_fails_typed_and_unmaps_its_columns() {
        let db = AnkerDb::new(DbConfig::default().with_backend(BackendKind::Sim));
        let schema = || {
            Schema::new(vec![
                ColumnDef::new("a", LogicalType::Int),
                ColumnDef::new("b", LogicalType::Int),
            ])
        };
        let first = db.create_table("t", schema(), 600).unwrap();
        // Take all ids but the last by aliasing the first table's state.
        {
            let mut tables = db.inner.tables.write();
            let state = Arc::clone(&tables[first.0 as usize]);
            tables.resize(u16::MAX as usize - 1, state);
        }
        let vmas = db.inner.space.vma_count();
        let last = db.create_table("last", schema(), 600).unwrap();
        assert_eq!(last, TableId(u16::MAX - 1));
        let after_last = db.inner.space.vma_count();
        assert!(after_last > vmas);
        assert_eq!(
            db.create_table("one_too_many", schema(), 600),
            Err(DbError::TooManyTables)
        );
        assert_eq!(db.inner.space.vma_count(), after_last, "columns unmapped");
        assert_eq!(db.inner.tables.read().len(), u16::MAX as usize);
    }
}
