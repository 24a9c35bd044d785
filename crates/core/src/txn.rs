//! Transactions: classification, reads on live or snapshotted data, local
//! writes, and the serialized commit protocol.

use crate::config::ProcessingMode;
use crate::db::AnkerDb;
use crate::error::{AbortReason, DbError, Result};
use crate::reader::SnapshotReader;
use crate::table::{TableId, TableState};
use anker_mvcc::{
    ColRef, CommitRecord, IsolationLevel, LocalWrite, RowLatch, ScanStats, Transaction, TxnId,
    WriteRecord,
};
use anker_storage::{ColumnId, Value};
use anker_util::sched;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One conflicting commit reported to a [`Txn::commit_with_repair`]
/// round: the offender's commit timestamp and exactly the keys whose
/// writes intersected this transaction's read predicates — the keys the
/// repair closure should re-read (nothing else changed underneath it).
#[derive(Debug, Clone)]
pub struct RepairConflict {
    /// The conflicting commit's timestamp.
    pub commit_ts: u64,
    /// The intersecting keys, as `(table, column, row)`.
    pub keys: Vec<(TableId, ColumnId, u32)>,
}

/// Why one pipeline commit attempt did not go through.
enum AttemptError {
    /// Unrecoverable engine error (I/O, bounds).
    Hard(DbError),
    /// First-updater-wins write-write conflict: never repairable.
    WwConflict,
    /// Read-set validation failed against these committed transactions.
    Validation(Vec<RepairConflict>),
}

/// Transaction classification (§2.2): modifying, short-running transactions
/// are OLTP; long-running read-only analytics are OLAP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// Runs on the most recent representation; may write.
    Oltp,
    /// Read-only by contract; in heterogeneous mode it runs entirely on the
    /// newest snapshot epoch and never checks version chains.
    Olap,
}

/// A running transaction. Obtain with [`AnkerDb::begin`]; finish with
/// [`Txn::commit`] or [`Txn::abort`] (dropping aborts implicitly).
///
/// Reads go through [`Txn::get`]/[`Txn::get_value`] for single rows and
/// through the [`crate::ScanBuilder`] obtained from [`Txn::scan_on`] for
/// table scans with pushed-down predicates.
pub struct Txn {
    pub(crate) db: AnkerDb,
    pub(crate) inner: Transaction,
    kind: TxnKind,
    /// The reader of the pinned snapshot epoch (heterogeneous OLAP only):
    /// every read goes through it, and its drop unpins the epoch.
    pub(crate) reader: Option<SnapshotReader>,
    /// Per-transaction cache of resolved table states: avoids re-taking the
    /// tables RwLock on every operation (a measurable cache-line ping-pong
    /// between cores on the OLTP hot path).
    table_cache: Vec<Option<Arc<TableState>>>,
    /// Running total of all scan statistics this transaction produced.
    pub(crate) scan_stats: ScanStats,
    active_token: Option<anker_mvcc::ActiveToken>,
    finished: bool,
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.inner.id())
            .field("kind", &self.kind)
            .field("start_ts", &self.inner.start_ts())
            .finish()
    }
}

impl Txn {
    pub(crate) fn begin(db: AnkerDb, kind: TxnKind) -> Txn {
        let heterogeneous = db.inner.config.mode == ProcessingMode::Heterogeneous;
        let reader = (heterogeneous && kind == TxnKind::Olap)
            .then(|| SnapshotReader::pin(&db, db.inner.config.snapshot_every_commits));
        // Only transactions that may read a version chain register in the
        // OLTP version horizon: a heterogeneous OLAP transaction reads its
        // pinned epoch's frozen images, which its pin keeps alive.
        let (start_ts, active_token) = match &reader {
            Some(r) => (r.epoch_ts(), None),
            None => {
                let start_ts = db.inner.oracle.start_ts();
                (start_ts, Some(db.inner.active.register(start_ts)))
            }
        };
        static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let id = TxnId(NEXT_ID.fetch_add(1, Ordering::Relaxed));
        Txn {
            db,
            inner: Transaction::begin(id, start_ts),
            kind,
            reader,
            table_cache: Vec::new(),
            scan_stats: ScanStats::default(),
            active_token,
            finished: false,
        }
    }

    /// Resolve (and cache) a table's state for the rest of this
    /// transaction. Tables are append-only registered, so the cache cannot
    /// go stale.
    pub(crate) fn table(&mut self, table: TableId) -> Arc<TableState> {
        Arc::clone(self.table_ref(table))
    }

    /// [`Txn::table`] by reference, for the point-read hot path.
    fn table_ref(&mut self, table: TableId) -> &Arc<TableState> {
        let idx = table.0 as usize;
        if idx >= self.table_cache.len() {
            self.table_cache.resize(idx + 1, None);
        }
        self.table_cache[idx].get_or_insert_with(|| {
            let state = self.db.table_state(table);
            // This table's data is now part of a transaction's footprint:
            // close its bulk-load window (see `AnkerDb::fill_column`).
            state.mark_observed();
            state
        })
    }

    /// The transaction's classification.
    pub fn kind(&self) -> TxnKind {
        self.kind
    }

    /// The snapshot timestamp all reads observe. For heterogeneous OLAP
    /// transactions this is the epoch timestamp — slightly stale but
    /// serializable at that point (§2.2).
    pub fn start_ts(&self) -> u64 {
        self.inner.start_ts()
    }

    pub(crate) fn colref(table: TableId, col: ColumnId) -> ColRef {
        ColRef::new(table.0, col.0 as u16)
    }

    pub(crate) fn serializable_updater(&self) -> bool {
        self.kind == TxnKind::Oltp && self.db.inner.config.isolation == IsolationLevel::Serializable
    }

    /// Read the raw word of `(table, col, row)` under this transaction's
    /// visibility. A row past the table's last is
    /// [`DbError::RowOutOfRange`].
    pub fn get(&mut self, table: TableId, col: ColumnId, row: u32) -> Result<u64> {
        let cref = Self::colref(table, col);
        if let Some(own) = self.inner.own_write(cref, row) {
            return Ok(own);
        }
        if let Some(reader) = &self.reader {
            // Heterogeneous OLAP: read the frozen snapshot in place — no
            // timestamps, no chains.
            return reader.get(table, col, row);
        }
        let start_ts = self.inner.start_ts();
        let state = self.table_ref(table);
        table.check_row(row, state.rows)?;
        let cs = state.col(col.0);
        let v = cs.versioned.read(cs.current_area(), row, start_ts)?;
        if self.serializable_updater() {
            self.inner.log_row_read(cref, row);
        }
        Ok(v)
    }

    /// Typed read.
    pub fn get_value(&mut self, table: TableId, col: ColumnId, row: u32) -> Result<Value> {
        let ty = self.table_ref(table).schema.def(col).ty;
        Ok(Value::decode(self.get(table, col, row)?, ty))
    }

    /// Buffer an update of `(table, col, row)` to `word`. Nothing shared is
    /// touched until commit; aborts are free. A row past the table's last
    /// is [`DbError::RowOutOfRange`].
    pub fn update(&mut self, table: TableId, col: ColumnId, row: u32, word: u64) -> Result<()> {
        if self.kind == TxnKind::Olap {
            return Err(DbError::ReadOnlyTransaction);
        }
        let rows = self.table_ref(table).rows;
        table.check_row(row, rows)?;
        let cref = Self::colref(table, col);
        if self.db.inner.config.isolation == IsolationLevel::Serializable {
            // The update's target row is part of the read footprint.
            self.inner.log_row_read(cref, row);
        }
        self.inner.write(cref, row, word);
        Ok(())
    }

    /// Typed update.
    pub fn update_value(
        &mut self,
        table: TableId,
        col: ColumnId,
        row: u32,
        value: Value,
    ) -> Result<()> {
        self.update(table, col, row, value.encode())
    }

    /// Start building a scan over `table`: chain typed predicates and a
    /// projection on the returned [`crate::ScanBuilder`], then finish with
    /// one of its terminal methods. Predicates are pushed down into the
    /// block loops of both scan paths and are automatically converted into
    /// precision locks for serializable updaters — no manual
    /// `log_range`/`log_dict_eq` calls needed.
    ///
    /// ```
    /// # use anker_core::{AnkerDb, ColumnDef, DbConfig, LogicalType, Schema, TxnKind, Value};
    /// # let db = AnkerDb::new(DbConfig::default());
    /// # let t = db.create_table(
    /// #     "x", Schema::new(vec![ColumnDef::new("v", LogicalType::Int)]), 8).unwrap();
    /// # let v = db.schema(t).col("v");
    /// # db.fill_column(t, v, (0..8).map(|i| Value::Int(i).encode())).unwrap();
    /// let mut olap = db.begin(TxnKind::Olap);
    /// let (sum, _stats) = olap
    ///     .scan_on(t)
    ///     .range_i64(v, 2, 5)
    ///     .project(&[v])
    ///     .fold(0i64, |acc, _row, vals| acc + vals[0].as_int())
    ///     .unwrap();
    /// assert_eq!(sum, 2 + 3 + 4 + 5);
    /// ```
    pub fn scan_on(&mut self, table: TableId) -> crate::scan::ScanBuilder<'_> {
        let state = self.table(table);
        crate::scan::Scan::new(self, table, state)
    }

    /// Running total of the scan statistics of every scan this transaction
    /// executed (each terminal scan method also returns its own
    /// [`ScanStats`]).
    pub fn scan_stats(&self) -> ScanStats {
        self.scan_stats
    }

    /// Commit. Read-only transactions commit without validation (they are
    /// serializable at their snapshot point); updaters go through the
    /// concurrent commit pipeline (see `DESIGN.md`, "Commit pipeline"):
    ///
    /// 1. latch every write row in ascending `(col, row)` order and check
    ///    write-write conflicts (first-updater-wins);
    /// 2. in heterogeneous mode, enter the serialized commit section and
    ///    hold it through stage 6; then lock the validation shards
    ///    covering the write and predicate tables (ascending — the sorted
    ///    phases make concurrent committers deadlock-free);
    /// 3. draw the commit timestamp;
    /// 4. validate the read set against the locked shards (serializable
    ///    mode);
    /// 5. append the WAL record (carrying a `(commit_ts, seq)` pair — file
    ///    order is *not* timestamp order) and publish the commit record to
    ///    the write shards;
    /// 6. release the shards, install the latched rows and complete the
    ///    timestamp. Homogeneous installs run out of timestamp order
    ///    relative to other committers; readers are gated by the
    ///    stable-timestamp watermark, which only advances once every older
    ///    commit has fully installed;
    /// 7. group-commit fsync outside all locks.
    ///
    /// Equivalent to [`Txn::commit_with_repair`] with zero repair rounds.
    pub fn commit(self) -> Result<u64> {
        self.commit_with_repair(0, |_, _| Ok(()))
    }

    /// Commit with bounded conflict repair: when read-set validation fails,
    /// instead of aborting, wait until every conflicting commit is fully
    /// installed, advance the snapshot to the youngest conflicting commit,
    /// and hand the conflicting keys to `repair`, which re-reads them and
    /// rewrites the transaction's updates; then revalidate. At most
    /// `max_rounds` rounds; after that the transaction aborts with the
    /// usual [`AbortReason::ValidationFailed`]. Write-write conflicts are
    /// never repaired (first-updater-wins is the paper's §2.1 contract),
    /// and an error from `repair` aborts immediately with that error.
    ///
    /// The caller's closure must recompute its writes from the re-read
    /// values — the engine cannot know the transaction's logic. Typical
    /// shape:
    ///
    /// ```ignore
    /// txn.commit_with_repair(3, |t, conflicts| {
    ///     for c in conflicts {
    ///         for &(table, col, row) in &c.keys {
    ///             let fresh = t.get(table, col, row)?; // new snapshot
    ///             t.update(table, col, row, recompute(fresh))?;
    ///         }
    ///     }
    ///     Ok(())
    /// })
    /// ```
    pub fn commit_with_repair<F>(mut self, max_rounds: u32, mut repair: F) -> Result<u64>
    where
        F: FnMut(&mut Txn, &[RepairConflict]) -> Result<()>,
    {
        if self.finished {
            return Err(DbError::AlreadyFinished);
        }
        self.finished = true;
        let db = self.db.clone();

        if self.inner.writes().is_empty() {
            let start_ts = self.inner.start_ts();
            self.release();
            db.inner.m.committed_read_only.inc();
            return Ok(start_ts);
        }

        let mut rounds = 0u32;
        loop {
            match self.commit_attempt() {
                Ok(commit_ts) => {
                    self.release();
                    db.inner.m.committed.inc();
                    if rounds > 0 {
                        db.inner.m.repaired_commits.inc();
                    }
                    return Ok(commit_ts);
                }
                Err(AttemptError::WwConflict) => {
                    self.release();
                    db.inner.m.aborted_ww.inc();
                    return Err(DbError::Aborted(AbortReason::WriteWriteConflict));
                }
                Err(AttemptError::Validation(conflicts)) => {
                    if rounds >= max_rounds {
                        self.release();
                        db.inner.m.aborted_validation.inc();
                        return Err(DbError::Aborted(AbortReason::ValidationFailed {
                            conflicting_commit: conflicts[0].commit_ts,
                        }));
                    }
                    rounds += 1;
                    db.inner.m.repair_rounds.inc();
                    sched::hit("repair:conflict");
                    // Wait for the watermark to cover the youngest
                    // conflicting commit (conflicts come in ascending ts
                    // order), then advance the snapshot to exactly that
                    // timestamp — never to the current watermark, which
                    // may already have run past a commit that published
                    // after our shard locks dropped. Such a commit would
                    // then sit at-or-below the new snapshot, escaping the
                    // next round's validation even though this round's
                    // repair never re-read its keys. `target` is safe on
                    // both sides: every conflictor of this round has
                    // ts <= target, so the repair reads see its writes
                    // once the watermark covers it; and any intersecting
                    // commit published after our shard locks dropped drew
                    // its timestamp after our aborted one — above target —
                    // so the next round's validation still scans it.
                    let target = conflicts.last().map(|c| c.commit_ts).unwrap_or(0);
                    let mut spins = 0u32;
                    while db.inner.oracle.last_completed() < target {
                        spins += 1;
                        if spins.is_multiple_of(64) {
                            std::thread::yield_now();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    self.inner.advance_snapshot(target);
                    if let Err(e) = repair(&mut self, &conflicts) {
                        self.release();
                        return Err(e);
                    }
                }
                Err(AttemptError::Hard(e)) => {
                    self.release();
                    return Err(e);
                }
            }
        }
    }

    /// One pass through the commit pipeline (stages 1–7 of [`Txn::commit`]).
    fn commit_attempt(&mut self) -> std::result::Result<u64, AttemptError> {
        let db = self.db.clone();
        let start_ts = self.inner.start_ts();
        let serializable = db.inner.config.isolation == IsolationLevel::Serializable;
        let heterogeneous = db.inner.config.mode == ProcessingMode::Heterogeneous;

        // Tracing: one span per pipeline stage, chained with
        // `Span::switch` so adjacent stages share a single clock read.
        // The whole chain — stages and the end-to-end `commit_total_ns`
        // histogram it feeds — is *sampled* (see [`COMMIT_SAMPLE_SHIFT`]);
        // only the attempt counter is exact. The span ends itself on
        // every exit below (returns, and the fail-stop unwinds), closing
        // the open stage and the total together, so at quiescence
        // `commit_total_ns.count == commit_stage_latch_ns.count` exactly.
        let m = &*db.inner.m;
        m.commit_attempts.inc();
        let mut obs_span = obs::Span::begin_sampled(&m.commit_stage_latch, COMMIT_SAMPLE_SHIFT)
            .with_total(&m.commit_total);

        // Stage 1 — install latches. All write rows latch in ascending
        // (col, row) order *before* any shard lock; the global sort order
        // makes concurrent committers deadlock-free, and each latch
        // freezes the row's (ts, value) pair for the write-write check,
        // the commit record, and the eventual install. `latches` is the
        // write set's guard: every exit below that has not installed a
        // row drops its latch, which restores the row.
        let mut writes: Vec<(LocalWrite, Arc<TableState>)> =
            Vec::with_capacity(self.inner.writes().len());
        for i in 0..self.inner.writes().len() {
            let w = self.inner.writes()[i];
            writes.push((w, self.table(TableId(w.col.table))));
        }
        writes.sort_unstable_by_key(|(w, _)| (w.col, w.row));
        let mut latches: Vec<RowLatch<'_>> = Vec::with_capacity(writes.len());
        for (w, state) in &writes {
            let col = state.col(w.col.col as usize);
            // The witness key mirrors the sort order above, so the
            // ordered-class strictly-ascending rule checks exactly the
            // deadlock-freedom argument.
            let key = ((w.col.table as u64) << 48) | ((w.col.col as u64) << 32) | w.row as u64;
            let latch = col
                .versioned
                .lock_row(col.current_area(), w.row, key)
                .map_err(|e| AttemptError::Hard(e.into()))?;
            if latch.old_ts() > start_ts {
                // First-updater-wins (§2.1).
                return Err(AttemptError::WwConflict);
            }
            latches.push(latch);
        }
        sched::hit("commit:latched");
        obs_span.switch(&m.commit_stage_validate);

        // Stage 2 — heterogeneous mode enters the serialized commit
        // section here, before any shard lock, and holds it through
        // install and completion. Its commit timestamps are therefore
        // drawn and settled only inside the section, so whoever holds the
        // section sees commit quiescence: the live columns match the
        // watermark, and an epoch can be cut (`AnkerDb::pin_current_epoch`).
        // Homogeneous mode installs lock-free and skips the section.
        let mut cs = heterogeneous.then(|| db.lock_commit());
        // Then the validation-shard locks (ascending), covering the tables
        // written and the tables the read predicates touch. Snapshot
        // isolation skips validation and publishes no commit records, so
        // it takes no shard locks at all.
        let mut guards = serializable.then(|| {
            let tables: Vec<u16> = writes
                .iter()
                .map(|(w, _)| w.col.table)
                .chain(self.inner.predicates().tables())
                .collect();
            db.inner.recent.lock_tables(&tables)
        });
        sched::hit("commit:shards");

        // Stage 3 — commit timestamp, allocated while holding the full
        // shard set: two committers sharing any shard serialize around
        // allocation, so per-shard record order stays timestamp order.
        // Only the homogeneous GC pass freezes allocation. Blocking on it
        // with the shards held is safe: every in-flight committer already
        // holds its own shards and installs without the commit section,
        // so the pass's drain completes without anything we hold.
        let commit_ts = db.inner.oracle.begin_commit();
        sched::hit("commit:validate");

        // Stage 4 — read-set validation via precision locking (§2.1),
        // against exactly the locked shards.
        if let Some(g) = &guards {
            let conflicts = g.conflicts(start_ts, self.inner.predicates());
            if !conflicts.is_empty() {
                db.inner.oracle.abort_commit(commit_ts);
                drop(guards);
                return Err(AttemptError::Validation(
                    conflicts
                        .into_iter()
                        .map(|c| RepairConflict {
                            commit_ts: c.commit_ts,
                            keys: c
                                .keys
                                .into_iter()
                                .map(|(col, row)| {
                                    (TableId(col.table), ColumnId(col.col as usize), row)
                                })
                                .collect(),
                        })
                        .collect(),
                ));
            }
        }

        // Stage 5 — write-ahead logging (redo rule: the record must exist
        // before any of its effects can). Homogeneous committers hold
        // only their shard locks here, so those with disjoint footprints
        // append in whatever order they reach the log; the record carries
        // a `(commit_ts, seq)` pair and recovery sorts. An append failure
        // still aborts cleanly: nothing has installed yet.
        obs_span.switch(&m.commit_stage_wal);
        let mut wal_pending = None;
        if let Some(d) = db.inner.dura.get() {
            if d.level != anker_dura::DurabilityLevel::Off {
                let rec = anker_dura::WalRecord::Commit {
                    commit_ts,
                    seq: d.next_seq.fetch_add(1, Ordering::Relaxed),
                    writes: writes
                        .iter()
                        .map(|(w, _)| anker_dura::WalWrite {
                            table: w.col.table,
                            col: w.col.col,
                            row: w.row,
                            word: w.new_word,
                        })
                        .collect(),
                };
                match d.wal.append(&rec) {
                    Ok(lsn) => {
                        d.commits_since_ckpt.fetch_add(1, Ordering::Relaxed);
                        if d.level == anker_dura::DurabilityLevel::Fsync {
                            wal_pending = Some((Arc::clone(d), lsn));
                        }
                    }
                    Err(e) => {
                        db.inner.oracle.abort_commit(commit_ts);
                        drop(guards);
                        return Err(AttemptError::Hard(e.into()));
                    }
                }
            }
        }
        sched::hit("commit:logged");
        obs_span.switch(&m.commit_stage_install);
        // The record is durable: from here a latch is released only by
        // its install, so a fail-stop unwind leaves the rows latched
        // rather than exposing their old values as current.
        for latch in &mut latches {
            latch.hold_until_install();
        }

        // Publish the commit record to the write-table shards, then let
        // the shards go — validation by others proceeds while we install.
        // The record uses the latched old values: they are exact (the
        // latch froze them) and the record must be visible to validators
        // before our installs are (conservative, never the reverse).
        if let Some(g) = &mut guards {
            g.push(CommitRecord {
                commit_ts,
                writes: writes
                    .iter()
                    .zip(&latches)
                    .map(|((w, _), latch)| WriteRecord {
                        col: w.col,
                        row: w.row,
                        old: latch.old_word(),
                        new: w.new_word,
                    })
                    .collect(),
            });
        }
        drop(guards);
        sched::hit("commit:pre-install");

        // Stage 6 — install. From here the commit is published (logged
        // and validated against); a failure cannot roll back, so it is
        // fail-stop. Heterogeneous mode installs inside the commit
        // section it took at stage 2 (snapshot materialisation must see
        // a quiescent column); homogeneous mode installs lock-free under
        // the row latches.
        if let Some(cs) = &mut cs {
            // Settle the snapshot state of every column we are about to
            // write (§2.2.2): pinned epochs missing the column get it
            // materialised now; unpinned ones are damage-marked.
            let mut seen: Vec<(u16, u16)> = Vec::with_capacity(writes.len());
            for (w, state) in &writes {
                let key = (w.col.table, w.col.col);
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                // Fast path: no epoch yet, or the column is already
                // settled (materialised or damage-marked) for the newest.
                if db.inner.snapman.write_is_settled(state.col(key.1 as usize)) {
                    continue;
                }
                // Fail-stop: the commit record is already durable, so a
                // half-installed commit cannot be rolled back; dying
                // mid-install is designed.
                db.inner
                    .snapman
                    .note_write(cs, state, key.0, key.1)
                    .expect("snapshot materialisation failed mid-commit");
            }
        }
        for ((w, state), latch) in writes.iter().zip(latches) {
            let col = state.col(w.col.col as usize);
            // Fail-stop after the durable commit record.
            col.versioned
                .install_locked(col.current_area(), latch, w.new_word, commit_ts)
                .expect("install failed after the commit was logged");
            // ORDERING: Release pairs with the materialisation path's
            // reads — a snapshot that sees this mutation timestamp also
            // sees the installed value.
            col.last_mutation_ts.store(commit_ts, Ordering::Release);
        }
        sched::hit("commit:installed");
        db.inner.oracle.complete_commit(commit_ts);

        if let Some(mut cs) = cs {
            // Snapshot trigger every n commits (§5.1(3)). Still inside
            // the section, so no heterogeneous commit is in flight and
            // the live columns match the watermark exactly.
            debug_assert!(db.inner.oracle.drained(), "commit outside the section");
            cs.commits_since_snapshot += 1;
            cs.commits_since_prune += 1;
            if cs.commits_since_snapshot >= db.inner.config.snapshot_every_commits {
                cs.commits_since_snapshot = 0;
                let now = db.inner.oracle.last_completed();
                db.inner.snapman.trigger_epoch(&mut cs, now);
                if db.inner.config.eager_materialization {
                    // §2.2.2's rejected eager alternative, kept as an
                    // ablation: snapshot every column right away.
                    // Fail-stop after the durable commit record.
                    let tables: Vec<_> = db.inner.tables.read().clone();
                    for (tid, state) in tables.iter().enumerate() {
                        for cid in 0..state.cols.len() {
                            db.inner
                                .snapman
                                .materialize_column(&mut cs, state, tid as u16, cid as u16)
                                .expect("eager materialisation failed mid-commit");
                        }
                    }
                }
            }
            // Periodic housekeeping: prune the recently-committed list
            // and retire frozen chain stores behind the active horizon.
            // The snapshot hand-over is the garbage collector here — but
            // an analytics-free phase takes no snapshots, so a bounded
            // fallback keeps chains from growing without limit (a case
            // the paper does not discuss). The chain GC is safe without a
            // commit freeze: every heterogeneous install runs under the
            // commit section we hold.
            if cs.commits_since_prune >= 128 {
                cs.commits_since_prune = 0;
                let min = db.inner.active.min_active_or(commit_ts);
                db.inner.recent.prune(min);
                /// Versions one column may accumulate before the fallback
                /// GC trims its current chain store.
                const HETERO_CHAIN_CAP: u64 = 65_536;
                for t in db.inner.tables.read().iter() {
                    for c in &t.cols {
                        c.versioned.release_frozen(min);
                        if c.versioned.current_store().version_count() > HETERO_CHAIN_CAP {
                            c.versioned.gc(min);
                        }
                    }
                }
            }
            drop(cs);
        } else {
            // Homogeneous periodic housekeeping, cadenced by an atomic
            // tick (the install path holds no lock to keep a counter
            // under); the threshold-crossing committer takes the commit
            // section just for the prune.
            let tick = db.inner.prune_tick.fetch_add(1, Ordering::Relaxed) + 1;
            if tick.is_multiple_of(128) {
                let _cs = db.lock_commit();
                let min = db
                    .inner
                    .active
                    .min_active_or(db.inner.oracle.last_completed());
                db.inner.recent.prune(min);
                for t in db.inner.tables.read().iter() {
                    for c in &t.cols {
                        c.versioned.release_frozen(min);
                    }
                }
            }
        }

        // Stage 7 — group-commit fsync, outside every lock and latch: one
        // leader's fdatasync covers every record appended before it
        // started, so concurrent committers share syncs instead of
        // queueing them.
        if let Some((dura, lsn)) = wal_pending {
            obs_span.switch(&m.commit_stage_fsync);
            sched::hit("commit:pre-fsync");
            // An fsync failure after install cannot be rolled back (the
            // writes are visible) and must not be reported as success
            // (the WAL page cache state is unknowable after a failed
            // sync) — fail stop is the only honest option.
            // Fail-stop by design; the unwind still closes the fsync
            // span.
            dura.wal
                .sync_to(lsn)
                .expect("WAL fsync failed; cannot guarantee durability of an applied commit");
        }
        Ok(commit_ts)
    }

    /// Abort, discarding all local writes (free by construction).
    pub fn abort(mut self) {
        self.finished = true;
        self.release();
    }

    fn release(&mut self) {
        if let Some(token) = self.active_token.take() {
            self.db.inner.active.deregister(token);
        }
    }
}

/// Commit tracing samples 1-in-2^5 attempts per thread: the pipeline is
/// sub-microsecond, so even two clock reads plus a histogram record on
/// *every* attempt measurably tax the commit itself (the unsampled
/// variants cost 10–30% — measured by `repro obs --overhead`, one run
/// per build). An unsampled attempt pays one counter
/// increment and one thread-local tick; a sampled attempt records every
/// stage, the end-to-end total, and the journal events, keeping the
/// distributions statistically faithful while `commit_attempts_total`
/// stays exact.
const COMMIT_SAMPLE_SHIFT: u32 = 5;

impl Drop for Txn {
    fn drop(&mut self) {
        if !self.finished {
            self.finished = true;
            self.release();
        }
    }
}
