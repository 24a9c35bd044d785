//! Engine-side durability: WAL attachment, crash recovery, and
//! snapshot-consistent checkpointing.
//!
//! The on-disk formats and fsync discipline live in [`anker_dura`]; this
//! module decides *what* gets logged and how a directory turns back into a
//! running engine:
//!
//! * **Logging** — `create_table` appends a catalog record under the
//!   table-registry lock, `fill_column` appends bounded load chunks under
//!   the commit lock, and every committed write set is appended while the
//!   committer still holds its validation-shard locks, *before* its
//!   writes install (redo rule: a record can exist without its effects,
//!   never the reverse). Different committers hold different shard sets,
//!   so file order is **not** timestamp order: each commit record carries
//!   a `(commit_ts, seq)` pair and recovery sorts buffered commits by it.
//!   Group commit batches the fsyncs after all locks are released.
//! * **Checkpointing** — [`crate::AnkerDb::checkpoint`] pins a frozen
//!   snapshot epoch through a [`crate::SnapshotReader`] and streams every
//!   column's frozen area to a versioned checkpoint file. Frozen areas
//!   are immutable by construction, so the checkpointer needs no
//!   quiescence: commits keep flowing while it writes (their writes
//!   materialise the pinned epoch's columns first, exactly as for any
//!   other reader). On the OS backend the stream is zero-copy through
//!   [`anker_storage::ColumnArea::as_slice`]; the simulated kernel goes
//!   through `read_block_into`.
//! * **Recovery** — [`crate::AnkerDb::open`] loads the newest complete
//!   checkpoint (catalog, dictionaries, column words), replays the WAL
//!   tail (skipping records the checkpoint covers), fast-forwards the
//!   timestamp oracle past the last durable commit, and repairs any torn
//!   WAL tail before appending new records.
//!
//! Recovered data re-enters the engine as *load-timestamp-0* state: the
//! words are bit-identical, version chains start empty (no pre-crash
//! reader can exist any more), and the oracle continues strictly after
//! the last durable commit so redo ordering holds across generations.
//!
//! **Dictionary caveat**: dictionary contents are snapshot into catalog
//! records and checkpoints. Codes interned *after* the newest catalog
//! record or checkpoint recover as codes without strings until the next
//! checkpoint; workloads that only pick existing values (the paper's §5.2
//! rule, and everything in `anker-tpch`) are unaffected.

use crate::db::AnkerDb;
use crate::error::{DbError, Result};
use crate::table::{TableId, TableState};
use anker_dura::{
    checkpoint, replay_dir, ColumnMeta, DuraError, DurabilityLevel, TableMeta, Wal, WalRecord,
    WalWrite, TY_DATE, TY_DICT, TY_DOUBLE, TY_INT,
};
use anker_storage::{ColumnDef, Dictionary, LogicalType, Schema};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Words per [`WalRecord::FillColumn`] chunk (512 KiB of payload).
pub(crate) const FILL_CHUNK_WORDS: usize = 64 * 1024;

/// How many complete checkpoint files to keep after a successful new one.
const KEEP_CHECKPOINTS: usize = 2;

/// The durability subsystem of one database: the WAL handle, the level
/// commits honour, and checkpoint bookkeeping.
pub(crate) struct DuraState {
    pub wal: Wal,
    pub level: DurabilityLevel,
    pub dir: PathBuf,
    /// Commits logged since the last completed checkpoint (the background
    /// checkpointer skips idle passes).
    pub commits_since_ckpt: AtomicU64,
    /// Serializes checkpoints (manual calls vs the background thread).
    pub ckpt_mx: Mutex<()>,
    /// Append sequence numbers for [`WalRecord::Commit`]: the concurrent
    /// commit pipeline appends records out of timestamp order, so each
    /// carries `(commit_ts, seq)` and recovery sorts before applying.
    /// Resumes past the largest sequence number found in the log.
    pub next_seq: AtomicU64,
}

/// What recovery found when a durable database booted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Timestamp of the checkpoint the boot started from (0 = none).
    pub checkpoint_ts: u64,
    /// Tables restored (checkpoint + replayed creations).
    pub tables: u64,
    /// Commit records re-applied from the WAL tail.
    pub commits_replayed: u64,
    /// The newest durable commit timestamp (checkpoint or WAL).
    pub last_commit_ts: u64,
    /// True when the WAL ended in a torn record (the crash tore the tail;
    /// recovery stopped at the last complete commit and repaired the
    /// file).
    pub torn_tail: bool,
}

fn ty_code(ty: LogicalType) -> u8 {
    match ty {
        LogicalType::Int => TY_INT,
        LogicalType::Double => TY_DOUBLE,
        LogicalType::Date => TY_DATE,
        LogicalType::Dict => TY_DICT,
    }
}

fn ty_of(code: u8) -> Result<LogicalType> {
    Ok(match code {
        TY_INT => LogicalType::Int,
        TY_DOUBLE => LogicalType::Double,
        TY_DATE => LogicalType::Date,
        TY_DICT => LogicalType::Dict,
        other => {
            return Err(DuraError::Corrupt(format!("unknown column type code {other}")).into())
        }
    })
}

/// Snapshot a table's definition for the log or a checkpoint catalog
/// (dictionaries by value, in code order).
pub(crate) fn table_meta(state: &TableState) -> TableMeta {
    let cols = state
        .schema
        .iter()
        .map(|(_, def)| ColumnMeta {
            name: def.name.clone(),
            ty: ty_code(def.ty),
            dict_values: def
                .dict
                .as_ref()
                .map(|d| d.codes().map(|c| d.value(c).to_string()).collect()),
        })
        .collect();
    TableMeta {
        name: state.name.clone(),
        rows: state.rows,
        cols,
    }
}

/// The WAL record describing a table creation.
pub(crate) fn create_record(table: u16, state: &TableState) -> WalRecord {
    WalRecord::CreateTable {
        table,
        meta: table_meta(state),
    }
}

fn schema_of(meta: &TableMeta) -> Result<Schema> {
    let mut defs = Vec::with_capacity(meta.cols.len());
    for c in &meta.cols {
        let ty = ty_of(c.ty)?;
        defs.push(match (&c.dict_values, ty) {
            (Some(values), LogicalType::Dict) => ColumnDef::dict(
                c.name.clone(),
                Arc::new(Dictionary::with_values(values.iter().map(|s| s.as_str()))),
            ),
            (None, ty) => ColumnDef::new(c.name.clone(), ty),
            _ => {
                return Err(DuraError::Corrupt(format!(
                    "column {:?}: dictionary marker and type disagree",
                    c.name
                ))
                .into())
            }
        });
    }
    Ok(Schema::new(defs))
}

/// Recover the state of the durability directory into the freshly built
/// (empty, not-yet-serving) database and attach the WAL. Called once from
/// boot, before any background thread or transaction exists.
pub(crate) fn boot_durable(db: &AnkerDb) -> Result<()> {
    let dir = db
        .config()
        .durability_dir
        .clone()
        .expect("boot_durable without a directory");
    let mut report = RecoveryReport::default();

    // 1. Newest complete checkpoint, if any.
    let ckpt = checkpoint::load_newest(&dir)?;
    let ckpt_ts = ckpt.as_ref().map(|c| c.ts).unwrap_or(0);
    let ckpt_tables = ckpt.as_ref().map(|c| c.tables.len()).unwrap_or(0);
    if let Some(data) = ckpt {
        for (meta, cols) in data.tables.iter().zip(&data.cols) {
            let schema = schema_of(meta)?;
            let id = db.create_table_internal(meta.name.clone(), schema, meta.rows, false);
            let state = db.table_state(id);
            for (cid, words) in cols.iter().enumerate() {
                if words.len() as u64 != meta.rows as u64 {
                    return Err(DuraError::Corrupt(format!(
                        "checkpoint column {}/{} has {} words for {} rows",
                        meta.name,
                        meta.cols[cid].name,
                        words.len(),
                        meta.rows
                    ))
                    .into());
                }
                state.col(cid).current_area().fill(words.iter().copied())?;
            }
        }
        report.checkpoint_ts = data.ts;
        report.last_commit_ts = data.ts;
    }

    // 2. Replay the WAL tail. Catalog and load records apply in file
    // order; records covered by the checkpoint — catalog and loads of
    // checkpointed tables, commits at or below its timestamp — are
    // skipped. Commit records may sit in the file out of timestamp order
    // (the concurrent commit pipeline appends under per-shard locks, not
    // a global one), so they are buffered here, sorted by
    // `(commit_ts, seq)`, and re-applied as plain word stores after the
    // scan — the redo order is the timestamp order, not the file order.
    let mut commits: Vec<(u64, u64, Vec<WalWrite>)> = Vec::new();
    let mut max_seq = 0u64;
    let summary = replay_dir(&dir, |rec| {
        let corrupt = |msg: String| -> DuraError { DuraError::Corrupt(msg) };
        match rec {
            WalRecord::CreateTable { table, meta } => {
                let existing = db.inner.tables.read().len();
                if (table as usize) < existing {
                    return Ok(()); // covered by the checkpoint
                }
                if table as usize != existing {
                    return Err(corrupt(format!(
                        "create record for table {table} but only {existing} tables exist"
                    )));
                }
                let schema = schema_of(&meta).map_err(to_dura)?;
                db.create_table_internal(meta.name, schema, meta.rows, false);
                Ok(())
            }
            WalRecord::FillColumn {
                table,
                col,
                start_row,
                words,
            } => {
                if (table as usize) < ckpt_tables {
                    return Ok(()); // the checkpoint's column data includes it
                }
                let state = checked_table(db, table).map_err(to_dura)?;
                if col as usize >= state.cols.len()
                    || start_row as u64 + words.len() as u64 > state.rows as u64
                {
                    return Err(corrupt(format!(
                        "fill record out of bounds for table {table}"
                    )));
                }
                let area = state.col(col as usize).current_area();
                for (i, w) in words.iter().enumerate() {
                    area.set(start_row + i as u32, *w).map_err(vm_to_dura)?;
                }
                Ok(())
            }
            WalRecord::Commit {
                commit_ts,
                seq,
                writes,
            } => {
                max_seq = max_seq.max(seq);
                if commit_ts <= ckpt_ts {
                    return Ok(()); // covered by the checkpoint
                }
                // Bounds-check against the catalog as recovered so far
                // (every table a commit touches was created earlier in
                // file order), but defer the stores until the scan ends
                // and the commits can apply in timestamp order.
                for w in &writes {
                    let state = checked_table(db, w.table).map_err(to_dura)?;
                    if w.col as usize >= state.cols.len() || w.row >= state.rows {
                        return Err(corrupt(format!(
                            "commit {commit_ts} writes out of bounds ({},{},{})",
                            w.table, w.col, w.row
                        )));
                    }
                }
                commits.push((commit_ts, seq, writes));
                Ok(())
            }
        }
    })?;
    commits.sort_unstable_by_key(|&(ts, seq, _)| (ts, seq));
    for (_, _, writes) in &commits {
        for w in writes {
            let state = checked_table(db, w.table)?;
            state
                .col(w.col as usize)
                .current_area()
                .set(w.row, w.word)
                .map_err(vm_to_dura)?;
        }
    }
    report.commits_replayed = summary.commits;
    report.torn_tail = summary.torn_tail;
    report.last_commit_ts = report.last_commit_ts.max(summary.last_commit_ts);
    report.tables = db.inner.tables.read().len() as u64;

    // 3. The oracle resumes strictly after every durable commit, so new
    // commit timestamps extend the redo order instead of colliding with
    // it.
    db.inner.oracle.advance_to(report.last_commit_ts);

    // 4. Attach the log for new appends (this also repairs a torn tail).
    let wal = Wal::open_in(&dir, &db.inner.registry)?;
    let state = Arc::new(DuraState {
        wal,
        level: db.config().durability,
        dir,
        commits_since_ckpt: AtomicU64::new(0),
        ckpt_mx: Mutex::new(()),
        next_seq: AtomicU64::new(max_seq + 1),
    });
    db.inner
        .dura
        .set(state)
        .unwrap_or_else(|_| unreachable!("durability attached twice"));
    *db.inner.recovery.lock() = Some(report);
    Ok(())
}

fn to_dura(e: DbError) -> DuraError {
    match e {
        DbError::Dura(d) => d,
        other => DuraError::Corrupt(other.to_string()),
    }
}

fn vm_to_dura(e: anker_vmem::VmError) -> DuraError {
    DuraError::Corrupt(format!("replay store failed: {e}"))
}

fn checked_table(db: &AnkerDb, table: u16) -> Result<Arc<TableState>> {
    let tables = db.inner.tables.read();
    tables.get(table as usize).cloned().ok_or_else(|| {
        DuraError::Corrupt(format!("record references unknown table {table}")).into()
    })
}

impl AnkerDb {
    /// What recovery found at boot: `None` for a fresh directory or a
    /// non-durable database, the [`RecoveryReport`] otherwise.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        *self.inner.recovery.lock()
    }

    /// Write a checkpoint **now** and truncate the WAL up to its epoch
    /// timestamp. Returns that timestamp.
    ///
    /// The checkpointer pins an epoch at the commit watermark of the call
    /// — the newest epoch if nothing committed since it was cut, a fresh
    /// one otherwise — through a [`crate::SnapshotReader`], and streams
    /// every column's frozen area to a versioned `ckpt-<ts>.ckpt` file,
    /// entirely off the commit path. The image therefore covers every
    /// commit completed before the call, and recovery replays only what
    /// came after. Concurrent updaters never wait on checkpoint I/O:
    /// their only interaction is the ordinary epoch-materialisation step
    /// every pinned reader implies. Requires heterogeneous processing
    /// mode (the snapshot epochs *are* the consistency mechanism) and a
    /// durability directory.
    ///
    /// Taking a checkpoint closes the bulk-load window of every existing
    /// table, exactly as a transaction touching it would
    /// (see [`AnkerDb::fill_column`]).
    pub fn checkpoint(&self) -> Result<u64> {
        let dura = self
            .inner
            .dura
            .get()
            .cloned()
            .ok_or(DbError::DurabilityDisabled)?;
        let _one_at_a_time = dura.ckpt_mx.lock();
        // Pin the epoch the image will represent; freshness bound 0 puts
        // it at the watermark of this call. Everything the reader resolves
        // from here on is frozen at `ckpt_ts`.
        let reader = crate::SnapshotReader::open(self, 0)?;
        let ckpt_ts = reader.epoch_ts();
        // Rotate the WAL *before* snapshotting the catalog: every record
        // in a closed segment now provably describes a table this
        // catalog contains (or a commit whose timestamp keeps the
        // segment alive), which is what makes deleting covered segments
        // safe.
        dura.wal.rotate()?;
        // Catalog snapshot under the commit lock: a fixed table list, and
        // every listed table's load window closes so no bulk load can
        // race the column streams below.
        let tables: Vec<Arc<TableState>> = {
            let _cs = self.lock_commit();
            let tables = self.inner.tables.read().clone();
            for t in &tables {
                t.mark_observed();
            }
            tables
        };
        let metas: Vec<TableMeta> = tables.iter().map(|t| table_meta(t)).collect();
        let mut writer = checkpoint::CheckpointWriter::create(&dura.dir, ckpt_ts, &metas)?;
        let mut buf = vec![0u64; FILL_CHUNK_WORDS];
        for (tid, state) in tables.iter().enumerate() {
            for cid in 0..state.cols.len() {
                let sc = reader.snap_col(TableId(tid as u16), anker_storage::ColumnId(cid))?;
                let area = sc.area();
                area.advise_sequential();
                if let Some(slice) = sc.words() {
                    writer.write_words(slice)?; // zero-copy (OS backend)
                } else {
                    let rows = area.rows();
                    let mut start = 0u32;
                    while start < rows {
                        let n = (buf.len() as u32).min(rows - start);
                        area.read_block_into(start, n, &mut buf)?;
                        writer.write_words(&buf[..n as usize])?;
                        start += n;
                    }
                }
            }
        }
        writer.finish()?;
        dura.commits_since_ckpt.store(0, Ordering::Relaxed);
        // The image is durable: drop WAL segments it covers and stale
        // checkpoints.
        dura.wal.delete_covered(ckpt_ts)?;
        checkpoint::prune(&dura.dir, KEEP_CHECKPOINTS)?;
        Ok(ckpt_ts)
    }
}
