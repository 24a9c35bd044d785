//! The redo write-ahead log: segmented, append-only, CRC-framed, with
//! **group commit**.
//!
//! ## Framing and segments
//!
//! A segment file (`wal-<seq>.log`) starts with an 16-byte header (magic +
//! sequence number) followed by frames `[len: u32][crc32: u32][payload]`.
//! The CRC covers the payload only; the length field is authoritative for
//! the payload size. Appends go to the newest segment; a **rotation**
//! (checkpoint time) syncs and closes it and opens the next sequence
//! number. Closed segments whose newest commit timestamp is at or below a
//! checkpoint's epoch timestamp are deleted — that is the WAL truncation
//! the checkpointer performs.
//!
//! ## Torn tails
//!
//! A crash can tear the newest segment mid-frame. Replay tolerates exactly
//! that: an incomplete or checksum-failing frame at the tail of the
//! *final* segment ends replay cleanly at the last complete record; the
//! same condition in any earlier segment is real corruption and errors.
//! [`Wal::open`] *repairs* the tear (truncates the file to the valid
//! prefix) before opening a fresh segment for new appends, so a tear can
//! never end up in the middle of the live log.
//!
//! ## Group commit
//!
//! Appends are serialized by the engine's commit section and return an
//! [`Lsn`] (a monotone byte count). Durability is a separate, batched
//! step: [`Wal::sync_to`] blocks until the log is durable past the given
//! LSN, using a leader/follower protocol — one caller becomes the sync
//! leader and issues a single `fdatasync` that covers every record
//! appended before it started, while later committers wait and are
//! covered by the next leader's sync. Appends proceed *during* the
//! leader's fsync (the leader syncs through a second file handle), which
//! is what makes the batching effective: an fsync in flight absorbs the
//! records of every commit that lands meanwhile.

use crate::crc::{crc32, Crc32};
use crate::error::{io_ctx, DuraError, Result};
use crate::record::WalRecord;
use anker_util::lockcheck::{self, classes};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Log sequence number: total frame bytes appended since this [`Wal`] was
/// opened. Monotone within a process lifetime; only compared, never
/// persisted.
pub type Lsn = u64;

const SEG_MAGIC: &[u8; 8] = b"ANKRWAL1";
const SEG_HEADER_LEN: u64 = 16;
/// Sanity cap on a single frame (a fill chunk is ≤ 64 Ki words).
const MAX_FRAME_PAYLOAD: u32 = 64 << 20;

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:010}.log"))
}

/// Best-effort directory fsync (required by POSIX for created/renamed/
/// deleted entries to be durable; never worth failing an append over).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// A closed (no longer appended) segment awaiting retirement.
#[derive(Debug, Clone)]
struct ClosedSegment {
    path: PathBuf,
    /// Newest commit timestamp any frame of the segment carries (0 when
    /// the segment holds only catalog/load records).
    max_ts: u64,
}

#[cfg(unix)]
extern "C" {
    fn flock(fd: std::os::raw::c_int, operation: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// Take an exclusive, non-blocking advisory lock on `dir/wal.lock` so two
/// processes can never append to (or repair) the same log — the second
/// opener fails fast instead of corrupting the first one's segments. The
/// lock dies with the file descriptor, so even `kill -9` releases it.
/// Advisory-lock-free platforms skip the check.
fn lock_dir(dir: &Path) -> Result<File> {
    let path = dir.join("wal.lock");
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(|e| io_ctx(e, "creating", &path))?;
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        const LOCK_EX: std::os::raw::c_int = 2;
        const LOCK_NB: std::os::raw::c_int = 4;
        // SAFETY(provenance: flock, file): the syscall takes an owned,
        // open descriptor and valid flags; it touches no caller memory.
        if unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) } != 0 {
            return Err(DuraError::Io(format!(
                "durability directory {} is locked by another process",
                dir.display()
            )));
        }
    }
    Ok(file)
}

/// The WAL's metrics, resolved once per log in the registry it was
/// opened in (see [`Wal::open_in`]).
struct WalMetrics {
    appends: Arc<obs::Counter>,
    commit_records: Arc<obs::Counter>,
    bytes_appended: Arc<obs::Counter>,
    syncs: Arc<obs::Counter>,
    segments_created: Arc<obs::Counter>,
    segments_retired: Arc<obs::Counter>,
    fsync: obs::Stage,
}

impl WalMetrics {
    fn new(r: &obs::Registry) -> WalMetrics {
        WalMetrics {
            appends: r.counter("wal_appends_total", "WAL records appended (all kinds)"),
            commit_records: r.counter("wal_commit_records_total", "Commit records appended"),
            bytes_appended: r.counter("wal_bytes_appended_total", "WAL frame bytes appended"),
            syncs: r.counter(
                "wal_syncs_total",
                "fdatasync calls issued (commit_records/syncs = group-commit batching)",
            ),
            segments_created: r.counter("wal_segments_created_total", "WAL segments created"),
            segments_retired: r.counter(
                "wal_segments_retired_total",
                "WAL segments deleted by checkpoint truncation",
            ),
            fsync: r.stage("wal_fsync"),
        }
    }
}

struct Appender {
    file: File,
    seq: u64,
    seg_max_ts: u64,
}

#[derive(Default)]
struct SyncState {
    durable: Lsn,
    leader_active: bool,
}

/// The write-ahead log of one database directory. See the module docs.
pub struct Wal {
    dir: PathBuf,
    appender: lockcheck::Mutex<Appender>,
    /// Second handle onto the current segment, used by the group-commit
    /// leader so an fsync in flight never blocks appends. Swapped at
    /// rotation (lock order per LOCKS.toml: `appender` before
    /// `sync_handle`).
    sync_handle: lockcheck::Mutex<File>,
    closed: lockcheck::Mutex<Vec<ClosedSegment>>,
    appended: AtomicU64,
    sync_state: lockcheck::Mutex<SyncState>,
    sync_cv: lockcheck::Condvar,
    m: WalMetrics,
    /// Held for the WAL's lifetime; its advisory lock is the
    /// single-writer guarantee (see [`lock_dir`]).
    _dir_lock: File,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("appended", &self.appended.load(Ordering::Relaxed))
            .finish()
    }
}

impl Wal {
    /// Open the WAL of `dir` for appending: repair the newest existing
    /// segment's torn tail (if any), register all existing segments as
    /// closed (replay has already consumed them), and start a fresh
    /// segment for new records. Creates `dir` if missing. Counts into
    /// the process-default metric registry.
    pub fn open(dir: &Path) -> Result<Wal> {
        Wal::open_in(dir, obs::global())
    }

    /// [`Wal::open`] counting its `wal_*` metrics in `registry` — the
    /// owning database's.
    pub fn open_in(dir: &Path, registry: &obs::Registry) -> Result<Wal> {
        fs::create_dir_all(dir).map_err(|e| io_ctx(e, "creating", dir))?;
        let dir_lock = lock_dir(dir)?;
        let mut segments = list_segments(dir)?;
        segments.sort_by_key(|&(seq, _)| seq);
        let mut closed = Vec::with_capacity(segments.len());
        let mut next_seq = 1;
        for (idx, (seq, path)) in segments.iter().enumerate() {
            let last = idx + 1 == segments.len();
            let scan = scan_segment(path, |_| Ok(()))?;
            if scan.torn {
                if !last {
                    return Err(DuraError::Corrupt(format!(
                        "segment {} has an invalid frame before the final segment",
                        path.display()
                    )));
                }
                // Repair: drop the torn tail so the next replay never
                // stops early in the middle of the live log.
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_ctx(e, "opening for repair", path))?;
                f.set_len(scan.valid_len)
                    .map_err(|e| io_ctx(e, "truncating torn tail of", path))?;
                f.sync_data().map_err(|e| io_ctx(e, "syncing", path))?;
            }
            closed.push(ClosedSegment {
                path: path.clone(),
                max_ts: scan.max_ts,
            });
            next_seq = seq + 1;
        }
        let (file, path) = create_segment(dir, next_seq)?;
        let sync_handle = File::open(&path).map_err(|e| io_ctx(e, "re-opening", &path))?;
        sync_dir(dir);
        let wal = Wal {
            dir: dir.to_path_buf(),
            appender: lockcheck::Mutex::new(
                &classes::WAL_APPENDER,
                0,
                Appender {
                    file,
                    seq: next_seq,
                    seg_max_ts: 0,
                },
            ),
            sync_handle: lockcheck::Mutex::new(&classes::WAL_SYNC_HANDLE, 0, sync_handle),
            closed: lockcheck::Mutex::new(&classes::WAL_CLOSED, 0, closed),
            appended: AtomicU64::new(0),
            sync_state: lockcheck::Mutex::new(&classes::WAL_SYNC_STATE, 0, SyncState::default()),
            sync_cv: lockcheck::Condvar::new(),
            m: WalMetrics::new(registry),
            _dir_lock: dir_lock,
        };
        wal.m.segments_created.inc();
        Ok(wal)
    }

    /// The directory this WAL lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one record (no durability implied — pair with
    /// [`Wal::sync_to`] for that). Returns the LSN the record ends at.
    /// Callers serialize appends of *ordered* records themselves (the
    /// engine's commit section already does); concurrent appends are safe
    /// but interleave arbitrarily.
    pub fn append(&self, rec: &WalRecord) -> Result<Lsn> {
        let payload = rec.encode();
        debug_assert!(payload.len() as u32 <= MAX_FRAME_PAYLOAD);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut ap = self.appender.lock();
        ap.file
            .write_all(&frame)
            .map_err(|e| io_ctx(e, "appending to", &segment_path(&self.dir, ap.seq)))?;
        if let Some(ts) = rec.commit_ts() {
            ap.seg_max_ts = ap.seg_max_ts.max(ts);
            self.m.commit_records.inc();
        }
        // ORDERING: Release publishes the `write_all` above before the new
        // high-water mark; pairs with the sync leader's Acquire load, so a
        // covered LSN implies the bytes were handed to the OS.
        let lsn = self
            .appended
            .fetch_add(frame.len() as u64, Ordering::Release)
            + frame.len() as u64;
        self.m.appends.inc();
        self.m.bytes_appended.add(frame.len() as u64);
        Ok(lsn)
    }

    /// Block until the log is durable at or past `lsn` (which must have
    /// been appended already). Group commit: the first waiter becomes the
    /// sync leader and one `fdatasync` covers every record appended
    /// before it started; everyone else just waits for a covering sync.
    pub fn sync_to(&self, lsn: Lsn) -> Result<()> {
        loop {
            {
                let mut st = self.sync_state.lock();
                loop {
                    if st.durable >= lsn {
                        return Ok(());
                    }
                    if !st.leader_active {
                        st.leader_active = true;
                        break;
                    }
                    self.sync_cv.wait(&mut st);
                }
            }
            // Leader: everything appended up to here is covered by the
            // fsync below — including `lsn`, which our caller appended
            // before calling in.
            // ORDERING: Acquire pairs with `append`'s Release fetch_add —
            // the mark we fsync up to only counts fully-written frames.
            let target = self.appended.load(Ordering::Acquire);
            // Leader-side fsync latency (handle-lock wait included — it is
            // part of what followers end up waiting for).
            let res = {
                let _obs = obs::Span::begin(&self.m.fsync);
                let handle = self.sync_handle.lock();
                handle.sync_data()
            };
            self.m.syncs.inc();
            let mut st = self.sync_state.lock();
            st.leader_active = false;
            match res {
                Ok(()) => {
                    st.durable = st.durable.max(target);
                    self.sync_cv.notify_all();
                    if st.durable >= lsn {
                        return Ok(());
                    }
                    // Raced a rotation mid-sync; take another lap.
                }
                Err(e) => {
                    self.sync_cv.notify_all();
                    return Err(io_ctx(e, "syncing", &self.dir));
                }
            }
        }
    }

    /// Flush and `fdatasync` everything appended so far (clean shutdown).
    pub fn sync_all(&self) -> Result<()> {
        let target = {
            let ap = self.appender.lock();
            ap.file
                .sync_data()
                .map_err(|e| io_ctx(e, "syncing", &segment_path(&self.dir, ap.seq)))?;
            // ORDERING: Acquire pairs with `append`'s Release fetch_add;
            // under the append lock the mark is also exact.
            self.appended.load(Ordering::Acquire)
        };
        self.m.syncs.inc();
        let mut st = self.sync_state.lock();
        st.durable = st.durable.max(target);
        self.sync_cv.notify_all();
        Ok(())
    }

    /// Close the current segment (sync it, register it as closed) and
    /// open the next one. Checkpoints call this **before** snapshotting
    /// the catalog: afterwards, every record in a closed segment provably
    /// predates the catalog, so a closed segment whose commits a
    /// checkpoint covers holds nothing the checkpoint does not.
    pub fn rotate(&self) -> Result<()> {
        // Rotate under the append lock so no record can land in the old
        // segment after its closing sync.
        {
            let mut ap = self.appender.lock();
            ap.file
                .sync_data()
                .map_err(|e| io_ctx(e, "syncing", &segment_path(&self.dir, ap.seq)))?;
            let old_path = segment_path(&self.dir, ap.seq);
            let old_max = ap.seg_max_ts;
            let next = ap.seq + 1;
            let (file, path) = create_segment(&self.dir, next)?;
            let fresh_handle = File::open(&path).map_err(|e| io_ctx(e, "re-opening", &path))?;
            ap.file = file;
            ap.seq = next;
            ap.seg_max_ts = 0;
            self.closed.lock().push(ClosedSegment {
                path: old_path,
                max_ts: old_max,
            });
            // Everything in closed segments is durable now.
            // ORDERING: Acquire pairs with `append`'s Release fetch_add;
            // under the append lock the mark is also exact.
            let mut st = self.sync_state.lock();
            st.durable = st.durable.max(self.appended.load(Ordering::Acquire));
            drop(st);
            *self.sync_handle.lock() = fresh_handle;
            self.m.segments_created.inc();
        }
        sync_dir(&self.dir);
        Ok(())
    }

    /// Delete every closed segment whose newest commit timestamp is at or
    /// below `ts` — the WAL truncation step of a checkpoint at epoch
    /// timestamp `ts`. Only call after the covering checkpoint is durably
    /// on disk (and after the [`Wal::rotate`] that preceded its catalog
    /// snapshot). Returns the number of segments deleted.
    pub fn delete_covered(&self, ts: u64) -> Result<u64> {
        let mut removed = 0u64;
        let mut closed = self.closed.lock();
        let mut keep = Vec::with_capacity(closed.len());
        for seg in closed.drain(..) {
            if seg.max_ts <= ts {
                fs::remove_file(&seg.path).map_err(|e| io_ctx(e, "deleting", &seg.path))?;
                removed += 1;
            } else {
                keep.push(seg);
            }
        }
        *closed = keep;
        drop(closed);
        if removed > 0 {
            sync_dir(&self.dir);
            self.m.segments_retired.add(removed);
        }
        Ok(removed)
    }

    /// [`Wal::rotate`] + [`Wal::delete_covered`] in one step, for callers
    /// whose catalog cannot change concurrently.
    pub fn retire_up_to(&self, ts: u64) -> Result<u64> {
        self.rotate()?;
        self.delete_covered(ts)
    }

    /// Number of live segment files in the directory (diagnostics and
    /// truncation tests).
    pub fn segment_count(&self) -> Result<usize> {
        Ok(list_segments(&self.dir)?.len())
    }
}

/// Outcome of replaying a WAL directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Records decoded and delivered.
    pub records: u64,
    /// Commit records among them.
    pub commits: u64,
    /// Newest commit timestamp delivered (0 if none).
    pub last_commit_ts: u64,
    /// True when the final segment ended in a torn frame (replay stopped
    /// at the last complete record).
    pub torn_tail: bool,
}

/// Replay every record of the WAL in `dir`, in append order, calling `f`
/// for each. A torn tail in the final segment ends replay cleanly (the
/// summary says so); an invalid frame anywhere else is
/// [`DuraError::Corrupt`]. An empty or missing directory replays nothing.
pub fn replay_dir(dir: &Path, mut f: impl FnMut(WalRecord) -> Result<()>) -> Result<ReplaySummary> {
    let mut segments = match list_segments(dir) {
        Ok(s) => s,
        Err(_) if !dir.exists() => return Ok(ReplaySummary::default()),
        Err(e) => return Err(e),
    };
    segments.sort_by_key(|&(seq, _)| seq);
    let mut summary = ReplaySummary::default();
    for (idx, (_, path)) in segments.iter().enumerate() {
        let last = idx + 1 == segments.len();
        let scan = scan_segment(path, |payload| {
            let rec = WalRecord::decode(payload)?;
            summary.records += 1;
            if let Some(ts) = rec.commit_ts() {
                summary.commits += 1;
                summary.last_commit_ts = summary.last_commit_ts.max(ts);
            }
            f(rec)
        })?;
        if scan.torn {
            if !last {
                return Err(DuraError::Corrupt(format!(
                    "segment {} has an invalid frame before the final segment",
                    path.display()
                )));
            }
            summary.torn_tail = true;
        }
    }
    Ok(summary)
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_ctx(e, "listing", dir))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_ctx(e, "listing", dir))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    Ok(out)
}

fn create_segment(dir: &Path, seq: u64) -> Result<(File, PathBuf)> {
    let path = segment_path(dir, seq);
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_ctx(e, "creating", &path))?;
    let mut header = Vec::with_capacity(SEG_HEADER_LEN as usize);
    header.extend_from_slice(SEG_MAGIC);
    header.extend_from_slice(&seq.to_le_bytes());
    file.write_all(&header)
        .map_err(|e| io_ctx(e, "writing header of", &path))?;
    Ok((file, path))
}

struct SegScan {
    /// Byte length of the valid prefix (header + complete frames).
    valid_len: u64,
    /// Newest commit timestamp of any complete frame.
    max_ts: u64,
    /// True when trailing bytes after the valid prefix exist but do not
    /// form a complete, checksum-clean frame.
    torn: bool,
}

/// Walk the frames of one segment, calling `on_payload` per complete
/// frame. Decoding errors from the callback propagate (a frame that
/// passes its CRC but fails structural decode is corruption, not a tear).
fn scan_segment(path: &Path, mut on_payload: impl FnMut(&[u8]) -> Result<()>) -> Result<SegScan> {
    let mut file = File::open(path).map_err(|e| io_ctx(e, "opening", path))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| io_ctx(e, "reading", path))?;
    if bytes.len() < SEG_HEADER_LEN as usize || &bytes[..8] != SEG_MAGIC {
        return Err(DuraError::Corrupt(format!(
            "{} is not a WAL segment (bad header)",
            path.display()
        )));
    }
    let mut pos = SEG_HEADER_LEN as usize;
    let mut max_ts = 0u64;
    loop {
        if pos == bytes.len() {
            return Ok(SegScan {
                valid_len: pos as u64,
                max_ts,
                torn: false,
            });
        }
        let torn = |pos: usize| SegScan {
            valid_len: pos as u64,
            max_ts,
            torn: true,
        };
        if bytes.len() - pos < 8 {
            return Ok(torn(pos));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_FRAME_PAYLOAD || bytes.len() - pos - 8 < len as usize {
            return Ok(torn(pos));
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            return Ok(torn(pos));
        }
        // Cheap peek for the segment's max commit ts (tag 3 = Commit).
        if payload.len() >= 9 && payload[0] == 3 {
            max_ts = max_ts.max(u64::from_le_bytes(payload[1..9].try_into().unwrap()));
        }
        on_payload(payload)?;
        pos += 8 + len as usize;
    }
}

/// Streaming CRC over everything written — shared by the checkpoint
/// writer; lives here so both files agree on one hashing discipline.
pub(crate) struct HashingWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> HashingWriter<W> {
    pub fn new(inner: W) -> HashingWriter<W> {
        HashingWriter {
            inner,
            crc: Crc32::new(),
        }
    }

    pub fn write_all_hashed(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_all(bytes)?;
        self.crc.update(bytes);
        Ok(())
    }

    pub fn crc(&self) -> u32 {
        self.crc.finish()
    }

    pub fn inner_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}
