//! Timestamp allocation with atomic commit visibility.
//!
//! The paper (§2.2.1, step 3) logs "both the start and end time of a
//! transaction's commit phase to ensure that both writes become visible
//! atomically". We realise that with two counters and an in-flight set:
//!
//! * `next_commit` hands out commit timestamps ([`TsOracle::begin_commit`]
//!   registers the timestamp as *in flight* atomically with allocation);
//! * `last_completed` is the **stable-timestamp watermark**: the largest
//!   `w` such that every commit with `ts <= w` has either fully installed
//!   its writes ([`TsOracle::complete_commit`]) or aborted
//!   ([`TsOracle::abort_commit`]).
//!
//! Commits may complete **out of order** (the concurrent commit pipeline
//! installs independently per transaction); the watermark only advances
//! over a timestamp once every *earlier* timestamp has settled, so a
//! reader drawing its start timestamp from `last_completed` can never
//! observe a half-installed commit: every commit with `ts <= start_ts` is
//! fully visible, every commit with `ts > start_ts` is fully invisible
//! (rows mid-install additionally carry [`PENDING`]).
//!
//! The same watermark is the engine's GC/pruning fallback horizon: nothing
//! above it is guaranteed installed, so version-chain GC, commit-record
//! pruning and epoch triggering must never use the raw `next_commit`
//! counter as "now".
//!
//! **Quiescence.** The oracle offers one way to stop commits: a freeze
//! ([`TsOracle::freeze_commits`]) parks new allocations, and a
//! [`TsOracle::drained`] wait lets the in-flight ones settle. The engine
//! uses it only for the homogeneous GC pass. Heterogeneous commits need
//! no freeze: they draw and settle their timestamps inside the engine's
//! serialized commit section, so holding that section is quiescence.
//!
//! **Known contention point.** `begin_commit` / `complete_commit` /
//! `abort_commit` all serialize on the single `inflight` mutex, so the
//! oracle is the one spot where the otherwise-decentralized commit
//! pipeline still rendezvouses — a deliberate trade: the critical section
//! is a `BTreeSet` insert/remove (no I/O, no validation, no install), so
//! it is orders of magnitude shorter than the old whole-commit mutex it
//! replaced. If commit scaling across many cores becomes a goal, replace
//! the set with a lock-free in-flight min-tracker (per-slot epochs or a
//! concurrent heap); the watermark contract above is the only thing a
//! replacement must preserve.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bit set in a row's write-timestamp word while its new value is being
/// installed (the per-row install latch of the commit pipeline). Readers
/// that encounter it briefly spin — writers hold it across validation +
/// WAL append + install, still microseconds.
pub const PENDING: u64 = 1 << 63;

#[derive(Debug, Default)]
struct Inflight {
    /// Commit timestamps handed out but neither completed nor aborted.
    set: BTreeSet<u64>,
    /// When set, [`TsOracle::begin_commit`] parks new commits (stop-the-
    /// world window for homogeneous version-chain GC).
    frozen: bool,
}

/// The timestamp oracle.
#[derive(Debug)]
pub struct TsOracle {
    next_commit: AtomicU64,
    last_completed: AtomicU64,
    inflight: Mutex<Inflight>,
}

impl Default for TsOracle {
    fn default() -> Self {
        TsOracle {
            // Timestamp 0 is the load timestamp: all initially loaded data
            // carries ts 0 and is visible to everyone.
            next_commit: AtomicU64::new(1),
            last_completed: AtomicU64::new(0),
            inflight: Mutex::new(Inflight::default()),
        }
    }
}

impl TsOracle {
    /// Fresh oracle starting after the load timestamp 0.
    pub fn new() -> TsOracle {
        TsOracle::default()
    }

    /// Start timestamp for a new transaction: the stable watermark.
    #[inline]
    pub fn start_ts(&self) -> u64 {
        // ORDERING: Acquire pairs with `finish`'s Release store — a
        // transaction that starts at watermark W sees every install of
        // every commit with ts <= W.
        self.last_completed.load(Ordering::Acquire)
    }

    /// Allocate the next commit timestamp and register it as in flight.
    /// Every caller must eventually hand the timestamp back through
    /// [`TsOracle::complete_commit`] or [`TsOracle::abort_commit`], or the
    /// watermark stalls forever.
    ///
    /// **Blocks while the oracle is frozen** ([`TsOracle::freeze_commits`]).
    /// The caller may hold locks while it waits, as long as no in-flight
    /// committer needs them to settle: the freezer's drain waits only for
    /// timestamps already handed out.
    #[inline]
    pub fn begin_commit(&self) -> u64 {
        loop {
            {
                let mut inf = self.inflight.lock();
                if !inf.frozen {
                    let ts = self.next_commit.fetch_add(1, Ordering::Relaxed);
                    inf.set.insert(ts);
                    return ts;
                }
            }
            // The guard is dropped before the yield, so the freezer is
            // never locked out by this poll.
            std::thread::yield_now();
        }
    }

    /// Publish `commit_ts` as fully installed. Commits may complete in any
    /// order; the watermark advances to the largest prefix of settled
    /// timestamps.
    #[inline]
    pub fn complete_commit(&self, commit_ts: u64) {
        debug_assert!(commit_ts < PENDING, "timestamp space exhausted");
        self.finish(commit_ts);
    }

    /// Retire an aborted commit timestamp: it will never install anything,
    /// so the watermark may advance over it.
    #[inline]
    pub fn abort_commit(&self, commit_ts: u64) {
        self.finish(commit_ts);
    }

    fn finish(&self, commit_ts: u64) {
        let mut inf = self.inflight.lock();
        let was = inf.set.remove(&commit_ts);
        debug_assert!(was, "timestamp {commit_ts} finished twice or never begun");
        // Watermark = everything below the oldest still-in-flight commit,
        // or everything allocated when none is in flight. `next_commit`
        // only moves under this lock, so the empty-set read is exact.
        let wm = match inf.set.first() {
            Some(&oldest) => oldest - 1,
            None => self.next_commit.load(Ordering::Relaxed) - 1,
        };
        // ORDERING: Release publishes every install that happened-before
        // this completion; pairs with the Acquire in `start_ts` /
        // `last_completed`. (The guard load may be Relaxed: the watermark
        // only moves under the `inflight` lock held here.)
        if wm > self.last_completed.load(Ordering::Relaxed) {
            self.last_completed.store(wm, Ordering::Release);
        }
    }

    /// The stable watermark (see module docs).
    #[inline]
    pub fn last_completed(&self) -> u64 {
        // ORDERING: Acquire, same pairing as `start_ts`.
        self.last_completed.load(Ordering::Acquire)
    }

    /// True when no commit timestamp is in flight — the watermark equals
    /// the newest allocated timestamp and the version store is quiescent.
    pub fn drained(&self) -> bool {
        self.inflight.lock().set.is_empty()
    }

    /// Park all future [`TsOracle::begin_commit`] calls. Combine with a
    /// [`TsOracle::drained`] wait to get a commit-quiescent window (the
    /// homogeneous GC pass, which rewrites chain blocks no lock protects
    /// against concurrent installers).
    ///
    /// # Panics
    /// Panics when already frozen (freezers must serialize, e.g. under the
    /// engine's commit lock).
    pub fn freeze_commits(&self) {
        let mut inf = self.inflight.lock();
        assert!(!inf.frozen, "commit freeze is not reentrant");
        inf.frozen = true;
    }

    /// Re-admit commits after [`TsOracle::freeze_commits`].
    pub fn unfreeze_commits(&self) {
        self.inflight.lock().frozen = false;
    }

    /// Fast-forward the oracle to `ts`: the next commit timestamp will be
    /// `ts + 1` and `ts` counts as fully installed. Crash **recovery**
    /// uses this after replaying the WAL so post-recovery commits are
    /// numbered strictly after every recovered one — the redo log's
    /// ordering invariant. Must only be called before the database serves
    /// transactions (never moves backwards).
    pub fn advance_to(&self, ts: u64) {
        debug_assert!(ts < PENDING, "timestamp space exhausted");
        debug_assert!(self.drained(), "advance_to with commits in flight");
        // ORDERING: the Acquire/Release pairs here mirror the normal
        // watermark protocol so the first post-recovery `start_ts` reader
        // also sees every replayed install.
        let cur = self.last_completed.load(Ordering::Acquire);
        assert!(
            cur <= ts,
            "oracle may only advance forwards (at {cur}, asked for {ts})"
        );
        self.next_commit.store(ts + 1, Ordering::Release);
        self.last_completed.store(ts, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_ts_trails_completion() {
        let o = TsOracle::new();
        assert_eq!(o.start_ts(), 0);
        let c1 = o.begin_commit();
        assert_eq!(c1, 1);
        // Not yet visible to new readers.
        assert_eq!(o.start_ts(), 0);
        o.complete_commit(c1);
        assert_eq!(o.start_ts(), 1);
    }

    #[test]
    fn commit_timestamps_are_unique_and_monotonic() {
        let o = TsOracle::new();
        let a = o.begin_commit();
        let b = o.begin_commit();
        assert!(b > a);
        o.complete_commit(a);
        o.complete_commit(b);
        assert_eq!(o.last_completed(), b);
    }

    #[test]
    fn out_of_order_completion_gates_the_watermark() {
        let o = TsOracle::new();
        let a = o.begin_commit(); // 1
        let b = o.begin_commit(); // 2
        let c = o.begin_commit(); // 3
                                  // The newest completes first: nothing below it has settled, so the
                                  // watermark must not move — a reader at ts 3 would otherwise see
                                  // commit 3 but miss the still-installing commits 1 and 2.
        o.complete_commit(c);
        assert_eq!(o.last_completed(), 0);
        o.complete_commit(a);
        assert_eq!(o.last_completed(), 1, "hole at 2 still open");
        o.complete_commit(b);
        assert_eq!(o.last_completed(), 3, "hole filled: watermark jumps");
    }

    #[test]
    fn aborts_fill_watermark_holes() {
        let o = TsOracle::new();
        let a = o.begin_commit();
        let b = o.begin_commit();
        o.complete_commit(b);
        assert_eq!(o.last_completed(), 0);
        o.abort_commit(a);
        assert_eq!(o.last_completed(), b);
        assert!(o.drained());
    }

    #[test]
    fn freeze_blocks_new_commits_until_unfrozen() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let o = Arc::new(TsOracle::new());
        o.freeze_commits();
        assert!(o.drained());
        let entered = Arc::new(AtomicBool::new(false));
        let h = {
            let o = Arc::clone(&o);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                let ts = o.begin_commit();
                entered.store(true, Ordering::SeqCst);
                o.complete_commit(ts);
                ts
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!entered.load(Ordering::SeqCst), "begin_commit parked");
        o.unfreeze_commits();
        let ts = h.join().unwrap();
        assert_eq!(o.last_completed(), ts);
    }

    #[test]
    fn pending_bit_is_above_any_timestamp() {
        let o = TsOracle::new();
        for _ in 0..1000 {
            let c = o.begin_commit();
            assert_eq!(c & PENDING, 0);
            o.complete_commit(c);
        }
    }
}
