//! Commit records, the sharded recently-committed list, and the
//! active-transaction registry.
//!
//! The paper keeps "a list of recently committed transactions, that must be
//! mutex protected, ... to organize validation" (§5.7) — and observes that
//! this is exactly what limits scaling under full serializability. The
//! concurrent commit pipeline keeps the *design* but splits the list into
//! [`VALIDATION_SHARDS`] shards keyed by **table id**, each under its own
//! mutex: transactions whose read predicates and write sets touch disjoint
//! table shards validate and publish fully in parallel.
//!
//! ## Locking protocol
//!
//! A committing transaction calls [`RecentCommits::lock_tables`] with the
//! sorted, deduplicated union of the tables it wrote and the tables its
//! predicates cover. Shard mutexes are always acquired in ascending shard
//! order, so concurrent committers cannot deadlock. While holding the
//! guard the committer allocates its commit timestamp, validates against
//! every locked shard, and (on success) pushes its own record — which
//! preserves the per-shard invariant that records are appended in
//! commit-timestamp order (any two transactions sharing a shard serialize
//! on its mutex *around* timestamp allocation), keeping the
//! `partition_point` pruning of the validation scan exact.

use crate::predicate::{ColRef, PredicateSet};
use anker_util::lockcheck::{self, classes};
use std::collections::VecDeque;

/// Number of table-id shards of [`RecentCommits`]. A small power of two:
/// the paper's workloads touch a handful of tables, and the shard lock is
/// held across validation, so more shards buy nothing.
pub const VALIDATION_SHARDS: usize = 16;

/// One installed write of a committed transaction, with both the removed
/// and the introduced value (predicate intersection needs both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRecord {
    pub col: ColRef,
    pub row: u32,
    pub old: u64,
    pub new: u64,
}

/// The validation-relevant footprint of one committed transaction.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// The commit timestamp.
    pub commit_ts: u64,
    /// All installed writes.
    pub writes: Vec<WriteRecord>,
}

/// One committed transaction that a validating reader conflicts with:
/// the offending commit timestamp plus exactly the written keys the
/// reader's predicates intersect — the input of the conflict-repair path
/// (re-read precisely these keys, nothing else).
#[derive(Debug, Clone)]
pub struct ValidationConflict {
    pub commit_ts: u64,
    pub keys: Vec<(ColRef, u32)>,
}

/// The sharded, mutex-protected list of recently committed transactions.
#[derive(Debug)]
pub struct RecentCommits {
    /// Shard `i` is a `validation_shard`-class lock with order key `i`:
    /// the ascending-acquisition protocol below is exactly what the
    /// lockcheck witness verifies at runtime.
    shards: Box<[lockcheck::Mutex<VecDeque<CommitRecord>>]>,
}

impl Default for RecentCommits {
    fn default() -> Self {
        RecentCommits {
            shards: (0..VALIDATION_SHARDS)
                .map(|i| {
                    lockcheck::Mutex::new(&classes::VALIDATION_SHARD, i as u64, VecDeque::new())
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }
}

/// Guard over the locked subset of shards a committing transaction needs
/// (see the module docs for the protocol). Obtained from
/// [`RecentCommits::lock_tables`]; dropping it releases every shard.
pub struct ShardGuards<'a> {
    /// `(shard index, guard)` in ascending shard order.
    guards: Vec<(usize, lockcheck::MutexGuard<'a, VecDeque<CommitRecord>>)>,
}

impl RecentCommits {
    /// Empty list.
    pub fn new() -> RecentCommits {
        RecentCommits::default()
    }

    /// The shard a table's records live in.
    #[inline]
    pub fn shard_of(table: u16) -> usize {
        table as usize % VALIDATION_SHARDS
    }

    /// Lock the shards covering `tables` (ascending acquisition; `tables`
    /// need not be sorted or unique).
    pub fn lock_tables(&self, tables: &[u16]) -> ShardGuards<'_> {
        let mut idxs: Vec<usize> = tables.iter().map(|&t| Self::shard_of(t)).collect();
        idxs.sort_unstable();
        idxs.dedup();
        ShardGuards {
            guards: idxs
                .into_iter()
                .map(|i| (i, self.shards[i].lock()))
                .collect(),
        }
    }

    /// Drop records no active transaction can conflict with (all commits
    /// with `commit_ts <= min_active_start`).
    pub fn prune(&self, min_active_start: u64) {
        for shard in self.shards.iter() {
            let mut list = shard.lock();
            while list
                .front()
                .map(|r| r.commit_ts <= min_active_start)
                .unwrap_or(false)
            {
                list.pop_front();
            }
        }
    }

    /// Number of retained shard records (a commit spanning `k` table
    /// shards counts `k` times).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().len()).sum()
    }

    /// True if no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ShardGuards<'_> {
    /// Validate a committing transaction's read set against every locked
    /// shard: collect each commit with `commit_ts > start_ts` whose writes
    /// intersect the predicates, together with the intersecting keys.
    /// Empty result = validation passed. Conflicts come back in ascending
    /// commit-timestamp order.
    pub fn conflicts(&self, start_ts: u64, preds: &PredicateSet) -> Vec<ValidationConflict> {
        if preds.is_empty() {
            return Vec::new();
        }
        let mut by_ts: std::collections::BTreeMap<u64, Vec<(ColRef, u32)>> =
            std::collections::BTreeMap::new();
        for (_, list) in &self.guards {
            // Records are appended in commit order per shard: binary-search
            // the first record younger than start_ts.
            let idx = list.partition_point(|r| r.commit_ts <= start_ts);
            for record in list.iter().skip(idx) {
                for w in &record.writes {
                    if preds.intersects_write(w.col, w.row, w.old, w.new) {
                        by_ts
                            .entry(record.commit_ts)
                            .or_default()
                            .push((w.col, w.row));
                    }
                }
            }
        }
        by_ts
            .into_iter()
            .map(|(commit_ts, keys)| ValidationConflict { commit_ts, keys })
            .collect()
    }

    /// Validation boiled down to the first offending commit timestamp
    /// (diagnostics / tests).
    pub fn validate(&self, start_ts: u64, preds: &PredicateSet) -> Result<(), u64> {
        match self.conflicts(start_ts, preds).first() {
            None => Ok(()),
            Some(c) => Err(c.commit_ts),
        }
    }

    /// Publish a commit record: its writes are split by table shard and
    /// appended to each (all of which must be locked by this guard).
    ///
    /// # Panics
    /// Panics if a write's table shard is not part of the locked set —
    /// that would break the per-shard commit-order invariant.
    pub fn push(&mut self, record: CommitRecord) {
        let mut rest = record.writes;
        while let Some(first) = rest.first() {
            let shard = RecentCommits::shard_of(first.col.table);
            let (ours, others): (Vec<_>, Vec<_>) = rest
                .into_iter()
                .partition(|w| RecentCommits::shard_of(w.col.table) == shard);
            rest = others;
            let list = self
                .guards
                .iter_mut()
                .find(|(i, _)| *i == shard)
                .map(|(_, g)| g)
                .expect("pushing a commit record into an unlocked shard");
            debug_assert!(
                list.back()
                    .map(|r| r.commit_ts < record.commit_ts)
                    .unwrap_or(true),
                "per-shard commit records must stay timestamp-ordered"
            );
            list.push_back(CommitRecord {
                commit_ts: record.commit_ts,
                writes: ours,
            });
        }
    }
}

/// A registration handle returned by [`ActiveTxns::register`]; hand it back
/// to [`ActiveTxns::deregister`].
#[derive(Debug)]
pub struct ActiveToken {
    slot: usize,
}

const ACTIVE_SLOTS: usize = 128;
const SLOT_EMPTY: u64 = u64::MAX;

/// Registry of active transactions' start timestamps, for GC horizons and
/// record pruning.
///
/// Lock-free: registration claims one of a fixed pool of atomic slots
/// (transactions are begun and finished on every operation's hot path, so
/// this must not serialize); the horizon query scans all slots, which is
/// fine for its rare callers (GC, pruning).
pub struct ActiveTxns {
    slots: Box<[std::sync::atomic::AtomicU64]>,
    /// Rotating hint where to start probing.
    next: std::sync::atomic::AtomicUsize,
}

impl std::fmt::Debug for ActiveTxns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveTxns")
            .field("len", &self.len())
            .finish()
    }
}

impl Default for ActiveTxns {
    fn default() -> Self {
        ActiveTxns {
            slots: (0..ACTIVE_SLOTS)
                .map(|_| std::sync::atomic::AtomicU64::new(SLOT_EMPTY))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            next: std::sync::atomic::AtomicUsize::new(0),
        }
    }
}

impl ActiveTxns {
    /// Empty registry.
    pub fn new() -> ActiveTxns {
        ActiveTxns::default()
    }

    /// Register a transaction starting at `start_ts`.
    ///
    /// # Panics
    /// Panics when more than the supported number of transactions are
    /// simultaneously active (the paper's workloads run one transaction per
    /// worker thread; 128 concurrent transactions is far beyond that).
    pub fn register(&self, start_ts: u64) -> ActiveToken {
        use std::sync::atomic::Ordering;
        debug_assert_ne!(start_ts, SLOT_EMPTY);
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        // ORDERING: AcqRel — claiming a slot must be a full hand-off with
        // the previous `deregister`'s AcqRel swap, so slot reuse cannot
        // reorder across two transactions' lifetimes, and a horizon scan
        // that sees our start_ts knows the registration is complete.
        for i in 0..ACTIVE_SLOTS {
            let slot = (start + i) % ACTIVE_SLOTS;
            if self.slots[slot]
                .compare_exchange(SLOT_EMPTY, start_ts, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return ActiveToken { slot };
            }
        }
        panic!("more than {ACTIVE_SLOTS} concurrently active transactions");
    }

    /// Deregister a transaction (on commit or abort).
    pub fn deregister(&self, token: ActiveToken) {
        use std::sync::atomic::Ordering;
        // ORDERING: AcqRel — the Release half publishes every read this
        // transaction did before the horizon may move past it (version GC
        // and record pruning gate on `min_active_or`); the Acquire half
        // pairs with the next claimant's CAS.
        let prev = self.slots[token.slot].swap(SLOT_EMPTY, Ordering::AcqRel);
        debug_assert_ne!(prev, SLOT_EMPTY, "slot double-freed");
    }

    /// The oldest active start timestamp, or `fallback` when idle.
    /// Everything with `ts <=` this horizon is invisible history.
    pub fn min_active_or(&self, fallback: u64) -> u64 {
        use std::sync::atomic::Ordering;
        let mut min = u64::MAX;
        // ORDERING: Acquire pairs with the AcqRel slot RMWs — a scan that
        // misses a transaction (slot already empty) is ordered after that
        // transaction's deregistration, so acting on the horizon (version
        // GC, pruning) cannot pull state out from under a still-active
        // reader.
        for s in self.slots.iter() {
            min = min.min(s.load(Ordering::Acquire));
        }
        if min == u64::MAX {
            fallback
        } else {
            min
        }
    }

    /// Number of active transactions.
    pub fn len(&self) -> usize {
        use std::sync::atomic::Ordering;
        self.slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != SLOT_EMPTY)
            .count()
    }

    /// True when no transaction is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Pred;
    use anker_storage::value::{LogicalType, Value};

    const C: ColRef = ColRef { table: 0, col: 0 };

    fn record(ts: u64, row: u32, old: i64, new: i64) -> CommitRecord {
        CommitRecord {
            commit_ts: ts,
            writes: vec![WriteRecord {
                col: C,
                row,
                old: Value::Int(old).encode(),
                new: Value::Int(new).encode(),
            }],
        }
    }

    fn push(rc: &RecentCommits, r: CommitRecord) {
        let tables: Vec<u16> = r.writes.iter().map(|w| w.col.table).collect();
        rc.lock_tables(&tables).push(r);
    }

    fn validate(rc: &RecentCommits, start_ts: u64, preds: &PredicateSet) -> Result<(), u64> {
        // Tests validate against every shard.
        let all: Vec<u16> = (0..VALIDATION_SHARDS as u16).collect();
        rc.lock_tables(&all).validate(start_ts, preds)
    }

    #[test]
    fn validation_only_considers_younger_commits() {
        let rc = RecentCommits::new();
        push(&rc, record(5, 0, 10, 50)); // touches range
        push(&rc, record(8, 1, 0, 1)); // does not
        let mut preds = PredicateSet::new();
        preds.add(Pred::Range {
            col: C,
            ty: LogicalType::Int,
            lo: 0.0,
            hi: 20.0,
        });
        // Transaction started at 5: commit 5 is part of its snapshot, commit
        // 8 intersects? old=0 is inside [0,20] -> conflict.
        assert_eq!(validate(&rc, 5, &preds), Err(8));
        // Started at 8: nothing younger.
        assert_eq!(validate(&rc, 8, &preds), Ok(()));
        // Started at 2: commit 5 wrote old=10 (in range) -> conflict at 5.
        assert_eq!(validate(&rc, 2, &preds), Err(5));
    }

    #[test]
    fn empty_predicates_always_validate() {
        let rc = RecentCommits::new();
        push(&rc, record(5, 0, 0, 1));
        assert_eq!(validate(&rc, 0, &PredicateSet::new()), Ok(()));
    }

    #[test]
    fn pruning_respects_horizon() {
        let rc = RecentCommits::new();
        for ts in 1..=10 {
            push(&rc, record(ts, 0, 0, 1));
        }
        rc.prune(4);
        assert_eq!(rc.len(), 6); // commits 5..=10 retained
        let mut preds = PredicateSet::new();
        preds.add_full_column(C);
        assert_eq!(validate(&rc, 4, &preds), Err(5));
    }

    /// Tables in different shards validate and publish under different
    /// mutexes; conflicts are still found exactly where predicates and
    /// writes share a table.
    #[test]
    fn sharding_keeps_conflicts_table_local() {
        let t0 = ColRef { table: 0, col: 0 };
        let t1 = ColRef { table: 1, col: 0 };
        assert_ne!(RecentCommits::shard_of(0), RecentCommits::shard_of(1));
        let rc = RecentCommits::new();
        // A cross-table commit: its writes split across both shards.
        rc.lock_tables(&[0, 1]).push(CommitRecord {
            commit_ts: 7,
            writes: vec![
                WriteRecord {
                    col: t0,
                    row: 3,
                    old: 0,
                    new: 1,
                },
                WriteRecord {
                    col: t1,
                    row: 4,
                    old: 0,
                    new: 1,
                },
            ],
        });
        assert_eq!(rc.len(), 2, "one shard record per touched shard");
        // A reader over table 1 only locks table 1's shard and still sees
        // the conflict on its side of the split record.
        let mut preds = PredicateSet::new();
        preds.add_full_column(t1);
        let g = rc.lock_tables(&[1]);
        let confs = g.conflicts(2, &preds);
        assert_eq!(confs.len(), 1);
        assert_eq!(confs[0].commit_ts, 7);
        assert_eq!(confs[0].keys, vec![(t1, 4)]);
        // A reader over table 0 with a non-intersecting predicate passes.
        drop(g);
        let mut preds = PredicateSet::new();
        preds.add(Pred::Rows {
            col: t0,
            rows: vec![9].into_iter().collect(),
        });
        assert!(rc.lock_tables(&[0]).conflicts(2, &preds).is_empty());
    }

    /// The repair path needs *all* conflicting commits and the exact keys
    /// hit, in timestamp order.
    #[test]
    fn conflicts_reports_every_offender_with_keys() {
        let rc = RecentCommits::new();
        push(&rc, record(5, 0, 10, 50));
        push(&rc, record(6, 1, 11, 51));
        push(&rc, record(7, 2, 1000, 2000)); // outside the range below
        let mut preds = PredicateSet::new();
        preds.add(Pred::Range {
            col: C,
            ty: LogicalType::Int,
            lo: 0.0,
            hi: 100.0,
        });
        let g = rc.lock_tables(&[0]);
        let confs = g.conflicts(2, &preds);
        assert_eq!(confs.len(), 2);
        assert_eq!((confs[0].commit_ts, confs[0].keys[0].1), (5, 0));
        assert_eq!((confs[1].commit_ts, confs[1].keys[0].1), (6, 1));
    }

    #[test]
    fn active_registry_min() {
        let a = ActiveTxns::new();
        assert_eq!(a.min_active_or(42), 42);
        let t1 = a.register(10);
        let t2 = a.register(10);
        let t3 = a.register(15);
        assert_eq!(a.min_active_or(42), 10);
        a.deregister(t1);
        assert_eq!(a.min_active_or(42), 10);
        a.deregister(t2);
        assert_eq!(a.min_active_or(42), 15);
        a.deregister(t3);
        assert!(a.is_empty());
        assert_eq!(a.min_active_or(42), 42);
    }

    #[test]
    fn concurrent_registry_usage() {
        let a = std::sync::Arc::new(ActiveTxns::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let a = a.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        let ts = t * 1000 + i;
                        let tok = a.register(ts);
                        a.deregister(tok);
                    }
                });
            }
        });
        assert!(a.is_empty());
    }

    #[test]
    fn registry_holds_many_concurrent() {
        let a = ActiveTxns::new();
        let tokens: Vec<_> = (0..100).map(|i| a.register(i)).collect();
        assert_eq!(a.len(), 100);
        assert_eq!(a.min_active_or(9999), 0);
        for t in tokens {
            a.deregister(t);
        }
        assert!(a.is_empty());
    }
}
