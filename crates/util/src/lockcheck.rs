//! Runtime lock-order witness for the engine-wide lock hierarchy.
//!
//! The commit pipeline's deadlock freedom rests on a single rule: locks
//! are acquired in ascending **level** order, and same-level locks in
//! ascending **order-key** order (install latches by row key, validation
//! shards by shard index, epoch column maps by epoch timestamp). The
//! declared hierarchy lives in `LOCKS.toml` at the workspace root and is
//! checked two ways:
//!
//! * **Lexically** by `anker-lint` (`cargo run -p anker-lint -- check`),
//!   which flags any function whose textual nesting of acquisitions
//!   inverts the declared order — cheap, total, but blind to cross-
//!   function nesting.
//! * **Dynamically** by this module, behind `cfg(feature = "lockcheck")`:
//!   every acquisition of a witnessed lock records a frame in a
//!   thread-local held-set and panics the moment a thread acquires a
//!   lower level while holding a higher one (or a same-level lock out of
//!   key order), *whether or not* the schedule would actually have
//!   deadlocked this run. Acquisition edges also feed a process-global
//!   graph with cycle detection, so an inversion split across two threads
//!   is caught as soon as both halves have ever been observed.
//!
//! With the feature **off** (the default), [`Held`] is a ZST,
//! [`acquire`] compiles to nothing, and the [`Mutex`]/[`RwLock`]/
//! [`Condvar`] wrappers are transparent shims over `parking_lot` — zero
//! cost on production and ordinary test builds.
//!
//! The class table in [`classes`] mirrors `LOCKS.toml`; `anker-lint`
//! cross-checks the two so they cannot drift apart.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Whether the `lockcheck` feature is on: crates that keep debug-only
/// invariant checks turn them on in `lockcheck` release builds too.
pub const ENABLED: bool = cfg!(feature = "lockcheck");

/// One class of lock in the engine-wide hierarchy. Levels ascend in
/// acquisition order: a thread holding level `n` may only acquire levels
/// `> n` (and, for `ordered` classes, the same level with a strictly
/// greater order key).
#[derive(Debug)]
pub struct LockClass {
    /// Name as declared in `LOCKS.toml`.
    pub name: &'static str,
    /// Position in the hierarchy (acquire in ascending level order).
    pub level: u16,
    /// Whether several locks of this class may be held at once, provided
    /// their order keys strictly ascend (latches by row key, shards by
    /// index, epoch column maps by epoch timestamp).
    pub ordered: bool,
}

/// The witnessed lock classes, mirroring `LOCKS.toml` (checked against it
/// by `anker-lint`). Leaf locks — ones that never acquire another
/// witnessed lock while held (stats, pools, background-thread stop flags,
/// chain-store shards) — are deliberately absent.
pub mod classes {
    use super::LockClass;

    /// Per-row install latch (the `PENDING` bit CAS in `anker-mvcc`),
    /// ordered by `(table, col, row)` key.
    pub static INSTALL_LATCH: LockClass = LockClass {
        name: "install_latch",
        level: 0,
        ordered: true,
    };
    /// The serialized commit section (`AnkerDb::lock_commit`).
    pub static COMMIT_LOCK: LockClass = LockClass {
        name: "commit_lock",
        level: 1,
        ordered: false,
    };
    /// One validation shard of `RecentCommits`, ordered by shard index.
    pub static VALIDATION_SHARD: LockClass = LockClass {
        name: "validation_shard",
        level: 2,
        ordered: true,
    };
    /// The table registry (`DbInner::tables`).
    pub static TABLES: LockClass = LockClass {
        name: "tables",
        level: 3,
        ordered: false,
    };
    /// The snapshot manager's epoch list.
    pub static SNAP_EPOCHS: LockClass = LockClass {
        name: "snap_epochs",
        level: 4,
        ordered: false,
    };
    /// One epoch's materialised-column map, ordered by epoch timestamp.
    pub static SNAP_EPOCH_COLS: LockClass = LockClass {
        name: "snap_epoch_cols",
        level: 5,
        ordered: true,
    };
    /// The WAL appender (current segment file + sequence).
    pub static WAL_APPENDER: LockClass = LockClass {
        name: "wal_appender",
        level: 6,
        ordered: false,
    };
    /// The WAL's closed-segment list.
    pub static WAL_CLOSED: LockClass = LockClass {
        name: "wal_closed",
        level: 7,
        ordered: false,
    };
    /// The group-commit leader/durable-LSN state.
    pub static WAL_SYNC_STATE: LockClass = LockClass {
        name: "wal_sync_state",
        level: 8,
        ordered: false,
    };
    /// The group-commit leader's second file handle.
    pub static WAL_SYNC_HANDLE: LockClass = LockClass {
        name: "wal_sync_handle",
        level: 9,
        ordered: false,
    };

    /// Every witnessed class, for registry cross-checks.
    pub static ALL: [&LockClass; 10] = [
        &INSTALL_LATCH,
        &COMMIT_LOCK,
        &VALIDATION_SHARD,
        &TABLES,
        &SNAP_EPOCHS,
        &SNAP_EPOCH_COLS,
        &WAL_APPENDER,
        &WAL_CLOSED,
        &WAL_SYNC_STATE,
        &WAL_SYNC_HANDLE,
    ];
}

#[cfg(feature = "lockcheck")]
mod imp {
    use super::LockClass;
    use std::cell::{Cell, RefCell};
    use std::collections::{HashMap, HashSet};
    use std::sync::{Mutex as StdMutex, OnceLock};

    struct Frame {
        class: &'static LockClass,
        order: u64,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: Cell<u64> = const { Cell::new(0) };
    }

    /// Process-global acquisition graph: `a -> b` means some thread once
    /// acquired class `b` while holding class `a`. Guarded by a plain
    /// `std` mutex so the witness never recurses into itself.
    fn graph() -> &'static StdMutex<HashMap<&'static str, HashSet<&'static str>>> {
        static G: OnceLock<StdMutex<HashMap<&'static str, HashSet<&'static str>>>> =
            OnceLock::new();
        G.get_or_init(|| StdMutex::new(HashMap::new()))
    }

    fn reaches(
        g: &HashMap<&'static str, HashSet<&'static str>>,
        from: &'static str,
        to: &'static str,
    ) -> bool {
        let mut stack = vec![from];
        let mut seen = HashSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = g.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    }

    /// RAII token for one witnessed acquisition; dropping it removes the
    /// frame from the thread's held-set.
    #[derive(Debug)]
    pub struct Held {
        token: u64,
    }

    /// Record an acquisition of `class` with the given same-level order
    /// key, panicking on any hierarchy violation or acquisition-graph
    /// cycle. Call **before** blocking on the lock itself, so a schedule
    /// that merely *could* deadlock is reported even when it does not.
    pub fn acquire(class: &'static LockClass, order: u64) -> Held {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            for f in held.iter() {
                if f.class.level > class.level {
                    panic!(
                        "lock-order violation: acquiring `{}` (level {}) while holding `{}` \
                         (level {}); LOCKS.toml requires ascending levels",
                        class.name, class.level, f.class.name, f.class.level
                    );
                }
                if f.class.level == class.level {
                    assert!(
                        std::ptr::eq(f.class, class) && class.ordered,
                        "lock-order violation: acquiring `{}` while holding same-level `{}` \
                         (class is not `ordered`)",
                        class.name,
                        f.class.name
                    );
                    assert!(
                        f.order < order,
                        "lock-order violation: acquiring `{}` with order key {} while \
                         holding key {} (same-level acquisitions need strictly ascending keys)",
                        class.name,
                        order,
                        f.order
                    );
                }
            }
            if let Some(top) = held.last() {
                if !std::ptr::eq(top.class, class) {
                    let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
                    g.entry(top.class.name).or_default().insert(class.name);
                    for f in held.iter() {
                        if !std::ptr::eq(f.class, class) && reaches(&g, class.name, f.class.name) {
                            panic!(
                                "lock acquisition cycle: `{}` is reachable from `{}` in the \
                                 global acquisition graph, and this thread holds `{}` while \
                                 acquiring `{}`",
                                f.class.name, class.name, f.class.name, class.name
                            );
                        }
                    }
                }
            }
            let token = NEXT_TOKEN.with(|t| {
                let v = t.get();
                t.set(v + 1);
                v
            });
            held.push(Frame {
                class,
                order,
                token,
            });
            Held { token }
        })
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|h| {
                let mut held = h.borrow_mut();
                // Guards may be dropped out of stack order (the commit
                // path releases shard guards before its install latches),
                // so remove by token rather than popping.
                if let Some(i) = held.iter().rposition(|f| f.token == self.token) {
                    held.remove(i);
                }
            });
        }
    }
}

#[cfg(not(feature = "lockcheck"))]
mod imp {
    use super::LockClass;

    /// RAII token for one witnessed acquisition (ZST with the `lockcheck`
    /// feature off; holding a `Vec<Held>` never allocates).
    #[derive(Debug)]
    pub struct Held;

    /// No-op with the `lockcheck` feature off.
    #[inline(always)]
    pub fn acquire(_class: &'static LockClass, _order: u64) -> Held {
        Held
    }
}

pub use imp::{acquire, Held};

/// A `parking_lot::Mutex` that witnesses every acquisition against the
/// declared hierarchy (free when the `lockcheck` feature is off).
pub struct Mutex<T> {
    class: &'static LockClass,
    order: u64,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A mutex of `class` with same-level order key `order` (use 0 for
    /// classes that are never held twice by one thread).
    pub fn new(class: &'static LockClass, order: u64, value: T) -> Mutex<T> {
        Mutex {
            class,
            order,
            inner: parking_lot::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        // Witness first: a would-be deadlock must panic even on schedules
        // where the inner lock happens to be free.
        let held = acquire(self.class, self.order);
        MutexGuard {
            lock: self,
            inner: self.inner.lock(),
            held: Some(held),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lockcheck::Mutex({})", self.class.name)
    }
}

/// Guard of a [`Mutex`]; releases the witness frame together with the
/// lock.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: parking_lot::MutexGuard<'a, T>,
    held: Option<Held>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A condition variable usable with [`MutexGuard`]: the witness frame is
/// released for the duration of the wait (the lock genuinely is) and
/// re-checked on wakeup.
pub struct Condvar {
    inner: parking_lot::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Condvar {
    pub fn new() -> Condvar {
        Condvar {
            inner: parking_lot::Condvar::new(),
        }
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        guard.held = None;
        self.inner.wait(&mut guard.inner);
        guard.held = Some(acquire(guard.lock.class, guard.lock.order));
    }
}

/// A `parking_lot::RwLock` that witnesses every acquisition (read and
/// write acquisitions participate in the hierarchy identically).
pub struct RwLock<T> {
    class: &'static LockClass,
    order: u64,
    inner: parking_lot::RwLock<T>,
}

impl<T> RwLock<T> {
    pub fn new(class: &'static LockClass, order: u64, value: T) -> RwLock<T> {
        RwLock {
            class,
            order,
            inner: parking_lot::RwLock::new(value),
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = acquire(self.class, self.order);
        RwLockReadGuard {
            inner: self.inner.read(),
            _held: held,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = acquire(self.class, self.order);
        RwLockWriteGuard {
            inner: self.inner.write(),
            _held: held,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lockcheck::RwLock({})", self.class.name)
    }
}

pub struct RwLockReadGuard<'a, T> {
    inner: parking_lot::RwLockReadGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct RwLockWriteGuard<'a, T> {
    inner: parking_lot::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(all(test, feature = "lockcheck"))]
mod tests {
    use super::classes;
    use super::*;

    fn catches<F: FnOnce()>(f: F) -> String {
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn ascending_levels_pass() {
        let a = Mutex::new(&classes::COMMIT_LOCK, 0, ());
        let b = Mutex::new(&classes::WAL_APPENDER, 0, ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn descending_levels_panic() {
        let msg = catches(|| {
            let hi = Mutex::new(&classes::WAL_APPENDER, 0, ());
            let lo = Mutex::new(&classes::COMMIT_LOCK, 0, ());
            let _ghi = hi.lock();
            let _glo = lo.lock();
        });
        assert!(msg.contains("lock-order violation"), "got: {msg}");
    }

    #[test]
    fn same_level_needs_ascending_keys() {
        let s0 = Mutex::new(&classes::VALIDATION_SHARD, 0, ());
        let s1 = Mutex::new(&classes::VALIDATION_SHARD, 1, ());
        {
            let _g0 = s0.lock();
            let _g1 = s1.lock();
        }
        let msg = catches(|| {
            let _g1 = s1.lock();
            let _g0 = s0.lock();
        });
        assert!(msg.contains("strictly ascending keys"), "got: {msg}");
    }

    #[test]
    fn unordered_class_rejects_same_level_reacquire() {
        let a = Mutex::new(&classes::TABLES, 0, ());
        let b = Mutex::new(&classes::TABLES, 1, ());
        let msg = catches(|| {
            let _ga = a.lock();
            let _gb = b.lock();
        });
        assert!(msg.contains("not `ordered`"), "got: {msg}");
    }

    #[test]
    fn out_of_stack_order_release_is_fine() {
        let a = acquire(&classes::INSTALL_LATCH, 1);
        let b = acquire(&classes::VALIDATION_SHARD, 0);
        drop(a); // released before b, like shard guards vs latches
        drop(b);
        let _c = acquire(&classes::COMMIT_LOCK, 0);
    }

    #[test]
    fn rwlock_read_participates() {
        let t = RwLock::new(&classes::TABLES, 0, ());
        let w = Mutex::new(&classes::WAL_APPENDER, 0, ());
        let _gr = t.read();
        let _gw = w.lock();
        drop(_gw);
        drop(_gr);
        let msg = catches(|| {
            let _gw = w.lock();
            let _gr = t.read();
        });
        assert!(msg.contains("lock-order violation"), "got: {msg}");
    }
}
