//! Database configuration: the three evaluated setups of §5.1 are
//! combinations of [`ProcessingMode`] and
//! [`anker_mvcc::IsolationLevel`].

use anker_dura::DurabilityLevel;
use anker_mvcc::IsolationLevel;
use anker_vmem::KernelConfig;
use std::path::PathBuf;
use std::time::Duration;

/// Which virtual-memory substrate column areas live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The simulated kernel ([`anker_vmem::Space`]): faithful page tables
    /// and a calibrated virtual clock — powers the paper's Table 1 /
    /// Figure 5 cost reproductions. Default.
    Sim,
    /// Real memory (Linux only): column areas over `memfd_create` +
    /// `mmap(MAP_SHARED)` pages with engine-mediated copy-on-write
    /// ([`anker_vmem::OsBackend`]). Snapshot creation and scans run at
    /// actual hardware speed; kernel cost counters stay zero.
    Os,
}

impl BackendKind {
    /// The backend selected by the `ANKER_BACKEND` environment variable
    /// (`"sim"` or `"os"`, case-insensitive), or `None` when unset. Feeds
    /// the [`DbConfig`] default so whole test suites can be re-pointed at
    /// the OS backend without code changes.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value: someone who set the variable is
    /// asking for a specific substrate, and silently running the suite on
    /// the simulator instead would validate the wrong thing.
    pub fn from_env() -> Option<BackendKind> {
        let v = std::env::var("ANKER_BACKEND").ok()?;
        if v.eq_ignore_ascii_case("os") {
            Some(BackendKind::Os)
        } else if v.eq_ignore_ascii_case("sim") {
            Some(BackendKind::Sim)
        } else {
            panic!("unrecognised ANKER_BACKEND value {v:?} (expected \"sim\" or \"os\")");
        }
    }
}

/// Whether transactions are separated by type (§2.2) or all run on the live
/// data (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessingMode {
    /// Classical MVCC: OLTP and OLAP share the live, versioned columns; a
    /// background thread garbage-collects version chains.
    Homogeneous,
    /// AnKerDB's design: OLAP runs on high-frequency virtual column
    /// snapshots; version chains are handed over and dropped with their
    /// epoch.
    Heterogeneous,
}

/// Configuration of an [`crate::AnkerDb`] instance.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Processing model (§5.1 configurations 1/2 vs 3).
    pub mode: ProcessingMode,
    /// Isolation level; `Serializable` adds commit-time read validation.
    pub isolation: IsolationLevel,
    /// Trigger a snapshot epoch every this many commits (paper: 10 000).
    /// Only meaningful in heterogeneous mode.
    pub snapshot_every_commits: u64,
    /// Interval of the homogeneous garbage-collection thread (paper: "a
    /// thread that makes a pass over the version chains every second").
    /// `None` disables the background thread (tests drive GC manually).
    pub gc_interval: Option<Duration>,
    /// Accepted and ignored: the engine never recycles retired snapshot
    /// areas as `vm_snapshot` destinations (§4.1.3), and the OS backend
    /// refuses a destination (a fresh view is one `mmap` either way).
    /// Kept so configurations that set it still build.
    pub recycle_snapshot_areas: bool,
    /// Materialise *every* column at trigger time instead of lazily on
    /// first access — the "trivial way" §2.2.2 describes and rejects
    /// ("this causes unnecessary overhead as we might access only a small
    /// subset of the attributes"). Ablation knob; off by default.
    pub eager_materialization: bool,
    /// Advise every OS-backend mapping `madvise(MADV_HUGEPAGE)` so the
    /// kernel may collapse column areas into transparent huge pages
    /// (fewer TLB misses on large scans). Every view is a memfd (shmem)
    /// mapping, so the hint follows the shmem THP policy, not the
    /// anonymous one: where `/sys/kernel/mm/transparent_hugepage/shmem_enabled`
    /// reads `never` (a common default) it is a no-op. Defaults to the
    /// `ANKER_HUGE_PAGES=1` environment variable; ignored by the
    /// simulated backend. `os_huge_page_advices_total` counts the hints
    /// issued, honoured or not.
    pub os_huge_pages: bool,
    /// Run scan predicates through the pre-vectorized row-at-a-time
    /// dispatch instead of the selection-vector kernels — the ablation
    /// baseline ([`crate::ScanStats::vector_blocks`] and friends stay
    /// zero; results are property-tested bit-identical either way).
    /// Defaults to the `ANKER_SCALAR_SCAN=1` environment variable.
    pub scalar_scan: bool,
    /// Simulated kernel parameters (page size, cost model, memory bound).
    /// Only consulted by the [`BackendKind::Sim`] backend; the OS backend
    /// uses the hardware page size.
    pub kernel: KernelConfig,
    /// Virtual-memory substrate for column areas. Defaults to the
    /// simulated kernel, or to whatever `ANKER_BACKEND` says.
    pub backend: BackendKind,
    /// Durability contract of commits (see [`DurabilityLevel`]). Defaults
    /// to the `ANKER_DURABILITY` environment variable, or `Off`. Only
    /// effective when [`DbConfig::durability_dir`] names a directory —
    /// without one there is nowhere to log, and the engine runs
    /// process-lifetime-only exactly as before.
    pub durability: DurabilityLevel,
    /// Directory the WAL segments and checkpoint files live in. `None`
    /// (default) disables the durability subsystem entirely.
    /// [`crate::AnkerDb::open`] fills this in from its `dir` argument.
    pub durability_dir: Option<PathBuf>,
    /// Interval of the background checkpointer thread (heterogeneous mode
    /// with a durability directory only). Each pass pins a frozen snapshot
    /// epoch, streams every column to a new checkpoint file off the commit
    /// path, and truncates the WAL up to the epoch timestamp. `None`
    /// (default) disables the thread; [`crate::AnkerDb::checkpoint`] can
    /// always be called manually.
    pub checkpoint_interval: Option<Duration>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            mode: ProcessingMode::Heterogeneous,
            isolation: IsolationLevel::Serializable,
            snapshot_every_commits: 10_000,
            gc_interval: Some(Duration::from_secs(1)),
            recycle_snapshot_areas: false,
            eager_materialization: false,
            os_huge_pages: std::env::var("ANKER_HUGE_PAGES")
                .map(|v| v == "1")
                .unwrap_or(false),
            scalar_scan: std::env::var("ANKER_SCALAR_SCAN")
                .map(|v| v == "1")
                .unwrap_or(false),
            kernel: KernelConfig::default(),
            backend: BackendKind::from_env().unwrap_or(BackendKind::Sim),
            durability: DurabilityLevel::from_env().unwrap_or(DurabilityLevel::Off),
            durability_dir: None,
            checkpoint_interval: None,
        }
    }
}

impl DbConfig {
    /// The paper's configuration 3: heterogeneous, fully serializable.
    pub fn heterogeneous_serializable() -> DbConfig {
        DbConfig::default()
    }

    /// The paper's configuration 1: homogeneous, fully serializable.
    pub fn homogeneous_serializable() -> DbConfig {
        DbConfig {
            mode: ProcessingMode::Homogeneous,
            ..DbConfig::default()
        }
    }

    /// The paper's configuration 2: homogeneous, snapshot isolation.
    pub fn homogeneous_snapshot_isolation() -> DbConfig {
        DbConfig {
            mode: ProcessingMode::Homogeneous,
            isolation: IsolationLevel::SnapshotIsolation,
            ..DbConfig::default()
        }
    }

    /// Builder-style override of the snapshot trigger interval.
    pub fn with_snapshot_every(mut self, commits: u64) -> DbConfig {
        self.snapshot_every_commits = commits.max(1);
        self
    }

    /// Builder-style override of the GC interval (`None` = no GC thread).
    pub fn with_gc_interval(mut self, interval: Option<Duration>) -> DbConfig {
        self.gc_interval = interval;
        self
    }

    /// Builder-style override of the kernel configuration.
    pub fn with_kernel(mut self, kernel: KernelConfig) -> DbConfig {
        self.kernel = kernel;
        self
    }

    /// Builder-style override of the memory backend.
    pub fn with_backend(mut self, backend: BackendKind) -> DbConfig {
        self.backend = backend;
        self
    }

    /// Builder-style override of the OS-backend huge-pages hint.
    pub fn with_os_huge_pages(mut self, on: bool) -> DbConfig {
        self.os_huge_pages = on;
        self
    }

    /// Builder-style override of the scalar-scan ablation flag.
    pub fn with_scalar_scan(mut self, on: bool) -> DbConfig {
        self.scalar_scan = on;
        self
    }

    /// Builder-style override of the durability level.
    pub fn with_durability(mut self, level: DurabilityLevel) -> DbConfig {
        self.durability = level;
        self
    }

    /// Builder-style override of the durability directory.
    pub fn with_durability_dir(mut self, dir: impl Into<PathBuf>) -> DbConfig {
        self.durability_dir = Some(dir.into());
        self
    }

    /// Builder-style override of the background-checkpointer interval.
    pub fn with_checkpoint_interval(mut self, interval: Option<Duration>) -> DbConfig {
        self.checkpoint_interval = interval;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        let hetero = DbConfig::heterogeneous_serializable();
        assert_eq!(hetero.mode, ProcessingMode::Heterogeneous);
        assert_eq!(hetero.isolation, IsolationLevel::Serializable);
        let homo_ser = DbConfig::homogeneous_serializable();
        assert_eq!(homo_ser.mode, ProcessingMode::Homogeneous);
        assert_eq!(homo_ser.isolation, IsolationLevel::Serializable);
        let homo_si = DbConfig::homogeneous_snapshot_isolation();
        assert_eq!(homo_si.isolation, IsolationLevel::SnapshotIsolation);
    }

    #[test]
    fn builder_overrides() {
        let c = DbConfig::default()
            .with_snapshot_every(0)
            .with_gc_interval(None);
        assert_eq!(c.snapshot_every_commits, 1, "clamped to at least 1");
        assert!(c.gc_interval.is_none());
    }
}
