//! # anker-vmem — simulated kernel virtual-memory subsystem
//!
//! This crate is the substrate substitution for the AnKerDB paper
//! ("Accelerating Analytical Processing in MVCC using Fine-Granular
//! High-Frequency Virtual Snapshotting", SIGMOD'18): the paper's headline
//! mechanism is a custom Linux system call, `vm_snapshot`, compiled into a
//! patched kernel. Since a custom kernel cannot be loaded here, this crate
//! reimplements the relevant slice of the Linux virtual-memory subsystem in
//! user space, faithfully enough that every snapshotting technique the paper
//! discusses — physical copies, `fork`-based COW snapshots, user-space
//! *rewiring* over main-memory files, and the custom `vm_snapshot` call —
//! runs against the same machinery and exhibits the same cost structure.
//!
//! What is modelled (paper §3.2, Figures 2-4):
//!
//! * **Physical frames** with reference counts ([`phys::PhysMem`]). Data is
//!   really stored; snapshots are functionally correct, not mocked.
//! * **VMAs** (`vm_area_struct`): per-space ordered tree with splitting and
//!   Linux-style merging of compatible neighbours ([`vma::Vma`]).
//! * **Page tables**: per-space sharded VPN→PTE maps with a writable bit
//!   ([`pte::PageTable`]).
//! * **Demand paging and copy-on-write** in the fault handler
//!   ([`Space::resolve`]).
//! * **Main-memory files** (memfd equivalents) for rewiring
//!   ([`file::MemFile`]).
//! * **System calls**: `mmap` (incl. `MAP_FIXED` rewiring), `munmap`,
//!   `mprotect`, `fork`, and the paper's `vm_snapshot` (Appendix A
//!   semantics, including destination-area recycling, §4.1.3).
//! * **Cost accounting**: a calibrated virtual clock plus operation
//!   counters ([`cost::CostModel`], [`Kernel::stats`]) so that Table 1 and
//!   Figure 5 of the paper can be reproduced in shape *and* scale.
//!
//! Since the backend split, the crate also hosts the engine-facing
//! [`VmBackend`] trait and a second implementation of it: [`OsBackend`]
//! (Linux), which maps each column area over a real memfd of its own
//! (`MAP_SHARED`), cuts snapshots as `MAP_PRIVATE` views of the same file,
//! and has the kernel copy a page into those views before the engine's
//! first write to it — snapshots at actual hardware speed.
//! The simulated [`Space`] implements the same trait and remains the
//! default substrate.
//!
//! ## Example
//!
//! ```
//! use anker_vmem::{Access, Kernel, MapBacking, Prot, Share};
//!
//! let kernel = Kernel::default();
//! let space = kernel.create_space();
//! let ps = space.page_size();
//!
//! // A 16-page anonymous private area (a "column").
//! let col = space
//!     .mmap(16 * ps, Prot::READ_WRITE, Share::Private, MapBacking::Anon)
//!     .unwrap();
//! space.write_u64(col, 42).unwrap();
//!
//! // Take a virtual snapshot with the paper's custom system call.
//! let snap = space.vm_snapshot(None, col, 16 * ps).unwrap();
//! assert_eq!(space.read_u64(snap).unwrap(), 42);
//!
//! // Writes to the source no longer affect the snapshot (copy-on-write).
//! space.write_u64(col, 7).unwrap();
//! assert_eq!(space.read_u64(col).unwrap(), 7);
//! assert_eq!(space.read_u64(snap).unwrap(), 42);
//! ```

pub mod backend;
pub mod cost;
pub mod error;
pub mod file;
pub mod kernel;
pub mod os;
pub mod page;
pub mod phys;
pub mod pte;
pub mod space;
pub mod view;
pub mod vma;

pub use backend::VmBackend;
pub use cost::{CostModel, KernelStats};
pub use error::{Result, VmError};
pub use file::MemFile;
pub use kernel::{Kernel, KernelConfig};
pub use os::{OsBackend, OsStats, OsStatsSnapshot};
pub use page::ResolvedPage;
pub use phys::FrameId;
pub use space::{Access, MapBacking, Space};
pub use view::View;
pub use vma::{Backing, Prot, Share, Vma};
