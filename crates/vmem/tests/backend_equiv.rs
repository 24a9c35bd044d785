//! Backend-equivalence property test: the same randomized sequence of
//! area operations — alloc, word writes, `vm_snapshot` (fresh, and
//! recycling on the simulated kernel, which the OS backend refuses and
//! the test replaces by a release and a fresh snapshot), release, reads
//! — must produce byte-identical observable state on the simulated
//! kernel and on the real-OS memfd backend, and both must agree with a
//! plain-vector oracle. After every op the OS
//! backend's file pages in use must also equal, exactly, the summed size
//! of the files its live areas map, as the test tracks them.
//!
//! The simulated kernel is booted with the *hardware* page size so the two
//! backends have identical area geometry.

#![cfg(target_os = "linux")]

use anker_vmem::{Kernel, KernelConfig, OsBackend, VmBackend, VmError};
use proptest::prelude::*;

const MAX_PAGES: u64 = 3;
const MAX_AREAS: usize = 8;

#[derive(Debug, Clone)]
enum Op {
    /// Allocate an area of `pages` pages.
    Alloc { pages: u64 },
    /// Write `value` at word `word` (modulo size) of area `sel` (modulo
    /// live-area count).
    Write { sel: usize, word: usize, value: u64 },
    /// `vm_snapshot` area `sel` into a fresh area, or
    /// `vm_snapshot_read_through` it when `read_through`.
    Snapshot { sel: usize, read_through: bool },
    /// `vm_snapshot` area `src` into the equally-sized area `dst`
    /// (§4.1.3 destination recycling) on the simulated kernel; on the OS
    /// backend, which refuses a destination, release `dst` and snapshot
    /// `src` afresh in its place. Skipped when sizes differ.
    Recycle { src: usize, dst: usize },
    /// Release area `sel`.
    Release { sel: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (1..=MAX_PAGES).prop_map(|pages| Op::Alloc { pages }),
        6 => (0..MAX_AREAS, 0..4096usize, any::<u64>())
            .prop_map(|(sel, word, value)| Op::Write { sel, word, value }),
        2 => (0..MAX_AREAS, any::<bool>())
            .prop_map(|(sel, read_through)| Op::Snapshot { sel, read_through }),
        1 => (0..MAX_AREAS, 0..MAX_AREAS).prop_map(|(src, dst)| Op::Recycle { src, dst }),
        1 => (0..MAX_AREAS).prop_map(|sel| Op::Release { sel }),
    ]
}

/// One backend's live areas plus the shared oracle index.
struct Fleet<'a> {
    backend: &'a dyn VmBackend,
    /// `(addr, pages)` per live area, position-aligned with the oracle.
    areas: Vec<(u64, u64)>,
}

impl<'a> Fleet<'a> {
    fn words(&self, sel: usize) -> u64 {
        self.areas[sel].1 * self.backend.page_size() / 8
    }
}

/// The file each OS area maps, position-aligned with the oracle. An
/// allocation, and a snapshot or recycle *of a private view* (a physical
/// copy), start a new file; a snapshot or recycle of a live view maps the
/// source's file privately.
#[derive(Default)]
struct Files {
    /// `(file id, private)` per live area.
    of_area: Vec<(usize, bool)>,
    /// Pages of each file ever started, by id.
    pages: Vec<u64>,
}

impl Files {
    fn start(&mut self, pages: u64) -> (usize, bool) {
        self.pages.push(pages);
        (self.pages.len() - 1, false)
    }

    /// The file a snapshot of area `src` maps.
    fn snapshot_of(&mut self, src: usize) -> (usize, bool) {
        match self.of_area[src] {
            (file, false) => (file, true),
            (file, true) => self.start(self.pages[file]),
        }
    }

    /// Summed pages of the files some area still maps.
    fn pages_mapped(&self) -> u64 {
        let open: std::collections::BTreeSet<usize> =
            self.of_area.iter().map(|&(file, _)| file).collect();
        open.iter().map(|&file| self.pages[file]).sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Apply every op to both backends and a plain-vector oracle; all
    /// three must agree after every step and in a final full sweep.
    #[test]
    fn backends_are_observably_identical(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let os = OsBackend::new().expect("OS backend on Linux");
        let ps = VmBackend::page_size(&os);
        let kernel = Kernel::new(KernelConfig {
            page_size: ps as usize,
            ..KernelConfig::default()
        });
        let space = kernel.create_space();
        let mut sim = Fleet { backend: &space, areas: Vec::new() };
        let mut osf = Fleet { backend: &os, areas: Vec::new() };
        let mut files = Files::default();
        // The oracle: plain vectors, one per live area.
        let mut oracle: Vec<Vec<u64>> = Vec::new();

        for op in &ops {
            match *op {
                Op::Alloc { pages } => {
                    if oracle.len() >= MAX_AREAS {
                        continue;
                    }
                    let bytes = pages * ps;
                    for f in [&mut sim, &mut osf] {
                        let a = f.backend.alloc(bytes).unwrap();
                        f.areas.push((a, pages));
                    }
                    let file = files.start(pages);
                    files.of_area.push(file);
                    oracle.push(vec![0u64; (bytes / 8) as usize]);
                }
                Op::Write { sel, word, value } => {
                    if oracle.is_empty() {
                        continue;
                    }
                    let sel = sel % oracle.len();
                    let word = word % oracle[sel].len();
                    for f in [&mut sim, &mut osf] {
                        f.backend
                            .write_u64(f.areas[sel].0 + word as u64 * 8, value)
                            .unwrap();
                    }
                    oracle[sel][word] = value;
                }
                Op::Snapshot { sel, read_through } => {
                    if oracle.is_empty() || oracle.len() >= MAX_AREAS {
                        continue;
                    }
                    let sel = sel % oracle.len();
                    for f in [&mut sim, &mut osf] {
                        let (addr, pages) = f.areas[sel];
                        let snap = if read_through {
                            f.backend.vm_snapshot_read_through(addr, pages * ps)
                        } else {
                            f.backend.vm_snapshot(None, addr, pages * ps)
                        }
                        .unwrap();
                        f.areas.push((snap, pages));
                    }
                    let file = files.snapshot_of(sel);
                    files.of_area.push(file);
                    let copy = oracle[sel].clone();
                    oracle.push(copy);
                }
                Op::Recycle { src, dst } => {
                    if oracle.len() < 2 {
                        continue;
                    }
                    let src = src % oracle.len();
                    let dst = dst % oracle.len();
                    if src == dst || oracle[src].len() != oracle[dst].len() {
                        continue;
                    }
                    let (saddr, pages) = sim.areas[src];
                    let daddr = sim.areas[dst].0;
                    let got = space.vm_snapshot(Some(daddr), saddr, pages * ps).unwrap();
                    prop_assert_eq!(got, daddr);
                    let (saddr, pages) = osf.areas[src];
                    let daddr = osf.areas[dst].0;
                    prop_assert_eq!(
                        os.vm_snapshot(Some(daddr), saddr, pages * ps),
                        Err(VmError::BadDestination { addr: daddr })
                    );
                    // The refusal leaves both areas readable and unchanged.
                    for (addr, want) in [(saddr, &oracle[src]), (daddr, &oracle[dst])] {
                        let mut buf = vec![0u64; want.len()];
                        os.read_words(addr, &mut buf).unwrap();
                        prop_assert_eq!(&buf, want, "after a refused destination");
                    }
                    os.release(daddr, pages * ps).unwrap();
                    osf.areas[dst].0 = os.vm_snapshot(None, saddr, pages * ps).unwrap();
                    files.of_area[dst] = files.snapshot_of(src);
                    oracle[dst] = oracle[src].clone();
                }
                Op::Release { sel } => {
                    if oracle.is_empty() {
                        continue;
                    }
                    let sel = sel % oracle.len();
                    for f in [&mut sim, &mut osf] {
                        let (addr, pages) = f.areas.remove(sel);
                        f.backend.release(addr, pages * ps).unwrap();
                    }
                    files.of_area.remove(sel);
                    oracle.remove(sel);
                }
            }
            // File invariant: the pages of the open files are exactly the
            // pages of the files some live area maps. A file kept open
            // past its last view, or closed under one, breaks the equality.
            prop_assert_eq!(os.file_pages_in_use(), files.pages_mapped(), "after {:?}", op);
            // Spot-check one word of one area after every op (cheap).
            if let Some(sel) = oracle.len().checked_sub(1) {
                let w = oracle[sel].len() / 2;
                let expect = oracle[sel][w];
                for f in [&sim, &osf] {
                    let got = f.backend.read_u64(f.areas[sel].0 + w as u64 * 8).unwrap();
                    prop_assert_eq!(got, expect, "spot check after {:?}", op);
                }
            }
        }

        // Final sweep: every word of every live area, via the block path.
        for (sel, shadow) in oracle.iter().enumerate() {
            for f in [&sim, &osf] {
                prop_assert_eq!(f.words(sel) as usize, shadow.len());
                let mut buf = vec![0u64; shadow.len()];
                f.backend.read_words(f.areas[sel].0, &mut buf).unwrap();
                prop_assert_eq!(&buf, shadow, "final state of area {}", sel);
            }
        }
        // Releasing everything closes every file.
        for &(addr, pages) in &osf.areas {
            os.release(addr, pages * ps).unwrap();
        }
        prop_assert_eq!(os.file_pages_in_use(), 0);
    }
}
