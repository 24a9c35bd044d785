//! Backend-contract semantics suite, run against **both** [`VmBackend`]
//! implementations: the simulated kernel and (on Linux) the real-OS memfd
//! backend.
//!
//! The full `semantics.rs` / `edge_cases.rs` suites exercise the simulated
//! kernel's complete syscall surface (`mprotect`, `fork`, file truncation,
//! sub-area snapshots) which the OS backend intentionally does not expose;
//! everything the *engine* relies on — allocation, word and block access,
//! `vm_snapshot` (and `vm_snapshot_read_through`) isolation in both
//! directions, release/re-use — is specified here once and must hold
//! identically on both substrates. Destination recycling (§4.1.3), which
//! no engine path uses, is the simulated kernel's alone: the OS backend
//! refuses it and changes nothing.

use anker_vmem::{Kernel, KernelConfig, OsBackend, VmBackend, VmError};

fn sim() -> impl VmBackend {
    Kernel::new(KernelConfig::default()).create_space()
}

/// Run `f` against every backend available on this platform.
fn for_each_backend(f: impl Fn(&dyn VmBackend)) {
    let s = sim();
    f(&s);
    if cfg!(target_os = "linux") {
        let os = OsBackend::new().expect("OS backend available on Linux");
        f(&os);
    }
}

#[test]
fn alloc_reads_zero_and_round_trips() {
    for_each_backend(|b| {
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        assert_eq!(b.read_u64(a).unwrap(), 0, "{}: fresh area zeroed", b.name());
        assert_eq!(b.read_u64(a + 2 * ps - 8).unwrap(), 0);
        for i in 0..16u64 {
            b.write_u64(a + i * 8, i * 7 + 1).unwrap();
        }
        for i in 0..16u64 {
            assert_eq!(b.read_u64(a + i * 8).unwrap(), i * 7 + 1);
        }
        b.release(a, 2 * ps).unwrap();
    });
}

#[test]
fn block_reads_and_writes_cross_pages() {
    for_each_backend(|b| {
        let ps = b.page_size();
        let a = b.alloc(3 * ps).unwrap();
        let n = (3 * ps / 8) as usize;
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        b.write_words(a, &data).unwrap();
        let mut back = vec![0u64; n];
        b.read_words(a, &mut back).unwrap();
        assert_eq!(back, data, "{}: block round trip", b.name());
        // A misaligned sub-range still reads correctly (straddling pages).
        let off = ps - 32;
        let mut mid = vec![0u64; 16];
        b.read_words(a + off, &mut mid).unwrap();
        assert_eq!(&mid[..], &data[(off / 8) as usize..(off / 8) as usize + 16]);
        b.release(a, 3 * ps).unwrap();
    });
}

/// Both cuts — `vm_snapshot` and `vm_snapshot_read_through` — isolate
/// the snapshot from the source and the source from the snapshot.
#[test]
fn vm_snapshot_isolates_both_directions() {
    for_each_backend(|b| {
        for read_through in [false, true] {
            let ps = b.page_size();
            let a = b.alloc(4 * ps).unwrap();
            for p in 0..4u64 {
                b.write_u64(a + p * ps, 100 + p).unwrap();
            }
            let snap = if read_through {
                b.vm_snapshot_read_through(a, 4 * ps).unwrap()
            } else {
                b.vm_snapshot(None, a, 4 * ps).unwrap()
            };
            for p in 0..4u64 {
                assert_eq!(b.read_u64(snap + p * ps).unwrap(), 100 + p);
            }
            let cut = (b.name(), read_through);
            // Source writes do not reach the snapshot...
            b.write_u64(a + ps, 7).unwrap();
            assert_eq!(b.read_u64(snap + ps).unwrap(), 101, "{cut:?}");
            assert_eq!(b.read_u64(a + ps).unwrap(), 7);
            // ...and snapshot writes do not reach the source, before or
            // after the source split the page.
            b.write_u64(snap + 2 * ps, 8).unwrap();
            b.write_u64(snap + ps + 8, 9).unwrap();
            assert_eq!(b.read_u64(a + 2 * ps).unwrap(), 102, "{cut:?}");
            assert_eq!(b.read_u64(a + ps + 8).unwrap(), 0, "{cut:?}");
            assert_eq!(b.read_u64(snap + 2 * ps).unwrap(), 8);
            assert_eq!(b.read_u64(snap + ps).unwrap(), 101, "{cut:?}");
            b.release(snap, 4 * ps).unwrap();
            b.release(a, 4 * ps).unwrap();
        }
    });
}

#[test]
fn chained_snapshots_stay_frozen() {
    for_each_backend(|b| {
        let ps = b.page_size();
        let a = b.alloc(ps).unwrap();
        b.write_u64(a, 1).unwrap();
        let s1 = b.vm_snapshot(None, a, ps).unwrap();
        b.write_u64(a, 2).unwrap();
        let s2 = b.vm_snapshot(None, a, ps).unwrap();
        b.write_u64(a, 3).unwrap();
        // A snapshot of a snapshot also works (areas are areas).
        let s3 = b.vm_snapshot(None, s1, ps).unwrap();
        assert_eq!(b.read_u64(s1).unwrap(), 1, "{}", b.name());
        assert_eq!(b.read_u64(s2).unwrap(), 2);
        assert_eq!(b.read_u64(s3).unwrap(), 1);
        assert_eq!(b.read_u64(a).unwrap(), 3);
        for s in [s1, s2, s3] {
            b.release(s, ps).unwrap();
        }
        b.release(a, ps).unwrap();
    });
}

#[test]
fn recycled_destination_matches_source_and_isolates() {
    for_each_backend(|b| {
        let ps = b.page_size();
        let src = b.alloc(2 * ps).unwrap();
        b.write_u64(src, 11).unwrap();
        b.write_u64(src + ps, 22).unwrap();
        let old = b.alloc(2 * ps).unwrap();
        b.write_u64(old, 99).unwrap();
        if b.name() == "os" {
            assert_eq!(
                b.vm_snapshot(Some(old), src, 2 * ps),
                Err(VmError::BadDestination { addr: old }),
                "os: a destination is refused"
            );
            // Both areas stay readable, unchanged and writable.
            assert_eq!(
                [src, src + ps, old].map(|a| b.read_u64(a).unwrap()),
                [11, 22, 99]
            );
            b.write_u64(src, 12).unwrap();
            b.write_u64(old, 98).unwrap();
            assert_eq!([src, old].map(|a| b.read_u64(a).unwrap()), [12, 98]);
            b.release(old, 2 * ps).unwrap();
            b.release(src, 2 * ps).unwrap();
            return;
        }
        let d = b.vm_snapshot(Some(old), src, 2 * ps).unwrap();
        assert_eq!(d, old, "{}: recycling reuses the destination", b.name());
        assert_eq!(b.read_u64(d).unwrap(), 11);
        assert_eq!(b.read_u64(d + ps).unwrap(), 22);
        // Post-recycle writes still isolate.
        b.write_u64(src, 12).unwrap();
        assert_eq!(b.read_u64(d).unwrap(), 11, "{}", b.name());
        b.release(d, 2 * ps).unwrap();
        b.release(src, 2 * ps).unwrap();
    });
}

#[test]
fn errors_on_bad_requests() {
    for_each_backend(|b| {
        let ps = b.page_size();
        assert!(matches!(b.alloc(ps + 8), Err(VmError::Misaligned { .. })));
        assert!(b.alloc(0).is_err());
        assert!(b.vm_snapshot(None, 0x10, ps).is_err(), "{}", b.name());
        let a = b.alloc(ps).unwrap();
        assert!(
            b.vm_snapshot(Some(a), a, ps).is_err(),
            "{}: source as destination must be refused",
            b.name()
        );
        b.release(a, ps).unwrap();
    });
}

#[test]
fn released_areas_do_not_leak_into_fresh_allocations() {
    for_each_backend(|b| {
        let ps = b.page_size();
        let a = b.alloc(2 * ps).unwrap();
        for i in 0..(2 * ps / 8) {
            b.write_u64(a + i * 8, u64::MAX).unwrap();
        }
        b.release(a, 2 * ps).unwrap();
        let c = b.alloc(2 * ps).unwrap();
        for i in 0..(2 * ps / 8) {
            assert_eq!(b.read_u64(c + i * 8).unwrap(), 0, "{}: zeroed", b.name());
        }
        b.release(c, 2 * ps).unwrap();
    });
}

#[cfg(target_os = "linux")]
#[test]
fn os_views_agree_with_word_reads() {
    let b = OsBackend::new().unwrap();
    let ps = b.page_size();
    let a = b.alloc(ps).unwrap();
    for i in 0..(ps / 8) {
        b.write_u64(a + i * 8, i + 1).unwrap();
    }
    let snap = b.vm_snapshot(None, a, ps).unwrap();
    let v = b.view(snap, ps).expect("OS backend exposes views");
    let mut words = vec![0u64; (ps / 8) as usize];
    v.read_into(0, &mut words);
    for (i, &w) in words.iter().enumerate() {
        assert_eq!(v.load(i), b.read_u64(snap + i as u64 * 8).unwrap());
        assert_eq!(w, i as u64 + 1);
    }
    // The simulated kernel never exposes views.
    let s = sim();
    let sa = s.alloc(ps).unwrap();
    assert!(s.view(sa, ps).is_none());
}
