//! Readers under rewiring: on the OS backend a copy-on-write split keeps
//! the written view's wiring and `MAP_FIXED`-rewires every *other* view of
//! the page onto a byte-identical copy. A frozen view's contents therefore
//! never change while its pages move underneath readers that hold a raw
//! pointer to it (the zero-copy scan path). This test checksums such a
//! view in a loop while another thread forces a sharer rewire of every
//! one of its pages, round after round.

#![cfg(target_os = "linux")]

use anker_vmem::{OsBackend, VmBackend};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const PAGES: u64 = 64;
const ROUNDS: u64 = 40;

/// Sum of every word of `[p, p + words)`, read the way scans read frozen
/// areas: plain loads through the mapping, no backend lock.
fn checksum(p: *const u64, words: usize) -> u64 {
    (0..words).fold(0u64, |acc, i| {
        // SAFETY(provenance: p, bounds: words): `p` comes from
        // `raw_parts` over the whole live view, which the test releases
        // only after the reader thread is joined.
        acc.wrapping_mul(31)
            .wrapping_add(unsafe { p.add(i).read_volatile() })
    })
}

/// Sets the flag when dropped, unwinding included.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn frozen_view_checksum_is_stable_while_every_page_is_rewired() {
    let b = OsBackend::new().expect("OS backend on Linux");
    let ps = b.page_size();
    let bytes = PAGES * ps;
    let words = (bytes / 8) as usize;
    let src = b.alloc(bytes).unwrap();
    let fill: Vec<u64> = (0..words as u64).map(|w| w * 2_654_435_761).collect();
    b.write_words(src, &fill).unwrap();
    let frozen = b.vm_snapshot(None, src, bytes).unwrap();
    let p = b
        .raw_parts(frozen, bytes)
        .expect("OS views are addressable") as usize;
    let expect = checksum(p as *const u64, words);

    let stop = AtomicBool::new(false);
    let passes = AtomicU64::new(0);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                assert_eq!(checksum(p as *const u64, words), expect);
                passes.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Stop the reader however this thread leaves the scope, or a
        // failed assertion below would wait on it forever.
        let _stop = StopOnDrop(&stop);
        while passes.load(Ordering::Relaxed) == 0 && !reader.is_finished() {
            std::hint::spin_loop();
        }
        for round in 0..ROUNDS {
            if round > 0 {
                // Re-share: wire the source back onto the frozen view's
                // pages (destination recycling), so every page is shared
                // again and the writes below split it once more.
                assert_eq!(b.vm_snapshot(Some(src), frozen, bytes).unwrap(), src);
            }
            // One store per page: each splits a page the frozen view
            // shares, rewiring the frozen view's page onto the copy.
            let wired = b.file_pages(frozen).unwrap();
            for page in 0..PAGES {
                b.write_u64(src + page * ps, round + 1).unwrap();
            }
            let moved = b.file_pages(frozen).unwrap();
            assert!(
                wired.iter().zip(&moved).all(|(w, m)| w != m),
                "every page of the frozen view was rewired"
            );
            assert_eq!(
                b.file_pages(src).unwrap(),
                wired,
                "the writer kept its pages"
            );
        }
    });

    assert_eq!(
        b.stats().snapshot().cow_copies,
        ROUNDS * PAGES,
        "every store was a split"
    );
    assert_eq!(checksum(p as *const u64, words), expect);
    b.release(frozen, bytes).unwrap();
    b.release(src, bytes).unwrap();
}
