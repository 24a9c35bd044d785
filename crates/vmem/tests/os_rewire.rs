//! Readers under privatisation: on the OS backend a snapshot is a
//! `MAP_PRIVATE` view of the live view's file, and the first
//! store to a page of the live view first has the kernel copy that page
//! into every private view still reading it through
//! (`MADV_POPULATE_WRITE`), moving the view's page-table entry onto the
//! copy. A frozen view's contents therefore never change while its pages
//! move underneath readers that hold a raw pointer to it (the zero-copy
//! scan path). This test checksums such a view in a loop while another
//! thread writes every page of the live view, with a fresh view each
//! round.

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

    for round in 0..ROUNDS {
        let frozen = b.vm_snapshot(None, src, bytes).unwrap();
        let p = b
            .raw_parts(frozen, bytes)
            .expect("OS views are addressable") as usize;
        let expect = checksum(p as *const u64, words);
        let before = b.stats().snapshot();
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
            // One store per page: each is a split that has the kernel copy
            // the page into the frozen view under the running reader.
            for page in 0..PAGES {
                b.write_u64(src + page * ps, round + 1).unwrap();
            }
        });
        let after = b.stats().snapshot();
        assert_eq!(
            after.cow_copies - before.cow_copies,
            PAGES,
            "every store split"
        );
        assert_eq!(
            after.populate_writes - before.populate_writes,
            PAGES,
            "one populate per page of the one private view"
        );
        assert_eq!(after.mmap_calls, before.mmap_calls, "nothing was rewired");
        assert_eq!(after.pwrite_calls, 0);
        assert_eq!(checksum(p as *const u64, words), expect);
        b.release(frozen, bytes).unwrap();
    }
    b.release(src, bytes).unwrap();
}
