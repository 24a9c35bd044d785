//! Readers under privatisation: on the OS backend a snapshot is a
//! `MAP_PRIVATE` view of the live view's file, and the first
//! store to a page of the live view first has the kernel copy that page
//! into every private view still reading it through
//! (`MADV_POPULATE_WRITE`), moving the view's page-table entry onto the
//! copy. A frozen view's contents therefore never change while its pages
//! move underneath readers that load through a direct `View` of it (the
//! zero-copy scan path). This test checksums such a view in a loop while
//! another thread writes every page of the live view, with a fresh view
//! each round.

#![cfg(target_os = "linux")]

use anker_vmem::{OsBackend, View, VmBackend};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const PAGES: u64 = 64;
const ROUNDS: u64 = 40;

/// Sum of every word of the view, read the way scans read frozen areas:
/// plain loads through the mapping, no backend lock.
fn checksum(v: &View) -> u64 {
    (0..v.len()).fold(0u64, |acc, i| acc.wrapping_mul(31).wrapping_add(v.load(i)))
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
        let v = b.view(frozen, bytes).expect("OS views are addressable");
        assert_eq!(v.len(), words);
        let expect = checksum(&v);
        let before = b.stats().snapshot();
        let stop = AtomicBool::new(false);
        let passes = AtomicU64::new(0);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(checksum(&v), expect);
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
        assert_eq!(checksum(&v), expect);
        b.release(frozen, bytes).unwrap();
    }
    b.release(src, bytes).unwrap();
}
