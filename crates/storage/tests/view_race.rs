//! Lock-free column access racing snapshots and splits (OS backend).
//!
//! A `ColumnArea` on the OS backend reads and stores through a direct view
//! of its mapping, without the backend's lock. One writer stores every row
//! of a live column round after round, and after each round cuts two
//! snapshot images of it — the writer's own cuts, so no store races one:
//! a zero-copy one (`vm_snapshot`) and one for reading through
//! (`vm_snapshot_read_through`). The first store to each page after a
//! cut is a split, under the readers: the kernel copies the page into the
//! zero-copy images that still read it through, and the backend copies it
//! in user space, aside from the mapping, for the images cut for reading
//! through. The writer lets go of old images while readers may still hold
//! them; an image is released when its last holder drops it. Readers
//! meanwhile
//! * point-read and block-read the live column: every word must be one the
//!   writer stored into that row, from a round already begun;
//! * point-read, block-read and slice-read the newest zero-copy image, and
//!   point-read and block-read the newest image cut for reading through
//!   by its own view, which reads a split page from its copy and an
//!   unsplit one from the file: every word must equal the image's cut;
//! * point-read and block-read that image through the live column
//!   (`ColumnArea::read_through`), copying each page the image still reads
//!   through from the live column while the writer splits it and stores
//!   into it: every word must equal the image's cut too.

#![cfg(target_os = "linux")]

use anker_storage::ColumnArea;
use anker_vmem::{OsBackend, VmBackend};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Four pages of words.
const ROWS: u32 = 2048;
const ROUNDS: u64 = 60;
const READERS: usize = 2;
/// Images the writer holds; it drops older ones.
const KEEP: usize = 2;

/// The word round `round` stores into `row`.
fn word(round: u64, row: u32) -> u64 {
    (round << 32) | row as u64
}

/// Two images of one cut — zero-copy, and cut for reading through — a
/// second handle reading the latter through the live column, and the
/// words they were cut with; released with their last holder.
struct Image {
    area: ColumnArea,
    hot: ColumnArea,
    through: ColumnArea,
    cut: Vec<u64>,
}

impl Drop for Image {
    fn drop(&mut self) {
        self.area.clone().unmap().unwrap();
        self.hot.clone().unmap().unwrap();
    }
}

/// Check one read of the live column's `row`: a word stored into this row
/// by a round no later than `begun`.
fn check_live(w: u64, row: u32, begun: u64) {
    assert_eq!(w as u32, row, "a word of another row: {w:#x}");
    assert!(w >> 32 <= begun, "round {} not begun ({begun})", w >> 32);
}

fn read_image(img: &Image, buf: &mut [u64]) {
    for row in (0..ROWS).step_by(97) {
        assert_eq!(img.area.get(row).unwrap(), img.cut[row as usize]);
    }
    img.area.read_block_into(0, ROWS, buf).unwrap();
    assert!(buf == img.cut, "block read differs from the cut");
    // SAFETY(provenance: img): the image is never written, and the handle
    // the slice borrows lives across the comparison.
    let words = unsafe { img.area.as_slice() }.expect("OS areas are addressable");
    assert!(words == img.cut, "slice differs from the cut");
    for row in (0..ROWS).step_by(89) {
        assert_eq!(img.hot.get(row).unwrap(), img.cut[row as usize]);
    }
    img.hot.read_block_into(0, ROWS, buf).unwrap();
    assert!(buf == img.cut, "block read of the split image differs");
}

/// Read `img` through the live column, a few times over, as the writer's
/// next round splits its pages and stores into them.
fn read_image_through(img: &Image, buf: &mut [u64]) {
    for pass in 0..16 {
        for row in (pass..ROWS).step_by(61) {
            assert_eq!(img.through.get(row).unwrap(), img.cut[row as usize]);
        }
        img.through.read_block_into(0, ROWS, buf).unwrap();
        if let Some(row) = (0..ROWS as usize).find(|&r| buf[r] != img.cut[r]) {
            panic!(
                "a read through the live column differs from the cut at row {row}: {:#x} vs {:#x}",
                buf[row], img.cut[row]
            );
        }
    }
}

#[test]
fn views_race_snapshots_and_splits() {
    let os = OsBackend::new().expect("OS backend on Linux");
    let backend: Arc<dyn VmBackend> = Arc::new(os.clone());
    let live = ColumnArea::alloc_on(Arc::clone(&backend), ROWS).unwrap();
    live.fill((0..ROWS).map(|r| word(0, r))).unwrap();
    let newest: Mutex<Option<Arc<Image>>> = Mutex::new(None);
    let begun = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let mut buf = vec![0u64; ROWS as usize];
                    let mut row = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        // The newest image first: the writer's next round,
                        // and its splits, start as a reader begins a pass.
                        let img = newest.lock().clone();
                        if let Some(img) = img {
                            read_image_through(&img, &mut buf);
                            read_image(&img, &mut buf);
                        }
                        for _ in 0..64 {
                            row = (row + 131) % ROWS;
                            let w = live.get(row).unwrap();
                            check_live(w, row, begun.load(Ordering::Acquire));
                        }
                        live.read_block_into(0, ROWS, &mut buf).unwrap();
                        let now = begun.load(Ordering::Acquire);
                        for (row, &w) in buf.iter().enumerate() {
                            check_live(w, row as u32, now);
                        }
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Stop the readers however this thread leaves the scope.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let _stop = StopOnDrop(&stop);

        let mut shadow: Vec<u64> = (0..ROWS).map(|r| word(0, r)).collect();
        let mut kept: Vec<Arc<Image>> = Vec::new();
        for round in 1..=ROUNDS {
            begun.store(round, Ordering::Release);
            // A stride walk, so a round's stores split pages in turn.
            for i in 0..ROWS {
                let row = (i * 517) % ROWS;
                live.set(row, word(round, row)).unwrap();
                shadow[row as usize] = word(round, row);
            }
            let (src, bytes) = (live.addr(), live.mapped_bytes());
            let addr = backend.vm_snapshot(None, src, bytes).unwrap();
            let hot = backend.vm_snapshot_read_through(src, bytes).unwrap();
            let img = Arc::new(Image {
                area: ColumnArea::from_raw_on(Arc::clone(&backend), addr, ROWS),
                hot: ColumnArea::from_raw_on(Arc::clone(&backend), hot, ROWS),
                through: ColumnArea::from_raw_on(Arc::clone(&backend), hot, ROWS)
                    .read_through(&live),
                cut: shadow.clone(),
            });
            assert!(img.through.reads_through());
            // SAFETY(provenance: img): no slice is taken.
            assert!(
                unsafe { img.hot.as_slice() }.is_none(),
                "split pages live aside"
            );
            *newest.lock() = Some(Arc::clone(&img));
            kept.push(img);
            if kept.len() > KEEP {
                kept.remove(0);
            }
            // Let the readers at each image before the next round splits
            // it (unless one already failed).
            let seen = reads.load(Ordering::Relaxed);
            while reads.load(Ordering::Relaxed) < seen + READERS as u64
                && !readers.iter().any(|r| r.is_finished())
            {
                std::thread::yield_now();
            }
        }
    });
    let stats = os.stats().snapshot();
    assert_eq!(stats.snapshots, 2 * ROUNDS);
    assert!(stats.cow_copies > 0, "the writer split pages under readers");
    assert!(stats.populate_writes > 0 && stats.user_copies > 0);
    *newest.lock() = None;
    live.unmap().unwrap();
}
