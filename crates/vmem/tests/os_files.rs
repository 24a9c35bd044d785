//! File lifetime and the descriptor limit on the OS backend: every live
//! area is a memfd of its own, a snapshot view takes no descriptor, and a
//! file's descriptor closes with the last view that maps it. Past the
//! process's soft `RLIMIT_NOFILE` an allocation fails with a typed error.
//!
//! This binary holds this one test alone: it lowers the soft descriptor
//! limit of its own process, which any test running beside it would feel.

#![cfg(target_os = "linux")]

use anker_vmem::{OsBackend, VmBackend, VmError};

/// `RLIMIT_NOFILE` on Linux.
const RLIMIT_NOFILE: i32 = 7;
/// `EMFILE`: the process has its limit of open descriptors.
const EMFILE: i32 = 24;
/// The soft descriptor limit the test runs under.
const LIMIT: u64 = 64;

/// `struct rlimit`.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Set this process's soft descriptor limit to `soft`, keeping the hard
/// limit, and return the soft limit it replaced.
fn set_soft_nofile(soft: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY(provenance: lim): both calls read or write only `lim`, a
    // local `struct rlimit`.
    let (got, prev, set) = unsafe {
        let got = getrlimit(RLIMIT_NOFILE, &mut lim);
        let prev = lim.cur;
        lim.cur = soft;
        (got, prev, setrlimit(RLIMIT_NOFILE, &lim))
    };
    assert_eq!((got, set), (0, 0), "getrlimit / setrlimit failed");
    prev
}

#[test]
fn one_descriptor_per_file_and_it_closes_with_the_last_view() {
    let emfile = Err(VmError::Os {
        call: "memfd_create",
        errno: EMFILE,
    });
    let b = OsBackend::new().expect("OS backend on Linux");
    let ps = b.page_size();
    let restore = set_soft_nofile(LIMIT);

    // One-page live areas until the descriptors run out.
    let mut live = Vec::new();
    let failed = loop {
        match b.alloc(ps) {
            Ok(a) => live.push(a),
            Err(e) => break Err(e),
        }
        assert!(live.len() < LIMIT as usize, "more files than descriptors");
    };
    assert_eq!(failed, emfile);
    let a = *live.last().expect("some area fits under the limit");

    // At the limit a snapshot still maps: a view takes no descriptor.
    b.write_u64(a, 7).unwrap();
    let view = b.vm_snapshot(None, a, ps).unwrap();
    assert_eq!(b.read_u64(view), Ok(7));

    // Releasing the live area frees no descriptor: the view still maps
    // its file, and still reads it.
    live.pop();
    b.release(a, ps).unwrap();
    assert_eq!(b.alloc(ps), emfile);
    assert_eq!(b.read_u64(view), Ok(7));

    // Releasing the view as well closes the file.
    b.release(view, ps).unwrap();
    live.push(b.alloc(ps).unwrap());

    for a in live {
        b.release(a, ps).unwrap();
    }
    assert_eq!(b.file_pages_in_use(), 0);
    assert_eq!(
        set_soft_nofile(restore),
        LIMIT,
        "the backend never raises the limit"
    );
}
