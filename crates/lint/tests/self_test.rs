//! Self-tests: one known-bad fixture workspace per invariant class, a
//! known-good one, the binary's exit-code contract, and — the point of
//! the whole exercise — the real workspace coming up clean.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has a grandparent")
        .to_path_buf()
}

fn checks_in(root: &Path) -> Vec<String> {
    anker_lint::run(root)
        .expect("lint run must succeed")
        .findings
        .iter()
        .map(|f| f.check.to_string())
        .collect()
}

#[test]
fn lock_order_inversion_is_flagged() {
    let report = anker_lint::run(&fixture("lock_order")).unwrap();
    let f = report
        .findings
        .iter()
        .find(|f| f.check == "lock-order")
        .expect("inverted nesting must be flagged");
    assert_eq!(f.file, "src/lib.rs");
    assert!(
        f.msg.contains("a_lock") && f.msg.contains("b_lock"),
        "{}",
        f.msg
    );
}

#[test]
fn io_under_no_io_lock_is_flagged() {
    assert!(
        checks_in(&fixture("io_under_lock")).contains(&"io-under-lock".to_string()),
        "fsync under a no_io lock must be flagged"
    );
}

#[test]
fn unsafe_without_safety_is_flagged() {
    assert!(checks_in(&fixture("missing_safety")).contains(&"unsafe-without-safety".to_string()));
}

#[test]
fn unjustified_ordering_is_flagged() {
    assert!(checks_in(&fixture("missing_ordering")).contains(&"ordering-unjustified".to_string()));
}

#[test]
fn orphan_sync_point_is_flagged() {
    let report = anker_lint::run(&fixture("orphan_syncpoint")).unwrap();
    let f = report
        .findings
        .iter()
        .find(|f| f.check == "sync-point-registry")
        .expect("a sync point with no test reference must be flagged");
    assert!(f.msg.contains("fixture:orphan"), "{}", f.msg);
}

#[test]
fn untagged_unsafe_is_flagged() {
    let report = anker_lint::run(&fixture("untagged_unsafe")).unwrap();
    let untagged = report
        .findings
        .iter()
        .find(|f| f.check == "unsafe-provenance" && f.msg.contains("without a structured"))
        .expect("a legacy-style SAFETY comment must be flagged as untagged");
    assert_eq!(untagged.file, "src/lib.rs");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.check == "unsafe-provenance" && f.msg.contains("stale tag")),
        "a tag naming vanished symbols must be flagged: {:#?}",
        report.findings
    );
}

#[test]
fn tagged_unsafe_twin_is_clean() {
    let report = anker_lint::run(&fixture("tagged_unsafe")).unwrap();
    assert!(
        report.findings.is_empty(),
        "structured tags with resolving symbols must be clean: {:#?}",
        report.findings
    );
    assert_eq!(
        report.unsafe_sites.len(),
        2,
        "both blocks land in the inventory"
    );
}

#[test]
fn audit_drift_is_flagged() {
    let report = anker_lint::run(&fixture("audit_drift")).unwrap();
    let f = report
        .findings
        .iter()
        .find(|f| f.check == "unsafe-audit-drift")
        .expect("a committed inventory that disagrees with the tree must be flagged");
    assert!(f.msg.contains("anker-lint -- audit"), "{}", f.msg);
}

#[test]
fn clean_fixture_passes_every_check() {
    let report = anker_lint::run(&fixture("clean")).unwrap();
    assert!(
        report.findings.is_empty(),
        "clean fixture must produce no findings: {:#?}",
        report.findings
    );
}

/// The acceptance test: the actual workspace is clean, with the full
/// declared hierarchy loaded and the sync-point registry populated.
#[test]
fn workspace_is_clean() {
    let report = anker_lint::run(&repo_root()).expect("lint over the workspace");
    assert!(
        report.findings.is_empty(),
        "workspace must be lint-clean: {:#?}",
        report.findings
    );
    assert_eq!(
        report.classes, 10,
        "LOCKS.toml declares the 10-class hierarchy"
    );
    assert!(
        report.lib_points >= 8,
        "the commit pipeline's sync points must be registered, got {}",
        report.lib_points
    );
    assert!(
        !report.unsafe_sites.is_empty(),
        "the unsafe inventory must be populated (drift is checked against it)"
    );
}

#[test]
fn malformed_config_is_rejected() {
    assert!(anker_lint::config::parse("nonsense").is_err());
    assert!(
        anker_lint::config::parse(
            "version = 1\n[[class]]\nname = \"x\"\nlevel = 0\nacquire = [\"l\"]\n\
             files = [\"a.rs\"]\n[[class]]\nname = \"y\"\nlevel = 0\nacquire = [\"m\"]\n\
             files = [\"a.rs\"]\n"
        )
        .is_err(),
        "duplicate levels must be rejected"
    );
}

#[test]
fn binary_exit_codes_follow_the_contract() {
    let bin = env!("CARGO_BIN_EXE_anker-lint");
    let ok = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture("clean"))
        .output()
        .unwrap();
    assert!(ok.status.success(), "clean root must exit 0");

    let bad = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture("lock_order"))
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1), "findings must exit 1");

    let missing = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture("does_not_exist"))
        .output()
        .unwrap();
    assert_eq!(missing.status.code(), Some(2), "config errors must exit 2");
}
