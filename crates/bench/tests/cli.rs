//! The `repro` binary from the outside: argument errors, `all`, and the
//! determinism of the virtual-clock artifacts.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawning repro")
}

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("utf-8 stdout")
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for args in [
        &["fig12"][..],
        &["fig9", "--bogus-flag"],
        &["fig9", "--sf=abc"],
        &["durability", "--sf=abc"],
        &[],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro <"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn all_renders_each_artifact_once() {
    let out = repro(&["all", "--smoke"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for banner in [
        "Table 1 — ",
        "Figure 5 — ",
        "Figure 7 — ",
        "Figure 8 — ",
        "Figure 9 — ",
        "Figure 10 — ",
        "Figure 11 — ",
    ] {
        let n = text.lines().filter(|l| l.starts_with(banner)).count();
        assert_eq!(n, 1, "banner {banner:?} appears {n} times");
    }
    assert!(text.ends_with("all experiments completed\n"));
}

#[test]
fn virtual_clock_artifacts_are_deterministic() {
    for id in ["table1", "fig5", "fig10"] {
        let (a, b) = (repro(&[id, "--smoke"]), repro(&[id, "--smoke"]));
        assert!(a.status.success() && b.status.success(), "{id}");
        assert!(!a.stdout.is_empty(), "{id} printed nothing");
        assert_eq!(stdout(&a), stdout(&b), "{id} differs between two runs");
    }
}
