//! `anker-lint`: concurrency-invariant static analysis for the AnKerDB
//! workspace. Five checks, all driven by `LOCKS.toml` and a hand-rolled
//! lexer (no `syn`, no registry dependencies):
//!
//! 1. **lock-order** — lexical acquisition nesting must follow the
//!    declared hierarchy;
//! 2. **io-under-lock** — no blocking file I/O while a `no_io` class is
//!    held;
//! 3. **unsafe-without-safety** — every `unsafe` carries a `// SAFETY:`;
//! 4. **ordering-unjustified** — every non-`Relaxed` atomic ordering in
//!    lib code carries an `// ORDERING:`;
//! 5. **sync-point-registry** — `sched::hit` points and test references
//!    must pair up.
//!
//! Plus one pass over a token-tree parse (see DESIGN.md, "Dataflow
//! lint"):
//!
//! 6. **unsafe-provenance** — every `unsafe` block carries a structured
//!    `SAFETY(provenance: …, bounds: …)` tag whose symbols resolve, with
//!    a per-crate inventory (`results/unsafe_audit.json`) diffed by CI.
//!
//! Guards need no pass: a tracer span (`anker_obs::Span`) and a row
//! latch (`anker_mvcc::RowLatch`) end themselves when dropped, so every
//! exit path closes them by construction, and a frozen column's slice
//! borrows the `SnapCol` it comes from, so the borrow checker keeps it
//! inside its pin.
//!
//! Run as `cargo run -p anker-lint -- check`. The runtime complement is
//! `anker_util::lockcheck` (`--features lockcheck`); `witness_agrees`
//! cross-checks that the two layers declare the same hierarchy.
// No unsafe in this crate: verified by the compiler, inventoried by
// `anker-lint -- audit` (results/unsafe_audit.json records zero sites).
#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod locks;
pub mod ordering;
pub mod parser;
pub mod provenance;
pub mod safety;
pub mod syncpoints;

use std::fmt;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub check: &'static str,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.check, self.msg
        )
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub classes: usize,
    pub lib_points: usize,
    /// Every `unsafe` block seen, for the audit inventory.
    pub unsafe_sites: Vec<provenance::UnsafeSite>,
}

/// Run every check over the workspace rooted at `root` (the directory
/// containing `LOCKS.toml`).
pub fn run(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join("LOCKS.toml");
    let cfg_src = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = config::parse(&cfg_src)?;

    let mut report = Report {
        classes: cfg.classes.len(),
        ..Report::default()
    };
    report.findings.extend(witness_agrees(root, &cfg)?);

    let mut files = Vec::new();
    walk(root, root, &mut files);
    files.sort();
    let mut reg = syncpoints::Registry::default();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        let lx = lexer::lex(&src);
        let regions = lexer::test_regions(&lx);
        let trees = parser::parse(&lx);
        report.findings.extend(locks::check(rel, &lx, &cfg));
        report.findings.extend(safety::check(rel, &lx));
        report.findings.extend(ordering::check(rel, &lx, &regions));
        report.findings.extend(provenance::check(
            rel,
            &lx,
            &trees,
            &mut report.unsafe_sites,
        ));
        syncpoints::collect(rel, &lx, &regions, &mut reg);
        report.files_scanned += 1;
    }
    report.lib_points = reg.lib_points.len();
    report.findings.extend(syncpoints::verdict(&reg));
    report.findings.extend(provenance::drift(
        &root.join("results/unsafe_audit.json"),
        &report.unsafe_sites,
    ));
    report.findings.sort();
    Ok(report)
}

/// Cross-check `LOCKS.toml` against the runtime witness's `LockClass`
/// statics in `anker_util::lockcheck` — the two layers must declare the
/// same (name, level, ordered) triples. Skipped silently when the file is
/// absent (e.g. a fixture workspace).
pub fn witness_agrees(root: &Path, cfg: &config::Config) -> Result<Vec<Finding>, String> {
    let rel = "crates/util/src/lockcheck.rs";
    let path = root.join(rel);
    let Ok(src) = std::fs::read_to_string(&path) else {
        return Ok(Vec::new());
    };
    let lx = lexer::lex(&src);
    let t = &lx.toks;
    let mut witness: Vec<(String, i64, bool, u32)> = Vec::new();
    let mut i = 0usize;
    while i < t.len() {
        let is_literal = t[i].text == "LockClass"
            && t.get(i + 1).is_some_and(|x| x.text == "{")
            && (i == 0 || t[i - 1].text != "struct");
        if is_literal {
            let line = t[i].line;
            let (mut name, mut level, mut ordered) = (None, None, None);
            let mut j = i + 2;
            while j < t.len() && t[j].text != "}" {
                match t[j].text.as_str() {
                    "name" => {
                        if let Some(s) = t.get(j + 2).filter(|x| x.kind == lexer::TokKind::Str) {
                            name = Some(s.text.clone());
                        }
                    }
                    "level" => {
                        if let Some(n) = t.get(j + 2).and_then(|x| x.text.parse::<i64>().ok()) {
                            level = Some(n);
                        }
                    }
                    "ordered" => {
                        if let Some(b) = t.get(j + 2) {
                            ordered = Some(b.text == "true");
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if let (Some(n), Some(l), Some(o)) = (name, level, ordered) {
                witness.push((n, l, o, line));
            }
            i = j;
            continue;
        }
        i += 1;
    }
    let mut findings = Vec::new();
    for (name, level, ordered, line) in &witness {
        match cfg.classes.iter().find(|c| c.name == *name) {
            None => findings.push(Finding {
                file: rel.to_string(),
                line: *line,
                check: "witness-config-drift",
                msg: format!("runtime witness class `{name}` is not declared in LOCKS.toml"),
            }),
            Some(c) if c.level != *level || c.ordered != *ordered => findings.push(Finding {
                file: rel.to_string(),
                line: *line,
                check: "witness-config-drift",
                msg: format!(
                    "class `{name}`: witness says (level {level}, ordered {ordered}), LOCKS.toml \
                     says (level {}, ordered {})",
                    c.level, c.ordered
                ),
            }),
            Some(_) => {}
        }
    }
    for c in &cfg.classes {
        if !witness.iter().any(|(n, ..)| n == &c.name) {
            findings.push(Finding {
                file: "LOCKS.toml".to_string(),
                line: 0,
                check: "witness-config-drift",
                msg: format!(
                    "class `{}` has no LockClass static in the runtime witness",
                    c.name
                ),
            });
        }
    }
    Ok(findings)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "shims" || name == "fixtures" {
                continue;
            }
            walk(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Locate the workspace root: the nearest ancestor of `start` (including
/// itself) containing a `LOCKS.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(d) = cur {
        if d.join("LOCKS.toml").is_file() {
            return Some(d.to_path_buf());
        }
        cur = d.parent();
    }
    None
}
