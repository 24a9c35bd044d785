//! Checks 1 and 2: lexical lock-hierarchy order and blocking I/O under a
//! `no_io` lock class (see `LOCKS.toml` for the declared hierarchy).
//!
//! The analysis is per function and lexical, tracking brace scopes:
//!
//! * an acquisition in a `let` statement holds until `drop(var)` or the
//!   end of the enclosing block;
//! * an acquisition in a statement header (`for`/`if`/`while`/`match`)
//!   holds for the attached block;
//! * an acquisition that is a block's tail expression propagates to the
//!   statement the block belongs to (`let g = if c { x.lock() } …`);
//! * any other acquisition is a temporary and ends with its statement;
//! * a *sticky* class (one with `release` patterns — its guards outlive
//!   the block that took them) holds from the acquisition to the next
//!   occurrence of a release pattern, or to the end of the function.
//!
//! This is deliberately an under-approximation across function calls (a
//! callee's acquisitions are checked in the callee, against whatever is
//! lexically held *there*); the runtime witness in `anker_util::lockcheck`
//! covers the compositional, dynamic side of the same invariant.

use crate::config::{Config, LockClass, Pattern};
use crate::lexer::{Lexed, Tok, TokKind};
use crate::Finding;

/// Blocking-I/O token sequences (matched against the token stream; a
/// leading `.` anchors method calls so `fn sync_all(` definitions do not
/// match). Buffered WAL appends are intentionally absent — see
/// LOCKS.toml's header comment.
const IO_METHODS: &[&str] = &[
    "sync_data",
    "sync_all",
    "sync_to",
    "read_to_end",
    "write_all",
    "set_len",
    "flush",
];
const IO_PATHS: &[[&str; 3]] = &[
    ["File", "::", "open"],
    ["File", "::", "create"],
    ["OpenOptions", "::", "new"],
    ["fs", "::", "remove_file"],
    ["fs", "::", "rename"],
    ["fs", "::", "create_dir_all"],
    ["fs", "::", "read_dir"],
];
const IO_BARE: &[&str] = &["sync_dir"];

#[derive(Debug, Clone)]
struct Hold {
    class: usize,
    line: u32,
    /// `let`-binding name, when there is one to match `drop(name)`.
    var: Option<String>,
}

pub fn check(rel_path: &str, lx: &Lexed, cfg: &Config) -> Vec<Finding> {
    let active = cfg.classes_for(rel_path);
    if active.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let t = &lx.toks;
    let mut i = 0usize;
    while i < t.len() {
        if t[i].kind == TokKind::Ident && t[i].text == "fn" {
            // Skip to the body `{` (or `;` for a trait signature).
            let mut j = i + 1;
            while j < t.len() && t[j].text != "{" && t[j].text != ";" {
                j += 1;
            }
            if j < t.len() && t[j].text == "{" {
                let end = analyze_fn(t, j, rel_path, cfg, &active, &mut findings);
                i = end;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    findings
}

/// Analyze one function body starting at the `{` at `open`. Returns the
/// index just past the matching `}`.
fn analyze_fn(
    t: &[Tok],
    open: usize,
    rel_path: &str,
    cfg: &Config,
    active: &[(usize, &LockClass)],
    findings: &mut Vec<Finding>,
) -> usize {
    // Scope stack: holds bound to each brace scope. Parallel statement
    // stack: acquisitions pending in the statement at each nesting depth.
    let mut scopes: Vec<Vec<Hold>> = vec![Vec::new()];
    let mut stmts: Vec<StmtState> = vec![StmtState::default()];
    // Sticky-class holds (release-pattern classes) live at fn level.
    let mut sticky: Vec<Hold> = Vec::new();

    let mut i = open + 1;
    while i < t.len() {
        let text = t[i].text.as_str();
        match text {
            "{" => {
                let stmt = stmts.last_mut().expect("stmt stack");
                let header = std::mem::take(&mut stmt.pending);
                // Header acquisitions (for/if/while/match) hold for the
                // new block.
                scopes.push(header);
                stmts.push(StmtState::default());
                i += 1;
            }
            "}" => {
                scopes.pop();
                // A block's unfinalized tail acquisitions flow into the
                // enclosing statement (`let g = { …lock() };`).
                let inner = stmts.pop().expect("stmt stack");
                if scopes.is_empty() {
                    return i + 1;
                }
                stmts
                    .last_mut()
                    .expect("stmt stack")
                    .pending
                    .extend(inner.pending);
                i += 1;
            }
            ";" => {
                let stmt = stmts.last_mut().expect("stmt stack");
                let pending = std::mem::take(&mut stmt.pending);
                let var = stmt.let_var.take();
                let is_let = std::mem::take(&mut stmt.has_let);
                for mut h in pending {
                    if is_let {
                        h.var = var.clone();
                        scopes.last_mut().expect("scope").push(h);
                    }
                    // else: temporary — released at the statement end.
                }
                i += 1;
            }
            "let" if t[i].kind == TokKind::Ident => {
                let stmt = stmts.last_mut().expect("stmt stack");
                stmt.has_let = true;
                let mut j = i + 1;
                if j < t.len() && t[j].text == "mut" {
                    j += 1;
                }
                if j < t.len() && t[j].kind == TokKind::Ident {
                    stmt.let_var = Some(t[j].text.clone());
                }
                i += 1;
            }
            "drop" if t[i].kind == TokKind::Ident && next_is(t, i + 1, "(") => {
                if i + 2 < t.len() && t[i + 2].kind == TokKind::Ident && next_is(t, i + 3, ")") {
                    let name = &t[i + 2].text;
                    for scope in scopes.iter_mut() {
                        scope.retain(|h| h.var.as_deref() != Some(name.as_str()));
                    }
                    i += 4;
                    continue;
                }
                i += 1;
            }
            _ => {
                // Release patterns for sticky classes.
                let mut consumed = false;
                for &(ci, class) in active {
                    if !class.release.is_empty()
                        && class.release.iter().any(|p| matches_at(t, i, p))
                    {
                        sticky.retain(|h| h.class != ci);
                        consumed = true;
                        break;
                    }
                }
                if !consumed {
                    if let Some(&(ci, class)) = active
                        .iter()
                        .find(|(_, c)| c.acquire.iter().any(|p| matches_at(t, i, p)))
                    {
                        report_order(
                            t[i].line, ci, class, cfg, &scopes, &stmts, &sticky, rel_path, findings,
                        );
                        let hold = Hold {
                            class: ci,
                            line: t[i].line,
                            var: None,
                        };
                        if class.release.is_empty() {
                            stmts.last_mut().expect("stmt stack").pending.push(hold);
                        } else {
                            sticky.push(hold);
                        }
                    } else if is_io(t, i) {
                        let held: Vec<&Hold> = scopes
                            .iter()
                            .flatten()
                            .chain(stmts.iter().flat_map(|s| s.pending.iter()))
                            .chain(sticky.iter())
                            .collect();
                        for h in held {
                            if !cfg.classes[h.class].allow_io {
                                findings.push(Finding {
                                    file: rel_path.to_string(),
                                    line: t[i].line,
                                    check: "io-under-lock",
                                    msg: format!(
                                        "blocking I/O `{}` while holding no_io lock class `{}` \
                                         (acquired line {})",
                                        t[i].text, cfg.classes[h.class].name, h.line
                                    ),
                                });
                            }
                        }
                    }
                }
                i += 1;
            }
        }
    }
    t.len()
}

#[derive(Debug, Default)]
struct StmtState {
    pending: Vec<Hold>,
    has_let: bool,
    let_var: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn report_order(
    line: u32,
    new_class: usize,
    class: &LockClass,
    cfg: &Config,
    scopes: &[Vec<Hold>],
    stmts: &[StmtState],
    sticky: &[Hold],
    rel_path: &str,
    findings: &mut Vec<Finding>,
) {
    let held = scopes
        .iter()
        .flatten()
        .chain(stmts.iter().flat_map(|s| s.pending.iter()))
        .chain(sticky.iter());
    for h in held {
        let hc = &cfg.classes[h.class];
        if hc.level > class.level {
            findings.push(Finding {
                file: rel_path.to_string(),
                line,
                check: "lock-order",
                msg: format!(
                    "acquires `{}` (level {}) while holding `{}` (level {}, acquired line {}): \
                     inverts the LOCKS.toml hierarchy",
                    class.name, class.level, hc.name, hc.level, h.line
                ),
            });
        } else if hc.level == class.level && !(h.class == new_class && class.ordered) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line,
                check: "lock-order",
                msg: format!(
                    "re-acquires level {} (`{}` while holding `{}`, acquired line {}) without an \
                     ordered-class key protocol",
                    class.level, class.name, hc.name, h.line
                ),
            });
        }
    }
}

fn next_is(t: &[Tok], i: usize, s: &str) -> bool {
    t.get(i).is_some_and(|x| x.text == s)
}

fn prev_is_fn_or_dot(t: &[Tok], i: usize) -> (bool, bool) {
    match i.checked_sub(1).and_then(|j| t.get(j)) {
        Some(p) => (p.text == "fn", p.text == "."),
        None => (false, false),
    }
}

/// Does `pat` match at token index `i`? `i` must be the method/name ident.
fn matches_at(t: &[Tok], i: usize, pat: &Pattern) -> bool {
    if t[i].kind != TokKind::Ident || !next_is(t, i + 1, "(") {
        return false;
    }
    let (after_fn, after_dot) = prev_is_fn_or_dot(t, i);
    if after_fn {
        return false;
    }
    match pat {
        Pattern::Bare(name) => t[i].text == *name,
        Pattern::Method { recv, method } => {
            if t[i].text != *method || !after_dot {
                return false;
            }
            // Walk back over the `.`, then optionally one balanced `[…]`
            // index group (`shards[i].lock()`), to the receiver ident.
            let mut j = match (i - 1).checked_sub(1) {
                Some(j) => j,
                None => return false,
            };
            if t[j].text == "]" {
                let mut depth = 1i32;
                loop {
                    j = match j.checked_sub(1) {
                        Some(j) => j,
                        None => return false,
                    };
                    match t[j].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 {
                        break;
                    }
                }
                j = match j.checked_sub(1) {
                    Some(j) => j,
                    None => return false,
                };
            }
            t[j].kind == TokKind::Ident && t[j].text == *recv
        }
    }
}

fn is_io(t: &[Tok], i: usize) -> bool {
    if t[i].kind != TokKind::Ident {
        return false;
    }
    let (after_fn, after_dot) = prev_is_fn_or_dot(t, i);
    if after_fn {
        return false;
    }
    if after_dot && next_is(t, i + 1, "(") && IO_METHODS.contains(&t[i].text.as_str()) {
        return true;
    }
    if !after_dot && next_is(t, i + 1, "(") && IO_BARE.contains(&t[i].text.as_str()) {
        return true;
    }
    IO_PATHS.iter().any(|p| {
        t[i].text == p[0]
            && t.get(i + 1).is_some_and(|x| x.text == p[1])
            && t.get(i + 2).is_some_and(|x| x.text == p[2])
    })
}
