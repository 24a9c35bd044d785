//! A registry-free token-tree parser on top of [`crate::lexer`]: groups
//! the flat token stream by `{}`/`()`/`[]` delimiters and extracts
//! function items. This is the substrate the unsafe-provenance pass
//! ([`crate::provenance`]) walks — not a Rust parser (no expressions, no
//! types), just enough structure to know which function an `unsafe`
//! block sits in and which brace it opens.
//!
//! The parser is total: any token stream produces a tree. Unmatched
//! closers become leaves, unmatched openers are closed at end of input —
//! the lint must never panic or loop on weird input (see the robustness
//! proptest in `tests/robustness.rs`).

use crate::lexer::{Lexed, Tok, TokKind};

/// One node of the token tree: a plain token, or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    Leaf(Tok),
    Group(Group),
}

/// A delimited group. `delim` is the opening character (`{`, `(`, `[`).
#[derive(Debug, Clone)]
pub struct Group {
    pub delim: char,
    pub close_line: u32,
    pub children: Vec<Tree>,
}

impl Tree {
    /// The leaf's token, or `None` for groups.
    pub fn leaf(&self) -> Option<&Tok> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            Tree::Leaf(_) => None,
        }
    }
}

fn closer(open: char) -> char {
    match open {
        '{' => '}',
        '(' => ')',
        '[' => ']',
        _ => unreachable!("not a delimiter"),
    }
}

/// Build the token tree for a lexed file.
pub fn parse(lx: &Lexed) -> Vec<Tree> {
    let mut pos = 0usize;
    parse_until(&lx.toks, &mut pos, None)
}

fn parse_until(toks: &[Tok], pos: &mut usize, close: Option<char>) -> Vec<Tree> {
    let mut out = Vec::new();
    while *pos < toks.len() {
        let t = &toks[*pos];
        let c = t.text.chars().next().unwrap_or(' ');
        if t.kind == TokKind::Punct && t.text.len() == 1 {
            if Some(c) == close {
                return out;
            }
            if matches!(c, '{' | '(' | '[') {
                let open_line = t.line;
                *pos += 1;
                let children = parse_until(toks, pos, Some(closer(c)));
                let close_line = toks
                    .get(*pos)
                    .map(|x| x.line)
                    .or_else(|| toks.last().map(|x| x.line))
                    .unwrap_or(open_line);
                // Consume the closer if present (absent at EOF).
                if toks
                    .get(*pos)
                    .is_some_and(|x| x.text.len() == 1 && x.text.starts_with(closer(c)))
                {
                    *pos += 1;
                }
                out.push(Tree::Group(Group {
                    delim: c,
                    close_line,
                    children,
                }));
                continue;
            }
            if matches!(c, '}' | ')' | ']') {
                // Unmatched closer for this level: when we are inside some
                // group it ends the *current* group (tolerant recovery for
                // mismatched delimiters in fuzzed input); at top level it
                // degrades to a leaf.
                if close.is_some() {
                    return out;
                }
                out.push(Tree::Leaf(t.clone()));
                *pos += 1;
                continue;
            }
        }
        out.push(Tree::Leaf(t.clone()));
        *pos += 1;
    }
    out
}

/// One `fn` item found in the tree: its name, the body group, and the
/// header tokens (everything between the name and the body — parameters,
/// return type, where clause) flattened for symbol lookups.
#[derive(Debug)]
pub struct FnItem<'t> {
    pub name: String,
    pub line: u32,
    pub body: &'t Group,
    /// Header tokens (params + return type), flattened.
    pub header: Vec<Tok>,
}

impl FnItem<'_> {
    /// Does `ident` appear anywhere in this function — parameters,
    /// return type, or body (including nested groups)?
    pub fn contains_ident(&self, ident: &str) -> bool {
        self.header
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == ident)
            || group_contains_ident(self.body, ident)
    }

    /// Line range `[start, end]` the function spans.
    pub fn lines(&self) -> (u32, u32) {
        (self.line, self.body.close_line)
    }
}

fn group_contains_ident(g: &Group, ident: &str) -> bool {
    g.children.iter().any(|c| match c {
        Tree::Leaf(t) => t.kind == TokKind::Ident && t.text == ident,
        Tree::Group(g) => group_contains_ident(g, ident),
    })
}

/// Extract every `fn` item, nested ones and those in `impl` and `mod`
/// blocks included.
pub fn functions(trees: &[Tree]) -> Vec<FnItem<'_>> {
    let mut out = Vec::new();
    collect_fns(trees, &mut out);
    out
}

fn collect_fns<'t>(trees: &'t [Tree], out: &mut Vec<FnItem<'t>>) {
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(t) if t.kind == TokKind::Ident && t.text == "fn" => {
                // `fn NAME <generics>? ( params ) -> ret { body }`; a `;`
                // before the body means a trait signature, and `fn(` is a
                // function-pointer type, not an item.
                let Some(Tree::Leaf(nm)) = trees.get(i + 1) else {
                    i += 1;
                    continue;
                };
                if nm.kind != TokKind::Ident {
                    i += 1;
                    continue;
                }
                let mut header = Vec::new();
                let mut j = i + 2;
                let mut body = None;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group(g) if g.delim == '{' => {
                            body = Some(g);
                            break;
                        }
                        Tree::Leaf(t) => {
                            if t.text == ";" {
                                break;
                            }
                            header.push(t.clone());
                        }
                        Tree::Group(g) => flatten_into(g, &mut header),
                    }
                    j += 1;
                }
                if let Some(body) = body {
                    out.push(FnItem {
                        name: nm.text.clone(),
                        line: t.line,
                        body,
                        header,
                    });
                    // Nested fns and closures inside this body.
                    collect_fns(&body.children, out);
                }
                i = j + 1;
            }
            Tree::Group(g) => {
                // impl, mod and trait blocks, etc.
                collect_fns(&g.children, out);
                i += 1;
            }
            Tree::Leaf(_) => i += 1,
        }
    }
}

fn flatten_into(g: &Group, out: &mut Vec<Tok>) {
    for c in &g.children {
        match c {
            Tree::Leaf(t) => out.push(t.clone()),
            Tree::Group(g) => flatten_into(g, out),
        }
    }
}
