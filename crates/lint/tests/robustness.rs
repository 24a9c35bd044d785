//! Robustness of the analysis substrate: the lexer and the token-tree
//! parser must be *total* — any input, however mangled, produces a tree
//! and its function list without panicking and in bounded time. The passes run on every file of the workspace on
//! every CI push, so "weird input" here is not adversarial paranoia: a
//! half-saved file, a macro-heavy module, or a future syntax extension
//! must degrade to missed findings, never to a crashed lint.
//!
//! Two generators:
//! * raw byte soup (lossy-decoded to UTF-8), and
//! * structured mutations of a realistic source template (delete, insert
//!   a delimiter/punct, duplicate a span, truncate) — much likelier to
//!   produce *almost*-valid Rust, which is where recursive parsers break.

use anker_lint::{lexer, parser};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Generous per-case ceiling: the whole 122-file workspace lints in well
/// under a second, so one sub-kilobyte input taking longer than this
/// means the lexer or the parser found a superlinear corner.
const CASE_BUDGET: Duration = Duration::from_secs(5);

/// A realistic template covering what the parser has to survive: nested
/// groups, `?`, early returns, loops with break, match arms, closures,
/// unsafe blocks, macros, indexing.
const TEMPLATE: &str = r#"
impl Store {
    pub fn install(&self, rows: &[u32]) -> Result<u64, Error> {
        let ts = self.oracle.next();
        for &r in rows {
            let (old, word) = self.lock_row(r)?;
            if word == SENTINEL {
                self.unlock_row(r, old);
                return Err(Error::Busy);
            }
            match self.install_locked(r, old, word, ts) {
                Ok(()) => {}
                Err(e) => {
                    self.unlock_row(r, old);
                    return Err(e);
                }
            }
        }
        // SAFETY(provenance: rows, bounds: ts): fixture text only.
        let first = unsafe { *rows.as_ptr() };
        let total: u64 = rows.iter().map(|r| u64::from(*r)).sum();
        assert_eq!(self.check[first as usize], total % 7, "mismatch");
        loop {
            if self.drain(ts).unwrap() == 0 {
                break;
            }
        }
        Ok(ts)
    }
}
"#;

/// Run the full substrate pipeline, returning the function count so the
/// template test can assert structure, not just absence of panics.
fn pipeline(src: &str) -> usize {
    let lx = lexer::lex(src);
    lexer::test_regions(&lx);
    lexer::comment_runs_text(&lx);
    let trees = parser::parse(&lx);
    parser::functions(&trees).len()
}

/// One structured mutation of the template.
#[derive(Debug, Clone)]
enum Mutation {
    Delete { at: usize, len: usize },
    Insert { at: usize, what: u8 },
    Duplicate { at: usize, len: usize },
    Truncate { at: usize },
}

const INSERTS: &[&str] = &[
    "{", "}", "(", ")", "[", "]", "?", "unsafe {", "match ", "=>", "return", "move |x|", "break",
    "#", "\"", "'a", "//", "let ", "..", "::<",
];

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    let one = prop_oneof![
        (0..1000usize, 1..40usize).prop_map(|(at, len)| Mutation::Delete { at, len }),
        (0..1000usize, any::<u8>()).prop_map(|(at, what)| Mutation::Insert { at, what }),
        (0..1000usize, 1..60usize).prop_map(|(at, len)| Mutation::Duplicate { at, len }),
        (0..1000usize,).prop_map(|(at,)| Mutation::Truncate { at }),
    ];
    proptest::collection::vec(one, 1..8)
}

fn apply(src: &str, m: &Mutation) -> String {
    let mut s = src.to_string();
    let clamp = |at: usize| at.min(s.len());
    match m {
        Mutation::Delete { at, len } => {
            let a = clamp(*at);
            let b = (a + len).min(s.len());
            if s.is_char_boundary(a) && s.is_char_boundary(b) {
                s.replace_range(a..b, "");
            }
        }
        Mutation::Insert { at, what } => {
            let a = clamp(*at);
            if s.is_char_boundary(a) {
                s.insert_str(a, INSERTS[*what as usize % INSERTS.len()]);
            }
        }
        Mutation::Duplicate { at, len } => {
            let a = clamp(*at);
            let b = (a + len).min(s.len());
            if s.is_char_boundary(a) && s.is_char_boundary(b) {
                let span = s[a..b].to_string();
                s.insert_str(a, &span);
            }
        }
        Mutation::Truncate { at } => {
            let a = clamp(*at);
            if s.is_char_boundary(a) {
                s.truncate(a);
            }
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Byte soup: no input crashes or stalls the substrate.
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let t0 = Instant::now();
        pipeline(&src);
        prop_assert!(t0.elapsed() < CASE_BUDGET, "pipeline stalled on byte soup");
    }

    /// Mutated realistic sources: almost-valid Rust is the hard case for
    /// a recursive parser; the pipeline must stay total and bounded.
    #[test]
    fn mutated_source_never_panics(muts in mutations()) {
        let mut src = TEMPLATE.to_string();
        for m in &muts {
            src = apply(&src, m);
        }
        let t0 = Instant::now();
        pipeline(&src);
        prop_assert!(t0.elapsed() < CASE_BUDGET, "pipeline stalled on mutated source");
    }
}

/// The unmutated template itself must parse into the expected shape —
/// guards against the mutation tests passing vacuously because the
/// template never produced a function in the first place.
#[test]
fn template_parses_into_one_function() {
    assert_eq!(
        pipeline(TEMPLATE),
        1,
        "the template holds exactly one function"
    );
}
