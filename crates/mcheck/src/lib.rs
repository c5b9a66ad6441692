//! # Verification substrate (Section 5 of the paper)
//!
//! An in-tree explicit-state model checker ([`check_parallel`]: one
//! breadth-first search, run on any number of workers, with optional
//! symmetry and partial-order reduction) plus protocol specifications:
//!
//! * [`TokenModel`] — the flat token coherence correctness substrate, in
//!   three variants (safety-only, distributed activation, arbiter
//!   activation), verified under a *nondeterministic performance-policy
//!   interface* so the result covers **every** performance policy,
//!   hierarchical ones included — the paper's central verification claim.
//! * [`DirModel`] — a flat simplification of DirectoryCMP (the only form
//!   a hierarchical directory protocol can be model-checked in, as the
//!   paper notes).
//!
//! The `sec5_model_checking` bench target reproduces the paper's
//! complexity comparison: reachable-state counts, wall time, and
//! specification sizes ([`spec_lines`]). The conformance crate reads each
//! model's transition-kind coverage universe from the same search
//! ([`ExploreReport::kinds`]).

pub mod checker;
pub mod dir_model;
pub mod explore;
pub mod inline_vec;
pub mod token_model;

pub use checker::{ActionMeta, CheckOptions, Model, Violation};
pub use dir_model::{DirModel, DirModelParams};
pub use explore::{check_parallel, ExploreReport};
pub use inline_vec::InlineVec;
pub use token_model::{SubstrateMode, TokenModel, TokenModelParams};

/// Non-comment, non-blank line counts of the protocol specifications —
/// the analogue of the paper's TLA+ line-count comparison (383/396 lines
/// of token substrate vs 1025 of flat directory).
pub fn spec_lines() -> [(&'static str, usize); 2] {
    [
        (
            "token substrate spec",
            count_code_lines(include_str!("token_model.rs")),
        ),
        (
            "flat directory spec",
            count_code_lines(include_str!("dir_model.rs")),
        ),
    ]
}

/// Lines of `src` carrying actual code: blank lines, `//` comments,
/// `/* … */` block comments (including multi-line spans), and
/// attribute-only `#[…]` lines are all excluded.
fn count_code_lines(src: &str) -> usize {
    let mut in_block = false;
    let mut n = 0;
    for line in src.lines() {
        let mut l = line.trim();
        // Strip any `/* … */` spans (possibly several per line) and
        // track multi-line block comments; count what's left only if
        // real code remains.
        let mut code = String::new();
        loop {
            if in_block {
                match l.find("*/") {
                    Some(i) => {
                        in_block = false;
                        l = &l[i + 2..];
                    }
                    None => {
                        l = "";
                        break;
                    }
                }
            } else {
                match l.find("/*") {
                    Some(i) => {
                        code.push_str(&l[..i]);
                        in_block = true;
                        l = &l[i + 2..];
                    }
                    None => {
                        code.push_str(l);
                        break;
                    }
                }
            }
        }
        let code = code.trim();
        let attr_only = code.starts_with("#[") && code.ends_with(']');
        if !code.is_empty() && !code.starts_with("//") && !attr_only {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_line_counts_are_plausible() {
        let [(tn, tl), (dn, dl)] = spec_lines();
        assert!(tn.contains("token"));
        assert!(dn.contains("directory"));
        assert!(tl > 100 && dl > 100);
    }

    #[test]
    fn line_count_excludes_comments_and_attributes() {
        let count = count_code_lines;
        let src = "\
// line comment\n\
\n\
/* one-line block */\n\
/* multi\n\
   line\n\
   block */\n\
#[derive(Clone, Debug)]\n\
#[cfg(test)]\n\
let x = 1; /* trailing */\n\
/* leading */ let y = 2;\n\
/* a */ /* b */\n\
let z = 3;\n";
        assert_eq!(count(src), 3, "only the three `let` lines are code");
        // And the public counts actually dropped relative to the naive
        // rule (both specs contain attributes).
        let naive = |s: &str| {
            s.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with("//"))
                .count()
        };
        let [(_, tl), (_, dl)] = spec_lines();
        assert!(tl < naive(include_str!("token_model.rs")));
        assert!(dl < naive(include_str!("dir_model.rs")));
    }
}
