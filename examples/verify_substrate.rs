//! Exhaustively verify the token coherence correctness substrate — the
//! paper's Section 5 study — with the in-tree explicit-state model
//! checker: safety under *every* performance policy, plus both persistent
//! request mechanisms, against the flat directory comparison model.
//!
//! ```sh
//! cargo run --release --example verify_substrate
//! ```

use tokencmp::mcheck::{
    check_parallel, spec_lines, CheckOptions, DirModel, DirModelParams, SubstrateMode, TokenModel,
    TokenModelParams,
};

fn main() {
    println!(
        "{:>28} {:>10} {:>12} {:>7} {:>8}",
        "model", "states", "transitions", "depth", "time"
    );
    let opts = CheckOptions::default();

    for (name, mode) in [
        ("TokenCMP-safety", SubstrateMode::SafetyOnly),
        ("TokenCMP-dst", SubstrateMode::Distributed),
        ("TokenCMP-arb", SubstrateMode::Arbiter),
    ] {
        let model = TokenModel::new(TokenModelParams::small(mode));
        match check_parallel(&model, &opts) {
            Ok(r) => println!(
                "{name:>28} {:>10} {:>12} {:>7} {:>7.2}s",
                r.states, r.transitions, r.depth, r.seconds
            ),
            Err(v) => {
                eprintln!("{name}: VIOLATION\n{v}");
                std::process::exit(1);
            }
        }
    }

    let dir = DirModel::new(DirModelParams::small());
    match check_parallel(&dir, &opts) {
        Ok(r) => println!(
            "{:>28} {:>10} {:>12} {:>7} {:>7.2}s",
            "flat DirectoryCMP", r.states, r.transitions, r.depth, r.seconds
        ),
        Err(v) => {
            eprintln!("flat DirectoryCMP: VIOLATION\n{v}");
            std::process::exit(1);
        }
    }

    println!("\nspecification sizes (non-comment lines; the paper's TLA+ analogue):");
    for (name, lines) in spec_lines() {
        println!("  {name:>24}: {lines}");
    }
    println!("\nall invariants hold: token conservation, single owner, serial view");
    println!("of memory, deadlock freedom, and EF-quiescence progress.");
}
