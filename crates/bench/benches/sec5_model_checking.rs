//! **Section 5** — the model-checking complexity study: exhaustively
//! verify the three token substrate models and the flat DirectoryCMP
//! simplification, and compare reachable-state counts, wall time and
//! specification sizes (the analogue of the paper's TLA+ line counts:
//! 383 / 396 for TokenCMP-arb / -dst versus 1025 for the flat directory).
//!
//! Expected shape: the safety-only substrate is the cheapest to verify;
//! the persistent-mechanism models cost more; the flat directory needs
//! roughly 2.5× the specification text of the token substrate. Every
//! model passes all invariants (token conservation, single owner, serial
//! view of memory, single-writer) plus deadlock-freedom and
//! EF-quiescence progress.
//!
//! The four reachability explorations are independent, so they run
//! through the sweep engine's [`par_map`] fan-out, each as a one-worker,
//! unreduced [`check_parallel`] search (the state counts are the full,
//! unquotiented ones the paper's comparison needs). Per-model wall times
//! are still measured inside each worker; on a loaded multicore host they
//! can be slightly inflated by contention — state/transition counts are
//! exact regardless.

use tokencmp::mcheck::{
    check_parallel, spec_lines, CheckOptions, DirModel, DirModelParams, SubstrateMode, TokenModel,
    TokenModelParams,
};
use tokencmp::par_map;
use tokencmp_bench::banner;

fn main() {
    banner(
        "Section 5: model-checking complexity comparison",
        "HPCA 2005 paper, Section 5 (TLA+/TLC study)",
    );
    let opts = CheckOptions {
        workers: 1,
        ..CheckOptions::default()
    };
    println!(
        "{:>24} {:>10} {:>13} {:>7} {:>9} {:>10}",
        "model", "states", "transitions", "depth", "time", "verdict"
    );

    let jobs: Vec<(&str, Option<SubstrateMode>)> = vec![
        ("TokenCMP-safety", Some(SubstrateMode::SafetyOnly)),
        ("TokenCMP-dst", Some(SubstrateMode::Distributed)),
        ("TokenCMP-arb", Some(SubstrateMode::Arbiter)),
        ("flat DirectoryCMP", None),
    ];
    let reports = par_map(jobs, |(name, mode)| {
        let r = match mode {
            Some(mode) => {
                let model = TokenModel::new(TokenModelParams::small(mode));
                check_parallel(&model, &opts)
            }
            None => {
                let model = DirModel::new(DirModelParams::small());
                check_parallel(&model, &opts)
            }
        };
        (name, r.unwrap_or_else(|v| panic!("{name}: {v}")))
    });
    for (name, r) in &reports {
        println!(
            "{name:>24} {:>10} {:>13} {:>7} {:>8.2}s {:>10}",
            r.states, r.transitions, r.depth, r.seconds, "verified"
        );
    }

    println!("\nspecification sizes (non-comment lines; paper: 383/396 vs 1025):");
    let [(tname, tlines), (dname, dlines)] = spec_lines();
    println!("  {tname:>24}: {tlines}");
    println!("  {dname:>24}: {dlines}");
    println!(
        "  directory/token ratio    : {:.2}x (paper: {:.2}x)",
        dlines as f64 / tlines as f64,
        1025.0 / 390.0
    );

    println!("\nnote: the safety model is verified under a nondeterministic");
    println!("performance-policy interface, so the result covers every");
    println!("performance policy — hierarchical ones included (the paper's");
    println!("central verification claim).");
}
