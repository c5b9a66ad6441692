//! Tier-1 pins for the verification study (Section 5): exhaustively
//! check the downscaled protocol models — the same models the conformance
//! sweep measures coverage against — with both reductions off, and pin
//! each search's exact shape, so a change that moves a model's state
//! space or the explorer's counts fails fast in `cargo test` rather than
//! only in the bench.

use tokencmp::mcheck::{
    check_parallel, CheckOptions, DirModel, DirModelParams, Model, SubstrateMode, TokenModel,
    TokenModelParams,
};

/// An unreduced search's `(states, transitions, depth, kinds)`.
type Shape = (usize, u64, usize, usize);

/// Verifies `model` with the default options (reductions off, progress
/// check on) and returns the search's shape.
fn verified_shape<M>(model: &M, name: &str) -> Shape
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    let r =
        check_parallel(model, &CheckOptions::default()).unwrap_or_else(|v| panic!("{name}: {v}"));
    assert!(r.progress_checked, "{name}: progress not checked");
    (r.states, r.transitions, r.depth, r.kinds.len())
}

#[test]
fn token_model_holds_in_all_three_substrate_modes() {
    for (mode, pinned) in [
        (SubstrateMode::SafetyOnly, (16_637, 60_381, 20, 4)),
        (SubstrateMode::Distributed, (85_483, 346_836, 48, 9)),
        (SubstrateMode::Arbiter, (15_855, 43_483, 33, 10)),
    ] {
        let model = TokenModel::new(TokenModelParams::small(mode));
        let name = format!("small/{mode:?}");
        assert_eq!(verified_shape(&model, &name), pinned, "{name}");
    }
}

/// The token-loss recovery substrate (§15): interconnect may drop
/// droppable bundles, the authority recreates under a bumped serial.
/// Safety-only mode keeps this fast enough for tier-1; the persistent-
/// mechanism modes are covered by the `--ignored` variant below (run by
/// the CI robustness job in release mode).
#[test]
fn token_model_recovery_holds() {
    let model = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly));
    assert_eq!(
        verified_shape(&model, "small_recovery/SafetyOnly"),
        (94_270, 421_639, 29, 10)
    );
}

/// Recovery composed with both persistent-request mechanisms. ~1.4M
/// states for the distributed mode: too slow for a debug-profile tier-1
/// run, so it is opted into explicitly (`--ignored`, release profile).
#[test]
#[ignore = "large state space; run with --release -- --ignored (CI robustness job)"]
fn token_model_recovery_holds_with_persistent_mechanisms() {
    for (mode, pinned) in [
        (SubstrateMode::Arbiter, (310_082, 1_112_511, 56, 16)),
        (SubstrateMode::Distributed, (1_437_255, 7_223_161, 58, 15)),
    ] {
        let model = TokenModel::new(TokenModelParams::small_recovery(mode));
        let name = format!("small_recovery/{mode:?}");
        assert_eq!(verified_shape(&model, &name), pinned, "{name}");
    }
}

#[test]
fn directory_model_holds() {
    let model = DirModel::new(DirModelParams::small());
    assert_eq!(
        verified_shape(&model, "dir/small"),
        (104_600, 261_104, 61, 16)
    );
}
