//! Model-transition coverage universes.
//!
//! Each protocol configuration abstracts to a *family* of verified
//! models. The universe of transition kinds a family can ever take is
//! computed once per process by model-checking the downscaled model
//! ([`tokencmp_mcheck::check_parallel`], reductions off) and reading the
//! label heads it collected ([`tokencmp_mcheck::ExploreReport::kinds`]);
//! the conformance report then compares the kinds a run actually
//! exercised against this universe. The search fails closed: a model
//! that breaks an invariant, deadlocks, livelocks or outgrows the state
//! budget panics instead of yielding a universe.
//!
//! A distributed-activation TokenCMP variant refines both the
//! safety-only substrate (its transient-request policy maps to the
//! model's nondeterministic `send-all`/`send-1` policy) and the
//! distributed persistent-request machinery, so its universe is the
//! union of the two modes' kinds; likewise the arbiter variant unions
//! safety-only with the arbiter machinery.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use tokencmp_mcheck::{
    check_parallel, CheckOptions, DirModel, DirModelParams, Model, SubstrateMode, TokenModel,
    TokenModelParams,
};
use tokencmp_system::Protocol;

/// The verified-model family a protocol configuration refines.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Family {
    /// The token counting substrate (all six TokenCMP variants).
    Token,
    /// The hierarchical directory (DirectoryCMP, either latency).
    Directory,
    /// The PerfectL2 bound models no coherence: nothing to refine
    /// beyond sequencer matching, and its universe is empty.
    Perfect,
}

impl Family {
    /// The family `protocol` belongs to.
    pub fn of(protocol: Protocol) -> Family {
        match protocol {
            Protocol::Token(_) => Family::Token,
            Protocol::Directory | Protocol::DirectoryZero => Family::Directory,
            Protocol::PerfectL2 => Family::Perfect,
        }
    }

    /// Short lowercase label for reports (`"token"`, …).
    pub fn label(self) -> &'static str {
        match self {
            Family::Token => "token",
            Family::Directory => "directory",
            Family::Perfect => "perfect",
        }
    }
}

/// The transition kinds `model` takes anywhere in its reachable state
/// space, from an unreduced search with the default state budget.
///
/// # Panics
///
/// Panics if the model fails verification or exceeds the budget.
fn verified_kinds<M>(model: &M, name: &str) -> BTreeSet<String>
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    check_parallel(model, &CheckOptions::default())
        .unwrap_or_else(|v| panic!("{name}: the coverage model fails verification: {v}"))
        .kinds
}

fn token_kinds(mode: SubstrateMode) -> BTreeSet<String> {
    verified_kinds(
        &TokenModel::new(TokenModelParams::small(mode)),
        &format!("small/{mode:?}"),
    )
}

fn safety_union(mode: SubstrateMode) -> BTreeSet<String> {
    let mut u = token_kinds(SubstrateMode::SafetyOnly);
    u.extend(token_kinds(mode));
    u
}

/// Transition-kind universe for a distributed-activation TokenCMP
/// variant: safety-only ∪ distributed persistent machinery.
pub fn distributed_universe() -> &'static BTreeSet<String> {
    static U: OnceLock<BTreeSet<String>> = OnceLock::new();
    U.get_or_init(|| safety_union(SubstrateMode::Distributed))
}

/// Transition-kind universe for the arbiter-activation TokenCMP
/// variant: safety-only ∪ arbiter persistent machinery.
pub fn arbiter_universe() -> &'static BTreeSet<String> {
    static U: OnceLock<BTreeSet<String>> = OnceLock::new();
    U.get_or_init(|| safety_union(SubstrateMode::Arbiter))
}

/// Transition-kind universe for the directory model.
pub fn directory_universe() -> &'static BTreeSet<String> {
    static U: OnceLock<BTreeSet<String>> = OnceLock::new();
    U.get_or_init(|| verified_kinds(&DirModel::new(DirModelParams::small()), "dir/small"))
}

fn empty_universe() -> &'static BTreeSet<String> {
    static U: OnceLock<BTreeSet<String>> = OnceLock::new();
    U.get_or_init(BTreeSet::new)
}

/// The transition-kind universe `protocol` is measured against.
pub fn universe(protocol: Protocol) -> &'static BTreeSet<String> {
    match protocol {
        Protocol::Token(v) => match v.activation() {
            tokencmp_core::Activation::Arbiter => arbiter_universe(),
            tokencmp_core::Activation::Distributed => distributed_universe(),
        },
        Protocol::Directory | Protocol::DirectoryZero => directory_universe(),
        Protocol::PerfectL2 => empty_universe(),
    }
}

/// The union universe for a whole family (used for the substrate-level
/// aggregate rows of the conformance report).
pub fn family_universe(family: Family) -> BTreeSet<String> {
    match family {
        Family::Token => {
            let mut u = distributed_universe().clone();
            u.extend(arbiter_universe().iter().cloned());
            u
        }
        Family::Directory => directory_universe().clone(),
        Family::Perfect => BTreeSet::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universes_have_the_expected_kinds() {
        let dst = distributed_universe();
        for k in [
            "send-all",
            "send-1",
            "deliver-tokens",
            "write",
            "mem-grant",
            "writeback",
            "issue",
            "forward",
            "complete",
            "deliver-activate",
            "deliver-deactivate",
        ] {
            assert!(dst.contains(k), "distributed universe missing {k}: {dst:?}");
        }
        let arb = arbiter_universe();
        for k in ["arb-request", "arb-done", "deliver-arb-activate"] {
            assert!(arb.contains(k), "arbiter universe missing {k}: {arb:?}");
        }
        assert!(!dst.contains("arb-request"));
        assert!(directory_universe().contains("req"));
        assert!(universe(Protocol::PerfectL2).is_empty());
    }

    /// A model whose every step breaks its invariant.
    struct Broken;

    impl Model for Broken {
        type State = u8;
        fn initial(&self) -> Vec<u8> {
            vec![0]
        }
        fn successors(&self, s: &u8, out: &mut Vec<(String, u8)>) {
            out.push(("step".into(), s.saturating_add(1)));
        }
        fn invariant(&self, s: &u8) -> Result<(), String> {
            if *s == 0 {
                Ok(())
            } else {
                Err("stepped".into())
            }
        }
        fn is_quiescent(&self, _: &u8) -> bool {
            true
        }
    }

    #[test]
    #[should_panic(expected = "broken: the coverage model fails verification")]
    fn universe_search_fails_closed() {
        let _ = verified_kinds(&Broken, "broken");
    }
}
