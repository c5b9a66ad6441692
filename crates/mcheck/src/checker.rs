//! The model checker's contract: the [`Model`] trait every protocol
//! specification implements, the [`CheckOptions`] a search runs under,
//! the [`ActionMeta`] footprints the partial-order reduction reads, and
//! the [`Violation`] a failed search returns.
//!
//! The search itself is [`crate::explore::check_parallel`]: breadth-first
//! exhaustive exploration with invariant checking, deadlock detection,
//! counterexample traces, and an `EF quiescence` progress check (from
//! every reachable state, a state with no pending work must be reachable
//! — catching both deadlocks and inescapable livelocks). This is the same
//! methodology the paper uses with TLA+/TLC (§5), in-tree so the
//! verification study is reproducible without external tooling.

use std::fmt::Debug;
use std::hash::Hash;

/// A transition system with invariants.
pub trait Model {
    /// The (hashable) global state.
    type State: Clone + Eq + Hash + Debug;

    /// Initial states.
    fn initial(&self) -> Vec<Self::State>;

    /// All successors of `s`, with human-readable action labels.
    fn successors(&self, s: &Self::State, out: &mut Vec<(String, Self::State)>);

    /// Safety invariant; return a description of the violation if broken.
    ///
    /// # Errors
    ///
    /// An error describes the violated property for the counterexample.
    fn invariant(&self, s: &Self::State) -> Result<(), String>;

    /// True if `s` is allowed to have no successors, and is a valid
    /// target for the progress (EF-quiescence) check.
    fn is_quiescent(&self, s: &Self::State) -> bool;

    /// The canonical representative of `s`'s symmetry orbit, used by
    /// [`crate::explore::check_parallel`] when `CheckOptions::symmetry`
    /// is on. The default is the identity (a trivial symmetry group),
    /// which is always sound. A model overriding this promises that its
    /// transition relation, invariant, and quiescence predicate are all
    /// invariant under the group it quotients by — the soundness
    /// arguments per model live in DESIGN.md §17.
    fn canonicalize(&self, s: &Self::State) -> Self::State {
        s.clone()
    }

    /// Footprint metadata for the enabled action labelled `label` in
    /// state `s`, used by the partial-order reduction in
    /// [`crate::explore::check_parallel`]. The default is
    /// [`ActionMeta::OPAQUE`] (conflicts with everything, never
    /// reducible), which is always sound. See DESIGN.md §17 for the
    /// obligations a model takes on by declaring anything finer.
    fn action_meta(&self, s: &Self::State, label: &str) -> ActionMeta {
        let _ = (s, label);
        ActionMeta::OPAQUE
    }
}

/// Per-action footprint metadata for partial-order reduction.
///
/// `reads`/`writes` are bitmasks over a resource universe the model
/// chooses (per-node state, budgets, global control — at most 64
/// resources). Two actions are treated as *dependent* when one's writes
/// intersect the other's reads-or-writes. `class` groups actions the
/// model additionally certifies as an *ample-eligible class*: members
/// pairwise commute semantically, and no action dependent on the class
/// can become enabled by firing actions outside it (the future-enabling
/// obligation — argued per class in DESIGN.md §17).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionMeta {
    /// Resources the action's guard or effect reads.
    pub reads: u64,
    /// Resources the action's effect writes.
    pub writes: u64,
    /// Ample-eligible class id, or `None` for plain actions.
    pub class: Option<u32>,
}

impl ActionMeta {
    /// Conservative default: touches every resource, never reducible.
    pub const OPAQUE: ActionMeta = ActionMeta {
        reads: u64::MAX,
        writes: u64::MAX,
        class: None,
    };

    /// A plain (classless) action with the given footprint.
    pub const fn rw(reads: u64, writes: u64) -> ActionMeta {
        ActionMeta {
            reads,
            writes,
            class: None,
        }
    }

    /// True if `self` and `other` may not commute (write overlap).
    pub fn dependent(&self, other: &ActionMeta) -> bool {
        self.writes & (other.reads | other.writes) != 0
            || other.writes & (self.reads | self.writes) != 0
    }
}

/// A property violation plus the action trace leading to it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong.
    pub message: String,
    /// Action labels from an initial state to the violating state.
    pub trace: Vec<String>,
    /// The violating state, pretty-printed.
    pub state: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "violation: {}", self.message)?;
        writeln!(f, "state: {}", self.state)?;
        writeln!(f, "trace ({} steps):", self.trace.len())?;
        for (i, a) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}. {a}")?;
        }
        Ok(())
    }
}

/// Options for [`crate::explore::check_parallel`]. The defaults run an
/// unreduced search with the progress check on, on
/// [`tokencmp_pool::default_threads`] workers.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Abort after this many distinct states (guards against blow-up).
    pub max_states: usize,
    /// Run the EF-quiescence progress check after reachability.
    pub check_progress: bool,
    /// Worker threads (`0` = [`tokencmp_pool::default_threads`]).
    pub workers: usize,
    /// Quotient the state space by the model's symmetry group
    /// ([`Model::canonicalize`]).
    pub symmetry: bool,
    /// Apply partial-order reduction using [`Model::action_meta`].
    pub por: bool,
    /// Retain full states on a sampled fingerprint stripe and assert
    /// that every dedup hit there compares equal (collision audit).
    pub collision_audit: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_states: 5_000_000,
            check_progress: true,
            workers: 0,
            symmetry: false,
            por: false,
            collision_audit: false,
        }
    }
}

/// The contract as a caller sees it: [`CheckOptions::default`] and its
/// budget, and the [`Violation`] a failed search returns, on the
/// explorer's test models.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::check_parallel;
    use crate::explore::tests::{Counter, Livelock};

    fn counter(max: u8) -> Counter {
        Counter {
            max,
            broken_invariant: false,
            deadlock_at_max: false,
        }
    }

    #[test]
    fn explores_all_states() {
        let r = check_parallel(&counter(5), &CheckOptions::default()).unwrap();
        assert_eq!(r.states, 6);
        assert_eq!(r.transitions, 6);
        assert_eq!(r.depth, 5);
        assert!(r.progress_checked, "the default runs the progress check");
    }

    #[test]
    fn finds_invariant_violation_with_minimal_trace() {
        let m = Counter {
            broken_invariant: true,
            ..counter(5)
        };
        let v = check_parallel(&m, &CheckOptions::default()).unwrap_err();
        assert!(v.message.contains("reached 3"));
        assert_eq!(v.trace.len(), 3);
        assert_eq!(
            v.to_string(),
            "violation: reached 3\nstate: 3\ntrace (3 steps):\n    0. inc 0\n    1. inc 1\n    2. inc 2\n"
        );
    }

    #[test]
    fn finds_deadlock() {
        let m = Counter {
            deadlock_at_max: true,
            ..counter(2)
        };
        let v = check_parallel(&m, &CheckOptions::default()).unwrap_err();
        assert!(v.message.contains("deadlock"), "{}", v.message);
        assert_eq!(v.trace.len(), 2);
    }

    #[test]
    fn finds_livelock_via_progress_check() {
        let v = check_parallel(&Livelock, &CheckOptions::default()).unwrap_err();
        assert!(v.message.contains("progress"), "{}", v.message);
        // Without the progress check it passes.
        let r = check_parallel(
            &Livelock,
            &CheckOptions {
                check_progress: false,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.states, 2);
    }

    #[test]
    fn reachable_kinds_collects_label_heads() {
        // Labels "inc 0", "inc 1", "inc 2" and "reset": a kind is the
        // first word.
        let r = check_parallel(&counter(3), &CheckOptions::default()).unwrap();
        let kinds: Vec<&str> = r.kinds.iter().map(String::as_str).collect();
        assert_eq!(kinds, ["inc", "reset"]);
    }

    #[test]
    #[should_panic(expected = "state space exceeded")]
    fn reachable_kinds_respects_state_budget() {
        // The coverage universes run the default options, progress
        // check included; the budget binds there too.
        let _ = check_parallel(
            &counter(100),
            &CheckOptions {
                max_states: 10,
                ..CheckOptions::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "state space exceeded")]
    fn respects_state_budget() {
        let _ = check_parallel(
            &counter(100),
            &CheckOptions {
                max_states: 10,
                check_progress: false,
                ..CheckOptions::default()
            },
        );
    }
}
