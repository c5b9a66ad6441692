//! Property test for the reduced explorer (ISSUE 9 satellite 2).
//!
//! Random small *symmetric* models: `n` exchangeable node counters and
//! one shared global counter. `inc i` bumps node `i` toward `cap`;
//! `pour i` empties a full node into the global counter (bounded by
//! `gcap`). The planted invariant reads **only** the global counter —
//! so `inc` is invisible and the per-node `inc` classes are legal ample
//! candidates, while node exchangeability makes sorting a sound
//! canonicalization. The property: symmetry- and/or POR-reduced
//! checking reports the planted violation **iff** the unreduced
//! one-worker search does, across worker counts, and never explores
//! more states.

use proptest::prelude::*;

use tokencmp::mcheck::checker::ActionMeta;
use tokencmp::mcheck::{check_parallel, CheckOptions, Model};

/// The shared counter's footprint bit; node `i` uses bit `i`.
const GLOBAL: u64 = 1 << 32;

#[derive(Clone, Debug)]
struct PourModel {
    nodes: usize,
    cap: u8,
    gcap: u8,
    /// The planted invariant: `global == bad` is an error. Drawn past
    /// `gcap` sometimes, so both verdicts are exercised.
    bad: u8,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PourState {
    nodes: Vec<u8>,
    global: u8,
}

impl Model for PourModel {
    type State = PourState;

    fn initial(&self) -> Vec<PourState> {
        vec![PourState {
            nodes: vec![0; self.nodes],
            global: 0,
        }]
    }

    fn successors(&self, s: &PourState, out: &mut Vec<(String, PourState)>) {
        for i in 0..self.nodes {
            if s.nodes[i] < self.cap {
                let mut t = s.clone();
                t.nodes[i] += 1;
                out.push((format!("inc {i}"), t));
            } else if s.global < self.gcap {
                let mut t = s.clone();
                t.nodes[i] = 0;
                t.global += 1;
                out.push((format!("pour {i}"), t));
            }
        }
    }

    fn invariant(&self, s: &PourState) -> Result<(), String> {
        if s.global == self.bad {
            Err(format!("global hit {}", self.bad))
        } else {
            Ok(())
        }
    }

    fn is_quiescent(&self, _: &PourState) -> bool {
        true
    }

    /// Nodes are exchangeable: both actions are uniform over `i` and the
    /// invariant never looks at them. Sorting picks the orbit minimum.
    fn canonicalize(&self, s: &PourState) -> PourState {
        let mut t = s.clone();
        t.nodes.sort_unstable();
        t
    }

    fn action_meta(&self, _: &PourState, label: &str) -> ActionMeta {
        let (kind, arg) = label.split_once(' ').unwrap_or((label, ""));
        let bit = 1u64 << arg.parse::<u64>().unwrap_or(63);
        match kind {
            // Invisible (invariant reads only GLOBAL), single-member
            // class per node: the only other action on bit `i` is
            // `pour i`, and the two are never co-enabled.
            "inc" => ActionMeta {
                reads: bit,
                writes: bit,
                class: Some(arg.parse().unwrap_or(u32::MAX)),
            },
            "pour" => ActionMeta::rw(bit | GLOBAL, bit | GLOBAL),
            _ => ActionMeta::OPAQUE,
        }
    }
}

fn model_strategy() -> impl Strategy<Value = PourModel> {
    (1usize..=3, 1u8..=3, 1u8..=3, 0u8..=5).prop_map(|(nodes, cap, gcap, bad)| PourModel {
        nodes,
        cap,
        gcap,
        bad,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Reduced checking agrees with the unreduced one-worker verdict
    /// for every random model, reduction combination, and worker count
    /// — and the violation message (which reads only the symmetric
    /// global counter) is identical when both report one.
    #[test]
    fn reductions_preserve_the_planted_verdict(m in model_strategy()) {
        let seq = check_parallel(&m, &CheckOptions { workers: 1, ..CheckOptions::default() });
        // Cross-check the plant: the violation is reachable iff the
        // planted value is within the pour budget.
        prop_assert_eq!(seq.is_err(), m.bad <= m.gcap, "{:?}", m);

        for (symmetry, por) in [(true, false), (false, true), (true, true)] {
            for workers in [1usize, 2, 4] {
                let opts = CheckOptions {
                    workers,
                    symmetry,
                    por,
                    collision_audit: true,
                    ..CheckOptions::default()
                };
                let red = check_parallel(&m, &opts);
                match (&seq, &red) {
                    (Ok(s), Ok(r)) => {
                        prop_assert!(
                            r.states <= s.states,
                            "reduction grew the space on {:?} (sym={} por={} w={}): {} > {}",
                            m, symmetry, por, workers, r.states, s.states
                        );
                        prop_assert_eq!(&r.kinds, &s.kinds,
                            "kind universe diverged on {:?} (sym={} por={} w={})",
                            m, symmetry, por, workers);
                    }
                    (Err(sv), Err(rv)) => {
                        prop_assert_eq!(&rv.message, &sv.message,
                            "violation message diverged on {:?}", m);
                    }
                    _ => prop_assert!(
                        false,
                        "verdict diverged on {:?} (sym={} por={} w={}): seq_err={} red_err={}",
                        m, symmetry, por, workers, seq.is_err(), red.is_err()
                    ),
                }
            }
        }
    }
}
