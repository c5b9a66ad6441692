//! Differential suite: the explorer against a test-only reference search.
//!
//! [`reference`] below is a plain breadth-first search over full states:
//! no fingerprints, batches, frozen store or reductions. Three layers of
//! evidence, mirroring DESIGN.md §17:
//!
//! 1. **Exact determinism** — with both reductions off, `check_parallel`
//!    must reproduce the reference's state count, transition count,
//!    depth, kind set and first-violation trace bit-for-bit at every
//!    worker count, on every protocol model.
//! 2. **Verdict preservation** — with symmetry and POR on, the verdict
//!    and the transition-kind universe must match the reference; only
//!    the state/transition counts may shrink.
//! 3. **Mutation tests** — deliberately broken reductions (a
//!    canonicalization that conflates inequivalent states; an action
//!    that lies about its footprint) must make the checker *miss* a
//!    planted violation the reference finds, demonstrating the
//!    differential suite actually has teeth.
//!
//! The reference also checks, on every state it visits, that the
//! explorer's fingerprint (one walk into a buffer, then one hash pass)
//! equals a separately written SipHash-1-3-128 that streams the state's
//! hash bytes one at a time, in the explorer's compact code for lengths
//! and discriminants.

use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};

use tokencmp::mcheck::checker::ActionMeta;
use tokencmp::mcheck::explore::fingerprint;
use tokencmp::mcheck::{
    check_parallel, CheckOptions, DirModel, DirModelParams, Model, SubstrateMode, TokenModel,
    TokenModelParams, Violation,
};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------------------
// The reference search.
// ---------------------------------------------------------------------------

/// What a clean reference search found.
#[derive(Debug)]
struct Reference<S> {
    /// Every state it visited, in BFS order.
    visited: Vec<S>,
    transitions: u64,
    depth: usize,
    kinds: BTreeSet<String>,
}

/// The code the explorer's fingerprint gives every `write_usize` and
/// `write_isize` call (slice lengths and enum discriminants): one byte
/// below 0xFF, otherwise 0xFF and the value's eight little-endian bytes.
fn write_compact<H: Hasher>(h: &mut H, x: u64) {
    if x < 0xFF {
        h.write(&[x as u8]);
    } else {
        h.write(&[0xFF]);
        h.write(&x.to_le_bytes());
    }
}

/// The byte stream the oracle hashes for `s`.
fn compact_stream<S: Hash>(s: &S) -> Vec<u8> {
    struct Recorder(Vec<u8>);
    impl Hasher for Recorder {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
        fn write_usize(&mut self, i: usize) {
            write_compact(self, i as u64);
        }
        fn write_isize(&mut self, i: isize) {
            write_compact(self, i as u64);
        }
        fn finish(&self) -> u64 {
            unreachable!("the recorder is read through its bytes")
        }
    }
    let mut r = Recorder(Vec::new());
    s.hash(&mut r);
    r.0
}

/// The fingerprint oracle: SipHash-1-3 in its 128-bit output mode,
/// written separately from the explorer's, absorbing the bytes `s.hash()`
/// writes one at a time, with no buffer, in the compact code.
fn streaming_fingerprint<S: Hash>(s: &S) -> u128 {
    let mut h = StreamingSip128 {
        v: [
            0x736f_6d65_7073_6575,
            0x646f_7261_6e64_6f6d ^ 0xee,
            0x6c79_6765_6e65_7261,
            0x7465_6462_7974_6573,
        ],
        word: 0,
        len: 0,
    };
    s.hash(&mut h);
    h.finish128()
}

/// Streaming SipHash-1-3-128 state, keys zero: the current partial
/// little-endian word and the byte count so far.
struct StreamingSip128 {
    v: [u64; 4],
    word: u64,
    len: u64,
}

impl StreamingSip128 {
    fn sip_round(&mut self) {
        let v = &mut self.v;
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13);
        v[1] ^= v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16);
        v[3] ^= v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21);
        v[3] ^= v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17);
        v[1] ^= v[2];
        v[2] = v[2].rotate_left(32);
    }

    fn absorb_word(&mut self, m: u64) {
        self.v[3] ^= m;
        self.sip_round();
        self.v[0] ^= m;
    }

    fn finish128(mut self) -> u128 {
        let last = self.word | (self.len << 56);
        self.absorb_word(last);
        self.v[2] ^= 0xee;
        let mut out = [0u64; 2];
        for (k, half) in out.iter_mut().enumerate() {
            if k == 1 {
                self.v[1] ^= 0xdd;
            }
            for _ in 0..3 {
                self.sip_round();
            }
            *half = self.v[0] ^ self.v[1] ^ self.v[2] ^ self.v[3];
        }
        (u128::from(out[1]) << 64) | u128::from(out[0])
    }
}

impl Hasher for StreamingSip128 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word |= u64::from(b) << (8 * (self.len % 8));
            self.len += 1;
            if self.len.is_multiple_of(8) {
                let m = std::mem::take(&mut self.word);
                self.absorb_word(m);
            }
        }
    }

    fn write_usize(&mut self, i: usize) {
        write_compact(self, i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        write_compact(self, i as u64);
    }

    fn finish(&self) -> u64 {
        unreachable!("the oracle is read through finish128")
    }
}

/// A state the reference search discovered, with the index and label of
/// the step that first reached it (none for an initial state).
struct Found<S> {
    state: S,
    parent: Option<(usize, String)>,
    depth: usize,
}

/// Breadth-first search of `model` over full states, checking the
/// invariant on every new state and flagging non-quiescent states with
/// no successors; it does not run the progress check. Returns the first
/// violation in BFS order, with its trace and state text. Asserts on
/// every visited state that it and its canonical form fingerprint as the
/// streaming oracle does.
fn reference<M: Model>(model: &M) -> Result<Reference<M::State>, Box<Violation>> {
    // Every discovered state in BFS order; the queue is the part past
    // the state being expanded.
    let mut found: Vec<Found<M::State>> = Vec::new();
    let mut seen: HashSet<M::State> = HashSet::new();
    let trace_to = |found: &[Found<M::State>], mut i: usize| {
        let mut trace = Vec::new();
        while let Some((p, label)) = &found[i].parent {
            trace.push(label.clone());
            i = *p;
        }
        trace.reverse();
        trace
    };
    let violation = |message: String, trace: Vec<String>, s: &M::State| {
        Box::new(Violation {
            message,
            trace,
            state: format!("{s:?}"),
        })
    };
    for s in model.initial() {
        if let Err(m) = model.invariant(&s) {
            return Err(violation(m, vec![], &s));
        }
        if seen.insert(s.clone()) {
            found.push(Found {
                state: s,
                parent: None,
                depth: 0,
            });
        }
    }
    let mut r = Reference {
        visited: Vec::new(),
        transitions: 0,
        depth: 0,
        kinds: BTreeSet::new(),
    };
    let mut succs = Vec::new();
    let mut head = 0;
    while head < found.len() {
        let (s, depth) = (found[head].state.clone(), found[head].depth + 1);
        for t in [&s, &model.canonicalize(&s)] {
            assert_eq!(
                fingerprint(t),
                streaming_fingerprint(t),
                "fingerprint of {t:?}"
            );
        }
        model.successors(&s, &mut succs);
        if succs.is_empty() && !model.is_quiescent(&s) {
            let message = "deadlock: non-quiescent state with no successors".into();
            return Err(violation(message, trace_to(&found, head), &s));
        }
        for (label, t) in succs.drain(..) {
            r.transitions += 1;
            let kind = label.split_whitespace().next().unwrap_or("");
            r.kinds.insert(kind.to_string());
            if seen.contains(&t) {
                continue;
            }
            if let Err(m) = model.invariant(&t) {
                let mut trace = trace_to(&found, head);
                trace.push(label);
                return Err(violation(m, trace, &t));
            }
            seen.insert(t.clone());
            r.depth = depth;
            found.push(Found {
                state: t,
                parent: Some((head, label)),
                depth,
            });
        }
        head += 1;
    }
    r.visited = found.into_iter().map(|f| f.state).collect();
    Ok(r)
}

// ---------------------------------------------------------------------------
// Parity on the protocol models.
// ---------------------------------------------------------------------------

fn assert_exact_parity<M>(model: &M, name: &str)
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    let r = reference(model).unwrap_or_else(|v| panic!("{name}: reference must pass: {v}"));
    for workers in WORKERS {
        let par = check_parallel(
            model,
            &CheckOptions {
                workers,
                ..CheckOptions::default()
            },
        )
        .unwrap_or_else(|v| panic!("{name}/{workers}w: parallel check must pass: {v}"));
        assert_eq!(par.states, r.visited.len(), "{name}/{workers}w states");
        assert_eq!(
            par.transitions, r.transitions,
            "{name}/{workers}w transitions"
        );
        assert_eq!(par.depth, r.depth, "{name}/{workers}w depth");
        assert_eq!(par.kinds, r.kinds, "{name}/{workers}w kind universe");
        assert!(par.progress_checked);
    }
}

fn assert_reduced_parity<M>(model: &M, name: &str)
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    let r = reference(model).unwrap_or_else(|v| panic!("{name}: reference must pass: {v}"));
    for workers in WORKERS {
        let red = check_parallel(
            model,
            &CheckOptions {
                workers,
                symmetry: true,
                por: true,
                collision_audit: true,
                ..CheckOptions::default()
            },
        )
        .unwrap_or_else(|v| panic!("{name}/{workers}w reduced check must pass: {v}"));
        assert!(
            red.states <= r.visited.len(),
            "{name}/{workers}w: reduction may only shrink ({} > {})",
            red.states,
            r.visited.len()
        );
        assert_eq!(
            red.kinds, r.kinds,
            "{name}/{workers}w reduced kind universe"
        );
    }
}

#[test]
fn token_substrates_exact_parity_at_all_worker_counts() {
    for mode in [
        SubstrateMode::SafetyOnly,
        SubstrateMode::Distributed,
        SubstrateMode::Arbiter,
    ] {
        let m = TokenModel::new(TokenModelParams::small(mode));
        assert_exact_parity(&m, &format!("token/{mode:?}"));
    }
}

#[test]
fn recovery_substrate_exact_parity_at_all_worker_counts() {
    let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly));
    assert_exact_parity(&m, "token/recovery");
}

#[test]
fn directory_exact_parity_at_all_worker_counts() {
    let m = DirModel::new(DirModelParams::small());
    assert_exact_parity(&m, "dir");
}

#[test]
fn token_substrates_reduced_verdicts_and_kinds_match() {
    for mode in [
        SubstrateMode::SafetyOnly,
        SubstrateMode::Distributed,
        SubstrateMode::Arbiter,
    ] {
        let m = TokenModel::new(TokenModelParams::small(mode));
        assert_reduced_parity(&m, &format!("token/{mode:?}"));
    }
    let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly));
    assert_reduced_parity(&m, "token/recovery");
}

#[test]
fn directory_reduced_verdict_and_kinds_match() {
    let m = DirModel::new(DirModelParams::small());
    assert_reduced_parity(&m, "dir");
}

#[test]
fn symmetry_actually_reduces_the_symmetric_models() {
    let m = TokenModel::new(TokenModelParams::small(SubstrateMode::SafetyOnly));
    let full = check_parallel(&m, &CheckOptions::default()).unwrap();
    let red = check_parallel(
        &m,
        &CheckOptions {
            symmetry: true,
            ..CheckOptions::default()
        },
    )
    .unwrap();
    assert!(
        red.states * 2 <= full.states + full.states / 8,
        "2-cache symmetry should roughly halve the safety substrate: {} vs {}",
        red.states,
        full.states
    );
    let d = DirModel::new(DirModelParams::small());
    let dfull = check_parallel(&d, &CheckOptions::default()).unwrap();
    let dred = check_parallel(
        &d,
        &CheckOptions {
            symmetry: true,
            ..CheckOptions::default()
        },
    )
    .unwrap();
    assert!(dred.states * 2 <= dfull.states + dfull.states / 8);
}

#[test]
fn por_prunes_ack_interleavings_in_the_recovery_model() {
    let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly));
    let red = check_parallel(
        &m,
        &CheckOptions {
            por: true,
            ..CheckOptions::default()
        },
    )
    .unwrap();
    assert!(
        red.por_pruned > 0,
        "recreation-ack class must fire somewhere in the recovery space"
    );
}

// ---------------------------------------------------------------------------
// Planted violations: a wrapper invariant that is symmetric under the
// model's group, violated somewhere reachable. The reference and reduced
// runs must agree on the verdict; with reductions off the whole
// counterexample must be identical.
// ---------------------------------------------------------------------------

struct PlantedToken(TokenModel);

impl Model for PlantedToken {
    type State = <TokenModel as Model>::State;
    fn initial(&self) -> Vec<Self::State> {
        self.0.initial()
    }
    fn successors(&self, s: &Self::State, out: &mut Vec<(String, Self::State)>) {
        self.0.successors(s, out);
    }
    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        // Cache-symmetric and reachable: some cache collects all tokens.
        if s.nodes[..s.nodes.len() - 1]
            .iter()
            .any(|n| n.tokens == self.0.p.tokens)
        {
            return Err("planted: a cache holds every token".into());
        }
        Ok(())
    }
    fn is_quiescent(&self, s: &Self::State) -> bool {
        self.0.is_quiescent(s)
    }
    fn canonicalize(&self, s: &Self::State) -> Self::State {
        self.0.canonicalize(s)
    }
    fn action_meta(&self, s: &Self::State, label: &str) -> ActionMeta {
        self.0.action_meta(s, label)
    }
}

struct PlantedDir(DirModel);

impl Model for PlantedDir {
    type State = <DirModel as Model>::State;
    fn initial(&self) -> Vec<Self::State> {
        self.0.initial()
    }
    fn successors(&self, s: &Self::State, out: &mut Vec<(String, Self::State)>) {
        self.0.successors(s, out);
    }
    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        if s.writes > 0 {
            return Err("planted: a write committed".into());
        }
        Ok(())
    }
    fn is_quiescent(&self, s: &Self::State) -> bool {
        self.0.is_quiescent(s)
    }
    fn canonicalize(&self, s: &Self::State) -> Self::State {
        self.0.canonicalize(s)
    }
    fn action_meta(&self, s: &Self::State, label: &str) -> ActionMeta {
        self.0.action_meta(s, label)
    }
}

#[test]
fn planted_violations_found_identically_without_reductions() {
    let m = PlantedToken(TokenModel::new(TokenModelParams::small(
        SubstrateMode::SafetyOnly,
    )));
    let expected = reference(&m).unwrap_err();
    for workers in WORKERS {
        let par = check_parallel(
            &m,
            &CheckOptions {
                workers,
                ..CheckOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(par.message, expected.message, "{workers}w");
        assert_eq!(par.trace, expected.trace, "{workers}w");
        assert_eq!(par.state, expected.state, "{workers}w");
    }
}

#[test]
fn planted_violations_survive_both_reductions() {
    let opts = CheckOptions {
        symmetry: true,
        por: true,
        ..CheckOptions::default()
    };
    let m = PlantedToken(TokenModel::new(TokenModelParams::small(
        SubstrateMode::SafetyOnly,
    )));
    let expected = reference(&m).unwrap_err();
    let red = check_parallel(&m, &opts).unwrap_err();
    assert_eq!(red.message, expected.message);
    assert_eq!(
        red.trace.len(),
        expected.trace.len(),
        "BFS reduction must keep the minimal trace length"
    );

    let d = PlantedDir(DirModel::new(DirModelParams::small()));
    let dexpected = reference(&d).unwrap_err();
    let dred = check_parallel(&d, &opts).unwrap_err();
    assert_eq!(dred.message, dexpected.message);
}

// ---------------------------------------------------------------------------
// Mutation tests: broken reductions must visibly miss violations.
// ---------------------------------------------------------------------------

/// Two counters; the violation sits in the corner. A *broken*
/// canonicalization drops the second counter, conflating inequivalent
/// states, so the quotiented search never advances `y`.
struct ConflatingSym {
    broken: bool,
}

impl Model for ConflatingSym {
    type State = (u8, u8);
    fn initial(&self) -> Vec<(u8, u8)> {
        vec![(0, 0)]
    }
    fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
        if s.0 < 2 {
            out.push(("incx".into(), (s.0 + 1, s.1)));
        }
        if s.1 < 2 {
            out.push(("incy".into(), (s.0, s.1 + 1)));
        }
    }
    fn invariant(&self, s: &(u8, u8)) -> Result<(), String> {
        if *s == (2, 2) {
            Err("corner".into())
        } else {
            Ok(())
        }
    }
    fn is_quiescent(&self, _: &(u8, u8)) -> bool {
        true
    }
    fn canonicalize(&self, s: &(u8, u8)) -> (u8, u8) {
        if self.broken {
            (s.0, 0) // conflates (x, y) with (x, 0): unsound
        } else {
            *s
        }
    }
}

#[test]
fn broken_canonicalization_misses_the_planted_violation() {
    let sound = ConflatingSym { broken: false };
    let broken = ConflatingSym { broken: true };
    let opts = CheckOptions {
        symmetry: true,
        ..CheckOptions::default()
    };
    assert!(reference(&sound).is_err());
    assert!(check_parallel(&sound, &opts).is_err());
    let missed = check_parallel(&broken, &opts)
        .expect("a canonicalization that conflates inequivalent states must (unsoundly) verify");
    assert!(missed.states < 9, "the conflated space must have collapsed");
}

/// `copy` reads `x` but can lie about it: with the honest footprint the
/// explorer rejects the ample class (a co-enabled `incx` conflicts) and
/// finds the order-dependent violation; with the lie it takes `copy`
/// first everywhere and never sees `y == 1`.
struct LyingPor {
    lie: bool,
}

const X: u64 = 1 << 0;
const Y: u64 = 1 << 1;
const DONE: u64 = 1 << 2;

impl Model for LyingPor {
    type State = (u8, u8, bool);
    fn initial(&self) -> Vec<Self::State> {
        vec![(0, 0, false)]
    }
    fn successors(&self, s: &Self::State, out: &mut Vec<(String, Self::State)>) {
        if s.0 < 1 {
            out.push(("incx".into(), (s.0 + 1, s.1, s.2)));
        }
        if !s.2 {
            out.push(("copy".into(), (s.0, s.0, true)));
        }
    }
    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        if s.1 == 1 {
            Err("y reached 1".into())
        } else {
            Ok(())
        }
    }
    fn is_quiescent(&self, _: &Self::State) -> bool {
        true
    }
    fn action_meta(&self, _: &Self::State, label: &str) -> ActionMeta {
        match label {
            "incx" => ActionMeta::rw(X, X),
            "copy" => ActionMeta {
                // The truth: copy reads x. The lie: it claims not to,
                // making it look independent of incx.
                reads: if self.lie { Y | DONE } else { X | Y | DONE },
                writes: Y | DONE,
                class: Some(0),
            },
            _ => ActionMeta::OPAQUE,
        }
    }
}

#[test]
fn lying_independence_misses_the_order_dependent_violation() {
    let opts = CheckOptions {
        por: true,
        check_progress: false,
        ..CheckOptions::default()
    };
    assert!(
        reference(&LyingPor { lie: true }).is_err(),
        "the reference search must find y == 1"
    );
    assert!(
        check_parallel(&LyingPor { lie: false }, &opts).is_err(),
        "honest footprints must reject the class and find the violation"
    );
    check_parallel(&LyingPor { lie: true }, &opts)
        .expect("the lying footprint must (unsoundly) hide the violation");
}

// ---------------------------------------------------------------------------
// Search identity: the explorer's buffered fingerprint equals the
// byte-at-a-time streaming oracle on every reachable state (checked by
// the reference search as it goes), and the benchmark's reduced search
// keeps its exact shape.
// ---------------------------------------------------------------------------

/// On the five reference configurations: the reference search asserts
/// the oracle on every state it visits, and the compact code is
/// injective on them, as many distinct byte streams as states.
#[test]
fn fingerprint_equals_the_streaming_oracle_on_every_reachable_state() {
    fn check<M: Model>(model: &M, states: usize, name: &str) {
        let r = reference(model).unwrap();
        assert_eq!(r.visited.len(), states, "{name}");
        let streams: HashSet<Vec<u8>> = r.visited.iter().map(compact_stream).collect();
        assert_eq!(streams.len(), states, "{name}: distinct compact streams");
    }
    for (mode, states) in [
        (SubstrateMode::SafetyOnly, 16_637),
        (SubstrateMode::Distributed, 85_483),
        (SubstrateMode::Arbiter, 15_855),
    ] {
        let m = TokenModel::new(TokenModelParams::small(mode));
        check(&m, states, &format!("token/{mode:?}"));
    }
    let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly));
    check(&m, 94_270, "token/recovery");
    check(&DirModel::new(DirModelParams::small()), 104_600, "dir");
}

/// The `mcheck-recovery` benchmark workload's search: one worker,
/// symmetry and partial-order reduction on.
#[test]
fn benchmark_search_shape_is_pinned() {
    let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::Arbiter));
    let r = check_parallel(
        &m,
        &CheckOptions {
            workers: 1,
            symmetry: true,
            por: true,
            ..CheckOptions::default()
        },
    )
    .expect("small_recovery/Arbiter verifies");
    assert!(r.progress_checked);
    assert_eq!(
        (r.states, r.transitions, r.depth, r.kinds.len()),
        (310_082, 1_112_165, 56, 16)
    );
}

// ---------------------------------------------------------------------------
// Flagship: the Distributed recovery configuration (~1.4M unreduced
// states), run by the CI `verification` job (`--ignored`) with both
// reductions and the collision audit, against the unreduced search's
// row pinned in `tests/mcheck_invariants.rs` and its kind set.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "large state space (~1.4M states); run explicitly or in CI"]
fn distributed_recovery_reduced_run_matches_the_pinned_unreduced_search() {
    let m = TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::Distributed));
    let red = check_parallel(
        &m,
        &CheckOptions {
            symmetry: true,
            por: true,
            collision_audit: true,
            ..CheckOptions::default()
        },
    )
    .expect("the reduced flagship search must verify");
    assert!(red.progress_checked);
    assert!(red.audited > 0, "the audit stripe must see dedup hits");
    assert_eq!(
        red.kinds.iter().map(String::as_str).collect::<Vec<_>>(),
        [
            "complete",
            "deliver-ack",
            "deliver-activate",
            "deliver-deactivate",
            "deliver-inval",
            "deliver-stale",
            "deliver-tokens",
            "forward",
            "issue",
            "lose",
            "mem-grant",
            "recreate-done",
            "recreate-start",
            "write",
            "writeback",
        ],
        "the unreduced search's transition-kind universe"
    );
    // Distributed mode is not exchangeable (fixed-priority activation),
    // so symmetry degenerates to the identity there, and the ack class
    // is the only POR site: against the unreduced row (1,437,255 states,
    // 7,223,161 transitions, depth 58) the reduction keeps every state
    // and prunes 422 transitions.
    assert_eq!(
        (red.states, red.transitions, red.depth),
        (1_437_255, 7_223_161 - 422, 58)
    );
}
