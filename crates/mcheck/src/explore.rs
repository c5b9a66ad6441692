//! Parallel state-space exploration with symmetry and partial-order
//! reduction.
//!
//! [`check_parallel`] is the crate's one state-space search: a
//! breadth-first exploration built for scale that leaves every [`Model`]
//! spec untouched:
//!
//! * **Parallel frontier expansion.** Exploration is level-synchronous:
//!   the frontier of one BFS level fans out over the shared
//!   [`tokencmp_pool`] worker pool (dynamic work claiming, results in
//!   submission order), while the state store stays *frozen* — workers
//!   only read it. A sequential merge phase then folds the expansions
//!   back in frontier order, successors in generation order. That is
//!   the order a plain one-state-at-a-time BFS assigns ids in, so with
//!   both reductions off the state count, transition count, depth, kind
//!   set and first-violation trace are the plain BFS's, *bit for bit*,
//!   at any worker count — which the differential suite in
//!   `tests/mcheck_parallel.rs` pins against a test-only reference
//!   search. With one worker the pool runs every batch inline, so the
//!   same code is also the sequential search.
//!
//! * **Hashed state store.** States are deduplicated by 128-bit
//!   fingerprint ([`fingerprint`]: the state's hash bytes recorded once,
//!   each slice length and enum discriminant in a one-byte code when it
//!   is below 0xFF, then one SipHash-1-3 pass in its 128-bit output
//!   mode) in one map, retaining 16 bytes per state instead of a full
//!   clone. The code is self-delimiting, so distinct states keep
//!   distinct byte streams; the differential suite checks both the hash
//!   and the streams' distinctness on every reachable model state. At
//!   n = 10⁷ states the collision probability is about n²/2¹²⁹ ≈ 10⁻²⁵ (see
//!   DESIGN.md §17). `CheckOptions::collision_audit` additionally
//!   retains full states on a 1/16 fingerprint stripe and asserts that
//!   every dedup hit on the stripe compares equal.
//!
//! * **Compact expansion records.** A worker writes one 4-byte record
//!   per taken successor: the id of a state the frozen store already
//!   holds (the state and its label are dropped while still in cache),
//!   or a marker plus a 4-byte index into the batch's list of *fresh*
//!   successors, which carry state, label and invariant verdict to the
//!   merge. Each batch reuses one successor buffer.
//!
//! * **Batch-local dedup.** A worker remembers the fingerprint of every
//!   fresh successor it has emitted in its batch, and records a repeat
//!   (a successor the frozen store lacks, which is probed first) as a
//!   back-reference to the first occurrence: no state copy, no
//!   label and no second `invariant` call. The merge resolves it to the
//!   id it gave the first occurrence, which is the id the store lookup
//!   would have returned, since the merge reaches the first occurrence
//!   earlier in the same batch. Batch sizes depend on the worker count,
//!   so which repeats are caught does too; the ids do not. States on
//!   the audit stripe are never deduplicated inside a batch, so the
//!   audit still sees every dedup hit on the stripe.
//!
//! * **Compact graph.** Edges are stored in CSR form (one flat target
//!   list plus per-state offsets — states are expanded in id order);
//!   the progress check builds the reverse lists by a counting sort.
//!
//! * **Symmetry reduction** quotients states by the model's
//!   [`Model::canonicalize`] (identity by default — always sound).
//!
//! * **Partial-order reduction** expands only an *ample subset* of a
//!   state's successors when the model declares a class of actions
//!   ([`ActionMeta::class`]) whose combined footprint conflicts with no
//!   co-enabled action, subject to a BFS cycle proviso: at least one
//!   ample successor must be new to the frozen store, guaranteeing the
//!   deferred actions are re-examined at a strictly later level.
//!
//! Soundness arguments for both reductions, per model, live in
//! DESIGN.md §17.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;
use std::time::Instant;

use tokencmp_pool::{default_threads, par_map_threads};

use crate::checker::{ActionMeta, CheckOptions, Model, Violation};
use crate::token_model::MAX_CACHES;

thread_local! {
    /// The byte stream of the value being fingerprinted, reused across
    /// calls on one thread.
    static FP_BYTES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Records the bytes a `Hash` impl writes. Its methods are inlined into
/// the caller's `Hash` walk: most writes are one to eight bytes.
struct ByteSink<'a>(&'a mut Vec<u8>);

impl Hasher for ByteSink<'_> {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0.push(i);
    }

    /// Slice lengths go through here, in the compact code.
    #[inline]
    fn write_usize(&mut self, i: usize) {
        write_compact(self.0, i as u64);
    }

    /// Enum discriminants go through here, in the compact code.
    #[inline]
    fn write_isize(&mut self, i: isize) {
        write_compact(self.0, i as u64);
    }

    fn finish(&self) -> u64 {
        unreachable!("ByteSink records bytes; it is never finished")
    }
}

/// Appends `x` in the fingerprint stream's compact code: one byte when
/// it is below 0xFF, otherwise 0xFF and its eight little-endian bytes.
#[inline]
fn write_compact(bytes: &mut Vec<u8>, x: u64) {
    if x < 0xFF {
        bytes.push(x as u8);
    } else {
        bytes.push(0xFF);
        bytes.extend_from_slice(&x.to_le_bytes());
    }
}

/// SipHash-1-3 with zero keys, the function behind std's
/// `DefaultHasher`: one round per 8-byte little-endian word, then three
/// finalization rounds.
struct Sip13([u64; 4]);

impl Sip13 {
    /// The state after absorbing `bytes` as one message, including the
    /// final word that carries the tail bytes and the length's low byte.
    /// `wide` selects the 128-bit output mode, which differs only in
    /// `v1`'s initial value and in the finalization.
    #[inline]
    fn absorb(bytes: &[u8], wide: bool) -> Sip13 {
        let mut s = Sip13([
            0x736f_6d65_7073_6575,
            0x646f_7261_6e64_6f6d ^ if wide { 0xee } else { 0 },
            0x6c79_6765_6e65_7261,
            0x7465_6462_7974_6573,
        ]);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            s.compress(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        s.compress(u64::from_le_bytes(last) | (bytes.len() as u64) << 56);
        s
    }

    #[inline]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.0;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.0[3] ^= m;
        self.round();
        self.0[0] ^= m;
    }

    /// Three finalization rounds, folded to one word.
    #[inline]
    fn fold(&mut self) -> u64 {
        for _ in 0..3 {
            self.round();
        }
        let [v0, v1, v2, v3] = self.0;
        v0 ^ v1 ^ v2 ^ v3
    }

    /// The 128-bit output: the first output word is the low half.
    #[inline]
    fn finish128(mut self) -> u128 {
        self.0[2] ^= 0xee;
        let lo = self.fold();
        self.0[1] ^= 0xdd;
        let hi = self.fold();
        u128::from(hi) << 64 | u128::from(lo)
    }

    /// The 64-bit output `DefaultHasher::finish` gives, against which
    /// the unit tests check the rounds and the tail padding.
    #[cfg(test)]
    fn finish64(mut self) -> u64 {
        self.0[2] ^= 0xff;
        self.fold()
    }
}

/// 128-bit state fingerprint: SipHash-1-3 in its 128-bit output mode
/// (the construction behind rustc's 128-bit fingerprints) over the bytes
/// `s.hash()` writes, in a compact code. The value is walked once into a
/// reusable per-thread byte buffer and hashed in one pass.
///
/// The code: every `write_usize` and `write_isize` call (slice lengths
/// and enum discriminants, almost always small) becomes one byte when
/// its value is below 0xFF, and otherwise 0xFF followed by the value's
/// eight little-endian bytes; every other write keeps its bytes. Each
/// such value is self-delimiting: its first byte says whether eight more
/// follow. The type fixes the sequence of writes a walk makes, given the
/// values of the lengths and discriminants already read, so the stream
/// can be decoded back into the value, and distinct values of one type
/// give distinct streams.
///
/// SipHash is a streaming hash, so the result equals streaming the same
/// code into a SipHash-1-3-128 hasher; the oracle in
/// `tests/mcheck_parallel.rs` checks this on every reachable model state
/// and its canonical form, and that the reachable states' streams are
/// pairwise distinct. The keys are fixed, so fingerprints are stable
/// within a build, which is all the store needs (they are never
/// persisted).
pub fn fingerprint<S: Hash>(s: &S) -> u128 {
    FP_BYTES.with_borrow_mut(|bytes| {
        bytes.clear();
        s.hash(&mut ByteSink(bytes));
        Sip13::absorb(bytes, true).finish128()
    })
}

/// All permutations of `0..n` in lexicographic order (identity first) —
/// the table the protocol models canonicalize over node identity with.
/// Each table is built once, on its first use.
///
/// # Panics
///
/// Panics if `n` exceeds 4, the most caches either model holds.
pub fn permutations(n: usize) -> &'static [Vec<usize>] {
    fn rec(rest: &mut Vec<usize>, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(cur.clone());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            cur.push(v);
            rec(rest, cur, out);
            cur.pop();
            rest.insert(i, v);
        }
    }
    static TABLES: [OnceLock<Vec<Vec<usize>>>; MAX_CACHES + 1] =
        [const { OnceLock::new() }; MAX_CACHES + 1];
    assert!(
        n <= MAX_CACHES,
        "permutation tables cover at most {MAX_CACHES} caches, got {n}"
    );
    TABLES[n].get_or_init(|| {
        let mut out = Vec::new();
        rec(&mut (0..n).collect(), &mut Vec::new(), &mut out);
        out
    })
}

/// Hashes a fingerprint key by passing its high half through:
/// fingerprints are uniform hash output already. (The high half, because
/// the audit stripe selects keys by their low nibble.)
#[derive(Default)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("fingerprint maps hash only u128 keys")
    }

    fn write_u128(&mut self, fp: u128) {
        self.0 = (fp >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by fingerprint.
type FpMap<V> = HashMap<u128, V, BuildHasherDefault<FpHasher>>;

/// Whether the collision audit retains the state behind `fp`.
fn on_audit_stripe(fp: u128) -> bool {
    fp & 0xF == 0
}

/// Statistics from a [`check_parallel`] run: the search's shape, its
/// reduction and audit activity, the transition-kind universe (first
/// word of every generated label, *including* labels pruned by the
/// partial-order reduction — reduction saves stored and expanded states,
/// never coverage accounting), and where the wall time went.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct stored states (canonical representatives).
    pub states: usize,
    /// Transitions taken (every generated one when POR is off).
    pub transitions: u64,
    /// Maximum BFS depth reached.
    pub depth: usize,
    /// Wall-clock seconds spent.
    pub seconds: f64,
    /// Whether the EF-quiescence progress check ran and passed.
    pub progress_checked: bool,
    /// Worker threads used.
    pub workers: usize,
    /// Expanded states at which an ample subset was taken.
    pub por_states_reduced: usize,
    /// Successor edges pruned by the partial-order reduction.
    pub por_pruned: u64,
    /// Dedup hits verified against a retained full state (audit mode).
    pub audited: u64,
    /// Every transition kind generated anywhere in the explored space.
    pub kinds: BTreeSet<String>,
    /// Wall-clock seconds in frontier expansion (the parallel phase),
    /// timed once per level.
    pub expand_s: f64,
    /// Wall-clock seconds in the sequential merges, timed once per
    /// level.
    pub merge_s: f64,
    /// Wall-clock seconds in the progress check (0 when it is off).
    pub progress_s: f64,
}

/// The record of a taken successor the frozen store does not settle:
/// its entry in [`Batch::refs`] names its fresh successor. State ids
/// never reach this value (`check_parallel` caps the budget at
/// `u32::MAX` states, ids `0..u32::MAX`).
const OPEN: u32 = u32::MAX;

/// A taken successor the merge settles: the first occurrence in its
/// batch of a state the frozen store lacks or, under the collision
/// audit, any occurrence of a state on the audit stripe.
struct Fresh<S> {
    label: String,
    state: S,
    fp: u128,
    /// The invariant error, evaluated only for states absent from the
    /// frozen store.
    inv_err: Option<String>,
}

/// One frontier state's expansion. Its taken successors are the next
/// `taken` records of its batch.
struct Expansion {
    id: u32,
    quiescent: bool,
    /// `Some(pretty-printed state)` iff non-quiescent with no successors.
    deadlock: Option<String>,
    /// Successors pruned by the reduction (an ample subset was taken
    /// iff nonzero).
    pruned: u32,
    /// Kinds (label heads) of generated successors, pruned included,
    /// that the frozen kind set lacks.
    new_kinds: Vec<String>,
    /// Taken successors.
    taken: u32,
}

/// A contiguous run of one level's frontier, expanded by one worker
/// against the frozen store and folded in by the merge.
struct Batch<S> {
    /// Expansions in frontier order.
    exps: Vec<Expansion>,
    /// One record per taken successor, in generation order: the id of a
    /// state the frozen store holds, or [`OPEN`].
    recs: Vec<u32>,
    /// One entry per [`OPEN`] record: the index in `fresh` of the
    /// successor's first occurrence in this batch.
    refs: Vec<u32>,
    /// Successors new to the frozen store, each once, in order of first
    /// occurrence; under the collision audit, also every occurrence of a
    /// state on the stripe.
    fresh: Vec<Fresh<S>>,
}

/// A worker's expansion of one batch: the frozen view it reads (only the
/// merge writes the store and the kind set), the batch it fills, and the
/// scratch it reuses across the batch's states.
struct Worker<'a, M: Model> {
    model: &'a M,
    opts: &'a CheckOptions,
    store: &'a FpMap<u32>,
    kinds: &'a BTreeSet<String>,
    out: Batch<M::State>,
    /// Fingerprint → `fresh` index of every successor off the audit
    /// stripe that this batch has emitted as fresh.
    emitted: FpMap<u32>,
    succs: Vec<(String, M::State)>,
}

/// Expands one batch of a level's frontier against the frozen store and
/// kind set.
fn expand_batch<M: Model>(
    model: &M,
    opts: &CheckOptions,
    store: &FpMap<u32>,
    kinds: &BTreeSet<String>,
    chunk: &[(u32, M::State)],
) -> Batch<M::State> {
    let mut worker = Worker {
        model,
        opts,
        store,
        kinds,
        out: Batch {
            exps: Vec::with_capacity(chunk.len()),
            recs: Vec::new(),
            refs: Vec::new(),
            fresh: Vec::new(),
        },
        emitted: FpMap::default(),
        succs: Vec::new(),
    };
    for (id, s) in chunk {
        worker.expand(*id, s);
    }
    worker.out
}

impl<M: Model> Worker<'_, M> {
    /// Expands one frontier state, appending its expansion and records.
    fn expand(&mut self, id: u32, s: &M::State) {
        let (model, opts) = (self.model, self.opts);
        let mut succs = std::mem::take(&mut self.succs);
        model.successors(s, &mut succs);
        let quiescent = model.is_quiescent(s);
        let mut exp = Expansion {
            id,
            quiescent,
            deadlock: None,
            pruned: 0,
            new_kinds: Vec::new(),
            taken: 0,
        };
        if succs.is_empty() && !quiescent {
            exp.deadlock = Some(format!("{s:?}"));
        }
        for (label, _) in &succs {
            let head = label.split_whitespace().next().unwrap_or("");
            if !self.kinds.contains(head) && !exp.new_kinds.iter().any(|k| k == head) {
                exp.new_kinds.push(head.to_string());
            }
        }

        let with_fp = |c: M::State| {
            let fp = fingerprint(&c);
            (c, fp)
        };
        let canon_fp = |t: &M::State| {
            with_fp(if opts.symmetry {
                model.canonicalize(t)
            } else {
                t.clone()
            })
        };
        // Canonical forms by successor index, computed lazily by the
        // ample selection's cycle proviso (which may avoid the work for
        // pruned successors) and reused by the expansion. Allocated only
        // for states the proviso evaluates.
        let mut canon: Vec<Option<(M::State, u128)>> = Vec::new();

        // Ample-set selection: for each declared class (ascending id),
        // take its members alone iff (C1/C2, via the model's class
        // promise plus a mechanical footprint check) no co-enabled
        // non-member conflicts with the class, and (C3, cycle proviso) at
        // least one member leads out of the frozen store — i.e. to a
        // state expanded at a strictly later level, so deferred actions
        // cannot be postponed forever around a cycle.
        let mut metas: Vec<ActionMeta> = Vec::new();
        let mut ample: Option<u32> = None;
        if opts.por && succs.len() > 1 {
            metas = succs
                .iter()
                .map(|(label, _)| model.action_meta(s, label))
                .collect();
            let classes: BTreeSet<u32> = metas.iter().filter_map(|m| m.class).collect();
            'class: for c in classes {
                let members: Vec<usize> = (0..succs.len())
                    .filter(|&i| metas[i].class == Some(c))
                    .collect();
                if members.len() == succs.len() {
                    continue; // no reduction to be had
                }
                let combined = members.iter().fold(ActionMeta::rw(0, 0), |acc, &i| {
                    ActionMeta::rw(acc.reads | metas[i].reads, acc.writes | metas[i].writes)
                });
                for meta in &metas {
                    if meta.class != Some(c) && combined.dependent(meta) {
                        continue 'class;
                    }
                }
                if canon.is_empty() {
                    canon.resize_with(succs.len(), || None);
                }
                let leaves = members.iter().any(|&i| {
                    let (_, fp) = canon[i].get_or_insert_with(|| canon_fp(&succs[i].1));
                    !self.store.contains_key(fp)
                });
                if leaves {
                    ample = Some(c);
                    break;
                }
            }
        }

        let generated = succs.len() as u32;
        for (i, (label, t)) in succs.drain(..).enumerate() {
            if ample.is_some_and(|c| metas[i].class != Some(c)) {
                continue;
            }
            exp.taken += 1;
            let (state, fp) = match canon.get_mut(i).and_then(Option::take) {
                Some(c) => c,
                None if opts.symmetry => canon_fp(&t),
                None => with_fp(t),
            };
            self.settle(label, state, fp);
        }
        exp.pruned = generated - exp.taken;
        self.out.exps.push(exp);
        self.succs = succs;
    }

    /// Records one taken successor: its id if the frozen store holds it
    /// (unless the audit must compare it), a back-reference if this
    /// batch has already emitted it as fresh, and otherwise a fresh
    /// successor with its invariant verdict. The store is probed first:
    /// it settles more successors, and `emitted` never holds a
    /// fingerprint the store holds, so the order changes no record.
    fn settle(&mut self, label: String, state: M::State, fp: u128) {
        let out = &mut self.out;
        let known = self.store.get(&fp).copied();
        if known.is_none() {
            if let Some(&first) = self.emitted.get(&fp) {
                out.recs.push(OPEN);
                out.refs.push(first);
                return;
            }
        }
        let audit = self.opts.collision_audit && on_audit_stripe(fp);
        match known {
            Some(t_id) if !audit => out.recs.push(t_id),
            _ => {
                let j = out.fresh.len() as u32;
                if !audit {
                    self.emitted.insert(fp, j);
                }
                out.recs.push(OPEN);
                out.refs.push(j);
                out.fresh.push(Fresh {
                    inv_err: if known.is_none() {
                        self.model.invariant(&state).err()
                    } else {
                        None
                    },
                    label,
                    state,
                    fp,
                });
            }
        }
    }
}

/// Exhaustively explores `model` on `opts.workers` threads, checking the
/// invariant on every state, flagging non-quiescent deadlocks, and
/// (optionally) verifying EF-quiescence.
///
/// With `opts.symmetry` and `opts.por` both off, the verdict, state
/// count, transition count, depth, kind set and first-violation trace
/// are a plain sequential BFS's, at any worker count. With reductions
/// on, the verdict and the transition-kind universe are preserved;
/// states and transitions shrink.
///
/// # Errors
///
/// Returns the first [`Violation`] found, with a minimal-length trace.
///
/// # Panics
///
/// Panics if the state count exceeds `opts.max_states`, and on entry if
/// `opts.max_states` exceeds `u32::MAX`, the most states 4-byte ids can
/// name.
pub fn check_parallel<M>(model: &M, opts: &CheckOptions) -> Result<ExploreReport, Box<Violation>>
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    assert!(
        opts.max_states <= u32::MAX as usize,
        "CheckOptions::max_states = {} exceeds u32::MAX, the most states 4-byte ids can name",
        opts.max_states
    );
    let start = Instant::now();
    let workers = if opts.workers == 0 {
        default_threads()
    } else {
        opts.workers
    };

    // Fingerprint → state id. Workers share it read-only during
    // expansion; the merge phase writes.
    let mut store: FpMap<u32> = FpMap::default();
    // Full canonical states retained on the audit stripe when collision
    // auditing is on.
    let mut stripe: FpMap<M::State> = FpMap::default();
    let mut audited: u64 = 0;
    // Per-id data. Labels are interned: the parent chain stores (parent
    // id, label index); roots are self-parented.
    let mut fps: Vec<u128> = Vec::new();
    let mut parent: Vec<(u32, u32)> = Vec::new();
    let mut quiescent: Vec<bool> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    let mut label_ids: HashMap<String, u32> = HashMap::new();
    // Edges in CSR form: state `u`'s successors are
    // `edge_to[edge_start[u]..edge_start[u + 1]]`. States are expanded
    // in id order, so each expansion appends its own run.
    let mut edge_start: Vec<usize> = Vec::new();
    let mut edge_to: Vec<u32> = Vec::new();

    let mut kinds: BTreeSet<String> = BTreeSet::new();
    let mut transitions: u64 = 0;
    let mut depth = 0usize;
    let mut por_states_reduced = 0usize;
    let mut por_pruned: u64 = 0;
    let mut expand_s = 0.0;
    let mut merge_s = 0.0;

    let mut frontier: Vec<(u32, M::State)> = Vec::new();
    for s in model.initial() {
        if let Err(m) = model.invariant(&s) {
            return Err(Box::new(Violation {
                message: m,
                trace: vec![],
                state: format!("{s:?}"),
            }));
        }
        let c = if opts.symmetry {
            model.canonicalize(&s)
        } else {
            s
        };
        let fp = fingerprint(&c);
        let id = fps.len() as u32;
        if let Entry::Vacant(slot) = store.entry(fp) {
            slot.insert(id);
            fps.push(fp);
            parent.push((id, u32::MAX));
            quiescent.push(false);
            if opts.collision_audit && on_audit_stripe(fp) {
                stripe.insert(fp, c.clone());
            }
            frontier.push((id, c));
        }
    }

    let trace_to = |idx: u32, parent: &[(u32, u32)], labels: &[String]| -> Vec<String> {
        let mut trace = Vec::new();
        let mut cur = idx;
        while parent[cur as usize].0 != cur {
            let (p, l) = parent[cur as usize];
            trace.push(labels[l as usize].clone());
            cur = p;
        }
        trace.reverse();
        trace
    };

    while !frontier.is_empty() {
        // Fan the level out in deterministic batches: the pool claims
        // batches dynamically but returns results in submission order,
        // so the merge below is schedule-independent.
        let t = Instant::now();
        let batch = (frontier.len() / (workers.max(1) * 8)).clamp(1, 1024);
        let results: Vec<Batch<M::State>> =
            par_map_threads(frontier.chunks(batch).collect(), workers, |chunk| {
                expand_batch(model, opts, &store, &kinds, chunk)
            });
        drop(frontier);
        expand_s += t.elapsed().as_secs_f64();

        // Sequential merge in frontier order, successors in generation
        // order — exactly the order a plain sequential BFS discovers them.
        let t = Instant::now();
        let mut next: Vec<(u32, M::State)> = Vec::new();
        for batch in results {
            let mut recs = batch.recs.into_iter();
            let mut refs = batch.refs.into_iter();
            let mut fresh = batch.fresh.into_iter();
            // The id each merged `fresh` entry settled to, by index.
            let mut fresh_ids: Vec<u32> = Vec::with_capacity(fresh.len());
            for exp in batch.exps {
                let id = exp.id;
                debug_assert_eq!(edge_start.len(), id as usize, "expanded out of id order");
                edge_start.push(edge_to.len());
                quiescent[id as usize] = exp.quiescent;
                if let Some(state) = exp.deadlock {
                    return Err(Box::new(Violation {
                        message: "deadlock: non-quiescent state with no successors".into(),
                        trace: trace_to(id, &parent, &labels),
                        state,
                    }));
                }
                if exp.pruned > 0 {
                    por_states_reduced += 1;
                    por_pruned += u64::from(exp.pruned);
                }
                kinds.extend(exp.new_kinds);
                for rec in recs.by_ref().take(exp.taken as usize) {
                    transitions += 1;
                    if rec != OPEN {
                        edge_to.push(rec);
                        continue;
                    }
                    let j = refs.next().expect("one ref per open record") as usize;
                    if let Some(&t_id) = fresh_ids.get(j) {
                        // A repeat: the merge settled its first
                        // occurrence earlier in this batch.
                        edge_to.push(t_id);
                        continue;
                    }
                    let Fresh {
                        label,
                        state: c,
                        fp,
                        inv_err,
                    } = fresh.next().expect("refs name fresh entries in order");
                    let t_id = match store.get(&fp) {
                        Some(&i) => {
                            if let Some(full) = stripe.get(&fp) {
                                assert!(
                                    *full == c,
                                    "fingerprint collision: distinct states share {fp:#034x}"
                                );
                                audited += 1;
                            }
                            i
                        }
                        None => {
                            if let Some(m) = inv_err {
                                let mut trace = trace_to(id, &parent, &labels);
                                trace.push(label);
                                return Err(Box::new(Violation {
                                    message: m,
                                    trace,
                                    state: format!("{c:?}"),
                                }));
                            }
                            assert!(
                                fps.len() < opts.max_states,
                                "state space exceeded {} states",
                                opts.max_states
                            );
                            let i = fps.len() as u32;
                            let l = *label_ids.entry(label).or_insert_with_key(|k| {
                                labels.push(k.clone());
                                (labels.len() - 1) as u32
                            });
                            store.insert(fp, i);
                            fps.push(fp);
                            parent.push((id, l));
                            quiescent.push(false);
                            if opts.collision_audit && on_audit_stripe(fp) {
                                stripe.insert(fp, c.clone());
                            }
                            next.push((i, c));
                            i
                        }
                    };
                    fresh_ids.push(t_id);
                    edge_to.push(t_id);
                }
            }
        }
        if !next.is_empty() {
            depth += 1;
        }
        frontier = next;
        merge_s += t.elapsed().as_secs_f64();
    }
    edge_start.push(edge_to.len());

    // Progress: every state can reach a quiescent state (EF quiescence),
    // via backward reachability over the (possibly reduced) explored
    // graph.
    let mut progress_s = 0.0;
    if opts.check_progress {
        let t = Instant::now();
        let n = fps.len();
        // Reverse edges in CSR form by counting sort: count in-degrees,
        // turn them into bucket ends, then fill each bucket backwards so
        // `rev_start[v]` ends at the start of `v`'s bucket.
        let mut rev_start = vec![0usize; n + 1];
        for &v in &edge_to {
            rev_start[v as usize] += 1;
        }
        let mut end = 0;
        for slot in &mut rev_start {
            end += *slot;
            *slot = end;
        }
        let mut rev_from = vec![0u32; edge_to.len()];
        for u in 0..n {
            for &v in &edge_to[edge_start[u]..edge_start[u + 1]] {
                rev_start[v as usize] -= 1;
                rev_from[rev_start[v as usize]] = u as u32;
            }
        }
        let mut ok = vec![false; n];
        let mut stack: Vec<u32> = (0..n as u32).filter(|&i| quiescent[i as usize]).collect();
        for &i in &stack {
            ok[i as usize] = true;
        }
        while let Some(u) = stack.pop() {
            let u = u as usize;
            for &v in &rev_from[rev_start[u]..rev_start[u + 1]] {
                if !ok[v as usize] {
                    ok[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        if let Some(bad) = (0..n as u32).find(|&i| !ok[i as usize]) {
            let trace = trace_to(bad, &parent, &labels);
            let state = replay_state(model, opts, &trace, &fps, bad, &parent)
                .unwrap_or_else(|| "<state not reconstructed>".into());
            return Err(Box::new(Violation {
                message: "progress violation: no quiescent state reachable (livelock)".into(),
                trace,
                state,
            }));
        }
        progress_s = t.elapsed().as_secs_f64();
    }

    Ok(ExploreReport {
        states: fps.len(),
        transitions,
        depth,
        seconds: start.elapsed().as_secs_f64(),
        progress_checked: opts.check_progress,
        workers,
        por_states_reduced,
        por_pruned,
        audited,
        kinds,
        expand_s,
        merge_s,
        progress_s,
    })
}

/// Reconstructs the concrete (canonical) state at the end of `trace` by
/// replaying it from the matching initial state — the store only keeps
/// fingerprints, so pretty-printing a progress-violation state requires
/// walking the trace and disambiguating same-labelled successors by
/// fingerprint.
fn replay_state<M: Model>(
    model: &M,
    opts: &CheckOptions,
    trace: &[String],
    fps: &[u128],
    bad: u32,
    parent: &[(u32, u32)],
) -> Option<String> {
    let mut path = vec![bad];
    let mut cur = bad;
    while parent[cur as usize].0 != cur {
        cur = parent[cur as usize].0;
        path.push(cur);
    }
    path.reverse(); // root .. bad, one id per trace step plus the root
    let root = path[0];
    let canon = |s: &M::State| {
        if opts.symmetry {
            model.canonicalize(s)
        } else {
            s.clone()
        }
    };
    let mut state = model
        .initial()
        .into_iter()
        .map(|s| canon(&s))
        .find(|c| fingerprint(c) == fps[root as usize])?;
    let mut succs = Vec::new();
    for (label, &next_id) in trace.iter().zip(&path[1..]) {
        succs.clear();
        model.successors(&state, &mut succs);
        state = succs
            .drain(..)
            .filter(|(l, _)| l == label)
            .map(|(_, t)| canon(&t))
            .find(|c| fingerprint(c) == fps[next_id as usize])?;
    }
    Some(format!("{state:?}"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A counter that may increment up to `max` and reset from `max`,
    /// with optional planted violations. Shared with the `checker` tests.
    pub(crate) struct Counter {
        pub(crate) max: u8,
        pub(crate) broken_invariant: bool,
        pub(crate) deadlock_at_max: bool,
    }

    impl Model for Counter {
        type State = u8;
        fn initial(&self) -> Vec<u8> {
            vec![0]
        }
        fn successors(&self, s: &u8, out: &mut Vec<(String, u8)>) {
            if *s < self.max {
                out.push((format!("inc {s}"), s + 1));
            } else if !self.deadlock_at_max {
                out.push(("reset".into(), 0));
            }
        }
        fn invariant(&self, s: &u8) -> Result<(), String> {
            if self.broken_invariant && *s == 3 {
                Err("reached 3".into())
            } else {
                Ok(())
            }
        }
        fn is_quiescent(&self, s: &u8) -> bool {
            *s == 0
        }
    }

    /// The SipHash-1-3 code under `fingerprint`, finalized to 64 bits,
    /// is std's `DefaultHasher` bit for bit: every length 0..=64 covers
    /// every tail length with zero to eight full words before it.
    #[test]
    fn sip13_matches_default_hasher_on_random_bytes() {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut next = || {
            // xorshift64*
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for len in 0..=64 {
            for _ in 0..16 {
                let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                let mut std = std::hash::DefaultHasher::new();
                std.write(&bytes);
                assert_eq!(
                    Sip13::absorb(&bytes, false).finish64(),
                    std.finish(),
                    "{bytes:02x?}"
                );
            }
        }
    }

    /// The bytes `fingerprint` hashes for `s`.
    fn stream<S: Hash>(s: &S) -> Vec<u8> {
        let mut bytes = Vec::new();
        s.hash(&mut ByteSink(&mut bytes));
        bytes
    }

    /// Lengths and discriminants below 0xFF take one byte; from 0xFF up,
    /// and for every negative `isize`, 0xFF and eight little-endian
    /// bytes. `fingerprint` hashes exactly that stream.
    #[test]
    fn compact_code_escapes_values_from_0xff_up() {
        let escaped = |x: u64| [&[0xFF][..], &x.to_le_bytes()].concat();
        for (len, head) in [
            (254usize, vec![254]),
            (255, escaped(255)),
            (256, escaped(256)),
        ] {
            let v = vec![7u8; len];
            assert_eq!(stream(&v), [head, v.clone()].concat(), "length {len}");
            assert_eq!(
                fingerprint(&v),
                Sip13::absorb(&stream(&v), true).finish128()
            );
        }
        assert_eq!(stream(&usize::MAX), escaped(u64::MAX));
        assert_eq!(stream(&0usize), [0]);
        assert_eq!(stream(&-2isize), escaped(-2i64 as u64));
        assert_eq!(stream(&isize::MIN), escaped(1 << 63));
        // Discriminants: `None` is 0, `Some` is 1 followed by its value.
        assert_eq!(stream(&(None::<u8>, Some(9u8))), [0, 1, 9]);
        // Other integer writes keep their width.
        assert_eq!(stream(&1u32), 1u32.to_le_bytes());
    }

    #[test]
    fn permutation_tables_are_built_once() {
        assert_eq!(permutations(0), [Vec::<usize>::new()]);
        assert_eq!(
            permutations(3),
            [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0]
            ]
        );
        assert_eq!(permutations(4).len(), 24);
        assert!(std::ptr::eq(permutations(2), permutations(2)));
    }

    #[test]
    #[should_panic(expected = "permutation tables cover at most 4 caches, got 5")]
    fn permutations_past_the_cache_limit_fail_closed() {
        let _ = permutations(5);
    }

    #[test]
    fn fingerprints_separate_nearby_values() {
        let fps: std::collections::HashSet<u128> =
            (0u64..10_000).map(|i| fingerprint(&i)).collect();
        assert_eq!(fps.len(), 10_000);
        // Both halves carry entropy.
        let a = fingerprint(&1u64);
        let b = fingerprint(&2u64);
        assert_ne!(a >> 64, b >> 64);
        assert_ne!(a as u64, b as u64);
    }

    #[test]
    fn parallel_matches_sequential_on_clean_model() {
        let m = Counter {
            max: 5,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        for workers in [1, 2, 4] {
            let opts = CheckOptions {
                workers,
                ..CheckOptions::default()
            };
            let par = check_parallel(&m, &opts).unwrap();
            assert_eq!((par.states, par.transitions, par.depth), (6, 6, 5));
            assert!(par.progress_checked);
            assert_eq!(
                par.kinds.iter().map(String::as_str).collect::<Vec<_>>(),
                ["inc", "reset"]
            );
        }
    }

    #[test]
    fn parallel_finds_same_violation_trace() {
        let m = Counter {
            max: 5,
            broken_invariant: true,
            deadlock_at_max: false,
        };
        for workers in [1, 2, 4] {
            let opts = CheckOptions {
                workers,
                ..CheckOptions::default()
            };
            let v = check_parallel(&m, &opts).unwrap_err();
            assert_eq!(v.message, "reached 3");
            assert_eq!(v.trace, ["inc 0", "inc 1", "inc 2"], "minimal trace");
            assert_eq!(v.state, "3");
            assert!(v.to_string().contains("trace (3 steps)"), "{v}");
        }
    }

    #[test]
    fn parallel_finds_deadlock_with_sequential_trace() {
        let m = Counter {
            max: 2,
            broken_invariant: false,
            deadlock_at_max: true,
        };
        let v = check_parallel(&m, &CheckOptions::default()).unwrap_err();
        assert!(v.message.contains("deadlock"), "{}", v.message);
        assert_eq!(v.trace, ["inc 0", "inc 1"]);
    }

    /// Two states cycling without ever reaching quiescence. Shared with
    /// the `checker` tests.
    pub(crate) struct Livelock;
    impl Model for Livelock {
        type State = u8;
        fn initial(&self) -> Vec<u8> {
            vec![1]
        }
        fn successors(&self, s: &u8, out: &mut Vec<(String, u8)>) {
            out.push(("spin".into(), 3 - s));
        }
        fn invariant(&self, _: &u8) -> Result<(), String> {
            Ok(())
        }
        fn is_quiescent(&self, s: &u8) -> bool {
            *s == 0
        }
    }

    #[test]
    fn parallel_finds_livelock_and_replays_state() {
        let v = check_parallel(&Livelock, &CheckOptions::default()).unwrap_err();
        assert!(v.message.contains("progress"), "{}", v.message);
        assert_eq!(v.state, "1", "replay must reconstruct the bad state");
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
        assert!(!r.progress_checked);
    }

    #[test]
    #[should_panic(expected = "state space exceeded")]
    fn parallel_respects_state_budget() {
        let m = Counter {
            max: 100,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        let _ = check_parallel(
            &m,
            &CheckOptions {
                max_states: 10,
                check_progress: false,
                ..CheckOptions::default()
            },
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn a_budget_beyond_u32_ids_fails_closed() {
        let m = Counter {
            max: 2,
            broken_invariant: false,
            deadlock_at_max: false,
        };
        let _ = check_parallel(
            &m,
            &CheckOptions {
                max_states: u32::MAX as usize + 1,
                ..CheckOptions::default()
            },
        );
    }

    /// Two independent per-node counters plus a classed, commuting
    /// "tick" self-loop family: symmetry folds node permutations, POR
    /// collapses tick interleavings.
    struct TwoSym;
    impl Model for TwoSym {
        type State = (u8, u8);
        fn initial(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
            if s.0 < 2 {
                out.push(("inc a".into(), (s.0 + 1, s.1)));
            }
            if s.1 < 2 {
                out.push(("inc b".into(), (s.0, s.1 + 1)));
            }
        }
        fn invariant(&self, _: &(u8, u8)) -> Result<(), String> {
            Ok(())
        }
        fn is_quiescent(&self, _: &(u8, u8)) -> bool {
            true
        }
        fn canonicalize(&self, s: &(u8, u8)) -> (u8, u8) {
            (s.0.min(s.1), s.0.max(s.1))
        }
    }

    #[test]
    fn symmetry_shrinks_states_and_keeps_kinds() {
        let full = check_parallel(&TwoSym, &CheckOptions::default()).unwrap();
        assert_eq!(full.states, 9);
        let par = check_parallel(
            &TwoSym,
            &CheckOptions {
                symmetry: true,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(par.states, 6, "unordered pairs of 0..=2");
        assert_eq!(
            par.kinds.iter().map(String::as_str).collect::<Vec<_>>(),
            ["inc"]
        );
    }

    /// Independent classed increments on two nodes: POR may take one
    /// node's action alone at each state; the (2,2) corner and kind set
    /// must survive.
    struct TwoPor;
    impl Model for TwoPor {
        type State = (u8, u8);
        fn initial(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
            if s.0 < 2 {
                out.push(("inca".into(), (s.0 + 1, s.1)));
            }
            if s.1 < 2 {
                out.push(("incb".into(), (s.0, s.1 + 1)));
            }
        }
        fn invariant(&self, s: &(u8, u8)) -> Result<(), String> {
            if *s == (2, 2) {
                Err("corner reached".into())
            } else {
                Ok(())
            }
        }
        fn is_quiescent(&self, _: &(u8, u8)) -> bool {
            true
        }
        fn action_meta(&self, _: &(u8, u8), label: &str) -> ActionMeta {
            match label {
                "inca" => ActionMeta {
                    reads: 0b01,
                    writes: 0b01,
                    class: Some(0),
                },
                "incb" => ActionMeta {
                    reads: 0b10,
                    writes: 0b10,
                    class: Some(1),
                },
                _ => ActionMeta::OPAQUE,
            }
        }
    }

    #[test]
    fn por_prunes_interleavings_but_finds_the_violation() {
        let opts = CheckOptions {
            por: true,
            ..CheckOptions::default()
        };
        let par = check_parallel(&TwoPor, &opts).unwrap_err();
        assert_eq!(par.message, "corner reached");
        assert_eq!(par.trace.len(), 4, "minimal trace length");
        // And on the clean variant it actually reduces.
        struct Clean;
        impl Model for Clean {
            type State = (u8, u8);
            fn initial(&self) -> Vec<(u8, u8)> {
                TwoPor.initial()
            }
            fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
                TwoPor.successors(s, out);
            }
            fn invariant(&self, _: &(u8, u8)) -> Result<(), String> {
                Ok(())
            }
            fn is_quiescent(&self, _: &(u8, u8)) -> bool {
                true
            }
            fn action_meta(&self, s: &(u8, u8), label: &str) -> ActionMeta {
                TwoPor.action_meta(s, label)
            }
        }
        let full = check_parallel(&Clean, &CheckOptions::default()).unwrap();
        assert_eq!((full.states, full.transitions), (9, 12));
        let red = check_parallel(&Clean, &opts).unwrap();
        assert!(red.por_states_reduced > 0);
        assert!(red.transitions < full.transitions);
        assert_eq!(red.kinds.len(), 2, "pruned kinds still collected");
    }

    /// A 32×32 grid with independent increments: hundreds of diamond
    /// reconvergences, so the 1/16 audit stripe sees dedup hits with
    /// certainty for any reasonable hash.
    struct Grid;
    impl Model for Grid {
        type State = (u8, u8);
        fn initial(&self) -> Vec<(u8, u8)> {
            vec![(0, 0)]
        }
        fn successors(&self, s: &(u8, u8), out: &mut Vec<(String, (u8, u8))>) {
            if s.0 < 31 {
                out.push(("inca".into(), (s.0 + 1, s.1)));
            }
            if s.1 < 31 {
                out.push(("incb".into(), (s.0, s.1 + 1)));
            }
        }
        fn invariant(&self, _: &(u8, u8)) -> Result<(), String> {
            Ok(())
        }
        fn is_quiescent(&self, _: &(u8, u8)) -> bool {
            true
        }
    }

    #[test]
    fn collision_audit_runs_on_the_stripe() {
        let r = check_parallel(
            &Grid,
            &CheckOptions {
                collision_audit: true,
                ..CheckOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.states, 32 * 32);
        let dedup_hits = r.transitions - (r.states as u64 - 1);
        assert!(dedup_hits > 500, "grid must reconverge heavily");
        // Brute force: every transition into a stripe state is a dedup
        // hit, except the one that first reaches it (every state but the
        // root is reached by a transition).
        let mut stripe_hits = 0u64;
        for a in 0..32u8 {
            for b in 0..32u8 {
                if !on_audit_stripe(fingerprint(&(a, b))) {
                    continue;
                }
                let into = u64::from(a > 0) + u64::from(b > 0);
                stripe_hits += into.saturating_sub(1);
            }
        }
        assert!(stripe_hits > 0, "audit stripe must see dedup hits");
        assert_eq!(r.audited, stripe_hits, "every dedup hit on the stripe");
    }
}
