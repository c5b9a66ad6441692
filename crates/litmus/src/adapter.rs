//! Driving litmus programs through the real protocol stacks.
//!
//! [`LitmusWorkload`] adapts a [`Program`] to the system layer's
//! [`Workload`] interface: each litmus thread is pinned to one processor,
//! each variable is mapped to a cache block chosen to rotate L2 banks
//! *and* home chips, and values are applied/sampled against a
//! [`ValueStore`] at commit instants — the harvesting discipline whose
//! SC-soundness DESIGN.md §12 argues from the single-writer invariant.
//!
//! The adapter also hosts the harness's *mutation*: in
//! [`Mode::StoreBuffer`] it deliberately mis-harvests values through
//! per-thread store buffers (stores never reach shared memory until the
//! end; loads forward from the local buffer), reproducing exactly the
//! TSO-style reordering the SB shape is named for. The protocols
//! underneath still run faithfully — only the value harvesting lies —
//! so the oracle must flag the outcome, proving the checker can fail.

use tokencmp_proto::{AccessKind, Block, ProcId, SystemConfig};
use tokencmp_sim::{Dur, Rng, Time};
use tokencmp_system::{Completed, Step, ValueStore, Workload};

use crate::ir::{Op, Outcome, Program};

/// How litmus threads are placed on processors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pinning {
    /// Round-robin across chips: consecutive threads land on different
    /// CMPs, so every inter-thread race crosses the slow inter-CMP
    /// fabric — the interesting case for a Multiple-CMP protocol.
    Spread,
    /// Consecutive processors: threads pack onto the first chip(s),
    /// exercising the intra-CMP fast path.
    Packed,
}

impl Pinning {
    /// The processor litmus thread `t` runs on.
    pub fn proc_of(self, cfg: &SystemConfig, t: usize) -> ProcId {
        let cmps = cfg.cmps as usize;
        let per = cfg.procs_per_cmp as usize;
        match self {
            Pinning::Spread => ProcId(((t % cmps) * per + t / cmps) as u16),
            Pinning::Packed => ProcId(t as u16),
        }
    }
}

/// Maps each variable to a cache block.
///
/// The stride is coprime to the (power-of-two) bank-selection modulus
/// and larger than it, so consecutive variables land in different L2
/// banks *and* walk different home chips — no accidental colocation
/// hides a protocol race.
pub fn var_blocks(cfg: &SystemConfig, vars: usize) -> Vec<Block> {
    let stride = (cfg.banks_per_cmp as u64).next_power_of_two() + 1;
    (0..vars as u64).map(|v| Block(v * stride)).collect()
}

/// Value-harvesting mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Honest commit-instant harvesting (the real harness).
    Faithful,
    /// Deliberately broken TSO-style store-buffer harvesting (the
    /// mutation the oracle must catch).
    StoreBuffer,
}

/// A [`Program`] adapted to the [`Workload`] interface.
pub struct LitmusWorkload {
    program: Program,
    blocks: Vec<Block>,
    /// `thread_of[p]` is the litmus thread pinned to processor `p`.
    thread_of: Vec<Option<usize>>,
    pos: Vec<usize>,
    started: Vec<bool>,
    stagger: Vec<Dur>,
    observed: Vec<Vec<Option<u64>>>,
    mem: ValueStore,
    mode: Mode,
    /// Per-thread store buffers, used only in [`Mode::StoreBuffer`].
    buffers: Vec<Vec<(usize, u64)>>,
}

impl LitmusWorkload {
    /// Adapts `program` for `cfg`, staggering each thread's start by a
    /// seed-derived think time in `[0, stagger_max]` so different seeds
    /// explore different interleavings.
    ///
    /// # Panics
    ///
    /// Panics if the program has more threads than the system has
    /// processors.
    pub fn new(
        cfg: &SystemConfig,
        program: &Program,
        pinning: Pinning,
        seed: u64,
        stagger_max: Dur,
    ) -> LitmusWorkload {
        Self::with_mode(cfg, program, pinning, seed, stagger_max, Mode::Faithful)
    }

    /// [`LitmusWorkload::new`] with store-buffer harvesting — the
    /// deliberately broken mock for mutation tests.
    pub fn broken(
        cfg: &SystemConfig,
        program: &Program,
        pinning: Pinning,
        seed: u64,
        stagger_max: Dur,
    ) -> LitmusWorkload {
        Self::with_mode(cfg, program, pinning, seed, stagger_max, Mode::StoreBuffer)
    }

    fn with_mode(
        cfg: &SystemConfig,
        program: &Program,
        pinning: Pinning,
        seed: u64,
        stagger_max: Dur,
        mode: Mode,
    ) -> LitmusWorkload {
        let layout = cfg.layout();
        let threads = program.threads.len();
        assert!(
            threads <= layout.procs() as usize,
            "{}: {} threads but only {} processors",
            program.name,
            threads,
            layout.procs()
        );
        let mut thread_of = vec![None; layout.procs() as usize];
        for t in 0..threads {
            let p = pinning.proc_of(cfg, t).0 as usize;
            assert!(
                thread_of[p].is_none(),
                "{}: pinning maps two threads to processor {p}",
                program.name
            );
            thread_of[p] = Some(t);
        }
        let mut rng = Rng::new(seed ^ 0x0001_1BAD_CAFE);
        let stagger = (0..threads)
            .map(|_| {
                if stagger_max.is_zero() {
                    Dur::ZERO
                } else {
                    Dur::from_ps(rng.below(stagger_max.as_ps() + 1))
                }
            })
            .collect();
        LitmusWorkload {
            blocks: var_blocks(cfg, program.vars()),
            thread_of,
            pos: vec![0; threads],
            started: vec![false; threads],
            stagger,
            observed: program
                .threads
                .iter()
                .map(|t| vec![None; t.len()])
                .collect(),
            mem: ValueStore::new(program.vars()),
            mode,
            buffers: vec![Vec::new(); threads],
            program: program.clone(),
        }
    }

    /// True once every thread has committed its whole program.
    pub fn is_complete(&self) -> bool {
        self.pos
            .iter()
            .zip(&self.program.threads)
            .all(|(&pos, ops)| pos == ops.len())
    }

    /// Harvests the run's [`Outcome`].
    ///
    /// In [`Mode::StoreBuffer`] the final memory image drains the
    /// per-thread buffers in thread order, mimicking a lazy store-buffer
    /// flush after the program ends.
    ///
    /// # Panics
    ///
    /// Panics if any thread has uncommitted operations.
    pub fn outcome(&self) -> Outcome {
        assert!(
            self.is_complete(),
            "{}: harvest before quiescence",
            self.program.name
        );
        let mut final_mem = self.mem.snapshot().to_vec();
        for buf in &self.buffers {
            for &(var, value) in buf {
                final_mem[var] = value;
            }
        }
        Outcome {
            loads: self.observed.clone(),
            final_mem,
        }
    }

    fn apply_commit(&mut self, t: usize, completed: Completed) {
        let i = self.pos[t];
        let op = self.program.threads[t][i];
        let (want_kind, want_block) = match op {
            Op::Load { var } => (AccessKind::Load, self.blocks[var]),
            Op::Store { var, .. } => (AccessKind::Store, self.blocks[var]),
        };
        assert_eq!(
            (completed.kind, completed.block),
            (want_kind, want_block),
            "{}: T{t} op {i} completion mismatch",
            self.program.name
        );
        match (op, self.mode) {
            (Op::Load { var }, Mode::Faithful) => {
                self.observed[t][i] = Some(self.mem.load(var));
            }
            (Op::Store { var, value }, Mode::Faithful) => {
                self.mem.store(var, value);
            }
            (Op::Load { var }, Mode::StoreBuffer) => {
                // Store-to-load forwarding from the thread's own buffer;
                // otherwise read shared memory (which, since buffered
                // stores never drain, still holds the initial value).
                let fwd = self.buffers[t].iter().rev().find(|&&(v, _)| v == var);
                self.observed[t][i] = Some(match fwd {
                    Some(&(_, value)) => value,
                    None => self.mem.snapshot()[var],
                });
            }
            (Op::Store { var, value }, Mode::StoreBuffer) => {
                self.buffers[t].push((var, value));
            }
        }
        self.pos[t] += 1;
    }
}

impl Workload for LitmusWorkload {
    fn next(&mut self, p: ProcId, _now: Time, completed: Option<Completed>) -> Step {
        let Some(t) = self.thread_of[p.0 as usize] else {
            return Step::Done;
        };
        if !self.started[t] {
            self.started[t] = true;
            return Step::Think(self.stagger[t]);
        }
        if let Some(c) = completed {
            self.apply_commit(t, c);
        }
        match self.program.threads[t].get(self.pos[t]) {
            Some(&Op::Load { var }) => Step::Access {
                kind: AccessKind::Load,
                block: self.blocks[var],
            },
            Some(&Op::Store { var, .. }) => Step::Access {
                kind: AccessKind::Store,
                block: self.blocks[var],
            },
            None => Step::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes;

    #[test]
    fn spread_pinning_is_injective_and_crosses_chips() {
        let cfg = SystemConfig::small_test();
        let procs: Vec<ProcId> = (0..4).map(|t| Pinning::Spread.proc_of(&cfg, t)).collect();
        let mut uniq = procs.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "pinning must be injective: {procs:?}");
        let layout = cfg.layout();
        // The first two threads must land on different chips.
        assert_ne!(
            layout.cmp_of_proc(procs[0]),
            layout.cmp_of_proc(procs[1]),
            "spread pinning keeps thread 0 and 1 on one chip"
        );
    }

    #[test]
    fn var_blocks_rotate_banks_and_homes() {
        let cfg = SystemConfig::default();
        let blocks = var_blocks(&cfg, 2);
        assert_ne!(blocks[0], blocks[1]);
        assert_ne!(cfg.l2_bank_of(blocks[0]), cfg.l2_bank_of(blocks[1]));
        assert_ne!(cfg.home_of(blocks[0]), cfg.home_of(blocks[1]));
    }

    fn drive_threads_round_robin(w: &mut LitmusWorkload, cfg: &SystemConfig) {
        // A tiny in-process interpreter: repeatedly offer each processor
        // its next step and immediately complete any access, until all
        // are done. Exercises the Workload state machine without a kernel.
        let procs = cfg.layout().procs();
        let mut pending: Vec<Option<Completed>> = vec![None; procs as usize];
        let mut active = true;
        while active {
            active = false;
            for p in 0..procs as u16 {
                let step = w.next(ProcId(p), Time::ZERO, pending[p as usize].take());
                match step {
                    Step::Think(_) => {
                        active = true;
                    }
                    Step::Access { kind, block } => {
                        active = true;
                        pending[p as usize] = Some(Completed { kind, block });
                    }
                    Step::SpinUntil { .. } => unreachable!("litmus never spins"),
                    Step::Done => {}
                }
            }
        }
    }

    #[test]
    fn faithful_round_robin_mp_is_causal() {
        let cfg = SystemConfig::small_test();
        let p = shapes::mp();
        let mut w = LitmusWorkload::new(&cfg, &p, Pinning::Packed, 1, Dur::ZERO);
        drive_threads_round_robin(&mut w, &cfg);
        let o = w.outcome();
        p.validate_outcome(&o).unwrap();
        // Round-robin: T0 stores x, then T1 loads y (=0), T0 stores y,
        // T1 loads x (=1) — an SC outcome, and final memory is complete.
        assert_eq!(o.final_mem, vec![1, 1]);
        assert!(crate::oracle::sc_allowed(&p, &o));
    }

    #[test]
    fn store_buffer_mock_reproduces_dekker_failure() {
        let cfg = SystemConfig::small_test();
        let p = shapes::sb();
        let mut w = LitmusWorkload::broken(&cfg, &p, Pinning::Packed, 1, Dur::ZERO);
        drive_threads_round_robin(&mut w, &cfg);
        let o = w.outcome();
        p.validate_outcome(&o).unwrap();
        assert_eq!(o.loads[0][1], Some(0), "store buffered ⇒ load misses it");
        assert_eq!(o.loads[1][1], Some(0));
        assert_eq!(o.final_mem, vec![1, 1], "buffers drain at the end");
        assert!(p.forbidden.as_ref().unwrap().matches(&o));
        assert!(!crate::oracle::sc_allowed(&p, &o));
    }

    #[test]
    fn unpinned_processors_are_idle() {
        let cfg = SystemConfig::default(); // 16 procs, 2 litmus threads
        let p = shapes::sb();
        let mut w = LitmusWorkload::new(&cfg, &p, Pinning::Spread, 3, Dur::from_ns(10));
        let unpinned = (0..16)
            .filter(|&i| w.next(ProcId(i), Time::ZERO, None) == Step::Done)
            .count();
        assert_eq!(unpinned, 14);
    }
}
