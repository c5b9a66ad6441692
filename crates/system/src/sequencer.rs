//! The processor sequencer: an in-order memory-operation driver.
//!
//! Substitutes for the paper's out-of-order SPARC timing model (see
//! DESIGN.md): one memory operation outstanding at a time, think-time
//! modeled as simulated delay, and spin loops coalesced through the L1
//! watch mechanism. Protocol behaviour — the quantity the paper measures —
//! is unaffected; absolute runtimes scale, which is why all results are
//! reported normalized, as in the paper.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

use tokencmp_proto::{AccessKind, Block, CpuPort, CpuReq, CpuResp, ProcId};
use tokencmp_sim::{Component, Ctx, Dur, NodeId, Time};
use tokencmp_trace::{TraceEvent, TraceHandle};

use crate::workload::{Completed, Step, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqState {
    Idle,
    Waiting { kind: AccessKind, block: Block },
    Spinning { block: Block },
    Finished,
}

/// A processor sequencer, generic over the protocol's message type.
pub struct Sequencer<M> {
    proc: ProcId,
    l1d: NodeId,
    l1i: NodeId,
    workload: Rc<RefCell<dyn Workload>>,
    state: SeqState,
    /// Completed memory operations.
    pub ops: u64,
    /// When this processor's program finished.
    pub done_at: Option<Time>,
    trace: Option<TraceHandle>,
    _msg: PhantomData<fn(M)>,
}

impl<M: CpuPort + 'static> Sequencer<M> {
    /// Creates a sequencer for `proc` talking to the given L1 nodes.
    pub fn new(
        proc: ProcId,
        l1d: NodeId,
        l1i: NodeId,
        workload: Rc<RefCell<dyn Workload>>,
    ) -> Sequencer<M> {
        Sequencer {
            proc,
            l1d,
            l1i,
            workload,
            state: SeqState::Idle,
            ops: 0,
            done_at: None,
            trace: None,
            _msg: PhantomData,
        }
    }

    /// Installs the run's trace sink, if any (none ⇒ zero tracing work).
    pub fn set_trace(&mut self, trace: Option<&TraceHandle>) {
        self.trace = trace.cloned();
    }

    fn advance(&mut self, completed: Option<Completed>, ctx: &mut Ctx<'_, M>) {
        debug_assert!(!matches!(self.state, SeqState::Finished));
        let step = self
            .workload
            .borrow_mut()
            .next(self.proc, ctx.now, completed);
        match step {
            Step::Think(d) => {
                self.state = SeqState::Idle;
                ctx.wake_in(d, 0);
            }
            Step::Access { kind, block } => {
                self.state = SeqState::Waiting { kind, block };
                if let Some(t) = &self.trace {
                    t.borrow_mut().record(
                        ctx.now,
                        TraceEvent::SeqIssue {
                            proc: self.proc,
                            block,
                            kind,
                        },
                    );
                }
                let l1 = if kind.is_ifetch() { self.l1i } else { self.l1d };
                ctx.send(l1, M::from_cpu_req(CpuReq::Access { kind, block }));
            }
            Step::SpinUntil { block } => {
                self.state = SeqState::Spinning { block };
                ctx.send(self.l1d, M::from_cpu_req(CpuReq::Watch { block }));
            }
            Step::Done => {
                self.state = SeqState::Finished;
                self.done_at = Some(ctx.now);
            }
        }
    }
}

impl<M: CpuPort + 'static> Component<M> for Sequencer<M> {
    fn on_msg(&mut self, _src: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
        let resp = msg
            .into_cpu_resp()
            .expect("sequencers only receive CPU responses");
        match (resp, self.state) {
            (CpuResp::Done { kind, block }, SeqState::Waiting { kind: k, block: b }) => {
                assert_eq!((kind, block), (k, b), "completion mismatch");
                self.ops += 1;
                if let Some(t) = &self.trace {
                    t.borrow_mut().record(
                        ctx.now,
                        TraceEvent::SeqCommit {
                            proc: self.proc,
                            block,
                            kind,
                        },
                    );
                }
                // A committed memory operation is the liveness signal the
                // kernel's stall watchdog listens for.
                ctx.progress();
                self.advance(Some(Completed { kind, block }), ctx);
            }
            (CpuResp::WatchFired { block }, SeqState::Spinning { block: b }) => {
                assert_eq!(block, b, "watch mismatch");
                self.advance(None, ctx);
            }
            (r, s) => panic!("unexpected response {r:?} in state {s:?}"),
        }
    }

    fn on_wake(&mut self, _tag: u64, ctx: &mut Ctx<'_, M>) {
        // Initial bootstrap wake or end of a think period.
        if matches!(self.state, SeqState::Finished) {
            return;
        }
        debug_assert!(matches!(self.state, SeqState::Idle));
        self.advance(None, ctx);
    }

    fn kind(&self) -> &'static str {
        "seq"
    }
}

impl<M> std::fmt::Debug for Sequencer<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequencer")
            .field("proc", &self.proc)
            .field("state", &self.state)
            .field("ops", &self.ops)
            .finish()
    }
}

/// A think-time helper: uniform work duration `base ± jitter` as used by
/// the barrier micro-benchmark (Table 4's `3000 ns + U(-1000, +1000)`).
pub fn uniform_work(base: Dur, jitter: Dur, rng: &mut tokencmp_sim::Rng) -> Dur {
    if jitter.is_zero() {
        return base;
    }
    let j = jitter.as_ps();
    let off = rng.range_inclusive(0, 2 * j);
    Dur::from_ps(base.as_ps() - j + off)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_work_stays_in_band() {
        let mut rng = tokencmp_sim::Rng::new(1);
        let base = Dur::from_ns(3000);
        let jitter = Dur::from_ns(1000);
        for _ in 0..1000 {
            let d = uniform_work(base, jitter, &mut rng);
            assert!(d >= Dur::from_ns(2000) && d <= Dur::from_ns(4000));
        }
        assert_eq!(uniform_work(base, Dur::ZERO, &mut rng), base);
    }
}
