//! Typed node sets, and what each protocol supplies to the run harness.
//!
//! A system's nodes live in typed per-kind vectors over the layout's
//! contiguous node-id ranges (DESIGN.md §19): the kernel hands an event
//! to the node set, which finds the node by which range its id falls in.
//! [`CmpNodes`] serves TokenCMP and DirectoryCMP alike; PerfectL2 is its
//! sequencers plus one node (`crate::perfect`).

use std::cell::RefCell;
use std::rc::Rc;

use tokencmp_net::FaultHandle;
use tokencmp_proto::{CmpId, CpuPort, Layout, NetMsg, ProcId, SystemConfig};
use tokencmp_sim::{Component, Ctx, NodeId, NodeSet, Stats, Time};
use tokencmp_trace::TraceHandle;

use crate::sequencer::Sequencer;
use crate::telemetry::{Reading, StarvationAges};
use crate::workload::Workload;

/// What one protocol supplies to the run harness: its typed node set,
/// and the typed passes the harness makes over it.
pub(crate) trait System: NodeSet<Self::Msg> + 'static {
    /// The protocol's message type.
    type Msg: CpuPort + NetMsg + Clone + 'static;

    /// Whether the system has an interconnect. Without one (PerfectL2)
    /// messages arrive instantly, and the run has no traffic account,
    /// no fault layer and no tiers.
    const NETWORKED: bool = true;

    /// The sequencers, in processor order (node ids `0..procs`).
    fn seqs(&self) -> &[Sequencer<Self::Msg>];

    /// Appends protocol lines to the diagnostic of a run that did not end
    /// cleanly.
    fn snapshot(&self, _diag: &mut String) {}

    /// Checks the protocol's invariants at quiescence; panics on a
    /// violation. `faults` is the run's fault ledger, if it has one.
    fn audit(&self, _faults: Option<&FaultHandle>) {}

    /// Adds the protocol's gauges and counter totals to one telemetry
    /// sample taken at `at`; `ages` is the sampler's starvation clock.
    fn sample(&self, at: Time, ages: &mut StarvationAges, reading: &mut Reading);

    /// Sums each node kind's stats counters and exports the totals once,
    /// under the run's counter keys.
    fn harvest(&self, counters: &mut Stats);
}

/// The nodes of a TokenCMP or DirectoryCMP system, one vector per kind,
/// in layout order: sequencers (ids `0..P`), L1-D then L1-I caches
/// (`P..3P`), L2 banks, memory controllers or directory homes.
///
/// The vectors are read-only after [`CmpNodes::build`]: dispatch maps
/// the id ranges onto their lengths.
pub(crate) struct CmpNodes<M, L1, L2, Mem> {
    pub(crate) cfg: Rc<SystemConfig>,
    pub(crate) layout: Layout,
    pub(crate) seqs: Vec<Sequencer<M>>,
    pub(crate) l1s: Vec<L1>,
    pub(crate) l2s: Vec<L2>,
    pub(crate) mems: Vec<Mem>,
}

/// Where a node id falls: its kind's vector and the index in it.
enum Slot {
    Seq(usize),
    L1(usize),
    L2(usize),
    Mem(usize),
}

impl<M: CpuPort + 'static, L1, L2, Mem> CmpNodes<M, L1, L2, Mem> {
    /// Builds every node in layout order. `l1`, `l2` and `mem` construct
    /// the cache and memory nodes from their unit and node id; each
    /// sequencer issues to its processor's L1-D and L1-I.
    pub(crate) fn build(
        cfg: &Rc<SystemConfig>,
        wl: &Rc<RefCell<dyn Workload>>,
        trace: Option<&TraceHandle>,
        mut l1: impl FnMut(ProcId, NodeId) -> L1,
        mut l2: impl FnMut(CmpId, u16, NodeId) -> L2,
        mut mem: impl FnMut(CmpId, NodeId) -> Mem,
    ) -> Self {
        let layout = cfg.layout();
        let seqs = sequencers(&layout, wl, trace, |p| (layout.l1d(p), layout.l1i(p)));
        let l1s = layout
            .proc_ids()
            .map(|p| (p, layout.l1d(p)))
            .chain(layout.proc_ids().map(|p| (p, layout.l1i(p))))
            .map(|(p, me)| l1(p, me))
            .collect();
        let banks = u32::from(layout.banks_per_cmp);
        let l2s = (0..layout.l2_banks())
            .map(|i| {
                let (c, b) = (CmpId((i / banks) as u16), (i % banks) as u16);
                l2(c, b, layout.l2(c, b))
            })
            .collect();
        let mems = layout.cmp_ids().map(|c| mem(c, layout.mem(c))).collect();
        CmpNodes {
            cfg: cfg.clone(),
            layout,
            seqs,
            l1s,
            l2s,
            mems,
        }
    }

    /// The L1s in processor order, each processor's L1-D then its L1-I,
    /// with their node ids.
    pub(crate) fn l1s_by_proc(&self) -> impl Iterator<Item = (NodeId, &L1)> {
        let first = self.seqs.len();
        self.layout
            .proc_ids()
            .flat_map(|p| [self.layout.l1d(p), self.layout.l1i(p)])
            .map(move |node| (node, &self.l1s[node.index() - first]))
    }

    fn slot(&self, id: NodeId) -> Slot {
        let i = id.index();
        let l1 = self.seqs.len();
        let l2 = l1 + self.l1s.len();
        let mem = l2 + self.l2s.len();
        if i < l1 {
            Slot::Seq(i)
        } else if i < l2 {
            Slot::L1(i - l1)
        } else if i < mem {
            Slot::L2(i - l2)
        } else {
            Slot::Mem(i - mem)
        }
    }
}

impl<M, L1, L2, Mem> NodeSet<M> for CmpNodes<M, L1, L2, Mem>
where
    M: CpuPort + 'static,
    L1: Component<M>,
    L2: Component<M>,
    Mem: Component<M>,
{
    fn node_count(&self) -> usize {
        self.seqs.len() + self.l1s.len() + self.l2s.len() + self.mems.len()
    }

    fn on_msg(&mut self, dst: NodeId, src: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
        match self.slot(dst) {
            Slot::Seq(i) => self.seqs[i].on_msg(src, msg, ctx),
            Slot::L1(i) => self.l1s[i].on_msg(src, msg, ctx),
            Slot::L2(i) => self.l2s[i].on_msg(src, msg, ctx),
            Slot::Mem(i) => self.mems[i].on_msg(src, msg, ctx),
        }
    }

    fn on_wake(&mut self, dst: NodeId, tag: u64, ctx: &mut Ctx<'_, M>) {
        match self.slot(dst) {
            Slot::Seq(i) => self.seqs[i].on_wake(tag, ctx),
            Slot::L1(i) => self.l1s[i].on_wake(tag, ctx),
            Slot::L2(i) => self.l2s[i].on_wake(tag, ctx),
            Slot::Mem(i) => self.mems[i].on_wake(tag, ctx),
        }
    }

    fn kind(&self, id: NodeId) -> &'static str {
        match self.slot(id) {
            Slot::Seq(i) => self.seqs[i].kind(),
            Slot::L1(i) => self.l1s[i].kind(),
            Slot::L2(i) => self.l2s[i].kind(),
            Slot::Mem(i) => self.mems[i].kind(),
        }
    }
}

/// The sequencers of every processor, in order; processor `p` issues to
/// the L1-D and L1-I nodes `l1s(p)`.
pub(crate) fn sequencers<M: CpuPort + 'static>(
    layout: &Layout,
    wl: &Rc<RefCell<dyn Workload>>,
    trace: Option<&TraceHandle>,
    l1s: impl Fn(ProcId) -> (NodeId, NodeId),
) -> Vec<Sequencer<M>> {
    layout
        .proc_ids()
        .map(|p| {
            let (l1d, l1i) = l1s(p);
            let mut seq = Sequencer::new(p, l1d, l1i, wl.clone());
            seq.set_trace(trace);
            seq
        })
        .collect()
}

/// One counter of one node kind, summed over its nodes.
pub(crate) fn total<T>(nodes: &[T], counter: impl Fn(&T) -> u64) -> u64 {
    nodes.iter().map(counter).sum()
}

#[cfg(test)]
mod tests {
    use tokencmp_core::Variant;
    use tokencmp_sim::{Dur, Kernel};

    use super::*;
    use crate::perfect::PerfectNodes;
    use crate::run::RunOptions;
    use crate::workload::ScriptedWorkload;

    fn system() -> (Rc<SystemConfig>, Rc<RefCell<dyn Workload>>) {
        let cfg = Rc::new(SystemConfig::small_test());
        let procs = cfg.layout().procs() as usize;
        let wl = Rc::new(RefCell::new(ScriptedWorkload::new(vec![Vec::new(); procs])));
        (cfg, wl)
    }

    /// Steps a kernel over `nodes` through one event for node `id`.
    fn step_to<M: Clone + 'static>(nodes: impl NodeSet<M>, id: u32) {
        let mut k = Kernel::new_instant(nodes);
        k.wake(NodeId(id), Dur::ZERO, 0);
        k.step();
    }

    #[test]
    #[should_panic(expected = "event for unknown")]
    fn an_event_past_the_last_memory_controller_fails_closed() {
        let (cfg, wl) = system();
        let nodes = crate::token::build(&cfg, Variant::Dst1, &wl, &RunOptions::default(), None);
        step_to(nodes, cfg.layout().total_nodes());
    }

    #[test]
    #[should_panic(expected = "event for unknown")]
    fn an_event_past_the_perfect_l2_node_fails_closed() {
        let (cfg, wl) = system();
        step_to(
            PerfectNodes::build(&cfg, &wl, None),
            cfg.layout().procs() + 1,
        );
    }
}
