//! The PerfectL2 lower-bound model (§6): every L1 miss hits in an
//! infinite, magically-coherent L2 shared across all chips.
//!
//! Stores still invalidate other processors' L1 copies (so coherence
//! misses exist and spin loops wake up), but *every* miss — cold,
//! capacity or coherence — costs only an L1 access plus one on-chip
//! round-trip to an L2 bank. This is an unimplementable bound, exactly as
//! the paper uses it.

use std::cell::RefCell;
use std::rc::Rc;

use tokencmp_cache::SetAssoc;
use tokencmp_core::TokenMsg;
use tokencmp_proto::{Block, CpuPort, CpuReq, CpuResp, IdMap, ProcId, SystemConfig};
use tokencmp_sim::{Component, Ctx, Dur, NodeId, NodeSet, Stats, Time};
use tokencmp_trace::TraceHandle;

use crate::nodes::{sequencers, System};
use crate::sequencer::Sequencer;
use crate::telemetry::{Reading, StarvationAges};
use crate::workload::Workload;

/// Counters exposed by the PerfectL2 model after a run.
#[derive(Clone, Debug, Default)]
pub struct PerfectStats {
    /// L1 hits.
    pub hits: u64,
    /// L1 misses (all served at L2-hit latency).
    pub misses: u64,
    /// L1 invalidations caused by stores.
    pub invalidations: u64,
}

/// The single component modeling all L1s plus the perfect shared L2.
pub struct PerfectL2<M> {
    cfg: Rc<SystemConfig>,
    /// Sequencer node of each processor, in [`ProcId`] order.
    seqs: Vec<NodeId>,
    l1d: Vec<SetAssoc<()>>,
    l1i: Vec<SetAssoc<()>>,
    watches: IdMap<Block, Vec<ProcId>>,
    /// Run statistics.
    pub stats: PerfectStats,
    _msg: std::marker::PhantomData<fn(M)>,
}

impl<M: CpuPort + 'static> PerfectL2<M> {
    /// Creates the model; `seqs[i]` must be processor `i`'s sequencer,
    /// at node id `i` (as in PerfectL2's node set), so that a message's
    /// source is its processor.
    pub fn new(cfg: Rc<SystemConfig>, seqs: Vec<NodeId>) -> PerfectL2<M> {
        for (p, seq) in seqs.iter().enumerate() {
            assert_eq!(seq.index(), p, "processor {p}'s sequencer is not node {p}");
        }
        let n = seqs.len();
        PerfectL2 {
            l1d: (0..n)
                .map(|_| SetAssoc::new(cfg.l1_sets, cfg.l1_ways, 0))
                .collect(),
            l1i: (0..n)
                .map(|_| SetAssoc::new(cfg.l1_sets, cfg.l1_ways, 0))
                .collect(),
            seqs,
            watches: IdMap::default(),
            stats: PerfectStats::default(),
            cfg,
            _msg: std::marker::PhantomData,
        }
    }

    fn proc_of(&self, src: NodeId) -> usize {
        assert!(
            src.index() < self.seqs.len(),
            "message from unknown sequencer {src:?}"
        );
        src.index()
    }

    /// Miss latency: L1 + on-chip interconnect both ways + L2 bank.
    fn miss_latency(&self) -> Dur {
        self.cfg.l1_latency + self.cfg.intra_latency.times(2) + self.cfg.l2_latency
    }

    fn fire_watches(&mut self, block: Block, ctx: &mut Ctx<'_, M>) {
        if let Some(ws) = self.watches.remove(&block) {
            for p in ws {
                ctx.send(
                    self.seqs[p.0 as usize],
                    M::from_cpu_resp(CpuResp::WatchFired { block }),
                );
            }
        }
    }
}

impl<M: CpuPort + 'static> Component<M> for PerfectL2<M> {
    fn on_msg(&mut self, src: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
        let req = msg.into_cpu_req().expect("PerfectL2 receives CPU requests");
        let p = self.proc_of(src);
        match req {
            CpuReq::Access { kind, block } => {
                let arr = if kind.is_ifetch() {
                    &mut self.l1i[p]
                } else {
                    &mut self.l1d[p]
                };
                let hit = arr.contains(block);
                if hit {
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                    let arr = if kind.is_ifetch() {
                        &mut self.l1i[p]
                    } else {
                        &mut self.l1d[p]
                    };
                    arr.insert(block, ()); // evictions are silent: L2 is perfect
                }
                if kind.needs_write() {
                    // Magical coherence: invalidate every other copy and
                    // wake spinners.
                    for (q, arr) in self.l1d.iter_mut().enumerate() {
                        if q != p && arr.remove(block).is_some() {
                            self.stats.invalidations += 1;
                        }
                    }
                    for (q, arr) in self.l1i.iter_mut().enumerate() {
                        if q != p {
                            arr.remove(block);
                        }
                    }
                    self.fire_watches(block, ctx);
                }
                let delay = if hit {
                    self.cfg.l1_latency
                } else {
                    self.miss_latency()
                };
                ctx.send_after(delay, src, M::from_cpu_resp(CpuResp::Done { kind, block }));
            }
            CpuReq::Watch { block } => {
                if self.l1d[p].contains(block) {
                    self.watches
                        .entry(block)
                        .or_default()
                        .push(ProcId(p as u16));
                } else {
                    ctx.send(src, M::from_cpu_resp(CpuResp::WatchFired { block }));
                }
            }
        }
    }

    fn on_wake(&mut self, _tag: u64, _ctx: &mut Ctx<'_, M>) {
        unreachable!("PerfectL2 schedules no wakeups")
    }

    fn kind(&self) -> &'static str {
        "perfect_l2"
    }
}

impl<M> std::fmt::Debug for PerfectL2<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfectL2")
            .field("procs", &self.seqs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// A PerfectL2 system's nodes: the sequencers (ids `0..P`), then the one
/// [`PerfectL2`] node (id `P`) every sequencer issues to.
pub(crate) struct PerfectNodes {
    seqs: Vec<Sequencer<TokenMsg>>,
    l2: PerfectL2<TokenMsg>,
}

impl PerfectNodes {
    /// Builds the PerfectL2 lower-bound system.
    pub(crate) fn build(
        cfg: &Rc<SystemConfig>,
        wl: &Rc<RefCell<dyn Workload>>,
        trace: Option<&TraceHandle>,
    ) -> PerfectNodes {
        let layout = cfg.layout();
        let magic = NodeId(layout.procs());
        let seqs = sequencers(&layout, wl, trace, |_| (magic, magic));
        let ids = layout.proc_ids().map(|p| layout.proc(p)).collect();
        PerfectNodes {
            seqs,
            l2: PerfectL2::new(cfg.clone(), ids),
        }
    }
}

impl NodeSet<TokenMsg> for PerfectNodes {
    fn node_count(&self) -> usize {
        self.seqs.len() + 1
    }

    fn on_msg(&mut self, dst: NodeId, src: NodeId, msg: TokenMsg, ctx: &mut Ctx<'_, TokenMsg>) {
        match self.seqs.get_mut(dst.index()) {
            Some(seq) => seq.on_msg(src, msg, ctx),
            None => self.l2.on_msg(src, msg, ctx),
        }
    }

    fn on_wake(&mut self, dst: NodeId, tag: u64, ctx: &mut Ctx<'_, TokenMsg>) {
        match self.seqs.get_mut(dst.index()) {
            Some(seq) => seq.on_wake(tag, ctx),
            None => self.l2.on_wake(tag, ctx),
        }
    }

    fn kind(&self, id: NodeId) -> &'static str {
        match self.seqs.get(id.index()) {
            Some(seq) => seq.kind(),
            None => self.l2.kind(),
        }
    }
}

impl System for PerfectNodes {
    type Msg = TokenMsg;

    /// PerfectL2 models no interconnect.
    const NETWORKED: bool = false;

    fn seqs(&self) -> &[Sequencer<TokenMsg>] {
        &self.seqs
    }

    /// The miss total.
    fn sample(&self, _at: Time, _ages: &mut StarvationAges, reading: &mut Reading) {
        reading.totals.insert("misses", self.l2.stats.misses);
    }

    fn harvest(&self, counters: &mut Stats) {
        counters.add("l1.hits", self.l2.stats.hits);
        counters.add("l1.misses", self.l2.stats.misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seqs: &[u32]) -> PerfectL2<TokenMsg> {
        let seqs = seqs.iter().map(|&n| NodeId(n)).collect();
        PerfectL2::new(Rc::new(SystemConfig::default()), seqs)
    }

    #[test]
    #[should_panic(expected = "processor 1's sequencer is not node 1")]
    fn sequencers_must_sit_at_their_processor_ids() {
        model(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "message from unknown sequencer")]
    fn a_source_past_the_sequencers_fails_closed() {
        let l2 = model(&[0, 1]);
        assert_eq!(l2.proc_of(NodeId(1)), 1);
        l2.proc_of(NodeId(2));
    }
}
