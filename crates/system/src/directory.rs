//! DirectoryCMP as the run harness drives it: its construction, and the
//! audit, sampler gauges and counter harvest over its typed nodes.

use std::cell::RefCell;
use std::rc::Rc;

use tokencmp_directory::{ChipRights, DirHome, DirL1, DirL2, DirMsg, L1State};
use tokencmp_net::FaultHandle;
use tokencmp_proto::{Block, IdMap, SystemConfig};
use tokencmp_sim::{Dur, Stats, Time};
use tokencmp_trace::timeseries::keys;
use tokencmp_trace::{LatencyBreakdown, TraceHandle};

use crate::nodes::{total, CmpNodes, System};
use crate::sequencer::Sequencer;
use crate::telemetry::{Reading, StarvationAges};
use crate::workload::Workload;

/// A DirectoryCMP system's nodes.
pub(crate) type DirNodes = CmpNodes<DirMsg, DirL1, DirL2, DirHome>;

/// Builds a DirectoryCMP system; `zero_cycle` gives it the unrealistic
/// zero-cycle directory of DirectoryCMP-zero.
pub(crate) fn build(
    cfg: &Rc<SystemConfig>,
    zero_cycle: bool,
    wl: &Rc<RefCell<dyn Workload>>,
    trace: Option<&TraceHandle>,
) -> DirNodes {
    let mut cfg = (**cfg).clone();
    if zero_cycle {
        cfg.dir_access_latency = Dur::ZERO;
    }
    let cfg = Rc::new(cfg);
    CmpNodes::build(
        &cfg,
        wl,
        trace,
        |p, me| {
            let mut l1 = DirL1::new(cfg.clone(), me, p);
            l1.set_trace(trace);
            l1
        },
        |c, b, me| DirL2::new(cfg.clone(), me, c, b),
        |c, me| DirHome::new(cfg.clone(), me, c),
    )
}

impl System for DirNodes {
    type Msg = DirMsg;

    fn seqs(&self) -> &[Sequencer<DirMsg>] {
        &self.seqs
    }

    /// Directory consistency at quiescence: per block, at most one L1 in
    /// M/E globally, and M/E implies no other L1 holds the block at all
    /// (the single-writer / multiple-reader invariant); per block, at
    /// most one chip with E rights.
    fn audit(&self, _faults: Option<&FaultHandle>) {
        let mut holders: IdMap<Block, (u32, u32)> = IdMap::default(); // (excl, shared)
        for l1 in &self.l1s {
            for (b, s) in l1.lines() {
                let e = holders.entry(b).or_insert((0, 0));
                match s {
                    L1State::M | L1State::E => e.0 += 1,
                    L1State::S => e.1 += 1,
                }
            }
        }
        for (b, (excl, shared)) in holders {
            if excl > 1 || (excl >= 1 && shared > 0) {
                eprintln!("audit violation for {b:?}:");
                self.dump(b);
            }
            assert!(excl <= 1, "{b:?}: {excl} exclusive L1 copies");
            assert!(
                excl == 0 || shared == 0,
                "{b:?}: exclusive copy coexists with {shared} shared copies"
            );
        }
        let mut chips: IdMap<Block, u32> = IdMap::default();
        for l2 in &self.l2s {
            for (b, r) in l2.rights() {
                if r == ChipRights::E {
                    *chips.entry(b).or_insert(0) += 1;
                }
            }
        }
        for (b, n) in chips {
            assert!(n <= 1, "{b:?}: {n} chips with exclusive rights");
        }
    }

    /// L1 and L2 occupancy; the miss total.
    fn sample(&self, _at: Time, _ages: &mut StarvationAges, reading: &mut Reading) {
        let Reading { gauges, totals } = reading;
        let l1_lines = total(&self.l1s, |c| c.line_count() as u64);
        let l2_lines = total(&self.l2s, |c| c.line_count() as u64);
        gauges.insert(keys::OCC_L1_LINES.into(), l1_lines);
        gauges.insert(keys::OCC_L2_LINES.into(), l2_lines);
        totals.insert("misses", total(&self.l1s, |c| c.stats.misses));
    }

    fn harvest(&self, counters: &mut Stats) {
        counters.add("l1.hits", total(&self.l1s, |c| c.stats.hits));
        counters.add("l1.misses", total(&self.l1s, |c| c.stats.misses));
        counters.add("l1.writebacks", total(&self.l1s, |c| c.stats.writebacks));
        let mut lat = LatencyBreakdown::new();
        self.l1s.iter().for_each(|c| lat.merge(&c.stats.lat));
        counters.add("l1.miss_latency_ps_sum", lat.total().sum() as u64);
        lat.export_into(counters);
        let l2 = |counter: fn(&DirL2) -> u64| total(&self.l2s, counter);
        counters.add("l2.local_requests", l2(|c| c.stats.local_requests));
        counters.add("l2.remote_requests", l2(|c| c.stats.remote_requests));
        counters.add("l2.local_satisfied", l2(|c| c.stats.local_satisfied));
        counters.add("l2.evictions", l2(|c| c.stats.evictions));
        let home = |counter: fn(&DirHome) -> u64| total(&self.mems, counter);
        counters.add("home.requests", home(|c| c.stats.requests));
        counters.add("home.forwarded", home(|c| c.stats.forwarded));
        counters.add("home.from_memory", home(|c| c.stats.from_memory));
        counters.add("home.writebacks", home(|c| c.stats.writebacks));
    }
}

impl DirNodes {
    /// Prints every node's view of `b` to stderr, for an audit failure.
    fn dump(&self, b: Block) {
        for (node, l1) in self.l1s_by_proc() {
            for (lb, s) in l1.lines() {
                if lb == b {
                    eprintln!("  {:?} {node:?}: {s:?}", self.layout.unit(node));
                }
            }
        }
        let banks = self.layout.banks_per_cmp as usize;
        for (i, l2) in self.l2s.iter().enumerate() {
            if let Some(e) = l2.debug_entry(b) {
                eprintln!("  L2 c{}/{}: {e}", i / banks, i % banks);
            }
        }
        for (c, h) in self.layout.cmp_ids().zip(&self.mems) {
            eprintln!("  home {c:?}: {:?}", h.state(b));
        }
    }
}
