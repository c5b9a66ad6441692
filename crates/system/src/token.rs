//! TokenCMP as the run harness drives it: its construction, and the
//! audit, sampler gauges, diagnostic lines and counter harvest over its
//! typed nodes.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::rc::Rc;

use tokencmp_core::{
    PersistentBook, RecoveryParams, TokenL1, TokenL2, TokenMem, TokenMsg, Variant,
};
use tokencmp_net::FaultHandle;
use tokencmp_proto::{Block, CmpId, SystemConfig};
use tokencmp_sim::{Stats, Time};
use tokencmp_trace::timeseries::keys;
use tokencmp_trace::{LatencyBreakdown, TraceHandle};

use crate::nodes::{total, CmpNodes, System};
use crate::run::RunOptions;
use crate::sequencer::Sequencer;
use crate::telemetry::{Reading, StarvationAges};
use crate::workload::Workload;

/// A TokenCMP system's nodes.
pub(crate) type TokenNodes = CmpNodes<TokenMsg, TokenL1, TokenL2, TokenMem>;

/// Builds a TokenCMP system running `variant`.
pub(crate) fn build(
    cfg: &Rc<SystemConfig>,
    variant: Variant,
    wl: &Rc<RefCell<dyn Workload>>,
    opts: &RunOptions,
    trace: Option<&TraceHandle>,
) -> TokenNodes {
    let layout = cfg.layout();
    // Each processor's L1-D and L1-I share one persistent-request epoch
    // counter (they issue under a single processor identity), and every
    // coherence node keeps its distributed table in one shared book.
    let epochs: Vec<Rc<Cell<u64>>> = layout.proc_ids().map(|_| Rc::default()).collect();
    let book = Rc::new(RefCell::new(PersistentBook::new(&layout)));
    // Token-loss recovery (§15) is armed only when the fault plan can
    // actually drop token-carrying messages: a lossless run schedules no
    // recovery timers and stays bit-identical to a build without the
    // recovery subsystem. The drain window extends the configured base
    // by the plan's worst extra in-flight delay so every stale bundle
    // has landed before the remint.
    let recovery = opts.faults.drops_tokens().then(|| RecoveryParams {
        base: cfg.recreation_timeout,
        cap: cfg.recreation_backoff_cap,
        drain: cfg.recreation_drain + opts.faults.max_extra_delay(),
    });
    CmpNodes::build(
        cfg,
        wl,
        trace,
        |p, me| {
            let seed = opts.seed ^ if me == layout.l1d(p) { 0 } else { 0xF00D };
            let epoch = epochs[p.0 as usize].clone();
            let mut l1 = TokenL1::new(cfg.clone(), me, p, variant, seed, epoch, book.clone());
            l1.set_recovery(recovery);
            l1.set_trace(trace);
            l1
        },
        |c, b, me| {
            let mut l2 = TokenL2::new(cfg.clone(), me, c, b, variant, book.clone());
            l2.set_trace(trace);
            l2
        },
        |c, me| {
            let mut mem = TokenMem::new(cfg.clone(), me, c, book.clone());
            mem.set_recovery(recovery);
            mem.set_trace(trace);
            mem
        },
    )
}

impl System for TokenNodes {
    type Msg = TokenMsg;

    fn seqs(&self) -> &[Sequencer<TokenMsg>] {
        &self.seqs
    }

    /// Each L1's pending miss, if it has one.
    fn snapshot(&self, diag: &mut String) {
        for (node, l1) in self.l1s_by_proc() {
            if let Some(line) = l1.pending_snapshot() {
                let _ = writeln!(diag, "  {:?} ({node:?}): {line}", self.layout.unit(node));
            }
        }
    }

    /// Token conservation at quiescence: every touched block holds
    /// exactly `T` tokens and exactly one owner token across all caches
    /// and its home memory controller (§3.1's safety invariant, checked
    /// globally).
    ///
    /// Under a token-lossy fault plan the invariant is *conservation per
    /// recreation epoch*: held tokens plus tokens the interconnect
    /// recorded as destroyed **under the block's current serial** must
    /// equal `T` (tokens lost under superseded serials were reminted
    /// wholesale by a recreation and do not count). A recreation can
    /// never be mid-flight here — its pending ack or drain wake would
    /// have kept the kernel from going idle — and that is asserted too.
    fn audit(&self, faults: Option<&FaultHandle>) {
        let mut tokens: HashMap<Block, (u32, u32)> = HashMap::new();
        let mut fold = |census: &mut dyn Iterator<Item = (Block, u32, bool)>| {
            for (b, t, o) in census {
                let e = tokens.entry(b).or_insert((0, 0));
                e.0 += t;
                e.1 += o as u32;
            }
        };
        self.l1s.iter().for_each(|l1| fold(&mut l1.token_lines()));
        self.l2s.iter().for_each(|l2| fold(&mut l2.token_lines()));
        for (c, m) in self.layout.cmp_ids().zip(&self.mems) {
            assert!(
                !m.recreation_in_progress(),
                "kernel idle with a token recreation in progress at {c:?}"
            );
            fold(&mut m.explicit_lines());
        }
        for (b, (mut t, mut o)) in tokens {
            if let Some(h) = faults {
                let home = &self.mems[self.cfg.home_of(b).0 as usize];
                let lost = h.borrow().lost(b.0, home.serial_of(b));
                t += lost.count;
                o += lost.owners;
            }
            assert_eq!(
                t, self.cfg.tokens_per_block,
                "token conservation violated for {b:?}: {t} tokens"
            );
            assert_eq!(o, 1, "owner token count for {b:?} is {o}");
        }
    }

    /// Token dispersion, persistent pressure, starvation age, cache
    /// occupancy and recreation activity; miss, retry and persistent
    /// totals.
    fn sample(&self, at: Time, ages: &mut StarvationAges, reading: &mut Reading) {
        let Reading { gauges, totals } = reading;
        // Token dispersion: per touched block, how many caches hold
        // tokens and where the owner token sits relative to the block's
        // home chip. `(holders, owner_cmp)` per block; owner at memory
        // is tracked separately.
        let mut disp: BTreeMap<u64, (u64, Option<u16>)> = BTreeMap::new();
        // The walk allocates nothing: the sampler visits every cache
        // every sample.
        let mut fold = |census: &mut dyn Iterator<Item = (Block, u32, bool)>, cmp: CmpId| -> u64 {
            let mut lines = 0u64;
            for (b, t, o) in census {
                lines += 1;
                if t == 0 && !o {
                    continue;
                }
                let e = disp.entry(b.0).or_insert((0, None));
                e.0 += 1;
                if o {
                    e.1 = Some(cmp.0);
                }
            }
            lines
        };
        let mut l1_lines = 0u64;
        for (node, l1) in self.l1s_by_proc() {
            l1_lines += fold(&mut l1.token_lines(), self.layout.placement(node).cmp());
        }
        let banks = self.layout.banks_per_cmp as usize;
        let mut l2_lines = 0u64;
        for (i, l2) in self.l2s.iter().enumerate() {
            l2_lines += fold(&mut l2.token_lines(), CmpId((i / banks) as u16));
        }
        gauges.insert(keys::OCC_L1_LINES.into(), l1_lines);
        gauges.insert(keys::OCC_L2_LINES.into(), l2_lines);
        gauges.insert(keys::TOKEN_BLOCKS.into(), disp.len() as u64);
        let holders = disp.values().map(|&(h, _)| h);
        gauges.insert(keys::TOKEN_HOLDERS_SUM.into(), holders.clone().sum());
        gauges.insert(keys::TOKEN_HOLDERS_MAX.into(), holders.max().unwrap_or(0));
        let (mut intra, mut inter) = (0u64, 0u64);
        for (&block, &(_, owner_cmp)) in &disp {
            if let Some(cmp) = owner_cmp {
                if self.cfg.home_of(Block(block)).0 == cmp {
                    intra += 1;
                } else {
                    inter += 1;
                }
            }
        }
        gauges.insert(keys::TOKEN_OWNER_INTRA.into(), intra);
        gauges.insert(keys::TOKEN_OWNER_INTER.into(), inter);

        // Persistent pressure, recreation activity, and memory-held
        // owners. Every node keeps a distributed table view; the
        // memory controllers' copies are representative — take the
        // largest view (transient skew only reflects in-flight
        // activations/deactivations).
        let (mut dist_max, mut arb, mut owners_at_mem) = (0u64, 0u64, 0u64);
        let (mut recreate_active, mut recreate_done, mut serial_sum) = (0u64, 0u64, 0u64);
        let mut active: BTreeSet<(u64, u16)> = BTreeSet::new();
        for m in &self.mems {
            let ps = m.persistent();
            let book = ps.book();
            dist_max = dist_max.max(book.len(ps.node()) as u64);
            arb += ps.arb.len() as u64;
            arb += m.arbiter().queued() as u64;
            for (p, b) in book.entries(ps.node()) {
                active.insert((b.0, p.0));
            }
            if let Some((b, req, _)) = m.arbiter().current() {
                active.insert((b.0, req.proc.0));
            }
            owners_at_mem += m.explicit_lines().filter(|&(_, _, o)| o).count() as u64;
            recreate_active += m.recreations_active() as u64;
            recreate_done += m.stats.recreations;
            serial_sum += m.serial_sum();
        }
        gauges.insert(keys::PERSISTENT_OCCUPANCY.into(), dist_max + arb);
        gauges.insert(keys::PERSISTENT_MAX_AGE_PS.into(), ages.update(at, &active));
        // Untouched blocks implicitly keep their owner at the home
        // controller; this gauge counts only *touched* blocks whose
        // owner token returned to (or stayed at) memory.
        gauges.insert(keys::TOKEN_OWNER_AT_MEM.into(), owners_at_mem);
        gauges.insert(keys::RECREATE_ACTIVE.into(), recreate_active);
        gauges.insert(keys::RECREATE_COMPLETED.into(), recreate_done);
        gauges.insert(keys::RECREATE_SERIAL_SUM.into(), serial_sum);

        totals.insert("misses", total(&self.l1s, |c| c.stats.misses));
        totals.insert("retries", total(&self.l1s, |c| c.stats.retries));
        totals.insert(
            "persistent",
            total(&self.l1s, |c| c.stats.persistent_issued),
        );
    }

    fn harvest(&self, counters: &mut Stats) {
        let l1 = |counter: fn(&TokenL1) -> u64| total(&self.l1s, counter);
        counters.add("l1.hits", l1(|c| c.stats.hits));
        counters.add("l1.misses", l1(|c| c.stats.misses));
        counters.add("l1.transient", l1(|c| c.stats.transient_issued));
        counters.add("l1.retries", l1(|c| c.stats.retries));
        counters.add("l1.persistent", l1(|c| c.stats.persistent_issued));
        counters.add("l1.persistent_reads", l1(|c| c.stats.persistent_reads));
        counters.add("l1.pred_shortcuts", l1(|c| c.stats.predictor_shortcuts));
        let recreation_requests = l1(|c| c.stats.recreation_requests);
        if recreation_requests > 0 {
            counters.add("l1.recreation_requests", recreation_requests);
        }
        let mut lat = LatencyBreakdown::new();
        self.l1s.iter().for_each(|c| lat.merge(&c.stats.lat));
        counters.add("l1.miss_latency_ps_sum", lat.total().sum() as u64);
        lat.export_into(counters);
        let l2 = |counter: fn(&TokenL2) -> u64| total(&self.l2s, counter);
        counters.add("l2.local_requests", l2(|c| c.stats.local_requests));
        counters.add(
            "l2.external_broadcasts",
            l2(|c| c.stats.external_broadcasts),
        );
        counters.add("l2.external_requests", l2(|c| c.stats.external_requests));
        counters.add("l2.filtered", l2(|c| c.stats.filtered));
        counters.add("l2.fanout", l2(|c| c.stats.forwarded_to_l1));
        let mem = |counter: fn(&TokenMem) -> u64| total(&self.mems, counter);
        counters.add("mem.data_responses", mem(|c| c.stats.data_responses));
        counters.add("mem.writebacks", mem(|c| c.stats.writebacks));
        counters.add("mem.arb_activations", mem(|c| c.stats.arb_activations));
        let recreations = mem(|c| c.stats.recreations);
        if recreations > 0 {
            counters.add("mem.recreations", recreations);
        }
    }
}
