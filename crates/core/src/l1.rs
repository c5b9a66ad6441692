//! The TokenCMP L1 cache controller (data or instruction).
//!
//! On a processor miss the L1 broadcasts a transient request within its
//! chip (§4); tokens arrive asynchronously and the miss completes the
//! moment enough are held (one for reads, all `T` for writes). Timeouts
//! retry or escalate to a persistent request, per the variant's policy
//! (Table 1). The controller also answers other caches' transient
//! requests, remembers persistent requests, honors the bounded
//! response-delay window, and implements the spin-watch used by the
//! sequencer to model test-and-test-and-set loops.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use tokencmp_cache::{InsertOutcome, SetAssoc};
use tokencmp_proto::Block;
use tokencmp_proto::{AccessKind, CpuReq, CpuResp, Layout, ProcId, SystemConfig, Unit};
use tokencmp_sim::{Component, Ctx, Dur, Ewma, NodeId, Rng, Time};
use tokencmp_trace::{LatencyBreakdown, Segment, SegmentParts, TraceEvent, TraceHandle};

use crate::common::{persistent_grant, transient_grant, GrantRules, PersistentState, TokenLine};
use crate::msg::{ReqKind, TokenBundle, TokenMsg};
use crate::persistent::PersistentBook;
use crate::policy::{Activation, ContentionPredictor, Variant};
use crate::recovery::{backoff_delay, RecoveryParams};

/// Wake-tag bit marking a response-delay (lock) expiry; low bits carry the
/// block number.
const TAG_LOCK: u64 = 1 << 63;

/// Wake-tag bit marking a token-recreation timeout; low bits carry the
/// MSHR epoch (as for transient timeouts), so a completed miss's bumped
/// epoch invalidates its outstanding recreation timers too.
const TAG_RECREATE: u64 = 1 << 62;

/// Counters exposed by an L1 controller after a run.
#[derive(Clone, Debug, Default)]
pub struct L1Stats {
    /// Processor accesses satisfied without leaving the L1.
    pub hits: u64,
    /// Processor accesses that missed.
    pub misses: u64,
    /// Transient requests issued (including retries).
    pub transient_issued: u64,
    /// Transient-request timeouts that led to a retry.
    pub retries: u64,
    /// Persistent requests issued.
    pub persistent_issued: u64,
    /// Persistent requests that were persistent *reads*.
    pub persistent_reads: u64,
    /// Misses sent straight to a persistent request by the predictor.
    pub predictor_shortcuts: u64,
    /// Token-recreation requests sent to the home memory (token loss
    /// recovery, §15). Always zero on lossless runs.
    pub recreation_requests: u64,
    /// Miss latency distribution with per-tier attribution (picoseconds).
    pub lat: LatencyBreakdown,
}

#[derive(Debug)]
struct Mshr {
    block: Block,
    access: AccessKind,
    kind: ReqKind,
    attempts: u32,
    started: Time,
    last_issue: Time,
    persistent: bool,
    /// When the miss escalated to a persistent request (attribution).
    escalated_at: Option<Time>,
    /// The tier that supplied the most recent tokens for this miss — the
    /// winning supplier once the miss completes (attribution).
    supplier: Segment,
    epoch: u64,
    /// Recreation requests issued for this miss (backoff schedule index).
    recovery_attempts: u32,
    /// When the first recreation request was sent (attribution).
    recovery_at: Option<Time>,
}

/// A TokenCMP L1 cache controller.
pub struct TokenL1 {
    cfg: Rc<SystemConfig>,
    layout: Layout,
    me: NodeId,
    proc: ProcId,
    proc_node: NodeId,
    variant: Variant,
    rules: GrantRules,
    lines: SetAssoc<TokenLine>,
    mshr: Option<Mshr>,
    watch: Option<Block>,
    persistent: PersistentState,
    /// A persistent request held back by the wave-marking rule.
    pending_persistent: Option<(Block, ReqKind)>,
    /// Response-delay windows: blocks we will not surrender until the time.
    locks: HashMap<Block, Time>,
    /// Requests deferred by a response-delay window.
    deferred: Vec<TokenMsg>,
    mem_ewma: Ewma,
    rng: Rng,
    predictor: Option<ContentionPredictor>,
    /// Destination-set predictor (`dst1-dsp`): the chip that last
    /// supplied tokens for a block.
    dest_pred: HashMap<Block, tokencmp_proto::CmpId>,
    epoch: u64,
    /// Per-block recreation serials, as last announced by each block's
    /// home memory (the token authority). Absent ⇒ serial 0, so the map
    /// stays empty — and serial handling free — on lossless runs.
    serials: HashMap<Block, u32>,
    /// Token-loss recovery policy; `None` (the default) on runs whose
    /// fault plan cannot drop tokens — no timer is ever armed then.
    recovery: Option<RecoveryParams>,
    /// Persistent-request issue number, shared by the processor's L1-D and
    /// L1-I caches (they issue under one processor identity; epochs
    /// suppress reordered ghosts and must be monotone per processor).
    persistent_epoch: Rc<Cell<u64>>,
    /// The epoch of this cache's own outstanding persistent request.
    my_epoch: u64,
    trace: Option<TraceHandle>,
    /// Run statistics.
    pub stats: L1Stats,
}

impl TokenL1 {
    /// Creates an L1 controller for processor `proc`.
    ///
    /// `me` must be the node id this controller is registered under
    /// (its L1-D or L1-I slot in the layout); its distributed
    /// persistent-request table lives in the run's shared `book`.
    pub fn new(
        cfg: Rc<SystemConfig>,
        me: NodeId,
        proc: ProcId,
        variant: Variant,
        seed: u64,
        persistent_epoch: Rc<Cell<u64>>,
        book: Rc<RefCell<PersistentBook>>,
    ) -> TokenL1 {
        let layout = cfg.layout();
        let rules = GrantRules {
            total_tokens: cfg.tokens_per_block,
            caches_per_cmp: 2 * cfg.procs_per_cmp as u32 + cfg.banks_per_cmp as u32,
            migratory: cfg.migratory_sharing,
        };
        TokenL1 {
            lines: SetAssoc::new(cfg.l1_sets, cfg.l1_ways, 0),
            persistent: PersistentState::new(me, book),
            predictor: variant.uses_predictor().then(ContentionPredictor::new),
            proc_node: layout.proc(proc),
            layout,
            me,
            proc,
            variant,
            rules,
            mshr: None,
            watch: None,
            pending_persistent: None,
            locks: HashMap::new(),
            deferred: Vec::new(),
            mem_ewma: Ewma::new(0.25),
            rng: Rng::new(seed ^ (me.0 as u64) << 32),
            dest_pred: HashMap::new(),
            epoch: 0,
            serials: HashMap::new(),
            recovery: None,
            persistent_epoch,
            my_epoch: 0,
            trace: None,
            cfg,
            stats: L1Stats::default(),
        }
    }

    /// Installs the run's trace sink (no sink ⇒ zero tracing work).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Arms token-loss recovery: once a persistent request has been
    /// outstanding for `params.base`, this cache starts asking the
    /// block's home memory to recreate the tokens. Installed by the
    /// system layer only when the fault plan can drop token-carrying
    /// messages.
    pub fn set_recovery(&mut self, params: RecoveryParams) {
        self.recovery = Some(params);
    }

    /// The recreation serial this cache believes is current for `block`.
    fn serial_of(&self, block: Block) -> u32 {
        self.serials.get(&block).copied().unwrap_or(0)
    }

    /// The tier a token supplier `src` belongs to, seen from this cache.
    fn supplier_tier(&self, src: NodeId) -> Segment {
        if matches!(self.layout.unit(src), Unit::Mem(_)) {
            Segment::Mem
        } else if self.layout.placement(src).cmp() == self.layout.cmp_of_proc(self.proc) {
            Segment::Intra
        } else {
            Segment::Inter
        }
    }

    /// Tokens currently held, per block (for conservation audits).
    pub fn token_census(&self) -> Vec<(Block, u32, bool)> {
        self.token_lines().collect()
    }

    /// Zero-allocation variant of [`token_census`](Self::token_census)
    /// for the telemetry sampler, which visits every cache every sample.
    pub fn token_lines(&self) -> impl Iterator<Item = (Block, u32, bool)> + '_ {
        self.lines.iter().map(|(b, l)| (b, l.tokens, l.owner))
    }

    /// True if this L1 has an outstanding miss.
    pub fn has_outstanding_miss(&self) -> bool {
        self.mshr.is_some()
    }

    /// A one-line description of the outstanding miss (if any) and the
    /// persistent-table entry governing its block, for the stall
    /// watchdog's diagnostic snapshot.
    pub fn pending_snapshot(&self) -> Option<String> {
        let m = self.mshr.as_ref()?;
        let table = match self.persistent.active_for(m.block) {
            Some(a) => format!("persistent table: active {a:?}"),
            None => "persistent table: inactive".to_string(),
        };
        Some(format!(
            "{m:?}; {table}; recreation serial {}",
            self.serial_of(m.block)
        ))
    }

    fn tokens_needed(&self, kind: ReqKind) -> u32 {
        match kind {
            ReqKind::Read => 1,
            ReqKind::Write => self.cfg.tokens_per_block,
        }
    }

    fn locked(&self, block: Block, now: Time) -> bool {
        self.locks.get(&block).is_some_and(|&t| t > now)
    }

    fn lock(&mut self, block: Block, ctx: &mut Ctx<'_, TokenMsg>) {
        if self.cfg.response_delay.is_zero() {
            return;
        }
        let until = ctx.now + self.cfg.response_delay;
        self.locks.insert(block, until);
        debug_assert!(block.0 < TAG_LOCK);
        ctx.wake_at(until, TAG_LOCK | block.0);
    }

    /// Current transient-request timeout threshold, derived from memory
    /// response latencies only (§4), with a conservative default before
    /// the first observation.
    fn timeout_threshold(&self) -> Dur {
        let base = self.mem_ewma.value_or(Dur::from_ns(150).as_ps() as f64);
        Dur::from_ps((base * 1.5) as u64).max(Dur::from_ns(100))
    }

    fn send_tokens(
        &mut self,
        ctx: &mut Ctx<'_, TokenMsg>,
        delay: Dur,
        dst: NodeId,
        block: Block,
        bundle: TokenBundle,
        writeback: bool,
    ) {
        debug_assert!(bundle.count >= 1);
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::TokensMoved {
                    block,
                    from: self.me,
                    to: dst,
                    count: bundle.count,
                    owner: bundle.owner,
                },
            );
        }
        let serial = self.serial_of(block);
        ctx.send_after(
            delay,
            dst,
            TokenMsg::Tokens {
                block,
                bundle,
                serial,
                writeback,
            },
        );
    }

    /// Sends an evicted or unwanted bundle to the local L2 bank for the
    /// block (the natural spill level; the substrate only requires that
    /// tokens are never destroyed).
    fn spill(&mut self, ctx: &mut Ctx<'_, TokenMsg>, block: Block, bundle: TokenBundle) {
        let cmp = self.layout.cmp_of_proc(self.proc);
        let bank = self.cfg.l2_bank_of(block);
        let dst = self.layout.l2(cmp, bank);
        self.send_tokens(ctx, Dur::ZERO, dst, block, bundle, true);
    }

    /// Drops the line if it ran out of tokens; fires the spin-watch.
    fn after_line_change(&mut self, block: Block, ctx: &mut Ctx<'_, TokenMsg>) {
        let empty = self.lines.peek(block).is_some_and(TokenLine::is_empty);
        if empty {
            self.lines.remove(block);
        }
        if !self.lines.contains(block) && self.watch == Some(block) {
            self.watch = None;
            ctx.send(
                self.proc_node,
                TokenMsg::CpuResp(CpuResp::WatchFired { block }),
            );
        }
    }

    /// Forwards tokens to the active persistent request for `block`, if
    /// any and if we hold tokens (deferring inside a response-delay
    /// window).
    fn try_forward(&mut self, block: Block, ctx: &mut Ctx<'_, TokenMsg>) {
        let Some(req) = self.persistent.active_for(block) else {
            return;
        };
        if req.requester == self.me {
            return;
        }
        if self.locked(block, ctx.now) {
            return; // the lock-expiry wake re-runs try_forward
        }
        let Some(line) = self.lines.get_mut(block) else {
            return;
        };
        if let Some(bundle) = persistent_grant(line, req.kind, true) {
            self.send_tokens(ctx, Dur::ZERO, req.requester, block, bundle, false);
            self.after_line_change(block, ctx);
        }
    }

    /// Discards a bundle that arrived under a stale recreation serial
    /// (the authority recreated the block's tokens while this bundle was
    /// in flight). A stale *dirty owner* — which the lossy tier never
    /// drops — salvages its data back to the home memory over reliable
    /// control traffic. Returns true when the bundle was stale.
    fn discard_if_stale(
        &mut self,
        block: Block,
        bundle: TokenBundle,
        serial: u32,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) -> bool {
        let current = self.serial_of(block);
        if serial >= current {
            return false;
        }
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::StaleDiscard {
                    node: self.me,
                    block,
                    count: bundle.count,
                    owner: bundle.owner,
                    serial,
                },
            );
        }
        if bundle.owner && bundle.dirty {
            let home = self.layout.mem(self.cfg.home_of(block));
            ctx.send(home, TokenMsg::StaleDataReturn { block, serial });
        }
        true
    }

    fn fold_tokens(
        &mut self,
        src: NodeId,
        block: Block,
        bundle: TokenBundle,
        serial: u32,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        if self.discard_if_stale(block, bundle, serial, ctx) {
            return;
        }
        if serial > self.serial_of(block) {
            // Tokens minted under a recreation we have already acked;
            // the ack barrier guarantees the inval preceded them.
            self.serials.insert(block, serial);
        }
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::TokensDelivered {
                    block,
                    node: self.me,
                    count: bundle.count,
                    owner: bundle.owner,
                },
            );
        }
        let wanted =
            self.mshr.as_ref().is_some_and(|m| m.block == block) || self.lines.contains(block);
        if !wanted {
            // Unsolicited tokens for a block we neither cache nor want:
            // hand them straight to an active persistent request ("forward
            // all tokens — those present and received in the future",
            // §3.2), else pass them to the L2 so they are never lost.
            if let Some(req) = self.persistent.active_for(block) {
                if req.requester != self.me {
                    let requester = req.requester;
                    self.send_tokens(ctx, Dur::ZERO, requester, block, bundle, false);
                    return;
                }
            }
            self.spill(ctx, block, bundle);
            return;
        }
        if let Some(line) = self.lines.get_mut(block) {
            line.fold(bundle);
        } else {
            if let Some(t) = &self.trace {
                t.borrow_mut().record(
                    ctx.now,
                    TraceEvent::CacheFill {
                        node: self.me,
                        block,
                        state: if bundle.owner { "O" } else { "S" },
                    },
                );
            }
            match self.lines.insert(block, TokenLine::from_bundle(bundle)) {
                InsertOutcome::Evicted(vblock, mut vline) => {
                    let vb = vline.take_all(true);
                    if let Some(t) = &self.trace {
                        t.borrow_mut().record(
                            ctx.now,
                            TraceEvent::CacheEvict {
                                node: self.me,
                                block: vblock,
                                state: if vb.owner { "O" } else { "S" },
                            },
                        );
                    }
                    self.spill(ctx, vblock, vb);
                    self.after_line_change(vblock, ctx);
                }
                InsertOutcome::Inserted | InsertOutcome::Replaced(_) => {}
            }
        }
        if self.variant.uses_destination_prediction() {
            // Learn who supplies this block: a remote cache's chip, or —
            // for memory responses — the home chip (the request reaches
            // the memory controller through its chip's L2 relay).
            let supplier = self.layout.placement(src).cmp();
            if supplier != self.layout.cmp_of_proc(self.proc) {
                self.dest_pred.insert(block, supplier);
            }
        }
        // Timeout threshold learns from memory responses only (§4).
        if matches!(self.layout.unit(src), Unit::Mem(_)) {
            if let Some(m) = &self.mshr {
                if m.block == block {
                    let lat = ctx.now.since(m.last_issue);
                    self.mem_ewma.observe(lat.as_ps() as f64);
                }
            }
        }
        // Attribution: remember which tier the latest tokens came from —
        // if they complete the miss, that tier supplied the winning
        // transfer.
        if self.mshr.as_ref().is_some_and(|m| m.block == block) {
            let seg = self.supplier_tier(src);
            self.mshr.as_mut().unwrap().supplier = seg;
        }
        self.maybe_complete(ctx);
        self.try_forward(block, ctx);
        self.after_line_change(block, ctx);
    }

    fn maybe_complete(&mut self, ctx: &mut Ctx<'_, TokenMsg>) {
        let Some(m) = &self.mshr else {
            return;
        };
        let needed = self.tokens_needed(m.kind);
        let Some(line) = self.lines.peek(m.block) else {
            return;
        };
        if line.tokens < needed {
            return;
        }
        let m = self.mshr.take().unwrap();
        debug_assert!(
            m.kind != ReqKind::Write || self.lines.peek(m.block).unwrap().owner,
            "all tokens must include the owner token"
        );
        // The access happens *now* — the instant the substrate's token
        // guard holds (the later CpuResp::Done is just wire latency).
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::AccessDone {
                    node: self.me,
                    proc: self.proc,
                    block: m.block,
                    kind: m.access,
                },
            );
        }
        if m.kind == ReqKind::Write {
            let line = self.lines.get_mut(m.block).unwrap();
            line.dirty = true;
            line.written = true;
            self.lock(m.block, ctx);
        }
        // Attribution: decompose the miss into the time burned on timed-out
        // attempts (retry), the wait under a persistent request, and the
        // winning transfer, credited to the tier that supplied it.
        let total = ctx.now.since(m.started).as_ps();
        let mut parts = SegmentParts::default();
        if let Some(esc) = m.escalated_at {
            parts.add(Segment::Retry, esc.since(m.started).as_ps());
            if let Some(rec) = m.recovery_at {
                parts.add(Segment::PersistentWait, rec.since(esc).as_ps());
                parts.add(Segment::Recovery, ctx.now.since(rec).as_ps());
            } else {
                parts.add(Segment::PersistentWait, ctx.now.since(esc).as_ps());
            }
        } else if m.attempts > 1 {
            parts.add(Segment::Retry, m.last_issue.since(m.started).as_ps());
            parts.add(m.supplier, ctx.now.since(m.last_issue).as_ps());
        } else {
            parts.add(m.supplier, total);
        }
        self.stats.lat.record(total, parts);
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::MissCommit {
                    proc: self.proc,
                    block: m.block,
                    kind: m.access,
                    total: Dur::from_ps(total),
                    parts,
                },
            );
        }
        ctx.send(
            self.proc_node,
            TokenMsg::CpuResp(CpuResp::Done {
                kind: m.access,
                block: m.block,
            }),
        );
        self.epoch += 1; // invalidate outstanding timeout wakes
        if m.persistent {
            self.finish_persistent(m.block, ctx);
        }
        // Hand off to any remaining persistent requests (after our
        // response-delay window, via try_forward's lock check).
        self.try_forward(m.block, ctx);
    }

    /// Emits a persistent activate/deactivate trace event, if tracing.
    fn emit_persistent(&self, block: Block, activate: bool, now: Time) {
        if let Some(t) = &self.trace {
            let ev = if activate {
                TraceEvent::PersistentActivate {
                    block,
                    proc: self.proc,
                }
            } else {
                TraceEvent::PersistentDeactivate {
                    block,
                    proc: self.proc,
                }
            };
            t.borrow_mut().record(now, ev);
        }
    }

    fn finish_persistent(&mut self, block: Block, ctx: &mut Ctx<'_, TokenMsg>) {
        let epoch = self.my_epoch;
        self.emit_persistent(block, false, ctx.now);
        match self.variant.activation() {
            Activation::Distributed => {
                self.persistent.deactivate(self.proc, epoch);
                // Wave rule: mark every request that was outstanding when
                // ours completed; we may not re-issue for this block until
                // they all drain.
                self.persistent.mark_peers(block);
                let msg = TokenMsg::PersistentDeactivate {
                    block,
                    proc: self.proc,
                    epoch,
                };
                let others = self.layout.all_coherence_nodes();
                ctx.send_all(others.filter(|&n| n != self.me), msg);
            }
            Activation::Arbiter => {
                let home = self.layout.mem(self.cfg.home_of(block));
                ctx.send(
                    home,
                    TokenMsg::ArbDeactivateRequest {
                        block,
                        proc: self.proc,
                        epoch,
                    },
                );
            }
        }
    }

    fn issue_transient(&mut self, ctx: &mut Ctx<'_, TokenMsg>, first: bool) {
        let m = self.mshr.as_mut().expect("transient without mshr");
        m.attempts += 1;
        m.last_issue = ctx.now;
        m.epoch = self.epoch;
        let (block, kind, epoch, attempts) = (m.block, m.kind, m.epoch, m.attempts);
        self.stats.transient_issued += 1;
        let issue_delay = if first {
            self.cfg.l1_latency
        } else {
            Dur::ZERO
        };
        // Destination-set prediction: only the *first* attempt is
        // narrowed; retries broadcast fully (the substrate guarantees
        // correctness regardless of who the request reaches).
        let hint = if self.variant.uses_destination_prediction() && attempts == 1 {
            self.dest_pred.get(&block).copied()
        } else {
            None
        };
        let req = TokenMsg::Transient {
            block,
            requester: self.me,
            kind,
            external: false,
            hint,
        };
        if self.variant.is_flat() {
            // Original TokenB: broadcast directly to every cache in the
            // system plus the block's home memory controller, ignoring
            // the hierarchy (§4 explains why this scales poorly).
            let caches = self.layout.all_caches();
            let home = self.layout.mem(self.cfg.home_of(block));
            let dsts = caches.filter(|&n| n != self.me).chain([home]);
            ctx.send_all_after(issue_delay, dsts, req);
        } else {
            let cmp = self.layout.cmp_of_proc(self.proc);
            let l1s = self.layout.l1s_on(cmp);
            let bank = self.layout.l2(cmp, self.cfg.l2_bank_of(block));
            let dsts = l1s.filter(|&n| n != self.me).chain([bank]);
            ctx.send_all_after(issue_delay, dsts, req);
        }
        // Timeout with pseudo-random backoff to avoid lock-step retries.
        let theta = self.timeout_threshold();
        let jitter = Dur::from_ps(self.rng.below(theta.as_ps() / 4 + 1));
        let delay = issue_delay + theta.times(attempts as u64) + jitter;
        ctx.wake_in(delay, epoch);
    }

    /// Schedules the next token-recreation timeout for the outstanding
    /// miss. A no-op unless the system layer armed recovery for this run
    /// (i.e. the fault plan can actually drop tokens), so lossless runs
    /// schedule no extra wakes and stay bit-identical.
    fn arm_recovery_timer(&mut self, ctx: &mut Ctx<'_, TokenMsg>) {
        let Some(rp) = self.recovery else {
            return;
        };
        let Some(m) = &self.mshr else {
            return;
        };
        debug_assert!(m.epoch < TAG_RECREATE);
        let delay = backoff_delay(rp.base, rp.cap, m.recovery_attempts);
        ctx.wake_in(delay, TAG_RECREATE | m.epoch);
    }

    fn issue_persistent(&mut self, ctx: &mut Ctx<'_, TokenMsg>) {
        let m = self.mshr.as_mut().expect("persistent without mshr");
        let (block, kind) = (m.block, m.kind);
        m.epoch = self.epoch;
        match self.variant.activation() {
            Activation::Distributed => {
                if self.persistent.has_marked(block) {
                    // Wave rule: wait for the previous wave to drain.
                    self.pending_persistent = Some((block, kind));
                    return;
                }
                {
                    let m = self.mshr.as_mut().unwrap();
                    m.persistent = true;
                    m.escalated_at.get_or_insert(ctx.now);
                }
                self.stats.persistent_issued += 1;
                if kind == ReqKind::Read {
                    self.stats.persistent_reads += 1;
                }
                self.emit_persistent(block, true, ctx.now);
                let epoch = self.persistent_epoch.get() + 1;
                self.persistent_epoch.set(epoch);
                self.my_epoch = epoch;
                self.persistent
                    .activate(self.proc, block, self.me, kind, epoch);
                let msg = TokenMsg::PersistentActivate {
                    block,
                    proc: self.proc,
                    requester: self.me,
                    kind,
                    epoch,
                };
                let others = self.layout.all_coherence_nodes();
                ctx.send_all(others.filter(|&n| n != self.me), msg);
                self.arm_recovery_timer(ctx);
                // We may already hold enough tokens (e.g. a racing
                // response arrived just before escalation).
                self.maybe_complete(ctx);
            }
            Activation::Arbiter => {
                {
                    let m = self.mshr.as_mut().unwrap();
                    m.persistent = true;
                    m.escalated_at.get_or_insert(ctx.now);
                }
                self.stats.persistent_issued += 1;
                if kind == ReqKind::Read {
                    self.stats.persistent_reads += 1;
                }
                self.emit_persistent(block, true, ctx.now);
                let epoch = self.persistent_epoch.get() + 1;
                self.persistent_epoch.set(epoch);
                self.my_epoch = epoch;
                let home = self.layout.mem(self.cfg.home_of(block));
                ctx.send(
                    home,
                    TokenMsg::ArbRequest {
                        block,
                        proc: self.proc,
                        requester: self.me,
                        kind,
                        epoch,
                    },
                );
                self.arm_recovery_timer(ctx);
            }
        }
    }

    fn handle_cpu(&mut self, req: CpuReq, ctx: &mut Ctx<'_, TokenMsg>) {
        match req {
            CpuReq::Access { kind, block } => {
                assert!(self.mshr.is_none(), "sequencer issues one op at a time");
                let rkind = if kind.needs_write() {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                let needed = self.tokens_needed(rkind);
                let hit = self.lines.get_mut(block).is_some_and(|line| {
                    if line.tokens >= needed {
                        if rkind == ReqKind::Write {
                            line.dirty = true;
                            line.written = true;
                        }
                        true
                    } else {
                        false
                    }
                });
                if hit {
                    if let Some(t) = &self.trace {
                        t.borrow_mut().record(
                            ctx.now,
                            TraceEvent::AccessDone {
                                node: self.me,
                                proc: self.proc,
                                block,
                                kind,
                            },
                        );
                    }
                    if rkind == ReqKind::Write {
                        self.lock(block, ctx);
                    }
                    self.stats.hits += 1;
                    ctx.send_after(
                        self.cfg.l1_latency,
                        self.proc_node,
                        TokenMsg::CpuResp(CpuResp::Done { kind, block }),
                    );
                    return;
                }
                self.stats.misses += 1;
                self.epoch += 1;
                self.mshr = Some(Mshr {
                    block,
                    access: kind,
                    kind: rkind,
                    attempts: 0,
                    started: ctx.now,
                    last_issue: ctx.now,
                    persistent: false,
                    escalated_at: None,
                    supplier: Segment::Intra,
                    epoch: self.epoch,
                    recovery_attempts: 0,
                    recovery_at: None,
                });
                let predicted_contended = self
                    .predictor
                    .as_ref()
                    .is_some_and(|p| p.predicts_contended(block));
                if self.variant.max_transient() == 0 {
                    self.issue_persistent(ctx);
                } else if predicted_contended {
                    self.stats.predictor_shortcuts += 1;
                    self.issue_persistent(ctx);
                } else {
                    self.issue_transient(ctx, true);
                }
            }
            CpuReq::Watch { block } => {
                if self.lines.contains(block) {
                    self.watch = Some(block);
                } else {
                    ctx.send(
                        self.proc_node,
                        TokenMsg::CpuResp(CpuResp::WatchFired { block }),
                    );
                }
            }
        }
    }

    fn handle_transient(
        &mut self,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        external: bool,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        if requester == self.me {
            return;
        }
        // Persistent requests have absolute priority: while one is active
        // for this block, tokens are reserved for its initiator (otherwise
        // transient readers could siphon tokens off an almost-complete
        // persistent write forever).
        if self.persistent.active_for(block).is_some() {
            return;
        }
        if self.locked(block, ctx.now) {
            self.deferred.push(TokenMsg::Transient {
                block,
                requester,
                kind,
                external,
                hint: None,
            });
            return;
        }
        let Some(line) = self.lines.get_mut(block) else {
            return; // a cache only responds when it has tokens
        };
        if let Some(bundle) = transient_grant(line, kind, external, &self.rules) {
            self.send_tokens(ctx, self.cfg.l1_latency, requester, block, bundle, false);
            self.after_line_change(block, ctx);
        }
    }

    /// Handles a recreation invalidate from `block`'s home memory: adopt
    /// the new serial, destroy any tokens still held under the old one
    /// (salvaging a dirty owner's data back to memory first), and ack.
    /// After the ack this cache can never use old-serial tokens again —
    /// `discard_if_stale` drops them at receipt — which is the safety
    /// barrier the authority's recreation relies on.
    fn handle_recreate_inval(
        &mut self,
        src: NodeId,
        block: Block,
        serial: u32,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        if serial <= self.serial_of(block) {
            // A reordered ghost of an inval we already acked.
            return;
        }
        self.serials.insert(block, serial);
        let (mut discarded, mut owner, mut had_dirty_owner) = (0, false, false);
        if let Some(line) = self.lines.get_mut(block) {
            let b = line.take_all(true);
            discarded = b.count;
            owner = b.owner;
            had_dirty_owner = b.owner && b.dirty;
        }
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::EpochInval {
                    node: self.me,
                    block,
                    serial,
                    discarded,
                    owner,
                },
            );
        }
        if had_dirty_owner {
            ctx.send(src, TokenMsg::StaleDataReturn { block, serial });
        }
        ctx.send(
            src,
            TokenMsg::RecreateAck {
                block,
                serial,
                had_dirty_owner,
            },
        );
        self.after_line_change(block, ctx);
    }

    fn handle_persistent_table(&mut self, msg: &TokenMsg, ctx: &mut Ctx<'_, TokenMsg>) {
        let Some(block) = self.persistent.apply(msg) else {
            return;
        };
        if let Some(t) = &self.trace {
            if let Some(ev) = crate::common::table_apply_event(msg, self.me) {
                t.borrow_mut().record(ctx.now, ev);
            }
        }
        // A held-back persistent request may now be issuable.
        if let TokenMsg::PersistentDeactivate { .. } | TokenMsg::ArbDeactivate { .. } = msg {
            if let Some((pblock, _)) = self.pending_persistent {
                if pblock == block
                    && !self.persistent.has_marked(block)
                    && self.mshr.as_ref().is_some_and(|m| m.block == block)
                {
                    self.pending_persistent = None;
                    self.issue_persistent(ctx);
                }
            }
        }
        self.try_forward(block, ctx);
    }
}

impl Component<TokenMsg> for TokenL1 {
    fn on_msg(&mut self, src: NodeId, msg: TokenMsg, ctx: &mut Ctx<'_, TokenMsg>) {
        match msg {
            TokenMsg::Cpu(req) => self.handle_cpu(req, ctx),
            TokenMsg::Transient {
                block,
                requester,
                kind,
                external,
                ..
            } => self.handle_transient(block, requester, kind, external, ctx),
            TokenMsg::Tokens {
                block,
                bundle,
                serial,
                ..
            } => self.fold_tokens(src, block, bundle, serial, ctx),
            TokenMsg::PersistentActivate { .. }
            | TokenMsg::PersistentDeactivate { .. }
            | TokenMsg::ArbActivate { .. }
            | TokenMsg::ArbDeactivate { .. } => self.handle_persistent_table(&msg, ctx),
            TokenMsg::RecreateInval { block, serial } => {
                self.handle_recreate_inval(src, block, serial, ctx)
            }
            TokenMsg::CpuResp(_) => unreachable!("L1 does not receive CPU responses"),
            TokenMsg::ArbRequest { .. } | TokenMsg::ArbDeactivateRequest { .. } => {
                unreachable!("arbiter messages go to memory controllers")
            }
            TokenMsg::RecreateRequest { .. }
            | TokenMsg::RecreateAck { .. }
            | TokenMsg::StaleDataReturn { .. } => {
                unreachable!("recreation authority traffic goes to memory controllers")
            }
        }
    }

    fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, TokenMsg>) {
        if tag & TAG_LOCK != 0 {
            // Response-delay expiry: release deferred work for the block.
            let block = Block(tag & !TAG_LOCK);
            if self.locked(block, ctx.now) {
                return; // re-locked meanwhile; a later wake is scheduled
            }
            self.locks.remove(&block);
            let deferred = std::mem::take(&mut self.deferred);
            for m in deferred {
                match m {
                    TokenMsg::Transient {
                        block: b,
                        requester,
                        kind,
                        external,
                        ..
                    } if b == block => self.handle_transient(b, requester, kind, external, ctx),
                    other => self.deferred.push(other),
                }
            }
            self.try_forward(block, ctx);
            return;
        }
        if tag & TAG_RECREATE != 0 {
            // Recreation timeout: the persistent request has starved past
            // the recovery window — ask the home memory to recreate the
            // block's tokens, then back off and re-arm.
            let epoch = tag & !TAG_RECREATE;
            let Some(m) = &mut self.mshr else {
                return;
            };
            if m.epoch != epoch || !m.persistent {
                return; // stale timer, or the wave rule still holds us back
            }
            m.recovery_at.get_or_insert(ctx.now);
            m.recovery_attempts += 1;
            let block = m.block;
            let serial = self.serial_of(block);
            self.stats.recreation_requests += 1;
            let home = self.layout.mem(self.cfg.home_of(block));
            ctx.send(
                home,
                TokenMsg::RecreateRequest {
                    block,
                    requester: self.me,
                    serial,
                },
            );
            self.arm_recovery_timer(ctx);
            return;
        }
        // Transient-request timeout.
        let Some(m) = &self.mshr else {
            return;
        };
        if m.epoch != tag || m.persistent {
            return; // stale timeout
        }
        let block = m.block;
        if let Some(p) = &mut self.predictor {
            p.record_timeout(block, &mut self.rng);
        }
        if m.attempts < self.variant.max_transient() {
            self.stats.retries += 1;
            self.issue_transient(ctx, false);
        } else {
            self.issue_persistent(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn kind(&self) -> &'static str {
        "l1"
    }
}

impl std::fmt::Debug for TokenL1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenL1")
            .field("me", &self.me)
            .field("proc", &self.proc)
            .field("variant", &self.variant)
            .field("lines", &self.lines.len())
            .field("mshr", &self.mshr)
            .finish()
    }
}
