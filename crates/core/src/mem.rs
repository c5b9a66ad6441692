//! The TokenCMP memory controller.
//!
//! Memory is the default token holder: a block's home controller starts
//! with all `T` tokens. Memory's data is valid exactly when it holds the
//! owner token (dirty writebacks travel with the owner token and update
//! it). The controller also hosts the arbiter for the original
//! arbiter-based persistent request scheme (§3.2).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use tokencmp_proto::{Block, CmpId, Layout, SystemConfig};
use tokencmp_sim::{Component, Ctx, Dur, NodeId};
use tokencmp_trace::{TraceEvent, TraceHandle};

use crate::common::{persistent_grant, storage_grant, GrantRules, PersistentState, TokenLine};
use crate::msg::{ReqKind, TokenBundle, TokenMsg};
use crate::persistent::{ActiveReq, Arbiter, PersistentBook};
use crate::recovery::RecoveryParams;

/// Counters exposed by a memory controller after a run.
#[derive(Clone, Debug, Default)]
pub struct MemStats {
    /// Requests answered with data (DRAM reads).
    pub data_responses: u64,
    /// Requests answered with tokens only.
    pub token_responses: u64,
    /// Writebacks absorbed.
    pub writebacks: u64,
    /// Arbiter activations broadcast.
    pub arb_activations: u64,
    /// Token recreations completed as this home's token authority (§15).
    pub recreations: u64,
    /// Dirty-owner data bundles salvaged from stale serials.
    pub stale_data_salvaged: u64,
}

/// An in-flight token recreation at this home controller.
#[derive(Clone, Copy, Debug)]
struct Recreation {
    /// The serial the block's tokens are being reminted under.
    serial: u32,
    /// Recreation acks still outstanding.
    awaiting: u32,
}

/// Memory-side token state for one block. Unlike a cache line, memory may
/// legitimately hold zero tokens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemLine {
    /// Tokens held (possibly zero).
    pub tokens: u32,
    /// True if the owner token is held (memory data is then valid).
    pub owner: bool,
}

/// A TokenCMP memory controller (one per chip; home for an address slice).
pub struct TokenMem {
    cfg: Rc<SystemConfig>,
    layout: Layout,
    me: NodeId,
    cmp: CmpId,
    rules: GrantRules,
    /// Explicit token state; absent blocks implicitly hold all `T` tokens.
    blocks: HashMap<Block, MemLine>,
    persistent: PersistentState,
    arbiter: Arbiter,
    /// Current recreation serial per home block (absent ⇒ 0; the map
    /// stays empty on lossless runs).
    serials: HashMap<Block, u32>,
    /// Recreations in progress (two-phase: inval/ack barrier, then a
    /// drain window, then the remint).
    recreating: HashMap<Block, Recreation>,
    /// Token-loss recovery policy (the drain window); `None` on runs
    /// whose fault plan cannot drop tokens.
    recovery: Option<RecoveryParams>,
    trace: Option<TraceHandle>,
    /// Run statistics.
    pub stats: MemStats,
}

impl TokenMem {
    /// Creates the memory controller for chip `cmp`, whose distributed
    /// persistent-request table lives in the run's shared `book`.
    pub fn new(
        cfg: Rc<SystemConfig>,
        me: NodeId,
        cmp: CmpId,
        book: Rc<RefCell<PersistentBook>>,
    ) -> TokenMem {
        let layout = cfg.layout();
        let rules = GrantRules {
            total_tokens: cfg.tokens_per_block,
            caches_per_cmp: 2 * cfg.procs_per_cmp as u32 + cfg.banks_per_cmp as u32,
            migratory: cfg.migratory_sharing,
        };
        TokenMem {
            persistent: PersistentState::new(me, book),
            blocks: HashMap::new(),
            arbiter: Arbiter::new(),
            serials: HashMap::new(),
            recreating: HashMap::new(),
            recovery: None,
            layout,
            me,
            cmp,
            rules,
            cfg,
            trace: None,
            stats: MemStats::default(),
        }
    }

    /// Installs the run's trace sink, if any (none ⇒ zero tracing work).
    pub fn set_trace(&mut self, trace: Option<&TraceHandle>) {
        self.trace = trace.cloned();
    }

    /// Arms this controller as a token-recreation authority (§15). The
    /// system layer passes `Some` only when the fault plan can drop
    /// token-carrying messages.
    pub fn set_recovery(&mut self, params: Option<RecoveryParams>) {
        self.recovery = params;
    }

    /// The current recreation serial for `block` (0 unless this home has
    /// recreated the block's tokens), for epoch-aware conservation audits.
    pub fn serial_of(&self, block: Block) -> u32 {
        self.serials.get(&block).copied().unwrap_or(0)
    }

    /// True while a recreation for `block` is between its inval broadcast
    /// and its remint (quiescence audits must not run mid-recreation).
    pub fn recreation_in_progress(&self) -> bool {
        !self.recreating.is_empty()
    }

    /// Token state for `block`. Untouched blocks implicitly hold all `T`
    /// tokens at their *home* controller and none anywhere else.
    pub fn line(&self, block: Block) -> MemLine {
        self.blocks.get(&block).copied().unwrap_or_else(|| {
            if self.cfg.home_of(block) == self.cmp {
                MemLine {
                    tokens: self.cfg.tokens_per_block,
                    owner: true,
                }
            } else {
                MemLine {
                    tokens: 0,
                    owner: false,
                }
            }
        })
    }

    /// The persistent-request tables kept at this controller, read by
    /// the telemetry sampler for occupancy and starvation-age gauges.
    pub fn persistent(&self) -> &PersistentState {
        &self.persistent
    }

    /// The home arbiter (arbiter-based activation state), read by the
    /// telemetry sampler alongside [`persistent`](TokenMem::persistent).
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// Recreations currently between inval broadcast and remint.
    pub fn recreations_active(&self) -> usize {
        self.recreating.len()
    }

    /// Sum of per-block recreation serials — a monotone measure of how
    /// much token-recreation churn this home has performed.
    pub fn serial_sum(&self) -> u64 {
        self.serials.values().map(|&s| s as u64).sum()
    }

    /// Blocks with explicit (non-default) state, as `(block, tokens,
    /// owner)`: read by the conservation audit and the telemetry sampler.
    pub fn explicit_lines(&self) -> impl Iterator<Item = (Block, u32, bool)> + '_ {
        self.blocks.iter().map(|(&b, l)| (b, l.tokens, l.owner))
    }

    fn store(&mut self, block: Block, line: MemLine) {
        if line.tokens == self.cfg.tokens_per_block && line.owner {
            // Back to the default state: no need for an explicit entry,
            // but keep it so audits can see the block was touched.
            self.blocks.insert(block, line);
        } else {
            self.blocks.insert(block, line);
        }
    }

    fn respond(
        &mut self,
        ctx: &mut Ctx<'_, TokenMsg>,
        dst: NodeId,
        block: Block,
        bundle: TokenBundle,
    ) {
        let delay = if bundle.data {
            self.stats.data_responses += 1;
            self.cfg.memctl_latency + self.cfg.dram_latency
        } else {
            self.stats.token_responses += 1;
            self.cfg.memctl_latency
        };
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
                writeback: false,
            },
        );
    }

    fn grant_with<F>(&mut self, block: Block, f: F) -> Option<TokenBundle>
    where
        F: FnOnce(&mut TokenLine, bool) -> Option<TokenBundle>,
    {
        let ml = self.line(block);
        if ml.tokens == 0 {
            return None;
        }
        let mut line = TokenLine {
            tokens: ml.tokens,
            owner: ml.owner,
            dirty: false,
            written: false,
        };
        let grant = f(&mut line, ml.owner);
        if grant.is_some() {
            self.store(
                block,
                MemLine {
                    tokens: line.tokens,
                    owner: line.owner,
                },
            );
        }
        grant
    }

    fn try_forward(&mut self, block: Block, ctx: &mut Ctx<'_, TokenMsg>) {
        let Some(req) = self.persistent.active_for(block) else {
            return;
        };
        if let Some(bundle) =
            self.grant_with(block, |line, valid| persistent_grant(line, req.kind, valid))
        {
            self.respond(ctx, req.requester, block, bundle);
        }
    }

    fn handle_transient(
        &mut self,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        // Tokens are reserved while a persistent request is active.
        if self.persistent.active_for(block).is_some() {
            return;
        }
        let rules = self.rules;
        if let Some(bundle) = self.grant_with(block, |line, valid| {
            storage_grant(line, kind, &rules, valid)
        }) {
            self.respond(ctx, requester, block, bundle);
        }
    }

    fn fold_tokens(
        &mut self,
        block: Block,
        bundle: TokenBundle,
        serial: u32,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        let current = self.serial_of(block);
        if serial < current {
            // Stale tokens from before a recreation this home performed:
            // destroy them (the full set was or will be reminted). We are
            // the block's home, so a stale dirty owner salvages its data
            // right here.
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
                self.stats.stale_data_salvaged += 1;
            }
            return;
        }
        debug_assert!(
            serial == current,
            "tokens under a serial this authority never minted"
        );
        debug_assert!(
            !self.recreating.contains_key(&block),
            "current-serial tokens cannot exist before the remint"
        );
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
        self.stats.writebacks += 1;
        let mut ml = self.line(block);
        ml.tokens += bundle.count;
        if bundle.owner {
            ml.owner = true; // dirty data updates memory on arrival
        }
        debug_assert!(ml.tokens <= self.cfg.tokens_per_block, "token inflation");
        self.store(block, ml);
        self.try_forward(block, ctx);
    }

    fn broadcast_arb(&mut self, msg: TokenMsg, ctx: &mut Ctx<'_, TokenMsg>) {
        let others = self.layout.all_coherence_nodes();
        ctx.send_all_after(
            self.cfg.memctl_latency,
            others.filter(|&n| n != self.me),
            msg,
        );
        // Apply to our own table as well.
        if let Some(block) = self.persistent.apply(&msg) {
            if let Some(t) = &self.trace {
                if let Some(ev) = crate::common::table_apply_event(&msg, self.me) {
                    t.borrow_mut().record(ctx.now, ev);
                }
            }
            self.try_forward(block, ctx);
        }
    }

    fn handle_arb_request(
        &mut self,
        block: Block,
        req: ActiveReq,
        epoch: u64,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        debug_assert_eq!(
            self.cfg.home_of(block),
            self.cmp,
            "arbiter request routed to the wrong home"
        );
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::ArbRequest {
                    block,
                    proc: req.proc,
                },
            );
        }
        if let Some((b, r, e)) = self.arbiter.enqueue(block, req, epoch) {
            self.stats.arb_activations += 1;
            self.broadcast_arb(
                TokenMsg::ArbActivate {
                    block: b,
                    proc: r.proc,
                    requester: r.requester,
                    kind: r.kind,
                    epoch: e,
                },
                ctx,
            );
        }
    }

    fn handle_arb_deactivate_request(
        &mut self,
        block: Block,
        proc: tokencmp_proto::ProcId,
        epoch: u64,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        // Broadcast the deactivation of the completed request, then
        // activate the next one (the indirection the paper's Figure 2
        // shows hurting under contention). A request satisfied before
        // activation is withdrawn from the queue instead.
        if let Some(t) = &self.trace {
            t.borrow_mut()
                .record(ctx.now, TraceEvent::ArbDone { block, proc });
        }
        let next = self.arbiter.complete(block, proc, epoch);
        self.broadcast_arb(TokenMsg::ArbDeactivate { block, proc, epoch }, ctx);
        if let Some((b, r, e)) = next {
            self.stats.arb_activations += 1;
            self.broadcast_arb(
                TokenMsg::ArbActivate {
                    block: b,
                    proc: r.proc,
                    requester: r.requester,
                    kind: r.kind,
                    epoch: e,
                },
                ctx,
            );
        }
    }

    /// Phase one of a token recreation (§15): a starving cache believes
    /// `block`'s tokens were lost. Bump the recreation serial, destroy
    /// our own holdings, and broadcast a reliable invalidate; the remint
    /// waits for every ack plus a drain window (phase two, [`Self::on_wake`]).
    fn handle_recreate_request(&mut self, block: Block, serial: u32, ctx: &mut Ctx<'_, TokenMsg>) {
        debug_assert_eq!(
            self.cfg.home_of(block),
            self.cmp,
            "recreation request routed to the wrong home"
        );
        if self.recreating.contains_key(&block) {
            return; // one recreation at a time; the remint will serve them
        }
        let current = self.serial_of(block);
        if serial < current {
            // The requester escalated before learning of a recreation we
            // already performed; its backoff retry (if still starving)
            // will carry the updated serial.
            return;
        }
        debug_assert!(serial == current, "requester ahead of the authority");
        let new_serial = current + 1;
        self.serials.insert(block, new_serial);
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::RecreationStart {
                    block,
                    serial: new_serial,
                },
            );
        }
        // Our own holdings are old-serial too: destroy them now (the
        // remint restores the full set, and memory's data stays ours).
        let ml = self.line(block);
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::EpochInval {
                    node: self.me,
                    block,
                    serial: new_serial,
                    discarded: ml.tokens,
                    owner: ml.owner,
                },
            );
        }
        self.store(
            block,
            MemLine {
                tokens: 0,
                owner: false,
            },
        );
        let msg = TokenMsg::RecreateInval {
            block,
            serial: new_serial,
        };
        let me = self.me;
        let others = self.layout.all_coherence_nodes().filter(move |&n| n != me);
        let awaiting = others.clone().count() as u32;
        ctx.send_all_after(self.cfg.memctl_latency, others, msg);
        self.recreating.insert(
            block,
            Recreation {
                serial: new_serial,
                awaiting,
            },
        );
    }

    /// A coherence node acked the invalidate: it has adopted the new
    /// serial and will discard any old-serial tokens at receipt. Once all
    /// acks are in, wait out the drain window before reminting.
    fn handle_recreate_ack(
        &mut self,
        block: Block,
        serial: u32,
        had_dirty_owner: bool,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        let Some(rec) = self.recreating.get_mut(&block) else {
            return;
        };
        if rec.serial != serial {
            return;
        }
        // A `had_dirty_owner` ack travels alongside a StaleDataReturn,
        // which is where the salvage is counted.
        let _ = had_dirty_owner;
        rec.awaiting -= 1;
        if rec.awaiting == 0 {
            let drain = self.recovery.map(|r| r.drain).unwrap_or(Dur::ZERO);
            debug_assert!(block.0 < u64::MAX, "block id fits the wake tag");
            ctx.wake_in(drain, block.0);
        }
    }

    /// A recreation invalidate from another home's recreation. This
    /// controller holds no tokens for foreign blocks; just ack so the
    /// initiating authority's barrier completes.
    fn handle_recreate_inval(
        &mut self,
        src: NodeId,
        block: Block,
        serial: u32,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        debug_assert_ne!(
            self.cfg.home_of(block),
            self.cmp,
            "a home never invalidates itself over the network"
        );
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::EpochInval {
                    node: self.me,
                    block,
                    serial,
                    discarded: 0,
                    owner: false,
                },
            );
        }
        ctx.send(
            src,
            TokenMsg::RecreateAck {
                block,
                serial,
                had_dirty_owner: false,
            },
        );
    }
}

impl Component<TokenMsg> for TokenMem {
    fn on_msg(&mut self, src: NodeId, msg: TokenMsg, ctx: &mut Ctx<'_, TokenMsg>) {
        match msg {
            TokenMsg::Transient {
                block,
                requester,
                kind,
                ..
            } => self.handle_transient(block, requester, kind, ctx),
            TokenMsg::Tokens {
                block,
                bundle,
                serial,
                ..
            } => self.fold_tokens(block, bundle, serial, ctx),
            TokenMsg::ArbRequest {
                block,
                proc,
                requester,
                kind,
                epoch,
            } => self.handle_arb_request(
                block,
                ActiveReq {
                    proc,
                    requester,
                    kind,
                },
                epoch,
                ctx,
            ),
            TokenMsg::ArbDeactivateRequest { block, proc, epoch } => {
                self.handle_arb_deactivate_request(block, proc, epoch, ctx)
            }
            TokenMsg::PersistentActivate { .. }
            | TokenMsg::PersistentDeactivate { .. }
            | TokenMsg::ArbActivate { .. }
            | TokenMsg::ArbDeactivate { .. } => {
                if let Some(block) = self.persistent.apply(&msg) {
                    if let Some(t) = &self.trace {
                        if let Some(ev) = crate::common::table_apply_event(&msg, self.me) {
                            t.borrow_mut().record(ctx.now, ev);
                        }
                    }
                    self.try_forward(block, ctx);
                }
            }
            TokenMsg::RecreateRequest { block, serial, .. } => {
                self.handle_recreate_request(block, serial, ctx)
            }
            TokenMsg::RecreateAck {
                block,
                serial,
                had_dirty_owner,
            } => self.handle_recreate_ack(block, serial, had_dirty_owner, ctx),
            TokenMsg::RecreateInval { block, serial } => {
                self.handle_recreate_inval(src, block, serial, ctx)
            }
            TokenMsg::StaleDataReturn { .. } => {
                // The salvaged dirty data lands in memory; in this
                // data-less model that is pure accounting.
                self.stats.stale_data_salvaged += 1;
            }
            TokenMsg::Cpu(_) | TokenMsg::CpuResp(_) => {
                unreachable!("memory controllers have no processor port")
            }
        }
    }

    fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, TokenMsg>) {
        // The only wake a memory controller schedules is a recreation
        // drain expiry; the tag is the block number. Remint the full
        // token set under the new serial and serve the starving request.
        let block = Block(tag);
        let Some(rec) = self.recreating.remove(&block) else {
            unreachable!("drain wake without a recreation in progress");
        };
        self.store(
            block,
            MemLine {
                tokens: self.cfg.tokens_per_block,
                owner: true,
            },
        );
        self.stats.recreations += 1;
        if let Some(t) = &self.trace {
            t.borrow_mut().record(
                ctx.now,
                TraceEvent::RecreationDone {
                    block,
                    serial: rec.serial,
                },
            );
        }
        self.try_forward(block, ctx);
    }

    fn kind(&self) -> &'static str {
        "mem"
    }
}

impl std::fmt::Debug for TokenMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenMem")
            .field("me", &self.me)
            .field("cmp", &self.cmp)
            .field("explicit_blocks", &self.blocks.len())
            .finish()
    }
}
