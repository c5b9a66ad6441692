//! The TokenCMP shared-L2 bank controller.
//!
//! An L2 bank is just another token holder in the flat substrate, but the
//! hierarchical performance policy (§4) gives it two extra jobs:
//!
//! * On a *local* transient request it cannot satisfy, it re-broadcasts
//!   the request to the same bank on every other chip plus the block's
//!   home memory controller.
//! * On an *external* transient request, it responds per the external
//!   rules and fans the request out to its local L1 caches — optionally
//!   filtered through an approximate directory of L1 sharers
//!   (`TokenCMP-dst1-filt`). Filtering can be approximate because safety
//!   and starvation-freedom come from the substrate; persistent requests
//!   are never filtered (they are broadcast directly to every node).

use std::cell::RefCell;
use std::rc::Rc;

use tokencmp_cache::{InsertOutcome, SetAssoc};
use tokencmp_proto::{Block, CmpId, IdMap, SystemConfig, Unit};
use tokencmp_sim::{Component, Ctx, Dur, NodeId};
use tokencmp_trace::TraceHandle;

use crate::common::{persistent_grant, storage_grant, transient_grant, TokenLine};
use crate::holder::Holder;
use crate::msg::{ReqKind, TokenBundle, TokenMsg};
use crate::persistent::PersistentBook;
use crate::policy::Variant;

/// Counters exposed by an L2 bank after a run.
#[derive(Clone, Debug, Default)]
pub struct L2Stats {
    /// Local transient requests received.
    pub local_requests: u64,
    /// Requests re-broadcast to other chips.
    pub external_broadcasts: u64,
    /// External transient requests received from other chips.
    pub external_requests: u64,
    /// L1 fan-out messages suppressed by the sharer filter.
    pub filtered: u64,
    /// L1 fan-out messages actually forwarded.
    pub forwarded_to_l1: u64,
}

/// A TokenCMP shared-L2 bank.
pub struct TokenL2 {
    holder: Holder,
    cmp: CmpId,
    bank: u16,
    lines: SetAssoc<TokenLine>,
    variant: Variant,
    /// Approximate directory of local L1 sharers (dst1-filt only):
    /// bit `i` set means local L1 `i` (in
    /// [`Layout::l1s_on`](tokencmp_proto::Layout::l1s_on) order) may
    /// hold tokens.
    filter: Option<IdMap<Block, u64>>,
    /// Run statistics.
    pub stats: L2Stats,
}

impl TokenL2 {
    /// Creates an L2 bank controller whose distributed
    /// persistent-request table lives in the run's shared `book`.
    pub fn new(
        cfg: Rc<SystemConfig>,
        me: NodeId,
        cmp: CmpId,
        bank: u16,
        variant: Variant,
        book: Rc<RefCell<PersistentBook>>,
    ) -> TokenL2 {
        // Bank-select bits are below the set-index bits.
        let shift = (cfg.banks_per_cmp as u64)
            .next_power_of_two()
            .trailing_zeros();
        TokenL2 {
            lines: SetAssoc::new(cfg.l2_sets, cfg.l2_ways, shift),
            variant,
            filter: variant.uses_filter().then(|| {
                assert!(
                    2 * cfg.procs_per_cmp as u32 <= 64,
                    "sharer-filter mask holds at most 64 local L1s"
                );
                IdMap::default()
            }),
            holder: Holder::new(cfg, me, book),
            cmp,
            bank,
            stats: L2Stats::default(),
        }
    }

    /// Installs the run's trace sink, if any (none ⇒ zero tracing work).
    pub fn set_trace(&mut self, trace: Option<&TraceHandle>) {
        self.holder.trace = trace.cloned();
    }

    /// Tokens currently held, per block, as `(block, tokens, owner)`:
    /// read by the conservation audit and the telemetry sampler.
    pub fn token_lines(&self) -> impl Iterator<Item = (Block, u32, bool)> + '_ {
        self.lines.iter().map(|(b, l)| (b, l.tokens, l.owner))
    }

    fn mark_sharer(&mut self, block: Block, l1: NodeId) {
        let Some(f) = &mut self.filter else {
            return;
        };
        if let Some(idx) = self.holder.layout.l1_index(self.cmp, l1) {
            *f.entry(block).or_insert(0) |= 1u64 << idx;
        }
    }

    fn clear_sharer(&mut self, block: Block, l1: NodeId) {
        let Some(f) = &mut self.filter else {
            return;
        };
        let Some(idx) = self.holder.layout.l1_index(self.cmp, l1) else {
            return;
        };
        if let Some(mask) = f.get_mut(&block) {
            *mask &= !(1u64 << idx);
            if *mask == 0 {
                f.remove(&block);
            }
        }
    }

    /// Evictions spill to the block's home memory controller.
    fn spill_to_home(&mut self, ctx: &mut Ctx<'_, TokenMsg>, block: Block, bundle: TokenBundle) {
        let home = self.holder.home(block);
        self.holder
            .send_tokens(ctx, Dur::ZERO, home, block, bundle, true);
    }

    fn drop_if_empty(&mut self, block: Block) {
        if self.lines.peek(block).is_some_and(TokenLine::is_empty) {
            self.lines.remove(block);
        }
    }

    /// Forwards tokens to the active persistent request for `block`, if
    /// any and if we hold tokens; the shared book is read only for held
    /// blocks.
    fn try_forward(&mut self, block: Block, ctx: &mut Ctx<'_, TokenMsg>) {
        if !self.lines.contains(block) {
            return;
        }
        let Some(req) = self.holder.persistent.active_for(block) else {
            return;
        };
        debug_assert!(
            req.requester != self.holder.me,
            "L2 never issues persistent requests"
        );
        let Some(line) = self.lines.get_mut(block) else {
            return;
        };
        if let Some(bundle) = persistent_grant(line, req.kind, true) {
            self.holder
                .send_tokens(ctx, Dur::ZERO, req.requester, block, bundle, false);
            self.drop_if_empty(block);
        }
    }

    fn fold_tokens(
        &mut self,
        src: NodeId,
        block: Block,
        bundle: TokenBundle,
        serial: u32,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        if !self.holder.accept(block, bundle, serial, ctx) {
            return;
        }
        // A writeback from a local L1 clears its (approximate) sharer bit.
        if matches!(self.holder.layout.unit(src), Unit::L1D(_) | Unit::L1I(_)) {
            self.clear_sharer(block, src);
        }
        if let Some(line) = self.lines.get_mut(block) {
            line.fold(bundle);
        } else {
            match self.lines.insert(block, TokenLine::from_bundle(bundle)) {
                InsertOutcome::Evicted(vblock, mut vline) => {
                    let vb = vline.take_all(true);
                    self.spill_to_home(ctx, vblock, vb);
                }
                InsertOutcome::Inserted | InsertOutcome::Replaced(_) => {}
            }
        }
        self.try_forward(block, ctx);
    }

    /// A transient request from a *local* L1: answer what we can; if the
    /// request may still be unsatisfied, broadcast it off chip.
    fn handle_local_transient(
        &mut self,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        hint: Option<CmpId>,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        self.stats.local_requests += 1;
        self.mark_sharer(block, requester);
        let mut fully_satisfied = false;
        // Tokens are reserved while a persistent request is active; the
        // book is read only when the line is held (the probe marks it
        // most-recently-used either way).
        let holder = &self.holder;
        let unreserved = |_: &&mut TokenLine| holder.persistent.active_for(block).is_none();
        if let Some(line) = self.lines.get_mut(block).filter(unreserved) {
            let had_all = line.tokens == holder.rules.total_tokens && line.owner;
            let grant = storage_grant(line, kind, &holder.rules, true);
            match kind {
                ReqKind::Read => fully_satisfied = grant.is_some(),
                ReqKind::Write => fully_satisfied = had_all,
            }
            if let Some(bundle) = grant {
                let delay = holder.cfg.l2_latency;
                holder.send_tokens(ctx, delay, requester, block, bundle, false);
                self.drop_if_empty(block);
            }
        }
        if fully_satisfied {
            return;
        }
        if self.variant.is_flat() {
            // TokenB requests already went everywhere; never re-broadcast.
            return;
        }
        // L2 miss (or insufficient tokens): broadcast to the other chips
        // (§4). Memory is reached through its home chip — our own memory
        // link if the block is homed here, else the home chip's L2
        // forwards over its memory link — so a miss costs exactly three
        // inter-CMP request messages, as in the paper's §8 accounting.
        self.stats.external_broadcasts += 1;
        let req = TokenMsg::Transient {
            block,
            requester,
            kind,
            external: true,
            hint: None,
        };
        // Destination-set prediction (dst1-dsp): a predicted owner chip
        // narrows the first attempt to {prediction, home}; the requester's
        // retry broadcasts fully, and safety never depends on who a
        // transient request reaches.
        let layout = &self.holder.layout;
        let home = self.holder.cfg.home_of(block);
        // `[hint, home]` without this chip or a repeat, else every other
        // chip in id order: the order fixes the copies' sequence numbers.
        let (predicted, broadcast) = match hint {
            Some(h) => ([Some(h), Some(home).filter(|&c| c != h)], None),
            None => ([None; 2], Some(layout.cmp_ids())),
        };
        let targets = predicted
            .into_iter()
            .flatten()
            .chain(broadcast.into_iter().flatten());
        let banks = targets
            .filter(|&c| c != self.cmp)
            .map(|c| layout.l2(c, self.bank));
        let mem = (home == self.cmp).then(|| layout.mem(self.cmp));
        ctx.send_all_after(self.holder.cfg.l2_latency, banks.chain(mem), req);
    }

    /// A transient request arriving from another chip: answer per the
    /// external rules and fan out to (possibly filtered) local L1s.
    fn handle_external_transient(
        &mut self,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        self.stats.external_requests += 1;
        let delay = self.holder.cfg.l2_latency;
        let holder = &self.holder;
        let unreserved = |_: &&mut TokenLine| holder.persistent.active_for(block).is_none();
        if let Some(line) = self.lines.get_mut(block).filter(unreserved) {
            if let Some(bundle) = transient_grant(line, kind, true, &holder.rules) {
                holder.send_tokens(ctx, delay, requester, block, bundle, false);
                self.drop_if_empty(block);
            }
        }
        let req = TokenMsg::Transient {
            block,
            requester,
            kind,
            external: true,
            hint: None,
        };
        // The home chip relays external requests to its memory controller
        // over the dedicated memory link, ahead of the local L1s.
        let layout = &self.holder.layout;
        let mem = (self.holder.cfg.home_of(block) == self.cmp).then(|| layout.mem(self.cmp));
        let mask = self
            .filter
            .as_ref()
            .map(|f| f.get(&block).copied().unwrap_or(0));
        let stats = &mut self.stats;
        let l1s = layout.l1s_on(self.cmp).enumerate();
        let wanted = l1s.filter_map(|(idx, l1)| {
            if mask.is_none_or(|m| m & (1u64 << idx) != 0) {
                stats.forwarded_to_l1 += 1;
                Some(l1)
            } else {
                stats.filtered += 1;
                None
            }
        });
        ctx.send_all_after(delay, mem.into_iter().chain(wanted), req);
    }
}

impl Component<TokenMsg> for TokenL2 {
    fn on_msg(&mut self, src: NodeId, msg: TokenMsg, ctx: &mut Ctx<'_, TokenMsg>) {
        match msg {
            TokenMsg::Transient {
                block,
                requester,
                kind,
                external,
                hint,
            } => {
                if external {
                    self.handle_external_transient(block, requester, kind, ctx);
                } else {
                    self.handle_local_transient(block, requester, kind, hint, ctx);
                }
            }
            TokenMsg::Tokens {
                block,
                bundle,
                serial,
                ..
            } => self.fold_tokens(src, block, bundle, serial, ctx),
            TokenMsg::RecreateInval { block, serial } => {
                if self
                    .holder
                    .recreate_inval(src, block, serial, &mut self.lines, ctx)
                {
                    self.drop_if_empty(block);
                }
            }
            TokenMsg::PersistentActivate { .. }
            | TokenMsg::PersistentDeactivate { .. }
            | TokenMsg::ArbActivate { .. }
            | TokenMsg::ArbDeactivate { .. } => {
                if let Some(block) = self.holder.apply_table(&msg, ctx.now) {
                    self.try_forward(block, ctx);
                }
            }
            TokenMsg::Cpu(_) | TokenMsg::CpuResp(_) => {
                unreachable!("L2 banks have no processor port")
            }
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

    fn on_wake(&mut self, _tag: u64, _ctx: &mut Ctx<'_, TokenMsg>) {
        unreachable!("L2 banks schedule no wakeups")
    }

    fn kind(&self) -> &'static str {
        "l2"
    }
}

impl std::fmt::Debug for TokenL2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenL2")
            .field("me", &self.holder.me)
            .field("cmp", &self.cmp)
            .field("bank", &self.bank)
            .field("lines", &self.lines.len())
            .finish()
    }
}
