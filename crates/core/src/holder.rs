//! The token-holder core every TokenCMP controller embeds.
//!
//! The correctness substrate is flat (§3.1): every L1, L2 bank and memory
//! controller holds tokens under the same counting rules, and token-loss
//! recovery (DESIGN.md §15) adds one rule they all share, the recreation
//! serial. A [`Holder`] keeps what the three controllers keep alike and
//! does the four jobs they do alike: send a bundle stamped with its
//! block's serial, accept an arriving bundle (destroying a stale one),
//! apply a recreation invalidate, and apply a persistent-table message.
//! This module is the one place the serial rule is written; the home
//! memory's side of a recreation (when to bump the serial, the
//! invalidate broadcast, the ack count, the remint) stays in
//! [`mem`](crate::mem).

use std::cell::RefCell;
use std::rc::Rc;

use tokencmp_cache::SetAssoc;
use tokencmp_proto::{Block, IdMap, Layout, SystemConfig};
use tokencmp_sim::{Ctx, Dur, NodeId, Time};
use tokencmp_trace::{TraceEvent, TraceHandle};

use crate::common::{GrantRules, PersistentState, TokenLine};
use crate::msg::{TokenBundle, TokenMsg};
use crate::persistent::PersistentBook;

/// The state and rules shared by every token holder.
pub(crate) struct Holder {
    pub(crate) cfg: Rc<SystemConfig>,
    pub(crate) layout: Layout,
    /// The node id this holder is registered under.
    pub(crate) me: NodeId,
    pub(crate) rules: GrantRules,
    /// This node's persistent-request tables.
    pub(crate) persistent: PersistentState,
    /// Per-block recreation serials: at a cache, as last announced by the
    /// block's home memory (the token authority); at a home, the serials
    /// it minted. Absent ⇒ serial 0, so the map stays empty — and serial
    /// handling free — on lossless runs. A serial never decreases.
    serials: IdMap<Block, u32>,
    /// The run's trace sink, if any (none ⇒ zero tracing work).
    pub(crate) trace: Option<TraceHandle>,
}

impl Holder {
    /// The core of coherence node `me`, whose distributed
    /// persistent-request table lives in the run's shared `book`.
    ///
    /// Inlined, as are the constructors of its persistent state, so that
    /// a controller's constructor builds the core in place: returned
    /// through stack temporaries, it was copied once more per node, which
    /// made building the nodes of a 1024-core system about 10% slower.
    #[inline]
    pub(crate) fn new(
        cfg: Rc<SystemConfig>,
        me: NodeId,
        book: Rc<RefCell<PersistentBook>>,
    ) -> Holder {
        Holder {
            layout: cfg.layout(),
            me,
            rules: GrantRules {
                total_tokens: cfg.tokens_per_block,
                caches_per_cmp: 2 * cfg.procs_per_cmp as u32 + cfg.banks_per_cmp as u32,
                migratory: cfg.migratory_sharing,
            },
            persistent: PersistentState::new(me, book),
            serials: IdMap::default(),
            trace: None,
            cfg,
        }
    }

    /// The recreation serial this holder believes is current for `block`.
    #[inline]
    pub(crate) fn serial_of(&self, block: Block) -> u32 {
        self.serials.get(&block).copied().unwrap_or(0)
    }

    /// Bumps `block` to its next serial, as its home does to start a
    /// recreation, and returns that serial.
    pub(crate) fn bump_serial(&mut self, block: Block) -> u32 {
        let serial = self.serial_of(block) + 1;
        self.serials.insert(block, serial);
        serial
    }

    /// The sum of this holder's serials.
    pub(crate) fn serial_sum(&self) -> u64 {
        self.serials.values().map(|&s| u64::from(s)).sum()
    }

    /// The home memory controller of `block`.
    #[inline]
    pub(crate) fn home(&self, block: Block) -> NodeId {
        self.layout.mem(self.cfg.home_of(block))
    }

    /// Records the event `ev` builds at `now`, if the run is traced; an
    /// untraced run does not build it.
    pub(crate) fn record(&self, now: Time, ev: impl FnOnce() -> TraceEvent) {
        if let Some(t) = &self.trace {
            t.borrow_mut().record(now, ev());
        }
    }

    /// Sends `bundle` of `block`'s tokens to `dst` after `delay`, stamped
    /// with the block's current serial.
    #[inline]
    pub(crate) fn send_tokens(
        &self,
        ctx: &mut Ctx<'_, TokenMsg>,
        delay: Dur,
        dst: NodeId,
        block: Block,
        bundle: TokenBundle,
        writeback: bool,
    ) {
        debug_assert!(bundle.count >= 1);
        self.record(ctx.now, || TraceEvent::TokensMoved {
            block,
            from: self.me,
            to: dst,
            count: bundle.count,
            owner: bundle.owner,
        });
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

    /// Accepts an arriving bundle of `block`'s tokens minted under
    /// `serial`, returning false if it was destroyed instead.
    ///
    /// A bundle that trails the block's serial was in flight when the
    /// authority recreated the block's tokens, so it is destroyed. A
    /// stale *dirty owner* — which the lossy tier never drops — sends its
    /// data home over reliable control traffic first, unless this holder
    /// is the home, which salvages it in place. A newer serial is adopted:
    /// the ack barrier guarantees its invalidate preceded the bundle.
    #[inline]
    pub(crate) fn accept(
        &mut self,
        block: Block,
        bundle: TokenBundle,
        serial: u32,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) -> bool {
        let current = self.serial_of(block);
        if serial < current {
            self.record(ctx.now, || TraceEvent::StaleDiscard {
                node: self.me,
                block,
                count: bundle.count,
                owner: bundle.owner,
                serial,
            });
            let home = self.home(block);
            if bundle.owner && bundle.dirty && home != self.me {
                ctx.send(home, TokenMsg::StaleDataReturn { block, serial });
            }
            return false;
        }
        if serial > current {
            self.serials.insert(block, serial);
        }
        self.record(ctx.now, || TraceEvent::TokensDelivered {
            block,
            node: self.me,
            count: bundle.count,
            owner: bundle.owner,
        });
        true
    }

    /// Applies a recreation invalidate from `block`'s home `src` to a
    /// cache's `lines`: adopts the new serial, empties the line held
    /// under the old one (the caller drops it), and acks. Returns false,
    /// changing nothing, for a reordered ghost of an inval already acked.
    /// The ghost check runs before the line lookup, which marks the line
    /// most-recently-used.
    ///
    /// After the ack this cache can never use old-serial tokens again —
    /// [`accept`](Holder::accept) destroys them — which is the safety
    /// barrier the authority's recreation relies on.
    pub(crate) fn recreate_inval(
        &mut self,
        src: NodeId,
        block: Block,
        serial: u32,
        lines: &mut SetAssoc<TokenLine>,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) -> bool {
        if serial <= self.serial_of(block) {
            return false;
        }
        self.serials.insert(block, serial);
        let held = lines.get_mut(block).map(|line| line.take_all(true));
        self.ack_inval(src, block, serial, held, ctx);
        true
    }

    /// Records that the invalidate of `block` to `serial` destroyed
    /// `held` here, salvages a dirty owner's data to the invalidating
    /// home `src` over reliable control traffic, and acks.
    pub(crate) fn ack_inval(
        &self,
        src: NodeId,
        block: Block,
        serial: u32,
        held: Option<TokenBundle>,
        ctx: &mut Ctx<'_, TokenMsg>,
    ) {
        let (discarded, owner, dirty) = held.map_or((0, false, false), |b| {
            (b.count, b.owner, b.owner && b.dirty)
        });
        self.record(ctx.now, || TraceEvent::EpochInval {
            node: self.me,
            block,
            serial,
            discarded,
            owner,
        });
        if dirty {
            ctx.send(src, TokenMsg::StaleDataReturn { block, serial });
        }
        ctx.send(src, TokenMsg::RecreateAck { block, serial });
    }

    /// Applies a persistent-table message to this node's tables and
    /// traces it. Returns the block whose forwarding state may have
    /// changed, or `None` if `msg` is not a persistent-table message.
    #[inline]
    pub(crate) fn apply_table(&mut self, msg: &TokenMsg, now: Time) -> Option<Block> {
        let block = self.persistent.apply(msg)?;
        self.record(now, || {
            let (proc, activate, arb) = match *msg {
                TokenMsg::PersistentActivate { proc, .. } => (proc, true, false),
                TokenMsg::PersistentDeactivate { proc, .. } => (proc, false, false),
                TokenMsg::ArbActivate { proc, .. } => (proc, true, true),
                TokenMsg::ArbDeactivate { proc, .. } => (proc, false, true),
                _ => unreachable!("only persistent-table messages apply"),
            };
            TraceEvent::TableApply {
                block,
                node: self.me,
                proc,
                activate,
                arb,
            }
        });
        Some(block)
    }
}
