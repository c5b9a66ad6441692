//! The trace event taxonomy.
//!
//! Events are plain data: constructing one allocates nothing and touches
//! no globals, so emission sites can stay inside
//! `if let Some(sink) = &self.trace` with no disabled-path cost.

use std::fmt;

use tokencmp_sim::{Dur, NodeId, Time};

use tokencmp_proto::{AccessKind, Block, MsgClass, ProcId};

use crate::latency::SegmentParts;

/// Which interconnect tier a message crossed.
///
/// Mirrors the interconnect crate's tier taxonomy without depending on
/// it (`tokencmp-net` depends on this crate's siblings, so the dependency
/// must point this way). `Local` covers zero-latency same-node hops that
/// the network never charges to a tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceTier {
    /// Processor↔L1 and other same-node hops (no interconnect).
    Local,
    /// The on-chip interconnect.
    Intra,
    /// The chip-to-chip interconnect.
    Inter,
    /// A memory-controller link.
    Mem,
}

impl TraceTier {
    /// Short lowercase label (`"intra"`, …).
    pub fn label(self) -> &'static str {
        match self {
            TraceTier::Local => "local",
            TraceTier::Intra => "intra",
            TraceTier::Inter => "inter",
            TraceTier::Mem => "mem",
        }
    }
}

/// What the fault layer did to a message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Dropped outright (droppable classes only).
    Drop,
    /// Delivery delayed by bounded jitter.
    Jitter,
    /// Held for adversarial reordering on an unordered tier.
    Hold,
}

impl FaultKind {
    /// Uppercase label, as `TraceEvent::Fault` displays it.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "DROP",
            FaultKind::Jitter => "JITTER",
            FaultKind::Hold => "HOLD",
        }
    }
}

/// One structured protocol event. Timestamps live outside the event (the
/// sink records the simulation time of emission); `arrive` fields are
/// *future* times computed by the network.
///
/// Component-emitted events are stamped at the handler's current time and
/// are therefore monotone in record order. Network-emitted events
/// ([`MsgSend`](TraceEvent::MsgSend), [`Fault`](TraceEvent::Fault)) are
/// stamped at *wire departure* — the sender's time plus its local
/// processing delay, the instant the kernel reserves link occupancy — so
/// they may run slightly ahead of adjacent component events.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TraceEvent {
    /// The interconnect accepted a message for delivery.
    MsgSend {
        /// Sending node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Message class (paper Fig 7 taxonomy).
        class: MsgClass,
        /// Tier charged for the hop.
        tier: TraceTier,
        /// Wire size in bytes.
        bytes: u32,
        /// Block the message concerns, if any.
        block: Option<Block>,
        /// Scheduled arrival time.
        arrive: Time,
    },
    /// The fault layer dropped, jittered or held a message.
    Fault {
        /// What was done.
        kind: FaultKind,
        /// Class of the affected message.
        class: MsgClass,
        /// Tier on which the fault fired.
        tier: TraceTier,
        /// Block the message concerns, if any.
        block: Option<Block>,
    },
    /// A sequencer handed an access to its L1.
    SeqIssue {
        /// Issuing processor.
        proc: ProcId,
        /// Target block.
        block: Block,
        /// Operation kind.
        kind: AccessKind,
    },
    /// A sequencer observed the access complete.
    SeqCommit {
        /// Committing processor.
        proc: ProcId,
        /// Completed block.
        block: Block,
        /// Operation kind.
        kind: AccessKind,
    },
    /// Tokens (and possibly the owner token) moved between nodes.
    TokensMoved {
        /// Block whose tokens moved.
        block: Block,
        /// Supplying node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Token count in the bundle.
        count: u32,
        /// Whether the owner token was included.
        owner: bool,
    },
    /// A persistent request was activated for `proc` on `block`.
    PersistentActivate {
        /// Block under persistent request.
        block: Block,
        /// Starving processor.
        proc: ProcId,
    },
    /// The persistent request for `proc` on `block` was deactivated.
    PersistentDeactivate {
        /// Block whose request ended.
        block: Block,
        /// Formerly starving processor.
        proc: ProcId,
    },
    /// A cache installed a line (L1/L2 transition into a valid state).
    CacheFill {
        /// Cache node.
        node: NodeId,
        /// Installed block.
        block: Block,
        /// Human-readable resulting state (`"M"`, `"S"`, `"T=3+O"`, …).
        state: &'static str,
    },
    /// A cache evicted or invalidated a line.
    CacheEvict {
        /// Cache node.
        node: NodeId,
        /// Evicted block.
        block: Block,
        /// Human-readable prior state.
        state: &'static str,
    },
    /// A token bundle arrived at a holder and was folded into its state
    /// (or relayed onward; a relay emits a delivery followed by a fresh
    /// [`TokensMoved`](TraceEvent::TokensMoved)). Together with
    /// `TokensMoved` this brackets every bundle's flight, so a refinement
    /// checker can account in-flight tokens exactly.
    TokensDelivered {
        /// Block whose tokens arrived.
        block: Block,
        /// Receiving node.
        node: NodeId,
        /// Token count in the bundle.
        count: u32,
        /// Whether the owner token was included.
        owner: bool,
    },
    /// An L1 satisfied a processor access *at this instant* — the moment
    /// the substrate's read/write guard (≥ 1 token for reads, all `T`
    /// plus the owner token for writes) must hold. The later
    /// [`SeqCommit`](TraceEvent::SeqCommit) fires after the L1→processor
    /// latency, when tokens may already have moved on.
    AccessDone {
        /// The L1 that performed the access.
        node: NodeId,
        /// Owning processor.
        proc: ProcId,
        /// Accessed block.
        block: Block,
        /// Operation kind.
        kind: AccessKind,
    },
    /// A coherence node applied a persistent-request table message
    /// (activate or deactivate, distributed or arbiter style) to its
    /// local table.
    TableApply {
        /// Block the request concerns.
        block: Block,
        /// Node whose table changed.
        node: NodeId,
        /// Starving processor the entry belongs to.
        proc: ProcId,
        /// True for an activation, false for a deactivation.
        activate: bool,
        /// True for arbiter-style messages, false for distributed ones.
        arb: bool,
    },
    /// The home memory controller's arbiter received a persistent
    /// activation request (and enqueued or activated it).
    ArbRequest {
        /// Block under persistent request.
        block: Block,
        /// Requesting processor.
        proc: ProcId,
    },
    /// The home arbiter retired a completed persistent request (and may
    /// activate the next queued one).
    ArbDone {
        /// Block whose request completed.
        block: Block,
        /// Formerly starving processor.
        proc: ProcId,
    },
    /// A miss completed in the L1/MSHR path, with its latency decomposed
    /// into attribution segments (the segments sum exactly to `total`).
    MissCommit {
        /// Processor whose miss completed.
        proc: ProcId,
        /// Missed block.
        block: Block,
        /// Operation kind.
        kind: AccessKind,
        /// End-to-end miss latency.
        total: Dur,
        /// Per-segment attribution; sums to `total`.
        parts: SegmentParts,
    },
    /// The interconnect lost a token bundle under the opt-in token-lossy
    /// fault tier (§15). Pairs with the preceding
    /// [`TokensMoved`](TraceEvent::TokensMoved) so in-flight accounting
    /// stays exact: the bundle left `from` but will never be delivered.
    TokenLost {
        /// Block whose tokens were lost.
        block: Block,
        /// The destination the bundle will never reach.
        to: NodeId,
        /// Token count in the lost bundle.
        count: u32,
        /// Whether the owner token was lost with it.
        owner: bool,
        /// Recreation serial the lost tokens were minted under.
        serial: u32,
    },
    /// A node received a token bundle minted under an outdated recreation
    /// serial and destroyed it instead of folding it in.
    StaleDiscard {
        /// Discarding node.
        node: NodeId,
        /// Block the stale bundle belonged to.
        block: Block,
        /// Token count destroyed.
        count: u32,
        /// Whether the (stale) owner token was among them.
        owner: bool,
        /// The outdated serial the bundle carried.
        serial: u32,
    },
    /// A node applied a recreation invalidation: it bumped the block to
    /// the new serial and destroyed any tokens held under older ones.
    EpochInval {
        /// Node whose holding was invalidated.
        node: NodeId,
        /// Block being recreated.
        block: Block,
        /// The new serial now in force at this node.
        serial: u32,
        /// Tokens the node destroyed (0 if it held none).
        discarded: u32,
        /// Whether the destroyed holding included the owner token.
        owner: bool,
    },
    /// The token authority (home memory controller) began recreating a
    /// block's tokens under a new serial.
    RecreationStart {
        /// Block being recreated.
        block: Block,
        /// The serial being brought into force.
        serial: u32,
    },
    /// The token authority finished a recreation: all invalidation acks
    /// arrived, the drain window elapsed, and the full token set (plus
    /// owner) was minted afresh at memory under `serial`.
    RecreationDone {
        /// Recreated block.
        block: Block,
        /// The serial the new tokens carry.
        serial: u32,
    },
}

impl TraceEvent {
    /// The block this event concerns, if it concerns exactly one.
    pub fn block(&self) -> Option<Block> {
        match *self {
            TraceEvent::MsgSend { block, .. } | TraceEvent::Fault { block, .. } => block,
            TraceEvent::SeqIssue { block, .. }
            | TraceEvent::SeqCommit { block, .. }
            | TraceEvent::TokensMoved { block, .. }
            | TraceEvent::PersistentActivate { block, .. }
            | TraceEvent::PersistentDeactivate { block, .. }
            | TraceEvent::CacheFill { block, .. }
            | TraceEvent::CacheEvict { block, .. }
            | TraceEvent::TokensDelivered { block, .. }
            | TraceEvent::AccessDone { block, .. }
            | TraceEvent::TableApply { block, .. }
            | TraceEvent::ArbRequest { block, .. }
            | TraceEvent::ArbDone { block, .. }
            | TraceEvent::MissCommit { block, .. }
            | TraceEvent::TokenLost { block, .. }
            | TraceEvent::StaleDiscard { block, .. }
            | TraceEvent::EpochInval { block, .. }
            | TraceEvent::RecreationStart { block, .. }
            | TraceEvent::RecreationDone { block, .. } => Some(block),
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::MsgSend {
                src,
                dst,
                class,
                tier,
                bytes,
                block,
                arrive,
            } => {
                write!(
                    f,
                    "msg {} n{}->n{} {}B on {} arrive {}",
                    class.label(),
                    src.0,
                    dst.0,
                    bytes,
                    tier.label(),
                    arrive
                )?;
                if let Some(b) = block {
                    write!(f, " block {b:?}")?;
                }
                Ok(())
            }
            TraceEvent::Fault {
                kind,
                class,
                tier,
                block,
            } => {
                write!(
                    f,
                    "fault {} {} on {}",
                    kind.label(),
                    class.label(),
                    tier.label()
                )?;
                if let Some(b) = block {
                    write!(f, " block {b:?}")?;
                }
                Ok(())
            }
            TraceEvent::SeqIssue { proc, block, kind } => {
                write!(f, "seq.issue p{} {kind:?} {block:?}", proc.0)
            }
            TraceEvent::SeqCommit { proc, block, kind } => {
                write!(f, "seq.commit p{} {kind:?} {block:?}", proc.0)
            }
            TraceEvent::TokensMoved {
                block,
                from,
                to,
                count,
                owner,
            } => write!(
                f,
                "tokens {block:?} n{}->n{} count {count}{}",
                from.0,
                to.0,
                if owner { "+owner" } else { "" }
            ),
            TraceEvent::PersistentActivate { block, proc } => {
                write!(f, "persistent.activate {block:?} for p{}", proc.0)
            }
            TraceEvent::PersistentDeactivate { block, proc } => {
                write!(f, "persistent.deactivate {block:?} for p{}", proc.0)
            }
            TraceEvent::CacheFill { node, block, state } => {
                write!(f, "cache.fill n{} {block:?} -> {state}", node.0)
            }
            TraceEvent::CacheEvict { node, block, state } => {
                write!(f, "cache.evict n{} {block:?} was {state}", node.0)
            }
            TraceEvent::TokensDelivered {
                block,
                node,
                count,
                owner,
            } => write!(
                f,
                "tokens.delivered {block:?} at n{} count {count}{}",
                node.0,
                if owner { "+owner" } else { "" }
            ),
            TraceEvent::AccessDone {
                node,
                proc,
                block,
                kind,
            } => write!(
                f,
                "access.done p{} {kind:?} {block:?} at n{}",
                proc.0, node.0
            ),
            TraceEvent::TableApply {
                block,
                node,
                proc,
                activate,
                arb,
            } => write!(
                f,
                "table.apply n{} {}{} p{} {block:?}",
                node.0,
                if arb { "arb-" } else { "" },
                if activate { "activate" } else { "deactivate" },
                proc.0
            ),
            TraceEvent::ArbRequest { block, proc } => {
                write!(f, "arb.request {block:?} p{}", proc.0)
            }
            TraceEvent::ArbDone { block, proc } => {
                write!(f, "arb.done {block:?} p{}", proc.0)
            }
            TraceEvent::MissCommit {
                proc,
                block,
                kind,
                total,
                parts,
            } => write!(
                f,
                "miss.commit p{} {kind:?} {block:?} total {total} [{parts}]",
                proc.0
            ),
            TraceEvent::TokenLost {
                block,
                to,
                count,
                owner,
                serial,
            } => write!(
                f,
                "tokens.lost {block:?} bound for n{} count {count}{} serial {serial}",
                to.0,
                if owner { "+owner" } else { "" }
            ),
            TraceEvent::StaleDiscard {
                node,
                block,
                count,
                owner,
                serial,
            } => write!(
                f,
                "tokens.stale n{} {block:?} count {count}{} serial {serial}",
                node.0,
                if owner { "+owner" } else { "" }
            ),
            TraceEvent::EpochInval {
                node,
                block,
                serial,
                discarded,
                owner,
            } => write!(
                f,
                "recreate.inval n{} {block:?} -> serial {serial} discarded {discarded}{}",
                node.0,
                if owner { "+owner" } else { "" }
            ),
            TraceEvent::RecreationStart { block, serial } => {
                write!(f, "recreate.start {block:?} serial {serial}")
            }
            TraceEvent::RecreationDone { block, serial } => {
                write!(f, "recreate.done {block:?} serial {serial}")
            }
        }
    }
}
