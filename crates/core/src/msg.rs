//! TokenCMP protocol messages.
//!
//! The substrate moves *tokens* (§3.1): every block has `T` tokens, one of
//! which is the owner token. Messages carrying the owner token must carry
//! data; token-only messages are 8-byte control messages. Transient
//! requests (§4) are unacknowledged and may fail; persistent requests
//! (§3.2) are remembered by every coherence node until deactivated.

use tokencmp_proto::{
    Block, CmpId, CpuPort, CpuReq, CpuResp, MsgClass, NetMsg, ProcId, TokenPayload,
};
use tokencmp_sim::NodeId;

/// Whether a coherence request needs read or write permission.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReqKind {
    /// Needs at least one token (plus data).
    Read,
    /// Needs all `T` tokens.
    Write,
}

/// A bundle of tokens in flight.
///
/// Invariants (checked by the conservation auditor in the system crate):
/// `count >= 1`; if `owner` then `data` (owner token always travels with
/// valid data, §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TokenBundle {
    /// Number of tokens carried (including the owner token if `owner`).
    pub count: u32,
    /// True if the owner token is included.
    pub owner: bool,
    /// True if the message carries the 64-byte data payload.
    pub data: bool,
    /// True if the data has been modified since memory was last updated
    /// (meaningful only with `owner`).
    pub dirty: bool,
}

/// The TokenCMP message set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenMsg {
    /// Processor → L1 request (core-internal, free on the wire).
    Cpu(CpuReq),
    /// L1 → processor response (core-internal).
    CpuResp(CpuResp),

    /// An unacknowledged transient request seeking tokens for `block`.
    ///
    /// `requester` is the L1 cache that wants the tokens; responses go
    /// directly to it. `external` is set once the request has crossed a
    /// chip boundary, so receiving L2 banks fan it out to their local L1s
    /// instead of re-broadcasting off chip.
    Transient {
        /// Block being requested.
        block: Block,
        /// The requesting L1 cache.
        requester: NodeId,
        /// Read or write permission.
        kind: ReqKind,
        /// True once forwarded between chips.
        external: bool,
        /// Destination-set prediction (`dst1-dsp` only): the chip
        /// predicted to hold the block's owner; `None` = full broadcast.
        hint: Option<CmpId>,
    },

    /// Tokens (and possibly data) moving between coherence nodes.
    Tokens {
        /// Block the tokens belong to.
        block: Block,
        /// The bundle.
        bundle: TokenBundle,
        /// True for evictions/writebacks (affects traffic class only).
        writeback: bool,
        /// Recreation serial the tokens were minted under (§15): receivers
        /// discard bundles whose serial trails the block's current one.
        /// Stays 0 until the block's first recreation, so the field is
        /// inert on lossless runs.
        serial: u32,
    },

    /// Distributed-activation persistent request (§3.2): broadcast to every
    /// coherence node, remembered until deactivated.
    PersistentActivate {
        /// Block being requested.
        block: Block,
        /// Issuing processor (also the fixed priority).
        proc: ProcId,
        /// The L1 cache tokens should be forwarded to.
        requester: NodeId,
        /// Read (leave one token behind) or write (collect all).
        kind: ReqKind,
        /// Per-processor issue number: the network is unordered, so a
        /// deactivation can overtake its own activation; epochs let
        /// tables suppress such ghosts.
        epoch: u64,
    },
    /// Distributed-activation deactivation: broadcast when satisfied.
    PersistentDeactivate {
        /// Block of the completed request.
        block: Block,
        /// Processor whose request completed.
        proc: ProcId,
        /// Issue number being deactivated.
        epoch: u64,
    },

    /// Arbiter-based persistent request: starving L1 → home arbiter.
    ArbRequest {
        /// Block being requested.
        block: Block,
        /// Issuing processor.
        proc: ProcId,
        /// The L1 cache tokens should be forwarded to.
        requester: NodeId,
        /// Read or write.
        kind: ReqKind,
        /// The requester's issue number.
        epoch: u64,
    },
    /// Arbiter → all coherence nodes: this request is now active.
    ArbActivate {
        /// Block being requested.
        block: Block,
        /// Processor whose request is active.
        proc: ProcId,
        /// Forwarding target.
        requester: NodeId,
        /// Read or write.
        kind: ReqKind,
        /// The requester's issue number (see `PersistentActivate::epoch`).
        epoch: u64,
    },
    /// Satisfied L1 → arbiter: please deactivate my request.
    ArbDeactivateRequest {
        /// Block of the completed request.
        block: Block,
        /// Processor whose request completed.
        proc: ProcId,
        /// Issue number being deactivated.
        epoch: u64,
    },
    /// Arbiter → all coherence nodes: forget this request.
    ArbDeactivate {
        /// Block of the deactivated request.
        block: Block,
        /// Processor whose request was deactivated.
        proc: ProcId,
        /// Issue number being deactivated.
        epoch: u64,
    },

    /// Starving L1 → home memory controller: tokens for `block` appear to
    /// be lost; please start a recreation (§15). Reliable (undroppable).
    RecreateRequest {
        /// Block whose tokens starved.
        block: Block,
        /// The block serial the requester last observed; requests trailing
        /// the authority's current serial are stale and ignored.
        serial: u32,
    },
    /// Token authority → every coherence node: bump `block` to `serial`,
    /// discarding any tokens minted under older serials. Reliable.
    RecreateInval {
        /// Block being recreated.
        block: Block,
        /// The new serial.
        serial: u32,
    },
    /// Coherence node → token authority: inval for `serial` applied; my
    /// old-serial tokens are destroyed (a dirty owner's data went ahead on
    /// a [`TokenMsg::StaleDataReturn`]). Reliable.
    RecreateAck {
        /// Block being recreated.
        block: Block,
        /// Serial being acknowledged.
        serial: u32,
    },
    /// Node that discarded a *stale* dirty-owner bundle → home memory:
    /// salvaged modified data going home so the recreated owner token is
    /// minted over current data. Reliable, carries the data payload.
    StaleDataReturn {
        /// Block the salvaged data belongs to.
        block: Block,
        /// The stale serial the discarded bundle was minted under.
        serial: u32,
    },
}

impl TokenMsg {
    /// The block this message concerns, if any.
    pub fn block(&self) -> Option<Block> {
        match *self {
            TokenMsg::Cpu(r) => Some(r.block()),
            TokenMsg::CpuResp(CpuResp::Done { block, .. })
            | TokenMsg::CpuResp(CpuResp::WatchFired { block }) => Some(block),
            TokenMsg::Transient { block, .. }
            | TokenMsg::Tokens { block, .. }
            | TokenMsg::PersistentActivate { block, .. }
            | TokenMsg::PersistentDeactivate { block, .. }
            | TokenMsg::ArbRequest { block, .. }
            | TokenMsg::ArbActivate { block, .. }
            | TokenMsg::ArbDeactivateRequest { block, .. }
            | TokenMsg::ArbDeactivate { block, .. }
            | TokenMsg::RecreateRequest { block, .. }
            | TokenMsg::RecreateInval { block, .. }
            | TokenMsg::RecreateAck { block, .. }
            | TokenMsg::StaleDataReturn { block, .. } => Some(block),
        }
    }
}

impl NetMsg for TokenMsg {
    fn size_bytes(&self) -> u32 {
        match self {
            TokenMsg::Cpu(_) | TokenMsg::CpuResp(_) => 0,
            TokenMsg::Transient { .. } => 8,
            TokenMsg::Tokens { bundle, .. } => {
                if bundle.data {
                    72
                } else {
                    8
                }
            }
            TokenMsg::PersistentActivate { .. }
            | TokenMsg::PersistentDeactivate { .. }
            | TokenMsg::ArbRequest { .. }
            | TokenMsg::ArbActivate { .. }
            | TokenMsg::ArbDeactivateRequest { .. }
            | TokenMsg::ArbDeactivate { .. }
            | TokenMsg::RecreateRequest { .. }
            | TokenMsg::RecreateInval { .. }
            | TokenMsg::RecreateAck { .. } => 8,
            TokenMsg::StaleDataReturn { .. } => 72,
        }
    }

    fn class(&self) -> MsgClass {
        match self {
            TokenMsg::Cpu(_) => MsgClass::Request,
            TokenMsg::CpuResp(_) => MsgClass::ResponseData,
            TokenMsg::Transient { .. } => MsgClass::Request,
            TokenMsg::Tokens {
                bundle, writeback, ..
            } => match (writeback, bundle.data) {
                (true, true) => MsgClass::WritebackData,
                (true, false) => MsgClass::WritebackControl,
                (false, true) => MsgClass::ResponseData,
                (false, false) => MsgClass::InvFwdAckTokens,
            },
            TokenMsg::PersistentActivate { .. }
            | TokenMsg::PersistentDeactivate { .. }
            | TokenMsg::ArbRequest { .. }
            | TokenMsg::ArbActivate { .. }
            | TokenMsg::ArbDeactivateRequest { .. }
            | TokenMsg::ArbDeactivate { .. }
            | TokenMsg::RecreateRequest { .. }
            | TokenMsg::RecreateInval { .. }
            | TokenMsg::RecreateAck { .. } => MsgClass::Persistent,
            TokenMsg::StaleDataReturn { .. } => MsgClass::WritebackData,
        }
    }

    /// Only transient requests may be lost (§4: they are unacknowledged
    /// hints with a timeout/retry/persistent-escalation recovery path).
    /// Token-carrying messages would break conservation and persistent-
    /// table messages have no retransmission, so both stay undroppable.
    fn droppable(&self) -> bool {
        matches!(self, TokenMsg::Transient { .. })
    }

    /// Token bundles may be lost under the opt-in token-lossy tier — the
    /// recreation protocol (§15) restores conservation — *except* dirty-
    /// owner bundles: those carry the only up-to-date copy of committed
    /// stores, so they travel on an acknowledged (lossless) channel. The
    /// recreation handshake itself is likewise reliable.
    fn lossy_droppable(&self) -> bool {
        matches!(
            self,
            TokenMsg::Tokens { bundle, .. } if !(bundle.owner && bundle.dirty)
        )
    }

    fn token_payload(&self) -> Option<TokenPayload> {
        match self {
            TokenMsg::Tokens { bundle, serial, .. } => Some(TokenPayload {
                count: bundle.count,
                owner: bundle.owner,
                serial: *serial,
            }),
            _ => None,
        }
    }

    fn block_id(&self) -> Option<u64> {
        self.block().map(|b| b.0)
    }
}

impl CpuPort for TokenMsg {
    fn from_cpu_req(req: CpuReq) -> Self {
        TokenMsg::Cpu(req)
    }
    fn from_cpu_resp(resp: CpuResp) -> Self {
        TokenMsg::CpuResp(resp)
    }
    fn into_cpu_req(self) -> Option<CpuReq> {
        match self {
            TokenMsg::Cpu(r) => Some(r),
            _ => None,
        }
    }
    fn into_cpu_resp(self) -> Option<CpuResp> {
        match self {
            TokenMsg::CpuResp(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokencmp_proto::AccessKind;

    #[test]
    fn sizes_follow_section8() {
        let data = TokenMsg::Tokens {
            block: Block(1),
            bundle: TokenBundle {
                count: 3,
                owner: true,
                data: true,
                dirty: false,
            },
            writeback: false,
            serial: 0,
        };
        assert_eq!(data.size_bytes(), 72);
        let ctl = TokenMsg::Tokens {
            block: Block(1),
            bundle: TokenBundle {
                count: 1,
                owner: false,
                data: false,
                dirty: false,
            },
            writeback: false,
            serial: 0,
        };
        assert_eq!(ctl.size_bytes(), 8);
        let req = TokenMsg::Transient {
            block: Block(1),
            requester: NodeId(0),
            kind: ReqKind::Read,
            external: false,
            hint: None,
        };
        assert_eq!(req.size_bytes(), 8);
    }

    #[test]
    fn classes_map_to_figure7() {
        let mk = |writeback, data| TokenMsg::Tokens {
            block: Block(0),
            bundle: TokenBundle {
                count: 1,
                owner: false,
                data,
                dirty: false,
            },
            writeback,
            serial: 0,
        };
        assert_eq!(mk(false, true).class(), MsgClass::ResponseData);
        assert_eq!(mk(false, false).class(), MsgClass::InvFwdAckTokens);
        assert_eq!(mk(true, true).class(), MsgClass::WritebackData);
        assert_eq!(mk(true, false).class(), MsgClass::WritebackControl);
        let p = TokenMsg::PersistentActivate {
            block: Block(0),
            proc: ProcId(0),
            requester: NodeId(1),
            kind: ReqKind::Write,
            epoch: 1,
        };
        assert_eq!(p.class(), MsgClass::Persistent);
    }

    #[test]
    fn lossy_tier_spares_dirty_owner_bundles() {
        let mk = |owner, dirty| TokenMsg::Tokens {
            block: Block(3),
            bundle: TokenBundle {
                count: 2,
                owner,
                data: owner,
                dirty,
            },
            writeback: false,
            serial: 5,
        };
        // Plain and clean-owner bundles are fair game for the lossy tier...
        assert!(mk(false, false).lossy_droppable());
        assert!(mk(true, false).lossy_droppable());
        // ...but a dirty owner carries the only copy of committed stores.
        assert!(!mk(true, true).lossy_droppable());
        // The baseline droppable() exemption is unchanged: tokens never
        // drop outside the opt-in tier.
        assert!(!mk(false, false).droppable());
        assert_eq!(
            mk(true, false).token_payload(),
            Some(TokenPayload {
                count: 2,
                owner: true,
                serial: 5
            })
        );
    }

    #[test]
    fn recreation_messages_are_reliable_control_traffic() {
        let req = TokenMsg::RecreateRequest {
            block: Block(7),
            serial: 1,
        };
        let inval = TokenMsg::RecreateInval {
            block: Block(7),
            serial: 2,
        };
        let ack = TokenMsg::RecreateAck {
            block: Block(7),
            serial: 2,
        };
        let ret = TokenMsg::StaleDataReturn {
            block: Block(7),
            serial: 1,
        };
        for m in [req, inval, ack] {
            assert_eq!(m.size_bytes(), 8);
            assert_eq!(m.class(), MsgClass::Persistent);
        }
        assert_eq!(ret.size_bytes(), 72);
        assert_eq!(ret.class(), MsgClass::WritebackData);
        for m in [req, inval, ack, ret] {
            assert!(!m.droppable() && !m.lossy_droppable());
            assert_eq!(m.token_payload(), None);
            assert_eq!(m.block(), Some(Block(7)));
        }
    }

    #[test]
    fn cpu_port_round_trip() {
        let req = CpuReq::Access {
            kind: AccessKind::Load,
            block: Block(9),
        };
        let m = TokenMsg::from_cpu_req(req);
        assert_eq!(m.into_cpu_req(), Some(req));
        let resp = CpuResp::Done {
            kind: AccessKind::Load,
            block: Block(9),
        };
        let m = TokenMsg::from_cpu_resp(resp);
        assert_eq!(m.block(), Some(Block(9)));
        assert_eq!(m.into_cpu_resp(), Some(resp));
        assert_eq!(TokenMsg::from_cpu_req(req).into_cpu_resp(), None);
    }
}
