//! Message taxonomy for traffic accounting.
//!
//! Figure 7 of the paper breaks interconnect traffic into seven message
//! classes; every protocol message in this repository maps onto one of them
//! so the benchmark harnesses can regenerate the same stacked bars.

use std::fmt;

/// The Figure 7 message classes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MsgClass {
    /// Data carried in response to a request (including token-carrying data
    /// messages in TokenCMP).
    ResponseData,
    /// Dirty (or owner) data being written back toward memory.
    WritebackData,
    /// Writeback handshake control (requests, grants, dataless PUTs).
    WritebackControl,
    /// Coherence requests (GETS/GETX, transient token requests).
    Request,
    /// Invalidations, forwards, acknowledgments, and dataless token
    /// transfers.
    InvFwdAckTokens,
    /// DirectoryCMP unblock messages.
    Unblock,
    /// Persistent-request activations and deactivations.
    Persistent,
}

impl MsgClass {
    /// All classes, in Figure 7 legend order.
    pub const ALL: [MsgClass; 7] = [
        MsgClass::ResponseData,
        MsgClass::WritebackData,
        MsgClass::WritebackControl,
        MsgClass::Request,
        MsgClass::InvFwdAckTokens,
        MsgClass::Unblock,
        MsgClass::Persistent,
    ];

    /// A dense index, `0..7`, in [`MsgClass::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            MsgClass::ResponseData => 0,
            MsgClass::WritebackData => 1,
            MsgClass::WritebackControl => 2,
            MsgClass::Request => 3,
            MsgClass::InvFwdAckTokens => 4,
            MsgClass::Unblock => 5,
            MsgClass::Persistent => 6,
        }
    }

    /// The Figure 7 legend label.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::ResponseData => "Response Data",
            MsgClass::WritebackData => "Writeback Data",
            MsgClass::WritebackControl => "Writeback Control",
            MsgClass::Request => "Request",
            MsgClass::InvFwdAckTokens => "Inv/Fwd/Acks/Tokens",
            MsgClass::Unblock => "Unblock",
            MsgClass::Persistent => "Persistent",
        }
    }

    /// Stable snake_case key for counter names
    /// (`net.fault.dropped.<key>` and friends).
    pub fn key(self) -> &'static str {
        match self {
            MsgClass::ResponseData => "response_data",
            MsgClass::WritebackData => "writeback_data",
            MsgClass::WritebackControl => "writeback_control",
            MsgClass::Request => "request",
            MsgClass::InvFwdAckTokens => "inv_fwd_ack_tokens",
            MsgClass::Unblock => "unblock",
            MsgClass::Persistent => "persistent",
        }
    }
}

impl fmt::Display for MsgClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The token contents of a token-carrying message, as the interconnect
/// needs to see them for loss accounting: how many tokens ride on the
/// wire, whether the owner token is among them, and which recreation
/// serial minted them (see DESIGN.md §15).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TokenPayload {
    /// Plain tokens carried (the owner token counts as one of these).
    pub count: u32,
    /// True if the owner token rides along.
    pub owner: bool,
    /// Recreation serial the tokens were minted under (0 until the
    /// block's first recreation).
    pub serial: u32,
}

/// What the interconnect needs to know about a message: its wire size and
/// its traffic class.
///
/// Messages between a processor and its own L1 never touch a modeled
/// network; they may report a size of zero.
pub trait NetMsg {
    /// Wire size in bytes (72 for data, 8 for control, per §8).
    fn size_bytes(&self) -> u32;
    /// Figure 7 class.
    fn class(&self) -> MsgClass;

    /// True if the interconnect may *lose* this message under fault
    /// injection without violating protocol correctness.
    ///
    /// Only messages with a timeout/retry recovery path opt in (TokenCMP
    /// transient requests, §4). Token-carrying messages would break token
    /// conservation without the recreation machinery, persistent-table
    /// messages have no retransmission, and directory-protocol messages
    /// have no recovery story at all — all of those keep this default.
    fn droppable(&self) -> bool {
        false
    }

    /// True if the interconnect may lose this message under the opt-in
    /// *token-lossy* fault tier (`FaultSpec::lossy_tokens`):
    /// token-carrying messages whose loss the recreation protocol can
    /// repair. Bundles carrying a dirty owner token must keep the
    /// default — dropping one would lose committed stores, which no
    /// amount of token recreation can undo (modified data travels on an
    /// acknowledged channel).
    fn lossy_droppable(&self) -> bool {
        false
    }

    /// The token contents of this message, if it carries tokens; lets
    /// the interconnect record exactly what a dropped bundle took with
    /// it (count, owner, recreation serial) without knowing the
    /// protocol's message type.
    fn token_payload(&self) -> Option<TokenPayload> {
        None
    }

    /// The raw block address this message concerns, if any; lets the
    /// interconnect label its trace events and key its lost-token ledger
    /// by block without knowing the protocol's message type.
    fn block_id(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_dense_and_consistent() {
        for (i, c) in MsgClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn labels_match_figure7_legend() {
        assert_eq!(MsgClass::ResponseData.label(), "Response Data");
        assert_eq!(MsgClass::InvFwdAckTokens.to_string(), "Inv/Fwd/Acks/Tokens");
    }

    #[test]
    fn counter_keys_are_snake_case_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for c in MsgClass::ALL {
            let k = c.key();
            assert!(
                k.chars().all(|ch| ch.is_ascii_lowercase() || ch == '_'),
                "{k} is not a snake_case counter key"
            );
            assert!(seen.insert(k), "duplicate counter key {k}");
        }
    }

    #[test]
    fn netmsg_defaults_are_lossless_and_tokenless() {
        struct Plain;
        impl NetMsg for Plain {
            fn size_bytes(&self) -> u32 {
                8
            }
            fn class(&self) -> MsgClass {
                MsgClass::Request
            }
        }
        let m = Plain;
        assert!(!m.droppable());
        assert!(!m.lossy_droppable());
        assert_eq!(m.token_payload(), None);
        assert_eq!(m.block_id(), None);
    }
}
