//! # DirectoryCMP — the hierarchical two-level MOESI directory baseline
//!
//! The comparison protocol of the reproduced paper (§2): an intra-CMP
//! directory at each L2 bank tracks on-chip L1 copies, and an inter-CMP
//! directory at each home memory controller tracks which chips cache a
//! block. The two levels couple hierarchically: every L1 miss walks
//! L1 → L2-bank directory → (maybe) home directory → owner chip → owner
//! L1 and back, with per-block busy states, deferred-request queues,
//! three-phase writebacks and unblock messages at both levels. A
//! migratory-sharing optimization (read-modify-write data moves wholesale)
//! is implemented at both levels and can be disabled via the system
//! configuration's `migratory_sharing` flag.
//!
//! `DirectoryCMP-zero` (the paper's unrealistic 0-cycle directory) is this
//! same protocol with the configuration's `dir_access_latency` set to
//! zero.

use tokencmp_proto::Block;

/// The block a directory message concerns.
pub(crate) fn msg_block(m: &DirMsg) -> Option<Block> {
    use DirMsg::*;
    Some(match *m {
        Cpu(r) => r.block(),
        CpuResp(tokencmp_proto::CpuResp::Done { block, .. })
        | CpuResp(tokencmp_proto::CpuResp::WatchFired { block }) => block,
        L1Req { block, .. }
        | FwdL1 { block, .. }
        | InvL1 { block }
        | InvAckL1 { block }
        | DataL1ToL2 { block, .. }
        | GrantToL1 { block, .. }
        | UnblockL1 { block }
        | WbReqL1 { block }
        | WbGrantL1 { block }
        | WbDataL1 { block, .. }
        | L2Req { block, .. }
        | FwdL2 { block, .. }
        | InvL2 { block, .. }
        | InvAckL2 { block }
        | FwdInfo { block, .. }
        | MemData { block, .. }
        | DataL2ToL2 { block, .. }
        | UnblockHome { block, .. }
        | WbReqL2 { block }
        | WbGrantL2 { block }
        | WbDataL2 { block, .. } => block,
    })
}

pub mod home;
pub mod l1;
pub mod l2;
pub mod msg;

pub use home::{DirHome, HomeState, HomeStats};
pub use l1::{DirL1, DirL1Stats, L1State};
pub use l2::{ChipRights, DirL2, DirL2Stats};
pub use msg::{ChipGrant, DirMsg, GrantSource, HomeResult, L1Grant, ReqKind};
