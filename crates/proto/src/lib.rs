//! Shared protocol vocabulary for the TokenCMP coherence simulator.
//!
//! Everything the coherence protocols, the interconnect model and the
//! system builder must agree on lives here:
//!
//! * [`Block`] — block-granularity physical addresses and their home /
//!   bank mapping,
//! * [`ProcId`], [`CmpId`], [`Unit`], [`Layout`] — the fixed component
//!   topology of an M-CMP system and its deterministic [`NodeId`] layout,
//! * [`MsgClass`], [`NetMsg`] — the message taxonomy used for the paper's
//!   Figure 7 traffic breakdown,
//! * [`CpuReq`], [`CpuResp`], [`CpuPort`] — the processor↔L1 port shared
//!   by every protocol, and
//! * [`SystemConfig`] — the paper's Table 3 target-system parameters.
//!
//! [`NodeId`]: tokencmp_sim::NodeId

pub mod addr;
pub mod config;
pub mod cpu;
pub mod layout;
pub mod msg;

pub use addr::Block;
pub use config::{Fabric, SystemConfig};
pub use cpu::{AccessKind, CpuPort, CpuReq, CpuResp};
pub use layout::{CmpId, Layout, Placement, ProcId, Unit};
pub use msg::{MsgClass, NetMsg, TokenPayload};
