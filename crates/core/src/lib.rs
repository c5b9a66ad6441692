//! # TokenCMP — token coherence for Multiple-CMP systems
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Improving Multiple-CMP Systems Using Token Coherence"* (Marty,
//! Bingham, Hill, Hu, Martin, Wood — HPCA 2005): a cache-coherence
//! protocol that is **flat for correctness** but **hierarchical for
//! performance**.
//!
//! ## Correctness substrate (flat, §3)
//!
//! Every block has `T` tokens, one distinguished as the *owner* token.
//! A cache may read a block while holding ≥ 1 token and write it only
//! while holding all `T`; messages carrying the owner token carry data.
//! Tokens are exchanged among *caches* (L1-D, L1-I, L2 banks) and memory
//! controllers — not among chips — which is what keeps correctness flat
//! in an M-CMP. Starvation is prevented by *persistent requests*, with
//! two activation schemes ([`persistent`]): the original arbiter scheme
//! and the paper's new distributed-activation scheme with wave marking,
//! plus persistent *read* requests and a bounded response-delay window.
//!
//! ## Performance policy (hierarchical, §4)
//!
//! Transient requests broadcast within a chip first and off chip only on
//! an L2 miss; read responses carry up to `C` tokens; a dirty owner with
//! all tokens migrates everything on a read (migratory sharing); the six
//! Table 1 variants ([`Variant`]) differ in retry count, activation
//! mechanism, contention predictor and external-request filter.
//!
//! The controllers ([`TokenL1`], [`TokenL2`], [`TokenMem`]) are
//! [`Component`]s of the discrete-event kernel in `tokencmp-sim`; the
//! `tokencmp-system` crate assembles them into a full 4×4 M-CMP.
//!
//! [`Component`]: tokencmp_sim::Component

pub mod common;
pub mod l1;
pub mod l2;
pub mod mem;
pub mod msg;
pub mod persistent;
pub mod policy;
pub mod recovery;

pub use common::{GrantRules, PersistentState, TokenLine};
pub use l1::{L1Stats, TokenL1};
pub use l2::{L2Stats, TokenL2};
pub use mem::{MemLine, MemStats, TokenMem};
pub use msg::{ReqKind, TokenBundle, TokenMsg};
pub use persistent::{ActiveReq, ArbNodeTable, Arbiter, PersistentBook};
pub use policy::{Activation, ContentionPredictor, Variant};
pub use recovery::{backoff_delay, RecoveryParams};
