//! A model-checkable specification of a *flat* (non-hierarchical)
//! simplification of DirectoryCMP, as in the paper's Section 5 comparison:
//! the intra-CMP level is abstracted away and a single MOESI directory at
//! memory serializes requests with a busy state, a deferred queue,
//! three-phase writebacks and unblock messages.
//!
//! Note how much more specification this protocol needs than the token
//! substrate even *after* flattening — the paper's TLA+ line counts
//! (1025 vs ~390) reflect the same asymmetry; the benchmark harness
//! reports the line counts of these Rust specs alongside the state
//! counts.

use std::iter::repeat_n;

use crate::checker::{ActionMeta, Model};
use crate::explore::permutations;
use crate::inline_vec::InlineVec;
use crate::token_model::{PKind, MAX_CACHES};

/// Room for in-flight messages; `DirModelParams::net_bound` must fit.
const NET_CAP: usize = 10;
/// Room for deferred requests; `DirModelParams::deferred_bound` must
/// fit.
const DEFERRED_CAP: usize = 20;

/// Cache line states (MOESI; absent `I` data is meaningless).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CSt {
    /// Invalid.
    #[default]
    I,
    /// Shared, memory or an owner is responsible.
    S,
    /// Owned: shared but dirty; this cache is responsible for the data.
    O,
    /// Exclusive clean.
    E,
    /// Modified.
    M,
}

/// Directory states.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DSt {
    /// Memory only; memory data current.
    Uncached,
    /// Sharer bitmask; memory data current.
    Shared(u8),
    /// `owner` holds dirty data (O); `mask` are the sharers (incl. owner).
    Owned {
        /// Responsible cache.
        owner: u8,
        /// All caches with copies.
        mask: u8,
    },
    /// One cache in E or M.
    Excl(u8),
}

/// Network messages.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DMsg {
    /// Cache → directory request.
    Req {
        /// Requester.
        proc: u8,
        /// Read or write.
        kind: PKind,
    },
    /// Directory → owner: surrender to `proc` per `kind`.
    Fwd {
        /// Owner being forwarded to.
        dst: u8,
        /// Requester data goes to.
        proc: u8,
        /// Read or write.
        kind: PKind,
    },
    /// Directory → sharer: invalidate, ack to `proc`.
    Inv {
        /// Sharer being invalidated.
        dst: u8,
        /// Requester acks go to.
        proc: u8,
    },
    /// Sharer → requester invalidation ack.
    InvAck {
        /// Requester.
        dst: u8,
    },
    /// Directory → requester: how many acks to expect on a forwarded
    /// transaction.
    AckInfo {
        /// Requester.
        dst: u8,
        /// Expected acks.
        acks: u8,
    },
    /// Data grant from memory (carries the expected ack count inline).
    MemData {
        /// Requester.
        dst: u8,
        /// Granted state.
        state: CSt,
        /// Data version.
        val: u8,
        /// Expected acks.
        acks: u8,
    },
    /// Data grant from a forwarded owner.
    OwnerData {
        /// Requester.
        dst: u8,
        /// Granted state (M for writes/migration, S otherwise).
        state: CSt,
        /// Data version.
        val: u8,
        /// True if the previous owner kept dirty responsibility (O).
        owner_kept: bool,
    },
    /// Requester → directory: transaction done.
    Unblock {
        /// Requester.
        proc: u8,
        /// The requester's resulting state class.
        excl: bool,
        /// The previous owner kept dirty responsibility.
        owner_kept: bool,
    },
    /// Cache → directory: three-phase writeback request.
    WbReq {
        /// Writer.
        proc: u8,
    },
    /// Directory → cache: writeback grant.
    WbGrant {
        /// Writer.
        dst: u8,
    },
    /// Cache → directory: writeback data (phase 3).
    WbData {
        /// Writer.
        proc: u8,
        /// Data version (meaningful if `dirty`).
        val: u8,
        /// Modified data included.
        dirty: bool,
        /// False if the line was lost to a racing forward/invalidate.
        valid: bool,
    },
}

/// Filler for the unused slots of an [`InlineVec`]; never observed.
impl Default for DMsg {
    fn default() -> DMsg {
        DMsg::WbReq { proc: 0 }
    }
}

/// An outstanding miss at a cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Pending {
    /// Read or write.
    pub kind: PKind,
    /// Expected ack count, once known.
    pub expected: Option<u8>,
    /// Acks received so far.
    pub got: u8,
    /// Data received.
    pub have_data: bool,
    /// Previous owner kept responsibility (from the data message).
    pub owner_kept: bool,
    /// Tentative grant, installed only at completion (the line must not
    /// become visible before all invalidation acks arrive).
    pub grant: CSt,
    /// Tentative data version.
    pub gval: u8,
}

/// Per-cache model state.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DCache {
    /// Line state.
    pub st: CSt,
    /// Data version (meaningful unless `I`).
    pub val: u8,
    /// Outstanding request.
    pub pending: Option<Pending>,
    /// A writeback handshake is outstanding (line parked in the buffer).
    pub wb: Option<(CSt, u8)>,
}

/// Global model state, inline like [`crate::token_model::TState`]:
/// it never allocates and hashes, compares and prints exactly as `Vec`s
/// holding the same elements would.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct DState {
    /// Caches.
    pub caches: InlineVec<DCache, MAX_CACHES>,
    /// Directory state.
    pub dir: DSt,
    /// Directory busy serving `proc` (`true` = writeback handshake).
    pub busy: Option<(u8, bool)>,
    /// Requests deferred at the directory.
    pub deferred: InlineVec<DMsg, DEFERRED_CAP>,
    /// Memory's data version.
    pub memval: u8,
    /// In-flight messages (sorted multiset).
    pub net: InlineVec<DMsg, NET_CAP>,
    /// Last written version (spec variable).
    pub current: u8,
    /// Writes so far.
    pub writes: u8,
}

/// Parameters for the flat directory model.
#[derive(Clone, Copy, Debug)]
pub struct DirModelParams {
    /// Number of caches.
    pub caches: usize,
    /// Write bound (exact value domain).
    pub max_writes: u8,
    /// In-flight message bound (gates new requests, not responses).
    pub max_inflight: usize,
}

impl DirModelParams {
    /// The downscaled configuration matching the token models.
    pub fn small() -> DirModelParams {
        DirModelParams {
            caches: 2,
            max_writes: 2,
            max_inflight: 4,
        }
    }

    /// The most messages in flight in any reachable state. A request is
    /// issued only while fewer than `max_inflight` messages fly, and
    /// the directory serves one transaction at a time, whose messages
    /// (invalidations or their acks, a data grant or a forward plus an
    /// ack count, then the unblock) number at most `caches + 1`.
    fn net_bound(&self) -> usize {
        self.max_inflight + self.caches + 1
    }

    /// The most requests deferred at the directory in any reachable
    /// state: one live request per cache, plus the stale writeback
    /// requests left queued when a write transaction invalidates (or
    /// takes over) a line parked in a writeback buffer — at most
    /// `caches - 1` per write transaction, of which there are at most
    /// `max_writes + caches - 1` (each is issued below the write bound,
    /// and at most one per cache is outstanding).
    fn deferred_bound(&self) -> usize {
        let others = self.caches.saturating_sub(1);
        self.caches + (self.max_writes as usize + others) * others
    }
}

/// The flat MOESI directory model.
#[derive(Clone, Copy, Debug)]
pub struct DirModel {
    /// Parameters.
    pub p: DirModelParams,
}

impl DirModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `p` needs more room than the inline state has: more
    /// than 4 caches, a bound on in-flight messages above 10
    /// (`max_inflight + caches + 1`), or a bound on deferred requests
    /// above 20 (`caches + (max_writes + caches - 1) * (caches - 1)`).
    pub fn new(p: DirModelParams) -> DirModel {
        assert!(
            p.caches <= MAX_CACHES,
            "DirModel holds at most {MAX_CACHES} caches, got {}",
            p.caches
        );
        assert!(
            p.net_bound() <= NET_CAP,
            "DirModel net bound {} exceeds the {NET_CAP}-message capacity",
            p.net_bound()
        );
        assert!(
            p.deferred_bound() <= DEFERRED_CAP,
            "DirModel deferred bound {} exceeds the {DEFERRED_CAP}-request capacity",
            p.deferred_bound()
        );
        DirModel { p }
    }

    fn push(out: &mut Vec<(String, DState)>, label: String, mut s: DState) {
        s.net.sort();
        out.push((label, s));
    }

    /// Directory request processing (shared by fresh and deferred paths).
    fn process_req(&self, s: &mut DState, proc: u8, kind: PKind) {
        let bit = 1u8 << proc;
        match (kind, s.dir) {
            (PKind::Read, DSt::Uncached) => {
                s.net.push(DMsg::MemData {
                    dst: proc,
                    state: CSt::E,
                    val: s.memval,
                    acks: 0,
                });
            }
            (PKind::Read, DSt::Shared(_)) => {
                s.net.push(DMsg::MemData {
                    dst: proc,
                    state: CSt::S,
                    val: s.memval,
                    acks: 0,
                });
            }
            (PKind::Read, DSt::Owned { owner, .. }) | (PKind::Read, DSt::Excl(owner)) => {
                s.net.push(DMsg::Fwd {
                    dst: owner,
                    proc,
                    kind,
                });
                s.net.push(DMsg::AckInfo { dst: proc, acks: 0 });
            }
            (PKind::Write, DSt::Uncached) => {
                s.net.push(DMsg::MemData {
                    dst: proc,
                    state: CSt::M,
                    val: s.memval,
                    acks: 0,
                });
            }
            (PKind::Write, DSt::Shared(mask)) => {
                let others = mask & !bit;
                let n = others.count_ones() as u8;
                for d in 0..self.p.caches as u8 {
                    if others & (1 << d) != 0 {
                        s.net.push(DMsg::Inv { dst: d, proc });
                    }
                }
                s.net.push(DMsg::MemData {
                    dst: proc,
                    state: CSt::M,
                    val: s.memval,
                    acks: n,
                });
            }
            (PKind::Write, DSt::Owned { owner, mask }) => {
                let others = mask & !bit & !(1 << owner);
                let n = others.count_ones() as u8;
                for d in 0..self.p.caches as u8 {
                    if others & (1 << d) != 0 {
                        s.net.push(DMsg::Inv { dst: d, proc });
                    }
                }
                if owner == proc {
                    // Upgrade by the owner: it already has the data.
                    s.net.push(DMsg::AckInfo { dst: proc, acks: n });
                } else {
                    s.net.push(DMsg::Fwd {
                        dst: owner,
                        proc,
                        kind,
                    });
                    s.net.push(DMsg::AckInfo { dst: proc, acks: n });
                }
            }
            (PKind::Write, DSt::Excl(o)) => {
                debug_assert_ne!(o, proc);
                s.net.push(DMsg::Fwd { dst: o, proc, kind });
                s.net.push(DMsg::AckInfo { dst: proc, acks: 0 });
            }
        }
        s.busy = Some((proc, false));
    }

    fn process_wb_req(&self, s: &mut DState, proc: u8) {
        s.busy = Some((proc, true));
        s.net.push(DMsg::WbGrant { dst: proc });
    }

    /// Completes a directory transaction and pops one deferred request.
    fn unbusy(&self, s: &mut DState) {
        s.busy = None;
        if let Some(m) = s.deferred.first().copied() {
            s.deferred.remove(0);
            match m {
                DMsg::Req { proc, kind } => self.process_req(s, proc, kind),
                DMsg::WbReq { proc } => self.process_wb_req(s, proc),
                _ => unreachable!("only requests are deferred"),
            }
        }
    }

    fn try_complete(&self, s: &mut DState, p: usize) {
        let Some(pd) = s.caches[p].pending else {
            return;
        };
        if !pd.have_data || pd.expected != Some(pd.got) {
            return;
        }
        let excl;
        match pd.kind {
            PKind::Read => {
                s.caches[p].st = pd.grant;
                s.caches[p].val = pd.gval;
                excl = matches!(pd.grant, CSt::E | CSt::M);
            }
            PKind::Write => {
                s.caches[p].st = CSt::M;
                s.writes += 1;
                s.current = s.writes;
                s.caches[p].val = s.writes;
                excl = true;
            }
        }
        s.caches[p].pending = None;
        s.net.push(DMsg::Unblock {
            proc: p as u8,
            excl,
            owner_kept: pd.owner_kept,
        });
    }

    /// An owner cache (or its writeback buffer) answers a forward.
    fn serve_fwd(&self, t: &mut DState, dst: usize, proc: u8, kind: PKind) {
        let (st, val, from_wb) = if let Some((wst, wval)) = t.caches[dst].wb {
            (wst, wval, true)
        } else {
            (t.caches[dst].st, t.caches[dst].val, false)
        };
        debug_assert!(
            matches!(st, CSt::E | CSt::M | CSt::O),
            "fwd to non-owner {st:?}"
        );
        let dirty = matches!(st, CSt::M | CSt::O);
        let (new_st, grant, owner_kept) = match kind {
            PKind::Write => (CSt::I, CSt::M, false),
            PKind::Read => {
                if dirty {
                    // MOESI: the dirty owner keeps responsibility as O.
                    (CSt::O, CSt::S, true)
                } else {
                    (CSt::S, CSt::S, false)
                }
            }
        };
        if from_wb {
            if new_st == CSt::I {
                t.caches[dst].wb = None;
            } else {
                t.caches[dst].wb = Some((new_st, val));
            }
        } else {
            t.caches[dst].st = new_st;
        }
        if kind == PKind::Write {
            // If this owner has its own upgrade in flight, its preset
            // "I already have the data" no longer holds: fresh data will
            // arrive from the new owner when the directory serves it.
            if let Some(pd) = &mut t.caches[dst].pending {
                pd.have_data = false;
            }
        }
        t.net.push(DMsg::OwnerData {
            dst: proc,
            state: grant,
            val,
            owner_kept,
        });
    }

    /// Applies a cache permutation `perm`: cache slots, every mask bit
    /// and owner id in the directory state, and every message's node
    /// fields move together. The deferred queue keeps its FIFO *order*
    /// (the directory serves by arrival, never by index, which is what
    /// makes the model exchangeable).
    fn permute(&self, s: &DState, perm: &[usize]) -> DState {
        let mask_map = |mask: u8| {
            (0..perm.len()).fold(0u8, |acc, p| {
                if mask & (1 << p) != 0 {
                    acc | 1 << perm[p]
                } else {
                    acc
                }
            })
        };
        let pm = |p: u8| perm[p as usize] as u8;
        let remap = |m: &DMsg| -> DMsg {
            let mut m = *m;
            match &mut m {
                DMsg::Req { proc, .. }
                | DMsg::Unblock { proc, .. }
                | DMsg::WbReq { proc }
                | DMsg::WbData { proc, .. } => *proc = pm(*proc),
                DMsg::Fwd { dst, proc, .. } | DMsg::Inv { dst, proc } => {
                    *dst = pm(*dst);
                    *proc = pm(*proc);
                }
                DMsg::InvAck { dst }
                | DMsg::AckInfo { dst, .. }
                | DMsg::MemData { dst, .. }
                | DMsg::OwnerData { dst, .. }
                | DMsg::WbGrant { dst } => *dst = pm(*dst),
            }
            m
        };
        let mut t = s.clone();
        for (p, &to) in perm.iter().enumerate() {
            t.caches[to] = s.caches[p];
        }
        t.dir = match s.dir {
            DSt::Uncached => DSt::Uncached,
            DSt::Shared(m) => DSt::Shared(mask_map(m)),
            DSt::Owned { owner, mask } => DSt::Owned {
                owner: pm(owner),
                mask: mask_map(mask),
            },
            DSt::Excl(o) => DSt::Excl(pm(o)),
        };
        t.busy = s.busy.map(|(p, wb)| (pm(p), wb));
        t.deferred = s.deferred.iter().map(remap).collect();
        t.net = s.net.iter().map(remap).collect();
        t.net.sort();
        t
    }
}

impl Model for DirModel {
    type State = DState;

    fn initial(&self) -> Vec<DState> {
        vec![DState {
            caches: repeat_n(DCache::default(), self.p.caches).collect(),
            dir: DSt::Uncached,
            busy: None,
            deferred: InlineVec::new(),
            memval: 0,
            net: InlineVec::new(),
            current: 0,
            writes: 0,
        }]
    }

    fn successors(&self, s: &DState, out: &mut Vec<(String, DState)>) {
        let n = self.p.caches;

        // --- cache request issue and evictions -----------------------------
        if s.net.len() < self.p.max_inflight {
            for p in 0..n {
                let c = &s.caches[p];
                if c.pending.is_some() || c.wb.is_some() {
                    continue;
                }
                match c.st {
                    CSt::I => {
                        for kind in [PKind::Read, PKind::Write] {
                            if kind == PKind::Write && s.writes >= self.p.max_writes {
                                continue;
                            }
                            let mut t = s.clone();
                            t.caches[p].pending = Some(Pending {
                                kind,
                                expected: None,
                                got: 0,
                                have_data: false,
                                owner_kept: false,
                                grant: CSt::I,
                                gval: 0,
                            });
                            t.net.push(DMsg::Req {
                                proc: p as u8,
                                kind,
                            });
                            Self::push(out, format!("req c{p} {kind:?}"), t);
                        }
                    }
                    CSt::S | CSt::O => {
                        if s.writes < self.p.max_writes {
                            let mut t = s.clone();
                            t.caches[p].pending = Some(Pending {
                                kind: PKind::Write,
                                expected: None,
                                got: 0,
                                have_data: c.st == CSt::O,
                                owner_kept: false,
                                grant: CSt::M,
                                gval: c.val,
                            });
                            t.net.push(DMsg::Req {
                                proc: p as u8,
                                kind: PKind::Write,
                            });
                            Self::push(out, format!("upgrade c{p}"), t);
                        }
                    }
                    CSt::E => {
                        if s.writes < self.p.max_writes {
                            let mut t = s.clone();
                            t.caches[p].st = CSt::M;
                            t.writes += 1;
                            t.current = t.writes;
                            t.caches[p].val = t.writes;
                            Self::push(out, format!("silent-store c{p}"), t);
                        }
                    }
                    CSt::M => {}
                }
                match c.st {
                    CSt::S => {
                        let mut t = s.clone();
                        t.caches[p].st = CSt::I;
                        Self::push(out, format!("evict-s c{p}"), t);
                    }
                    CSt::E | CSt::M | CSt::O => {
                        let mut t = s.clone();
                        t.caches[p].wb = Some((c.st, c.val));
                        t.caches[p].st = CSt::I;
                        t.net.push(DMsg::WbReq { proc: p as u8 });
                        Self::push(out, format!("evict-wb c{p}"), t);
                    }
                    CSt::I => {}
                }
            }
        }

        // --- message deliveries ----------------------------------------------
        for (mi, m) in s.net.iter().enumerate() {
            let mut t = s.clone();
            t.net.remove(mi);
            match *m {
                DMsg::Req { proc, kind } => {
                    if t.busy.is_some() {
                        t.deferred.push(DMsg::Req { proc, kind });
                    } else {
                        self.process_req(&mut t, proc, kind);
                    }
                    Self::push(out, format!("dir-req c{proc}"), t);
                }
                DMsg::WbReq { proc } => {
                    if t.busy.is_some() {
                        t.deferred.push(DMsg::WbReq { proc });
                    } else {
                        self.process_wb_req(&mut t, proc);
                    }
                    Self::push(out, format!("dir-wbreq c{proc}"), t);
                }
                DMsg::Fwd { dst, proc, kind } => {
                    self.serve_fwd(&mut t, dst as usize, proc, kind);
                    Self::push(out, format!("fwd c{dst}->c{proc}"), t);
                }
                DMsg::Inv { dst, proc } => {
                    let d = dst as usize;
                    t.caches[d].st = CSt::I;
                    t.caches[d].wb = None;
                    t.net.push(DMsg::InvAck { dst: proc });
                    Self::push(out, format!("inv c{dst}"), t);
                }
                DMsg::InvAck { dst } => {
                    let d = dst as usize;
                    if let Some(pd) = &mut t.caches[d].pending {
                        pd.got += 1;
                    }
                    self.try_complete(&mut t, d);
                    Self::push(out, format!("invack ->c{dst}"), t);
                }
                DMsg::AckInfo { dst, acks } => {
                    let d = dst as usize;
                    if let Some(pd) = &mut t.caches[d].pending {
                        pd.expected = Some(acks);
                    }
                    self.try_complete(&mut t, d);
                    Self::push(out, format!("ackinfo ->c{dst}"), t);
                }
                DMsg::MemData {
                    dst,
                    state,
                    val,
                    acks,
                } => {
                    let d = dst as usize;
                    if let Some(pd) = &mut t.caches[d].pending {
                        pd.have_data = true;
                        pd.expected = Some(acks);
                        pd.grant = state;
                        pd.gval = val;
                    }
                    self.try_complete(&mut t, d);
                    Self::push(out, format!("memdata ->c{dst}"), t);
                }
                DMsg::OwnerData {
                    dst,
                    state,
                    val,
                    owner_kept,
                } => {
                    let d = dst as usize;
                    if let Some(pd) = &mut t.caches[d].pending {
                        pd.have_data = true;
                        pd.owner_kept = owner_kept;
                        pd.grant = state;
                        pd.gval = val;
                    }
                    self.try_complete(&mut t, d);
                    Self::push(out, format!("ownerdata ->c{dst}"), t);
                }
                DMsg::Unblock {
                    proc,
                    excl,
                    owner_kept,
                } => {
                    let bit = 1u8 << proc;
                    t.dir = if excl {
                        DSt::Excl(proc)
                    } else if owner_kept {
                        match t.dir {
                            DSt::Excl(o) => DSt::Owned {
                                owner: o,
                                mask: (1 << o) | bit,
                            },
                            DSt::Owned { owner, mask } => DSt::Owned {
                                owner,
                                mask: mask | bit,
                            },
                            d => {
                                debug_assert!(false, "owner_kept from {d:?}");
                                d
                            }
                        }
                    } else {
                        match t.dir {
                            DSt::Shared(m) => DSt::Shared(m | bit),
                            DSt::Excl(o) => DSt::Shared((1 << o) | bit),
                            DSt::Uncached => DSt::Shared(bit),
                            DSt::Owned { owner, mask } => DSt::Owned {
                                owner,
                                mask: mask | bit,
                            },
                        }
                    };
                    self.unbusy(&mut t);
                    Self::push(out, format!("unblock c{proc}"), t);
                }
                DMsg::WbGrant { dst } => {
                    let d = dst as usize;
                    let msg = match t.caches[d].wb.take() {
                        Some((CSt::M | CSt::O, val)) => DMsg::WbData {
                            proc: dst,
                            val,
                            dirty: true,
                            valid: true,
                        },
                        Some((_, val)) => DMsg::WbData {
                            proc: dst,
                            val,
                            dirty: false,
                            valid: true,
                        },
                        None => DMsg::WbData {
                            proc: dst,
                            val: 0,
                            dirty: false,
                            valid: false,
                        },
                    };
                    t.net.push(msg);
                    Self::push(out, format!("wbgrant c{dst}"), t);
                }
                DMsg::WbData {
                    proc,
                    val,
                    dirty,
                    valid,
                } => {
                    if valid {
                        if dirty {
                            t.memval = val;
                        }
                        let bit = 1u8 << proc;
                        t.dir = match t.dir {
                            DSt::Excl(o) if o == proc => DSt::Uncached,
                            DSt::Owned { owner, mask } if owner == proc => {
                                let rest = mask & !bit;
                                if rest == 0 {
                                    DSt::Uncached
                                } else {
                                    DSt::Shared(rest)
                                }
                            }
                            DSt::Owned { owner, mask } => DSt::Owned {
                                owner,
                                mask: mask & !bit,
                            },
                            DSt::Shared(m) => {
                                let rest = m & !bit;
                                if rest == 0 {
                                    DSt::Uncached
                                } else {
                                    DSt::Shared(rest)
                                }
                            }
                            d => d,
                        };
                    }
                    self.unbusy(&mut t);
                    Self::push(out, format!("wbdata c{proc}"), t);
                }
            }
        }
    }

    fn invariant(&self, s: &DState) -> Result<(), String> {
        // Single-writer / multiple-reader.
        let excl = s
            .caches
            .iter()
            .filter(|c| matches!(c.st, CSt::E | CSt::M))
            .count();
        let readers = s
            .caches
            .iter()
            .filter(|c| matches!(c.st, CSt::S | CSt::O))
            .count();
        if excl > 1 {
            return Err(format!("{excl} exclusive copies"));
        }
        if excl == 1 && readers > 0 {
            return Err("exclusive copy coexists with shared copies".into());
        }
        let owners = s.caches.iter().filter(|c| c.st == CSt::O).count();
        if owners > 1 {
            return Err(format!("{owners} owned copies"));
        }
        // Serial view: every readable copy holds the latest value.
        for (i, c) in s.caches.iter().enumerate() {
            if c.st != CSt::I && c.val != s.current {
                return Err(format!(
                    "serial view: c{i} {:?} holds v{} but current is v{}",
                    c.st, c.val, s.current
                ));
            }
        }
        // Memory must be current when nobody is responsible for dirty data
        // and nothing dirty is in flight or pending.
        let any_dirty =
            s.caches.iter().any(|c| {
                matches!(c.st, CSt::M | CSt::O) || matches!(c.wb, Some((CSt::M | CSt::O, _)))
            }) || s.caches.iter().any(|c| c.pending.is_some())
                || !s.net.is_empty()
                || s.busy.is_some();
        if !any_dirty && s.memval != s.current {
            return Err(format!(
                "memory stale: v{} vs current v{}",
                s.memval, s.current
            ));
        }
        Ok(())
    }

    fn is_quiescent(&self, s: &DState) -> bool {
        s.net.is_empty()
            && s.busy.is_none()
            && s.deferred.is_empty()
            && s.caches
                .iter()
                .all(|c| c.pending.is_none() && c.wb.is_none())
    }

    /// Full cache-permutation quotient. Unlike the persistent-request
    /// token models, the directory resolves every race by *arrival
    /// order* (busy state + FIFO deferred queue), never by cache index,
    /// so relabelling caches maps runs to runs; the invariant and
    /// quiescence predicate are index-blind. See DESIGN.md §17.
    fn canonicalize(&self, s: &DState) -> DState {
        let mut best = s.clone();
        for perm in permutations(self.p.caches).into_iter().skip(1) {
            let t = self.permute(s, &perm);
            if t < best {
                best = t;
            }
        }
        best
    }

    /// Footprints: bit *p* = cache *p*, plus the directory complex
    /// (`DIR`: dir state, busy, deferred queue, memval), the message
    /// budget (`NET` — every delivery removes a message and most
    /// actions push one), and the spec variables (`SPEC`). The ample
    /// classes are *non-completing* invalidation-ack deliveries, one
    /// class per destination: a pure `got` increment commutes with
    /// every co-enabled or subsequently-enabled action (disjoint
    /// fields; it cannot complete the transaction, so no `Unblock` or
    /// write is produced), and the blanket `NET` footprint on all other
    /// deliveries forces full expansion whenever anything else is in
    /// flight. Completing acks carry `SPEC` and stay classless. The
    /// soundness argument is in DESIGN.md §17.
    fn action_meta(&self, s: &DState, label: &str) -> ActionMeta {
        const DIR: u64 = 1 << 8;
        const NET: u64 = 1 << 9;
        const SPEC: u64 = 1 << 10;
        let mut words = label.split_whitespace();
        let kind = words.next().unwrap_or("");
        let arg = words.next().unwrap_or("");
        let idx = arg
            .trim_start_matches("->")
            .strip_prefix('c')
            .and_then(|w| w.split("->").next())
            .and_then(|w| w.parse::<u64>().ok());
        let node = |i: Option<u64>| i.map_or(u64::MAX, |i| 1 << i);
        let rw = |bits: u64| ActionMeta::rw(bits, bits);
        match kind {
            "req" | "upgrade" | "evict-wb" => rw(node(idx) | NET),
            "silent-store" => rw(node(idx) | SPEC),
            "evict-s" => rw(node(idx)),
            "dir-req" | "dir-wbreq" | "unblock" | "wbdata" => rw(DIR | NET),
            "fwd" | "inv" | "wbgrant" => rw(node(idx) | NET),
            "invack" => {
                let Some(d) = idx else {
                    return ActionMeta::OPAQUE;
                };
                let completing = s.caches[d as usize]
                    .pending
                    .is_some_and(|pd| pd.have_data && pd.expected == Some(pd.got + 1));
                if completing {
                    rw(node(idx) | NET | SPEC)
                } else {
                    ActionMeta {
                        reads: node(idx) | NET,
                        writes: node(idx) | NET,
                        class: Some(d as u32),
                    }
                }
            }
            "ackinfo" | "memdata" | "ownerdata" => rw(node(idx) | NET | SPEC),
            _ => ActionMeta::OPAQUE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_parallel, CheckOptions};

    #[test]
    fn flat_directory_verifies() {
        let m = DirModel::new(DirModelParams::small());
        let r = check_parallel(&m, &CheckOptions::default()).expect("flat directory must verify");
        assert!(r.states > 100);
        assert!(r.progress_checked);
    }

    #[test]
    fn small_and_four_cache_configurations_fit() {
        for p in [
            DirModelParams::small(),
            DirModelParams {
                caches: MAX_CACHES,
                ..DirModelParams::small()
            },
        ] {
            let s = DirModel::new(p).initial().remove(0);
            assert_eq!(s.caches.len(), p.caches);
        }
    }

    #[test]
    #[should_panic(expected = "at most 4 caches")]
    fn rejects_more_than_four_caches() {
        let _ = DirModel::new(DirModelParams {
            caches: 5,
            ..DirModelParams::small()
        });
    }

    #[test]
    #[should_panic(expected = "exceeds the 10-message capacity")]
    fn rejects_a_net_bound_above_capacity() {
        let _ = DirModel::new(DirModelParams {
            max_inflight: 8,
            ..DirModelParams::small()
        });
    }

    #[test]
    #[should_panic(expected = "exceeds the 20-request capacity")]
    fn rejects_a_deferred_bound_above_capacity() {
        let _ = DirModel::new(DirModelParams {
            caches: MAX_CACHES,
            max_writes: 4,
            ..DirModelParams::small()
        });
    }

    #[test]
    fn invariant_rejects_two_writers() {
        let m = DirModel::new(DirModelParams::small());
        let mut s = m.initial().remove(0);
        s.caches[0].st = CSt::M;
        s.caches[1].st = CSt::M;
        assert!(m.invariant(&s).is_err());
    }

    #[test]
    fn invariant_rejects_stale_shared_copy() {
        let m = DirModel::new(DirModelParams::small());
        let mut s = m.initial().remove(0);
        s.caches[0].st = CSt::S;
        s.caches[0].val = 0;
        s.current = 1;
        s.writes = 1;
        s.memval = 1;
        let err = m.invariant(&s).unwrap_err();
        assert!(err.contains("serial view"), "{err}");
    }

    #[test]
    fn invariant_rejects_stale_memory_at_rest() {
        let m = DirModel::new(DirModelParams::small());
        let mut s = m.initial().remove(0);
        s.current = 1;
        s.writes = 1;
        // nobody dirty, nothing in flight, memory stale
        let err = m.invariant(&s).unwrap_err();
        assert!(err.contains("memory stale"), "{err}");
    }
}
