//! The DirectoryCMP L2 bank: the intra-CMP directory.
//!
//! Each bank tracks which local L1s hold a block (owner pointer + sharer
//! mask), the chip-level rights granted by the inter-CMP directory
//! (S / Owned / Exclusive), and serializes conflicting requests with a
//! per-block busy state and deferred-request queue — the structure the
//! paper describes in §2.
//!
//! Two races are handled without deferral, because deferring them would
//! deadlock the two-level hierarchy:
//!
//! * a forward/invalidate from the home arriving while this chip has its
//!   own request outstanding at the home (the home is busy serving someone
//!   else first) is serviced immediately against the chip's current
//!   rights, and
//! * a forward arriving while the chip is awaiting a writeback grant is
//!   answered from the not-yet-written-back data, after which the
//!   writeback completes with `valid: false`.
//!
//! All data responses route through the L2 — the strictly hierarchical
//! behaviour whose intra-CMP traffic cost Figure 7b measures.

use std::collections::VecDeque;
use std::rc::Rc;

use tokencmp_proto::{Block, CmpId, IdMap, Layout, SystemConfig};
use tokencmp_sim::{Component, Ctx, NodeId};

use crate::msg::{ChipGrant, DirMsg, GrantSource, HomeResult, L1Grant, ReqKind};

/// Chip-level rights over a block (entry absent = no rights).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChipRights {
    /// Read-only; home memory is current.
    S,
    /// Read-only but this chip holds the only up-to-date (dirty) data.
    O,
    /// Exclusive; the chip may modify.
    E,
}

/// Counters exposed by a DirectoryCMP L2 bank after a run.
#[derive(Clone, Debug, Default)]
pub struct DirL2Stats {
    /// Local L1 requests received.
    pub local_requests: u64,
    /// Requests that had to go to the home directory.
    pub remote_requests: u64,
    /// Requests satisfied entirely on chip.
    pub local_satisfied: u64,
    /// Chip-level evictions (recall + home writeback).
    pub evictions: u64,
}

#[derive(Debug)]
struct LocalTxn {
    requester: NodeId,
    kind: ReqKind,
    awaiting_data: bool,
    acks_left: u32,
    /// Set by the owner L1's migratory decision.
    migratory: bool,
    data_dirty: bool,
}

#[derive(Debug)]
struct RemoteTxn {
    requester: NodeId,
    kind: ReqKind,
    have_data: bool,
    chip_grant: Option<ChipGrant>,
    data_dirty: bool,
    acks_expected: Option<u32>,
    acks_got: u32,
    /// Completion arrived while a service invalidation was collecting; run
    /// the finish phase when the service drains.
    completion_pending: bool,
    /// Which tier is supplying the data (latency attribution on the grant).
    source: GrantSource,
}

#[derive(Debug)]
struct ServeTxn {
    requester: NodeId,
    kind: ReqKind,
    awaiting_data: bool,
    acks_left: u32,
    data_dirty: bool,
    migratory: bool,
}

#[derive(Debug)]
enum Txn {
    Local(LocalTxn),
    Remote(RemoteTxn),
    /// Post-remote local invalidation (GETX upgrade), then grant.
    FinishInv {
        requester: NodeId,
        kind: ReqKind,
        grant: L1Grant,
        source: GrantSource,
        acks_left: u32,
    },
    AwaitUnblock,
    ServeFwd(ServeTxn),
    ServeInv {
        requester: NodeId,
        acks_left: u32,
    },
    L1Wb,
    EvictLocal {
        awaiting_data: bool,
        acks_left: u32,
    },
    EvictWb {
        lost: bool,
    },
}

/// An invalidation being served *concurrently* with a remote transaction
/// (see module docs).
#[derive(Debug)]
struct ServiceInv {
    requester: NodeId,
    acks_left: u32,
}

#[derive(Debug)]
struct Entry {
    rights: ChipRights,
    owner_l1: Option<NodeId>,
    sharers: u16,
    dirty: bool,
    busy: Option<Txn>,
    service: Option<ServiceInv>,
    deferred: VecDeque<(NodeId, DirMsg)>,
    stamp: u64,
}

/// The sharer-mask bit of local L1 `l1` of chip `cmp`: bit `i` is the
/// chip's L1 `i` in [`Layout::l1s_on`] order.
fn bit_of(layout: &Layout, cmp: CmpId, l1: NodeId) -> u16 {
    let idx = layout.l1_index(cmp, l1).expect("message from a foreign L1");
    1 << idx
}

/// The local L1 nodes of chip `cmp` selected by a sharer mask.
fn nodes_of(layout: &Layout, cmp: CmpId, mask: u16) -> Vec<NodeId> {
    layout
        .l1s_on(cmp)
        .enumerate()
        .filter(|&(i, _)| mask & (1 << i) != 0)
        .map(|(_, n)| n)
        .collect()
}

/// A DirectoryCMP L2 bank / intra-CMP directory.
pub struct DirL2 {
    cfg: Rc<SystemConfig>,
    layout: Layout,
    me: NodeId,
    cmp: CmpId,
    entries: IdMap<Block, Entry>,
    /// Per-set resident blocks, for capacity management.
    sets: IdMap<u64, Vec<Block>>,
    stamp: u64,
    /// Run statistics.
    pub stats: DirL2Stats,
}

impl DirL2 {
    /// Creates an L2 bank controller for chip `cmp`, bank `bank`.
    pub fn new(cfg: Rc<SystemConfig>, me: NodeId, cmp: CmpId, _bank: u16) -> DirL2 {
        let layout = cfg.layout();
        assert!(
            2 * u32::from(cfg.procs_per_cmp) <= u16::BITS,
            "sharer mask holds at most 16 local L1s"
        );
        DirL2 {
            layout,
            me,
            cmp,
            entries: IdMap::default(),
            sets: IdMap::default(),
            stamp: 0,
            cfg,
            stats: DirL2Stats::default(),
        }
    }

    /// The number of resident blocks.
    pub fn line_count(&self) -> usize {
        self.entries.len()
    }

    /// Chip rights per resident block (for quiescence audits).
    pub fn rights(&self) -> Vec<(Block, ChipRights)> {
        self.entries.iter().map(|(&b, e)| (b, e.rights)).collect()
    }

    /// Full entry dump for debugging/audits.
    pub fn debug_entry(&self, block: Block) -> Option<String> {
        self.entries.get(&block).map(|e| {
            format!(
                "rights={:?} owner_l1={:?} sharers={:#06b} dirty={} busy={} service={}",
                e.rights,
                e.owner_l1,
                e.sharers,
                e.dirty,
                e.busy.is_some(),
                e.service.is_some()
            )
        })
    }

    fn home_of(&self, block: Block) -> NodeId {
        self.layout.mem(self.cfg.home_of(block))
    }

    fn set_of(&self, block: Block) -> u64 {
        let shift = (self.cfg.banks_per_cmp as u64)
            .next_power_of_two()
            .trailing_zeros();
        (block.0 >> shift) % self.cfg.l2_sets as u64
    }

    /// Creates (or touches) the entry for `block`, enforcing capacity by
    /// starting an eviction of the LRU non-busy entry when a set
    /// overflows.
    fn touch_entry(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self.entries.get_mut(&block) {
            e.stamp = stamp;
            return;
        }
        self.entries.insert(
            block,
            Entry {
                rights: ChipRights::S, // provisional; set by the txn
                owner_l1: None,
                sharers: 0,
                dirty: false,
                busy: None,
                service: None,
                deferred: VecDeque::new(),
                stamp,
            },
        );
        let set = self.set_of(block);
        let resident = self.sets.entry(set).or_default();
        resident.push(block);
        if resident.len() > self.cfg.l2_ways {
            // Evict the LRU non-busy resident (skip if all are busy; the
            // next insertion re-checks).
            let victim = resident
                .iter()
                .copied()
                .filter(|b| {
                    *b != block
                        && self
                            .entries
                            .get(b)
                            .is_some_and(|e| e.busy.is_none() && e.service.is_none())
                })
                .min_by_key(|b| self.entries[b].stamp);
            if let Some(v) = victim {
                self.start_eviction(v, ctx);
            }
        }
    }

    fn remove_entry(&mut self, block: Block) -> VecDeque<(NodeId, DirMsg)> {
        let e = self.entries.remove(&block).expect("entry vanished");
        let set = self.set_of(block);
        if let Some(v) = self.sets.get_mut(&set) {
            v.retain(|&b| b != block);
        }
        e.deferred
    }

    fn defer(&mut self, block: Block, src: NodeId, msg: DirMsg) {
        self.entries
            .get_mut(&block)
            .expect("deferral without entry")
            .deferred
            .push_back((src, msg));
    }

    /// Re-dispatches requests deferred behind a completed transaction.
    fn process_deferred(
        &mut self,
        mut queue: VecDeque<(NodeId, DirMsg)>,
        ctx: &mut Ctx<'_, DirMsg>,
    ) {
        while let Some((src, msg)) = queue.pop_front() {
            self.dispatch(src, msg, ctx);
            // If the first deferred request made the block busy again, the
            // rest must wait behind it.
            if let Some(DirMsg::L1Req { block, .. } | DirMsg::WbReqL1 { block, .. }) =
                queue.front().map(|&(_, m)| m)
            {
                if self.entries.get(&block).is_some_and(|e| e.busy.is_some()) {
                    let e = self.entries.get_mut(&block).unwrap();
                    while let Some(item) = queue.pop_front() {
                        e.deferred.push_back(item);
                    }
                    return;
                }
            }
        }
    }

    // ---- local request handling -------------------------------------------------

    fn handle_l1_req(
        &mut self,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        ctx: &mut Ctx<'_, DirMsg>,
    ) {
        self.stats.local_requests += 1;
        if self.entries.get(&block).is_some_and(|e| e.busy.is_some()) {
            self.defer(
                block,
                requester,
                DirMsg::L1Req {
                    block,
                    requester,
                    kind,
                },
            );
            return;
        }
        let have = self.entries.get(&block).map(|e| (e.rights, e.owner_l1));
        match (kind, have) {
            // On-chip satisfiable reads.
            (ReqKind::Read, Some((_, Some(owner)))) => {
                self.stats.local_satisfied += 1;
                let e = self.entries.get_mut(&block).unwrap();
                e.busy = Some(Txn::Local(LocalTxn {
                    requester,
                    kind,
                    awaiting_data: true,
                    acks_left: 0,
                    migratory: false,
                    data_dirty: false,
                }));
                ctx.send_after(
                    self.cfg.l2_latency,
                    owner,
                    DirMsg::FwdL1 {
                        block,
                        kind: ReqKind::Read,
                    },
                );
            }
            (ReqKind::Read, Some((rights, None))) => {
                self.stats.local_satisfied += 1;
                let e = self.entries.get_mut(&block).unwrap();
                let grant = if rights == ChipRights::E && e.sharers == 0 {
                    e.owner_l1 = Some(requester);
                    L1Grant::E
                } else {
                    e.sharers |= bit_of(&self.layout, self.cmp, requester);
                    L1Grant::S
                };
                e.busy = Some(Txn::AwaitUnblock);
                ctx.send_after(
                    self.cfg.l2_latency,
                    requester,
                    DirMsg::GrantToL1 {
                        block,
                        state: grant,
                        source: GrantSource::Intra,
                    },
                );
            }
            // On-chip satisfiable write: the chip is exclusive.
            (ReqKind::Write, Some((ChipRights::E, owner))) => {
                self.stats.local_satisfied += 1;
                let req_bit = bit_of(&self.layout, self.cmp, requester);
                let e = self.entries.get_mut(&block).unwrap();
                let inv_mask = e.sharers & !req_bit;
                e.sharers &= req_bit; // keep only the requester (upgraded below)
                let targets = nodes_of(&self.layout, self.cmp, inv_mask);
                let e = self.entries.get_mut(&block).unwrap();
                e.busy = Some(Txn::Local(LocalTxn {
                    requester,
                    kind,
                    awaiting_data: owner.is_some(),
                    acks_left: targets.len() as u32,
                    migratory: false,
                    data_dirty: false,
                }));
                for t in targets {
                    ctx.send_after(self.cfg.l2_latency, t, DirMsg::InvL1 { block });
                }
                if let Some(o) = owner {
                    ctx.send_after(
                        self.cfg.l2_latency,
                        o,
                        DirMsg::FwdL1 {
                            block,
                            kind: ReqKind::Write,
                        },
                    );
                }
                self.maybe_finish_local(block, ctx);
            }
            // Everything else needs the home directory.
            (_, _) => {
                self.stats.remote_requests += 1;
                self.touch_entry(block, ctx);
                let e = self.entries.get_mut(&block).unwrap();
                // A chip holding dirty data (O) upgrading to write already
                // has valid data; the home only orchestrates invalidations.
                let have_data = have.is_some_and(|(r, _)| r == ChipRights::O);
                e.busy = Some(Txn::Remote(RemoteTxn {
                    requester,
                    kind,
                    have_data,
                    chip_grant: have_data.then_some(ChipGrant::M),
                    data_dirty: have_data,
                    acks_expected: None,
                    acks_got: 0,
                    completion_pending: false,
                    // An upgrade already holds the data; the inter-CMP home
                    // round trip is what governs the latency. Otherwise the
                    // data response (MemData / DataL2ToL2) sets the source.
                    source: GrantSource::Inter,
                }));
                ctx.send_after(
                    self.cfg.l2_latency,
                    self.home_of(block),
                    DirMsg::L2Req {
                        block,
                        requester: self.me,
                        kind,
                    },
                );
            }
        }
    }

    /// Completes a local transaction once data and acks are in.
    fn maybe_finish_local(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        let e = self.entries.get_mut(&block).unwrap();
        let Some(Txn::Local(t)) = &e.busy else {
            return;
        };
        if t.awaiting_data || t.acks_left > 0 {
            return;
        }
        let (requester, kind, migratory, data_dirty) =
            (t.requester, t.kind, t.migratory, t.data_dirty);
        e.dirty |= data_dirty;
        let grant = match kind {
            ReqKind::Write => {
                e.owner_l1 = Some(requester);
                e.sharers = 0;
                L1Grant::M
            }
            ReqKind::Read if migratory => {
                // Dirty owner relinquished: pass read/write access on.
                e.owner_l1 = Some(requester);
                e.sharers = 0;
                L1Grant::M
            }
            ReqKind::Read => {
                // The previous owner (if any) downgraded to a sharer.
                if let Some(o) = e.owner_l1.take() {
                    e.sharers |= bit_of(&self.layout, self.cmp, o);
                }
                let e = self.entries.get_mut(&block).unwrap();
                e.sharers |= bit_of(&self.layout, self.cmp, requester);
                L1Grant::S
            }
        };
        let e = self.entries.get_mut(&block).unwrap();
        e.busy = Some(Txn::AwaitUnblock);
        ctx.send_after(
            self.cfg.l2_latency,
            requester,
            DirMsg::GrantToL1 {
                block,
                state: grant,
                source: GrantSource::Intra,
            },
        );
    }

    // ---- remote transaction ----------------------------------------------------

    fn feed_remote<F>(&mut self, block: Block, f: F, ctx: &mut Ctx<'_, DirMsg>)
    where
        F: FnOnce(&mut RemoteTxn),
    {
        let e = self.entries.get_mut(&block).expect("remote feed w/o entry");
        let Some(Txn::Remote(t)) = &mut e.busy else {
            panic!("unexpected remote-protocol message for {block:?}");
        };
        f(t);
        self.maybe_finish_remote(block, ctx);
    }

    fn maybe_finish_remote(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        let e = self.entries.get_mut(&block).unwrap();
        let Some(Txn::Remote(t)) = &mut e.busy else {
            return;
        };
        let acks_done = t.acks_expected.is_some_and(|n| t.acks_got >= n);
        if !(t.have_data && acks_done) {
            return;
        }
        if e.service.is_some() {
            // A concurrent invalidation is still collecting local acks;
            // finish when it drains so ack streams stay unambiguous.
            t.completion_pending = true;
            return;
        }
        let (requester, kind, chip_grant, data_dirty, source) = (
            t.requester,
            t.kind,
            t.chip_grant.expect("data without grant state"),
            t.data_dirty,
            t.source,
        );
        // The home entry is finalized now; local invalidation is chip-
        // internal business.
        let result = match (kind, chip_grant) {
            (ReqKind::Write, _) | (_, ChipGrant::M) | (_, ChipGrant::E) => HomeResult::Exclusive,
            (ReqKind::Read, ChipGrant::S) => {
                if data_dirty {
                    HomeResult::OwnedByPrevious
                } else {
                    HomeResult::Shared
                }
            }
        };
        ctx.send_after(
            self.cfg.l2_latency,
            self.home_of(block),
            DirMsg::UnblockHome { block, result },
        );
        // Update chip rights.
        let e = self.entries.get_mut(&block).unwrap();
        let (rights, grant) = match (kind, chip_grant) {
            (ReqKind::Write, _) => (ChipRights::E, L1Grant::M),
            (ReqKind::Read, ChipGrant::M) => (ChipRights::E, L1Grant::M),
            (ReqKind::Read, ChipGrant::E) => (ChipRights::E, L1Grant::E),
            (ReqKind::Read, ChipGrant::S) => (ChipRights::S, L1Grant::S),
        };
        e.rights = rights;
        e.dirty = data_dirty && chip_grant == ChipGrant::M;
        // Invalidate stale local sharers on a write (upgrade path).
        let req_bit = bit_of(&self.layout, self.cmp, requester);
        let e = self.entries.get_mut(&block).unwrap();
        let inv_mask = if kind == ReqKind::Write {
            e.sharers & !req_bit
        } else {
            0
        };
        e.sharers &= !inv_mask;
        let targets = nodes_of(&self.layout, self.cmp, inv_mask);
        let e = self.entries.get_mut(&block).unwrap();
        if targets.is_empty() {
            self.grant_after_remote(block, requester, kind, grant, source, ctx);
        } else {
            e.busy = Some(Txn::FinishInv {
                requester,
                kind,
                grant,
                source,
                acks_left: targets.len() as u32,
            });
            for t in targets {
                ctx.send_after(self.cfg.l2_latency, t, DirMsg::InvL1 { block });
            }
        }
    }

    fn grant_after_remote(
        &mut self,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        grant: L1Grant,
        source: GrantSource,
        ctx: &mut Ctx<'_, DirMsg>,
    ) {
        let e = self.entries.get_mut(&block).unwrap();
        match (kind, grant) {
            (ReqKind::Write, _) | (_, L1Grant::M) | (_, L1Grant::E) => {
                e.owner_l1 = Some(requester);
                e.sharers = 0;
            }
            _ => {
                e.sharers |= bit_of(&self.layout, self.cmp, requester);
                let e = self.entries.get_mut(&block).unwrap();
                e.owner_l1 = None;
            }
        }
        let e = self.entries.get_mut(&block).unwrap();
        e.busy = Some(Txn::AwaitUnblock);
        ctx.send_after(
            self.cfg.l2_latency,
            requester,
            DirMsg::GrantToL1 {
                block,
                state: grant,
                source,
            },
        );
    }

    // ---- serving the home (forwards & invalidations) -----------------------------

    fn handle_fwd_l2(
        &mut self,
        block: Block,
        kind: ReqKind,
        remote: NodeId,
        ctx: &mut Ctx<'_, DirMsg>,
    ) {
        let Some(e) = self.entries.get_mut(&block) else {
            debug_assert!(false, "forward to a chip without rights");
            return;
        };
        match &mut e.busy {
            None => {
                // Become busy serving the forward.
                let owner = e.owner_l1;
                if let Some(o) = owner {
                    e.busy = Some(Txn::ServeFwd(ServeTxn {
                        requester: remote,
                        kind,
                        awaiting_data: true,
                        acks_left: 0,
                        data_dirty: false,
                        migratory: false,
                    }));
                    ctx.send_after(self.cfg.l2_latency, o, DirMsg::FwdL1 { block, kind });
                } else {
                    // Data is at the L2; invalidations (if any) first.
                    let relinquish =
                        kind == ReqKind::Write || (e.dirty && self.cfg.migratory_sharing);
                    let inv_mask = if relinquish { e.sharers } else { 0 };
                    e.sharers &= !inv_mask;
                    let targets = nodes_of(&self.layout, self.cmp, inv_mask);
                    let e = self.entries.get_mut(&block).unwrap();
                    e.busy = Some(Txn::ServeFwd(ServeTxn {
                        requester: remote,
                        kind,
                        awaiting_data: false,
                        acks_left: targets.len() as u32,
                        data_dirty: e.dirty,
                        migratory: relinquish && kind == ReqKind::Read,
                    }));
                    for t in targets {
                        ctx.send_after(self.cfg.l2_latency, t, DirMsg::InvL1 { block });
                    }
                    self.maybe_finish_serve(block, ctx);
                }
            }
            Some(Txn::Remote(t)) => {
                // We are upgrading (rights O) while someone else's request
                // was serialized first at the home: answer from our dirty
                // data now.
                debug_assert_eq!(e.rights, ChipRights::O);
                let dirty = e.dirty;
                if kind == ReqKind::Write
                    || (dirty && self.cfg.migratory_sharing && kind == ReqKind::Read)
                {
                    // Rights leave the chip; our own outstanding request
                    // will bring fresh data back.
                    t.have_data = false;
                    t.chip_grant = None;
                    t.data_dirty = false;
                    // Writes and migratory read transfers both hand over M.
                    let state = ChipGrant::M;
                    // Local sharers (if any) are stale now; invalidate
                    // them via the service slot.
                    let inv_mask = e.sharers;
                    e.sharers = 0;
                    e.rights = ChipRights::S; // rights effectively gone; entry kept for the txn
                    e.dirty = false;
                    let targets = nodes_of(&self.layout, self.cmp, inv_mask);
                    for t in &targets {
                        ctx.send_after(self.cfg.l2_latency, *t, DirMsg::InvL1 { block });
                    }
                    if !targets.is_empty() {
                        let e = self.entries.get_mut(&block).unwrap();
                        e.service = Some(ServiceInv {
                            requester: NodeId(u32::MAX), // acks stay local
                            acks_left: targets.len() as u32,
                        });
                    }
                    ctx.send_after(
                        self.cfg.l2_latency,
                        remote,
                        DirMsg::DataL2ToL2 {
                            block,
                            state,
                            dirty,
                        },
                    );
                } else {
                    // Read of our dirty data without migration: stay O.
                    ctx.send_after(
                        self.cfg.l2_latency,
                        remote,
                        DirMsg::DataL2ToL2 {
                            block,
                            state: ChipGrant::S,
                            dirty,
                        },
                    );
                }
            }
            Some(Txn::EvictWb { lost }) => {
                // Eviction raced with the forward; answer from the limbo
                // data and let the writeback complete as invalid.
                *lost = true;
                let dirty = e.dirty;
                // The eviction is already underway, so ownership always
                // moves: dirty data migrates even on a read.
                let state = if kind == ReqKind::Write || dirty {
                    ChipGrant::M
                } else {
                    ChipGrant::S
                };
                ctx.send_after(
                    self.cfg.l2_latency,
                    remote,
                    DirMsg::DataL2ToL2 {
                        block,
                        state,
                        dirty,
                    },
                );
            }
            Some(_) => {
                // Bounded local work: defer briefly.
                self.defer(
                    block,
                    remote,
                    DirMsg::FwdL2 {
                        block,
                        kind,
                        requester: remote,
                    },
                );
            }
        }
    }

    fn maybe_finish_serve(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        let e = self.entries.get_mut(&block).unwrap();
        let Some(Txn::ServeFwd(t)) = &e.busy else {
            return;
        };
        if t.awaiting_data || t.acks_left > 0 {
            return;
        }
        let (remote, kind, dirty, migratory) = (t.requester, t.kind, t.data_dirty, t.migratory);
        e.dirty |= dirty;
        let dirty = e.dirty;
        let (state, drop_entry) = match kind {
            ReqKind::Write => (ChipGrant::M, true),
            ReqKind::Read if migratory => (ChipGrant::M, true),
            ReqKind::Read => {
                if dirty {
                    // Keep dirty data; become/remain the owner chip.
                    e.rights = ChipRights::O;
                    (ChipGrant::S, false)
                } else {
                    e.rights = ChipRights::S;
                    (ChipGrant::S, false)
                }
            }
        };
        ctx.send_after(
            self.cfg.l2_latency,
            remote,
            DirMsg::DataL2ToL2 {
                block,
                state,
                dirty,
            },
        );
        if drop_entry {
            let q = self.remove_entry(block);
            self.process_deferred(q, ctx);
        } else {
            let e = self.entries.get_mut(&block).unwrap();
            e.busy = None;
            let q = std::mem::take(&mut e.deferred);
            self.process_deferred(q, ctx);
        }
    }

    fn handle_inv_l2(&mut self, block: Block, remote: NodeId, ctx: &mut Ctx<'_, DirMsg>) {
        let Some(e) = self.entries.get_mut(&block) else {
            // Silently evicted earlier; acknowledge blindly.
            ctx.send_after(self.cfg.l2_latency, remote, DirMsg::InvAckL2 { block });
            return;
        };
        // Deferral must leave the entry untouched: clearing the sharer
        // mask before knowing whether we process now would make the
        // deferred invalidation a no-op and leave stale readable copies
        // behind (a bug this module once had — found by fuzzing).
        if matches!(
            e.busy,
            Some(
                Txn::Local(_)
                    | Txn::AwaitUnblock
                    | Txn::FinishInv { .. }
                    | Txn::ServeFwd(_)
                    | Txn::ServeInv { .. }
                    | Txn::L1Wb
                    | Txn::EvictLocal { .. }
            )
        ) {
            self.defer(
                block,
                remote,
                DirMsg::InvL2 {
                    block,
                    requester: remote,
                },
            );
            return;
        }
        let inv_mask = e.sharers;
        e.sharers = 0;
        let targets = nodes_of(&self.layout, self.cmp, inv_mask);
        let e = self.entries.get_mut(&block).unwrap();
        match &mut e.busy {
            None => {
                if targets.is_empty() {
                    let q = self.remove_entry(block);
                    ctx.send_after(self.cfg.l2_latency, remote, DirMsg::InvAckL2 { block });
                    self.process_deferred(q, ctx);
                } else {
                    e.busy = Some(Txn::ServeInv {
                        requester: remote,
                        acks_left: targets.len() as u32,
                    });
                    for t in targets {
                        ctx.send_after(self.cfg.l2_latency, t, DirMsg::InvL1 { block });
                    }
                }
            }
            Some(Txn::Remote(_)) => {
                // Invalidate while our own (upgrade) request waits at the
                // home: collect acks in the service slot, then ack.
                if targets.is_empty() {
                    e.rights = ChipRights::S; // no data rights left
                    e.dirty = false;
                    ctx.send_after(self.cfg.l2_latency, remote, DirMsg::InvAckL2 { block });
                } else {
                    e.service = Some(ServiceInv {
                        requester: remote,
                        acks_left: targets.len() as u32,
                    });
                    for t in targets {
                        ctx.send_after(self.cfg.l2_latency, t, DirMsg::InvL1 { block });
                    }
                }
            }
            Some(Txn::EvictWb { lost }) => {
                *lost = true;
                ctx.send_after(self.cfg.l2_latency, remote, DirMsg::InvAckL2 { block });
            }
            Some(_) => unreachable!("deferrable transactions handled above"),
        }
    }

    // ---- L1 responses -------------------------------------------------------------

    fn handle_l1_data(
        &mut self,
        block: Block,
        dirty: bool,
        relinquished: bool,
        valid: bool,
        ctx: &mut Ctx<'_, DirMsg>,
    ) {
        debug_assert!(valid, "intra-level forwards always find the line");
        let e = self.entries.get_mut(&block).expect("data without entry");
        if relinquished {
            e.owner_l1 = None;
        } else if let Some(o) = e.owner_l1.take() {
            e.sharers |= bit_of(&self.layout, self.cmp, o);
        }
        let e = self.entries.get_mut(&block).unwrap();
        e.dirty |= dirty;
        match &mut e.busy {
            Some(Txn::Local(t)) => {
                t.awaiting_data = false;
                t.migratory = relinquished && t.kind == ReqKind::Read;
                t.data_dirty = dirty;
                self.maybe_finish_local(block, ctx);
            }
            Some(Txn::ServeFwd(t)) => {
                t.awaiting_data = false;
                t.data_dirty = dirty;
                t.migratory = relinquished || t.kind == ReqKind::Write;
                self.maybe_finish_serve(block, ctx);
            }
            Some(Txn::EvictLocal { awaiting_data, .. }) => {
                *awaiting_data = false;
                self.maybe_finish_evict_local(block, ctx);
            }
            other => panic!("L1 data with unexpected txn {other:?}"),
        }
    }

    fn handle_l1_ack(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        let e = self.entries.get_mut(&block).expect("ack without entry");
        // Service invalidations collect acks independently of the busy txn.
        if let Some(s) = &mut e.service {
            s.acks_left -= 1;
            if s.acks_left == 0 {
                let remote = s.requester;
                e.service = None;
                if remote != NodeId(u32::MAX) {
                    e.rights = ChipRights::S;
                    e.dirty = false;
                    ctx.send_after(self.cfg.l2_latency, remote, DirMsg::InvAckL2 { block });
                }
                let e = self.entries.get_mut(&block).unwrap();
                if let Some(Txn::Remote(t)) = &mut e.busy {
                    if t.completion_pending {
                        t.completion_pending = false;
                        self.maybe_finish_remote(block, ctx);
                    }
                }
            }
            return;
        }
        match &mut e.busy {
            Some(Txn::Local(t)) => {
                t.acks_left -= 1;
                self.maybe_finish_local(block, ctx);
            }
            Some(Txn::ServeFwd(t)) => {
                t.acks_left -= 1;
                self.maybe_finish_serve(block, ctx);
            }
            Some(Txn::ServeInv {
                requester,
                acks_left,
            }) => {
                *acks_left -= 1;
                if *acks_left == 0 {
                    let remote = *requester;
                    let q = self.remove_entry(block);
                    ctx.send_after(self.cfg.l2_latency, remote, DirMsg::InvAckL2 { block });
                    self.process_deferred(q, ctx);
                }
            }
            Some(Txn::FinishInv {
                requester,
                kind,
                grant,
                source,
                acks_left,
            }) => {
                *acks_left -= 1;
                if *acks_left == 0 {
                    let (r, k, g, s) = (*requester, *kind, *grant, *source);
                    self.grant_after_remote(block, r, k, g, s, ctx);
                }
            }
            Some(Txn::EvictLocal { acks_left, .. }) => {
                *acks_left -= 1;
                self.maybe_finish_evict_local(block, ctx);
            }
            other => panic!("L1 ack with unexpected txn {other:?}"),
        }
    }

    // ---- writebacks ----------------------------------------------------------------

    fn handle_wb_req_l1(&mut self, block: Block, l1: NodeId, ctx: &mut Ctx<'_, DirMsg>) {
        let Some(e) = self.entries.get_mut(&block) else {
            // The chip lost the block (e.g. served a forward) while the
            // L1's writeback request was in flight; grant so the L1 can
            // drain its buffer (it will answer valid or not).
            ctx.send_after(self.cfg.l2_latency, l1, DirMsg::WbGrantL1 { block });
            return;
        };
        if e.busy.is_some() {
            self.defer(block, l1, DirMsg::WbReqL1 { block });
            return;
        }
        e.busy = Some(Txn::L1Wb);
        ctx.send_after(self.cfg.l2_latency, l1, DirMsg::WbGrantL1 { block });
    }

    fn handle_wb_data_l1(
        &mut self,
        block: Block,
        l1: NodeId,
        dirty: bool,
        valid: bool,
        ctx: &mut Ctx<'_, DirMsg>,
    ) {
        let Some(e) = self.entries.get_mut(&block) else {
            return; // entry vanished; nothing to update
        };
        if valid {
            if e.owner_l1 == Some(l1) {
                e.owner_l1 = None;
            }
            e.dirty |= dirty;
            let bit = bit_of(&self.layout, self.cmp, l1);
            let e = self.entries.get_mut(&block).unwrap();
            e.sharers &= !bit;
        }
        let e = self.entries.get_mut(&block).unwrap();
        if matches!(e.busy, Some(Txn::L1Wb)) {
            e.busy = None;
            let q = std::mem::take(&mut e.deferred);
            self.process_deferred(q, ctx);
        }
    }

    // ---- eviction --------------------------------------------------------------------

    fn start_eviction(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        let e = self.entries.get_mut(&block).expect("evicting ghost");
        debug_assert!(e.busy.is_none() && e.service.is_none());
        if e.rights == ChipRights::S && e.owner_l1.is_none() {
            // Clean shared chip copies drop silently; invalidate local
            // sharers without telling the home (stale masks are tolerated).
            let targets = nodes_of(&self.layout, self.cmp, e.sharers);
            e.sharers = 0;
            if targets.is_empty() {
                let q = self.remove_entry(block);
                self.process_deferred(q, ctx);
            } else {
                e.busy = Some(Txn::EvictLocal {
                    awaiting_data: false,
                    acks_left: targets.len() as u32,
                });
                for t in targets {
                    ctx.send_after(self.cfg.l2_latency, t, DirMsg::InvL1 { block });
                }
            }
            return;
        }
        self.stats.evictions += 1;
        let owner = e.owner_l1;
        let targets = nodes_of(&self.layout, self.cmp, e.sharers);
        e.sharers = 0;
        let e = self.entries.get_mut(&block).unwrap();
        e.busy = Some(Txn::EvictLocal {
            awaiting_data: owner.is_some(),
            acks_left: targets.len() as u32,
        });
        if let Some(o) = owner {
            ctx.send_after(
                self.cfg.l2_latency,
                o,
                DirMsg::FwdL1 {
                    block,
                    kind: ReqKind::Write, // full recall
                },
            );
        }
        for t in targets {
            ctx.send_after(self.cfg.l2_latency, t, DirMsg::InvL1 { block });
        }
        self.maybe_finish_evict_local(block, ctx);
    }

    fn maybe_finish_evict_local(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        let e = self.entries.get_mut(&block).unwrap();
        let Some(Txn::EvictLocal {
            awaiting_data,
            acks_left,
        }) = &e.busy
        else {
            return;
        };
        if *awaiting_data || *acks_left > 0 {
            return;
        }
        if e.rights == ChipRights::S && e.owner_l1.is_none() {
            // Silent drop completed.
            let q = self.remove_entry(block);
            self.process_deferred(q, ctx);
            return;
        }
        e.busy = Some(Txn::EvictWb { lost: false });
        // Any forwards/invalidations deferred during the local recall must
        // be served *before* waiting on the home, or the home (busy with
        // the transaction that sent them) would never grant our writeback.
        let deferred = std::mem::take(&mut e.deferred);
        let mut keep = VecDeque::new();
        for (src, m) in deferred {
            match m {
                DirMsg::FwdL2 { .. } | DirMsg::InvL2 { .. } => self.dispatch(src, m, ctx),
                other => keep.push_back((src, other)),
            }
        }
        if let Some(e) = self.entries.get_mut(&block) {
            debug_assert!(e.deferred.is_empty());
            e.deferred = keep;
        } else {
            debug_assert!(keep.is_empty(), "entry removed with deferred work");
        }
        ctx.send_after(
            self.cfg.l2_latency,
            self.home_of(block),
            DirMsg::WbReqL2 { block },
        );
    }

    fn handle_wb_grant_l2(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        let e = self
            .entries
            .get_mut(&block)
            .expect("wb grant without entry");
        let Some(Txn::EvictWb { lost }) = &e.busy else {
            panic!("wb grant with unexpected txn");
        };
        let lost = *lost;
        let dirty = e.dirty;
        ctx.send_after(
            self.cfg.l2_latency,
            self.home_of(block),
            DirMsg::WbDataL2 {
                block,
                dirty: dirty && !lost,
                valid: !lost,
            },
        );
        let q = self.remove_entry(block);
        self.process_deferred(q, ctx);
    }

    // ---- dispatch -----------------------------------------------------------------

    fn dispatch(&mut self, src: NodeId, msg: DirMsg, ctx: &mut Ctx<'_, DirMsg>) {
        match msg {
            DirMsg::L1Req {
                block,
                requester,
                kind,
            } => self.handle_l1_req(block, requester, kind, ctx),
            DirMsg::DataL1ToL2 {
                block,
                dirty,
                relinquished,
                valid,
            } => self.handle_l1_data(block, dirty, relinquished, valid, ctx),
            DirMsg::InvAckL1 { block } => self.handle_l1_ack(block, ctx),
            DirMsg::UnblockL1 { block } => {
                let e = self.entries.get_mut(&block).expect("unblock without entry");
                debug_assert!(matches!(e.busy, Some(Txn::AwaitUnblock)));
                e.busy = None;
                let q = std::mem::take(&mut e.deferred);
                self.process_deferred(q, ctx);
            }
            DirMsg::WbReqL1 { block } => self.handle_wb_req_l1(block, src, ctx),
            DirMsg::WbDataL1 {
                block,
                dirty,
                valid,
            } => self.handle_wb_data_l1(block, src, dirty, valid, ctx),
            DirMsg::WbGrantL2 { block } => self.handle_wb_grant_l2(block, ctx),
            DirMsg::FwdL2 {
                block,
                kind,
                requester,
            } => self.handle_fwd_l2(block, kind, requester, ctx),
            DirMsg::InvL2 { block, requester } => self.handle_inv_l2(block, requester, ctx),
            DirMsg::FwdInfo { block, acks } => self.feed_remote(
                block,
                |t| {
                    t.acks_expected = Some(acks);
                },
                ctx,
            ),
            DirMsg::MemData { block, state, acks } => self.feed_remote(
                block,
                |t| {
                    t.have_data = true;
                    t.chip_grant = Some(state);
                    t.data_dirty = false;
                    t.acks_expected = Some(acks);
                    t.source = GrantSource::Mem;
                },
                ctx,
            ),
            DirMsg::DataL2ToL2 {
                block,
                state,
                dirty,
            } => self.feed_remote(
                block,
                |t| {
                    t.have_data = true;
                    t.chip_grant = Some(state);
                    t.data_dirty = dirty;
                    t.source = GrantSource::Inter;
                    if t.acks_expected.is_none() {
                        // FwdInfo may still be in flight; forwarded paths
                        // without invalidations expect zero acks and the
                        // info message will confirm.
                    }
                },
                ctx,
            ),
            DirMsg::InvAckL2 { block } => self.feed_remote(
                block,
                |t| {
                    t.acks_got += 1;
                },
                ctx,
            ),
            other => unreachable!("unexpected message at L2: {other:?}"),
        }
    }
}

impl Component<DirMsg> for DirL2 {
    fn on_msg(&mut self, src: NodeId, msg: DirMsg, ctx: &mut Ctx<'_, DirMsg>) {
        self.dispatch(src, msg, ctx);
    }

    fn on_wake(&mut self, _tag: u64, _ctx: &mut Ctx<'_, DirMsg>) {
        unreachable!("L2 banks schedule no wakeups")
    }

    fn kind(&self) -> &'static str {
        "l2"
    }
}

impl std::fmt::Debug for DirL2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirL2")
            .field("me", &self.me)
            .field("cmp", &self.cmp)
            .field("entries", &self.entries.len())
            .finish()
    }
}
