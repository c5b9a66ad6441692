//! The inter-CMP directory at a home memory controller.
//!
//! Tracks which chips cache each block it is home for (§2): Uncached /
//! Shared / Owned / Exclusive, with a per-block busy state that defers
//! conflicting requests until the current requester's unblock arrives.
//! A realistic configuration stores the directory in DRAM (80 ns per
//! access); `DirectoryCMP-zero` sets that latency to zero.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use tokencmp_proto::{Block, CmpId, Layout, SystemConfig};
use tokencmp_sim::{Component, Ctx, Dur, NodeId};

use crate::msg::{ChipGrant, DirMsg, HomeResult, ReqKind};

/// The inter-CMP directory state for one block.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum HomeState {
    /// Only memory holds the block.
    #[default]
    Uncached,
    /// One or more chips hold read-only copies; memory is current.
    Shared(u64),
    /// `owner` holds dirty data; `sharers` (a chip mask, possibly
    /// including the owner) hold read-only copies.
    Owned {
        /// Chip with the dirty data.
        owner: CmpId,
        /// Chips with read-only copies.
        sharers: u64,
    },
    /// One chip may modify the block.
    Exclusive(CmpId),
}

/// Counters exposed by a home directory after a run.
#[derive(Clone, Debug, Default)]
pub struct HomeStats {
    /// Requests served (GETS + GETX).
    pub requests: u64,
    /// Requests answered from DRAM.
    pub from_memory: u64,
    /// Requests forwarded to an owner chip (the indirection that costs
    /// sharing misses their third hop).
    pub forwarded: u64,
    /// Chip writebacks absorbed.
    pub writebacks: u64,
}

#[derive(Debug)]
enum HomeTxn {
    Request {
        requester_chip: CmpId,
        old: HomeState,
    },
    Wb {
        chip: CmpId,
    },
}

#[derive(Debug, Default)]
struct HomeEntry {
    state: HomeState,
    busy: Option<HomeTxn>,
    deferred: VecDeque<(NodeId, DirMsg)>,
}

/// The inter-CMP directory + memory controller for one chip's address
/// slice.
pub struct DirHome {
    cfg: Rc<SystemConfig>,
    layout: Layout,
    me: NodeId,
    cmp: CmpId,
    entries: HashMap<Block, HomeEntry>,
    /// Run statistics.
    pub stats: HomeStats,
}

impl DirHome {
    /// Creates the home directory for chip `cmp`.
    pub fn new(cfg: Rc<SystemConfig>, me: NodeId, cmp: CmpId) -> DirHome {
        DirHome {
            layout: cfg.layout(),
            me,
            cmp,
            entries: HashMap::new(),
            cfg,
            stats: HomeStats::default(),
        }
    }

    /// The directory state for `block` (for tests and audits).
    pub fn state(&self, block: Block) -> HomeState {
        self.entries
            .get(&block)
            .map(|e| e.state)
            .unwrap_or_default()
    }

    /// Latency of a directory-state access plus controller logic.
    fn ctl_delay(&self) -> Dur {
        self.cfg.memctl_latency + self.cfg.dir_access_latency
    }

    /// Latency when data must also be fetched from DRAM (directory and
    /// data accesses overlap).
    fn data_delay(&self) -> Dur {
        self.cfg.memctl_latency + self.cfg.dir_access_latency.max(self.cfg.dram_latency)
    }

    fn chip_of(&self, l2_bank: NodeId) -> CmpId {
        self.layout.placement(l2_bank).cmp()
    }

    /// The L2 bank on `chip` responsible for `block`.
    fn bank_on(&self, chip: CmpId, block: Block) -> NodeId {
        self.layout.l2(chip, self.cfg.l2_bank_of(block))
    }

    fn mask_without(mask: u64, chip: CmpId) -> u64 {
        mask & !(1u64 << chip.0)
    }

    fn chips_in(mask: u64) -> impl Iterator<Item = CmpId> {
        (0..64).filter(move |i| mask & (1u64 << i) != 0).map(CmpId)
    }

    fn handle_req(
        &mut self,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        ctx: &mut Ctx<'_, DirMsg>,
    ) {
        debug_assert_eq!(self.cfg.home_of(block), self.cmp, "request at wrong home");
        let req_chip = self.chip_of(requester);
        let entry = self.entries.entry(block).or_default();
        if entry.busy.is_some() {
            entry.deferred.push_back((
                requester,
                DirMsg::L2Req {
                    block,
                    requester,
                    kind,
                },
            ));
            return;
        }
        self.stats.requests += 1;
        let old = entry.state;
        entry.busy = Some(HomeTxn::Request {
            requester_chip: req_chip,
            old,
        });
        let ctl = self.ctl_delay();
        let data = self.data_delay();
        match (kind, old) {
            (ReqKind::Read, HomeState::Uncached) => {
                self.stats.from_memory += 1;
                ctx.send_after(
                    data,
                    requester,
                    DirMsg::MemData {
                        block,
                        state: ChipGrant::E,
                        acks: 0,
                    },
                );
            }
            (ReqKind::Read, HomeState::Shared(_)) => {
                self.stats.from_memory += 1;
                ctx.send_after(
                    data,
                    requester,
                    DirMsg::MemData {
                        block,
                        state: ChipGrant::S,
                        acks: 0,
                    },
                );
            }
            (ReqKind::Read, HomeState::Owned { owner, .. })
            | (ReqKind::Read, HomeState::Exclusive(owner)) => {
                self.stats.forwarded += 1;
                ctx.send_after(
                    ctl,
                    self.bank_on(owner, block),
                    DirMsg::FwdL2 {
                        block,
                        kind,
                        requester,
                    },
                );
                ctx.send_after(ctl, requester, DirMsg::FwdInfo { block, acks: 0 });
            }
            (ReqKind::Write, HomeState::Uncached) => {
                self.stats.from_memory += 1;
                ctx.send_after(
                    data,
                    requester,
                    DirMsg::MemData {
                        block,
                        state: ChipGrant::M,
                        acks: 0,
                    },
                );
            }
            (ReqKind::Write, HomeState::Shared(mask)) => {
                self.stats.from_memory += 1;
                let invs = Self::mask_without(mask, req_chip);
                let n = invs.count_ones();
                for c in Self::chips_in(invs) {
                    ctx.send_after(
                        ctl,
                        self.bank_on(c, block),
                        DirMsg::InvL2 { block, requester },
                    );
                }
                ctx.send_after(
                    data,
                    requester,
                    DirMsg::MemData {
                        block,
                        state: ChipGrant::M,
                        acks: n,
                    },
                );
            }
            (ReqKind::Write, HomeState::Owned { owner, sharers }) => {
                let invs = Self::mask_without(Self::mask_without(sharers, req_chip), owner);
                let n = invs.count_ones();
                for c in Self::chips_in(invs) {
                    ctx.send_after(
                        ctl,
                        self.bank_on(c, block),
                        DirMsg::InvL2 { block, requester },
                    );
                }
                if owner == req_chip {
                    // The owner chip is upgrading: it already holds the
                    // dirty data, so only invalidation counts matter.
                    ctx.send_after(ctl, requester, DirMsg::FwdInfo { block, acks: n });
                } else {
                    self.stats.forwarded += 1;
                    ctx.send_after(
                        ctl,
                        self.bank_on(owner, block),
                        DirMsg::FwdL2 {
                            block,
                            kind,
                            requester,
                        },
                    );
                    ctx.send_after(ctl, requester, DirMsg::FwdInfo { block, acks: n });
                }
            }
            (ReqKind::Write, HomeState::Exclusive(owner)) => {
                debug_assert_ne!(owner, req_chip, "exclusive chip re-requesting");
                self.stats.forwarded += 1;
                ctx.send_after(
                    ctl,
                    self.bank_on(owner, block),
                    DirMsg::FwdL2 {
                        block,
                        kind,
                        requester,
                    },
                );
                ctx.send_after(ctl, requester, DirMsg::FwdInfo { block, acks: 0 });
            }
        }
    }

    fn handle_unblock(&mut self, block: Block, result: HomeResult, ctx: &mut Ctx<'_, DirMsg>) {
        let entry = self.entries.get_mut(&block).expect("unblock without entry");
        let Some(HomeTxn::Request {
            requester_chip,
            old,
        }) = entry.busy.take()
        else {
            panic!("unblock with unexpected txn");
        };
        let req_bit = 1u64 << requester_chip.0;
        entry.state = match (result, old) {
            (HomeResult::Exclusive, _) => HomeState::Exclusive(requester_chip),
            (HomeResult::Shared, HomeState::Shared(m)) => HomeState::Shared(m | req_bit),
            (HomeResult::Shared, HomeState::Exclusive(o)) => {
                HomeState::Shared((1u64 << o.0) | req_bit)
            }
            (HomeResult::Shared, HomeState::Uncached) => HomeState::Shared(req_bit),
            (HomeResult::Shared, HomeState::Owned { owner, sharers }) => {
                // Defensive: a shared result from an owned block keeps the
                // owner responsible.
                HomeState::Owned {
                    owner,
                    sharers: sharers | req_bit,
                }
            }
            (HomeResult::OwnedByPrevious, HomeState::Owned { owner, sharers }) => {
                HomeState::Owned {
                    owner,
                    sharers: sharers | req_bit,
                }
            }
            (HomeResult::OwnedByPrevious, HomeState::Exclusive(o)) => HomeState::Owned {
                owner: o,
                sharers: (1 << o.0) | req_bit,
            },
            (HomeResult::OwnedByPrevious, s) => {
                unreachable!("owned result from {s:?}")
            }
        };
        let q = std::mem::take(&mut entry.deferred);
        self.drain(q, ctx);
    }

    fn handle_wb_req(&mut self, block: Block, src: NodeId, ctx: &mut Ctx<'_, DirMsg>) {
        let chip = self.chip_of(src);
        let entry = self.entries.entry(block).or_default();
        if entry.busy.is_some() {
            entry.deferred.push_back((src, DirMsg::WbReqL2 { block }));
            return;
        }
        entry.busy = Some(HomeTxn::Wb { chip });
        ctx.send_after(self.ctl_delay(), src, DirMsg::WbGrantL2 { block });
    }

    fn handle_wb_data(
        &mut self,
        block: Block,
        src: NodeId,
        _dirty: bool,
        valid: bool,
        ctx: &mut Ctx<'_, DirMsg>,
    ) {
        let chip = self.chip_of(src);
        let entry = self.entries.get_mut(&block).expect("wb data without entry");
        let Some(HomeTxn::Wb { chip: granted }) = entry.busy.take() else {
            panic!("wb data with unexpected txn");
        };
        debug_assert_eq!(chip, granted);
        self.stats.writebacks += 1;
        if valid {
            entry.state = match entry.state {
                HomeState::Exclusive(o) if o == chip => HomeState::Uncached,
                HomeState::Owned { owner, sharers } if owner == chip => {
                    let rest = Self::mask_without(sharers, chip);
                    if rest == 0 {
                        HomeState::Uncached
                    } else {
                        HomeState::Shared(rest)
                    }
                }
                HomeState::Shared(m) => {
                    let rest = Self::mask_without(m, chip);
                    if rest == 0 {
                        HomeState::Uncached
                    } else {
                        HomeState::Shared(rest)
                    }
                }
                s => s, // stale writeback from a chip that lost the block
            };
        }
        let q = std::mem::take(&mut entry.deferred);
        self.drain(q, ctx);
    }

    fn drain(&mut self, mut q: VecDeque<(NodeId, DirMsg)>, ctx: &mut Ctx<'_, DirMsg>) {
        while let Some((src, msg)) = q.pop_front() {
            // Handlers re-defer internally if the block went busy again;
            // preserve order by re-queueing the rest behind it.
            let became_busy = {
                match msg {
                    DirMsg::L2Req {
                        block,
                        requester,
                        kind,
                    } => {
                        self.handle_req(block, requester, kind, ctx);
                        self.entries
                            .get(&block)
                            .is_some_and(|e| e.busy.is_some())
                            .then_some(block)
                    }
                    DirMsg::WbReqL2 { block } => {
                        self.handle_wb_req(block, src, ctx);
                        self.entries
                            .get(&block)
                            .is_some_and(|e| e.busy.is_some())
                            .then_some(block)
                    }
                    other => unreachable!("deferred {other:?} at home"),
                }
            };
            if let Some(block) = became_busy {
                let entry = self.entries.get_mut(&block).unwrap();
                while let Some(item) = q.pop_front() {
                    entry.deferred.push_back(item);
                }
            }
        }
    }
}

impl Component<DirMsg> for DirHome {
    fn on_msg(&mut self, src: NodeId, msg: DirMsg, ctx: &mut Ctx<'_, DirMsg>) {
        match msg {
            DirMsg::L2Req {
                block,
                requester,
                kind,
            } => self.handle_req(block, requester, kind, ctx),
            DirMsg::UnblockHome { block, result } => self.handle_unblock(block, result, ctx),
            DirMsg::WbReqL2 { block } => self.handle_wb_req(block, src, ctx),
            DirMsg::WbDataL2 {
                block,
                dirty,
                valid,
            } => self.handle_wb_data(block, src, dirty, valid, ctx),
            other => unreachable!("unexpected message at home: {other:?}"),
        }
    }

    fn on_wake(&mut self, _tag: u64, _ctx: &mut Ctx<'_, DirMsg>) {
        unreachable!("home directories schedule no wakeups")
    }

    fn kind(&self) -> &'static str {
        "home"
    }
}

impl std::fmt::Debug for DirHome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirHome")
            .field("me", &self.me)
            .field("cmp", &self.cmp)
            .field("entries", &self.entries.len())
            .finish()
    }
}
