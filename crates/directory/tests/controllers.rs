//! Controller-level tests for DirectoryCMP: each controller is driven
//! through a mini kernel with recording stubs at every other layout slot,
//! so the two-level directory's handshakes (busy states, three-phase
//! writebacks, unblocks, migratory transfers) can be asserted message by
//! message.

use std::cell::RefCell;
use std::rc::Rc;

use tokencmp_directory::{
    ChipGrant, DirHome, DirL1, DirL2, DirMsg, GrantSource, HomeResult, HomeState, L1Grant, ReqKind,
};
use tokencmp_proto::{AccessKind, Block, CmpId, CpuReq, CpuResp, ProcId, SystemConfig, Unit};
use tokencmp_sim::{Component, Ctx, Kernel, NodeId, Time};

type Log = Rc<RefCell<Vec<(NodeId, NodeId, Time, DirMsg)>>>;

struct Recorder {
    me: NodeId,
    log: Log,
}

impl Component<DirMsg> for Recorder {
    fn on_msg(&mut self, src: NodeId, msg: DirMsg, ctx: &mut Ctx<'_, DirMsg>) {
        self.log.borrow_mut().push((self.me, src, ctx.now, msg));
    }
    fn on_wake(&mut self, _tag: u64, _ctx: &mut Ctx<'_, DirMsg>) {}
}

/// A node of the test kernel: the controller under test or a recorder.
enum Node {
    Rec(Recorder),
    L1(Box<DirL1>),
    L2(Box<DirL2>),
    Home(Box<DirHome>),
}

impl Node {
    fn as_component(&mut self) -> &mut dyn Component<DirMsg> {
        match self {
            Node::Rec(n) => n,
            Node::L1(n) => n.as_mut(),
            Node::L2(n) => n.as_mut(),
            Node::Home(n) => n.as_mut(),
        }
    }

    fn home(&self) -> &DirHome {
        match self {
            Node::Home(h) => h,
            _ => panic!("not the home under test"),
        }
    }
}

impl Component<DirMsg> for Node {
    fn on_msg(&mut self, src: NodeId, msg: DirMsg, ctx: &mut Ctx<'_, DirMsg>) {
        self.as_component().on_msg(src, msg, ctx);
    }
    fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, DirMsg>) {
        self.as_component().on_wake(tag, ctx);
    }
}

type TestKernel = Kernel<DirMsg, Vec<Node>>;

fn build(cfg: &Rc<SystemConfig>, under_test: Unit) -> (TestKernel, Log, NodeId) {
    let layout = cfg.layout();
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let target = layout.node(under_test);
    let node = |me: NodeId| {
        if me != target {
            let log = log.clone();
            return Node::Rec(Recorder { me, log });
        }
        match under_test {
            Unit::L1D(p) | Unit::L1I(p) => Node::L1(Box::new(DirL1::new(cfg.clone(), me, p))),
            Unit::L2Bank(c, b) => Node::L2(Box::new(DirL2::new(cfg.clone(), me, c, b))),
            Unit::Mem(c) => Node::Home(Box::new(DirHome::new(cfg.clone(), me, c))),
            Unit::Proc(_) => unreachable!(),
        }
    };
    let nodes = (0..layout.total_nodes()).map(|i| node(NodeId(i))).collect();
    (Kernel::new_instant(nodes), log, target)
}

fn received_by(log: &Log, node: NodeId) -> Vec<DirMsg> {
    log.borrow()
        .iter()
        .filter(|&&(me, _, _, _)| me == node)
        .map(|&(_, _, _, m)| m)
        .collect()
}

fn cfg() -> Rc<SystemConfig> {
    Rc::new(SystemConfig::small_test())
}

// ---- L1 ---------------------------------------------------------------------------

#[test]
fn l1_miss_requests_the_right_bank_and_unblocks_after_grant() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p));
    let block = Block(0x41); // bank 1 on chip 0
    k.inject(
        layout.proc(p),
        l1,
        DirMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Load,
            block,
        }),
    );
    k.run(10_000, Time::from_ns(10));
    let bank = layout.l2(CmpId(0), cfg.l2_bank_of(block));
    assert!(received_by(&log, bank).iter().any(|m| matches!(
        m,
        DirMsg::L1Req {
            kind: ReqKind::Read,
            ..
        }
    )));
    // Grant S: the L1 completes and unblocks the bank.
    k.inject(
        bank,
        l1,
        DirMsg::GrantToL1 {
            block,
            state: L1Grant::S,
            source: GrantSource::Intra,
        },
    );
    k.run(10_000, Time::from_ns(50));
    assert!(received_by(&log, bank)
        .iter()
        .any(|m| matches!(m, DirMsg::UnblockL1 { .. })));
    assert!(received_by(&log, layout.proc(p)).iter().any(|m| matches!(
        m,
        DirMsg::CpuResp(CpuResp::Done {
            kind: AccessKind::Load,
            ..
        })
    )));
}

#[test]
fn l1_store_on_exclusive_clean_is_a_silent_hit() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p));
    let block = Block(0x41);
    let bank = layout.l2(CmpId(0), cfg.l2_bank_of(block));
    // Load that ends E.
    k.inject(
        layout.proc(p),
        l1,
        DirMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Load,
            block,
        }),
    );
    k.run(10_000, Time::from_ns(10));
    k.inject(
        bank,
        l1,
        DirMsg::GrantToL1 {
            block,
            state: L1Grant::E,
            source: GrantSource::Intra,
        },
    );
    k.run(10_000, Time::from_ns(50));
    let before = received_by(&log, bank).len();
    // Store: silent E→M upgrade; no new traffic to the bank.
    k.inject(
        layout.proc(p),
        l1,
        DirMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Store,
            block,
        }),
    );
    k.run(10_000, Time::from_ns(100));
    assert_eq!(received_by(&log, bank).len(), before, "no L2 traffic");
    // The forwarded response later reports dirty data.
    k.inject(
        bank,
        l1,
        DirMsg::FwdL1 {
            block,
            kind: ReqKind::Write,
        },
    );
    k.run(100_000, Time::from_ns(400));
    assert!(received_by(&log, bank).iter().any(|m| matches!(
        m,
        DirMsg::DataL1ToL2 {
            dirty: true,
            relinquished: true,
            valid: true,
            ..
        }
    )));
}

#[test]
fn l1_migratory_decision_is_made_by_the_owner() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p));
    let block = Block(0x41);
    let bank = layout.l2(CmpId(0), cfg.l2_bank_of(block));
    // Acquire M via a store grant.
    k.inject(
        layout.proc(p),
        l1,
        DirMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Store,
            block,
        }),
    );
    k.run(10_000, Time::from_ns(10));
    k.inject(
        bank,
        l1,
        DirMsg::GrantToL1 {
            block,
            state: L1Grant::M,
            source: GrantSource::Intra,
        },
    );
    // Run past the response-delay window before the forward arrives.
    k.run(100_000, Time::from_ns(200));
    // A *read* forward to a modified line migrates it wholesale.
    k.inject(
        bank,
        l1,
        DirMsg::FwdL1 {
            block,
            kind: ReqKind::Read,
        },
    );
    k.run(100_000, Time::from_ns(400));
    assert!(received_by(&log, bank).iter().any(|m| matches!(
        m,
        DirMsg::DataL1ToL2 {
            dirty: true,
            relinquished: true,
            ..
        }
    )));
}

#[test]
fn l1_acknowledges_invalidations_blindly() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p));
    let block = Block(0x99);
    let bank = layout.l2(CmpId(0), cfg.l2_bank_of(block));
    // No line present: the ack still flows (stale sharer bits tolerated).
    k.inject(bank, l1, DirMsg::InvL1 { block });
    k.run(10_000, Time::from_ns(50));
    assert!(received_by(&log, bank)
        .iter()
        .any(|m| matches!(m, DirMsg::InvAckL1 { .. })));
}

#[test]
fn l1_runs_the_three_phase_writeback() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p));
    // Fill one L1 set (2 ways in small_test) with M lines, then a third
    // grant forces a dirty eviction.
    let set_stride = cfg.l1_sets as u64;
    let blocks = [
        Block(0x10),
        Block(0x10 + set_stride),
        Block(0x10 + 2 * set_stride),
    ];
    for &b in &blocks {
        let bank = layout.l2(CmpId(0), cfg.l2_bank_of(b));
        k.inject(
            layout.proc(p),
            l1,
            DirMsg::Cpu(CpuReq::Access {
                kind: AccessKind::Store,
                block: b,
            }),
        );
        k.run(10_000, Time::MAX);
        k.inject(
            bank,
            l1,
            DirMsg::GrantToL1 {
                block: b,
                state: L1Grant::M,
                source: GrantSource::Intra,
            },
        );
        k.run(10_000, Time::MAX);
    }
    let victim = blocks[0];
    let bank = layout.l2(CmpId(0), cfg.l2_bank_of(victim));
    assert!(
        received_by(&log, bank)
            .iter()
            .any(|m| matches!(m, DirMsg::WbReqL1 { block } if *block == victim)),
        "dirty eviction must start a writeback handshake"
    );
    k.inject(bank, l1, DirMsg::WbGrantL1 { block: victim });
    k.run(10_000, Time::MAX);
    assert!(received_by(&log, bank).iter().any(|m| matches!(
        m,
        DirMsg::WbDataL1 {
            block,
            dirty: true,
            valid: true
        } if *block == victim
    )));
}

// ---- L2 ---------------------------------------------------------------------------

#[test]
fn l2_fetches_from_home_then_grants_and_unblocks_home() {
    let cfg = cfg();
    let layout = cfg.layout();
    let c = CmpId(0);
    let (mut k, log, l2) = build(&cfg, Unit::L2Bank(c, 0));
    let block = Block(0x42); // bank 0, homed on chip 1
    let requester = layout.l1d(ProcId(0));
    let home = layout.mem(cfg.home_of(block));
    k.inject(
        requester,
        l2,
        DirMsg::L1Req {
            block,
            requester,
            kind: ReqKind::Read,
        },
    );
    k.run(10_000, Time::from_ns(50));
    assert!(received_by(&log, home).iter().any(|m| matches!(
        m,
        DirMsg::L2Req {
            kind: ReqKind::Read,
            ..
        }
    )));
    // Home answers from DRAM with an E grant.
    k.inject(
        home,
        l2,
        DirMsg::MemData {
            block,
            state: ChipGrant::E,
            acks: 0,
        },
    );
    k.run(10_000, Time::from_ns(200));
    assert!(received_by(&log, home).iter().any(|m| matches!(
        m,
        DirMsg::UnblockHome {
            result: HomeResult::Exclusive,
            ..
        }
    )));
    assert!(received_by(&log, requester).iter().any(|m| matches!(
        m,
        DirMsg::GrantToL1 {
            state: L1Grant::E,
            ..
        }
    )));
}

#[test]
fn l2_defers_conflicting_requests_until_unblock() {
    let cfg = cfg();
    let layout = cfg.layout();
    let c = CmpId(0);
    let (mut k, log, l2) = build(&cfg, Unit::L2Bank(c, 0));
    let block = Block(0x42);
    let r1 = layout.l1d(ProcId(0));
    let r2 = layout.l1d(ProcId(1));
    let home = layout.mem(cfg.home_of(block));
    k.inject(
        r1,
        l2,
        DirMsg::L1Req {
            block,
            requester: r1,
            kind: ReqKind::Read,
        },
    );
    k.inject(
        r2,
        l2,
        DirMsg::L1Req {
            block,
            requester: r2,
            kind: ReqKind::Read,
        },
    );
    k.run(10_000, Time::from_ns(50));
    // Only one L2Req reaches the home while the block is busy.
    let reqs = received_by(&log, home)
        .iter()
        .filter(|m| matches!(m, DirMsg::L2Req { .. }))
        .count();
    assert_eq!(reqs, 1, "second request must be deferred, not forwarded");
    // Complete the first transaction: data, grant to r1, r1 unblocks.
    k.inject(
        home,
        l2,
        DirMsg::MemData {
            block,
            state: ChipGrant::S,
            acks: 0,
        },
    );
    k.run(10_000, Time::from_ns(100));
    k.inject(r1, l2, DirMsg::UnblockL1 { block });
    k.run(10_000, Time::from_ns(200));
    // The deferred request is now served on-chip (S data at the L2).
    assert!(
        received_by(&log, r2).iter().any(|m| matches!(
            m,
            DirMsg::GrantToL1 {
                state: L1Grant::S,
                ..
            }
        )),
        "deferred sharer must be granted after unblock"
    );
}

/// The sharer mask is a `u16`: 9 cores give a chip 18 L1s, so the bank
/// refuses to build instead of aliasing L1s 16 and 17 onto bits 0 and 1.
#[test]
#[should_panic(expected = "sharer mask holds at most 16 local L1s")]
fn l2_refuses_more_local_l1s_than_its_sharer_mask_holds() {
    let cfg = Rc::new(SystemConfig {
        procs_per_cmp: 9,
        ..SystemConfig::small_test()
    });
    let _ = build(&cfg, Unit::L2Bank(CmpId(0), 0));
}

// ---- home -------------------------------------------------------------------------

#[test]
fn home_grants_exclusive_from_dram_and_then_forwards() {
    let cfg = cfg();
    let layout = cfg.layout();
    let block = Block(0x42);
    let home_cmp = cfg.home_of(block);
    let (mut k, log, home) = build(&cfg, Unit::Mem(home_cmp));
    let l2a = layout.l2(CmpId(0), 0);
    let l2b = layout.l2(CmpId(1), 0);
    let t0 = k.now();
    k.inject(
        l2a,
        home,
        DirMsg::L2Req {
            block,
            requester: l2a,
            kind: ReqKind::Read,
        },
    );
    k.run(10_000, Time::from_ns(500));
    let (at, _) = log
        .borrow()
        .iter()
        .find(|&&(me, _, _, m)| {
            me == l2a
                && matches!(
                    m,
                    DirMsg::MemData {
                        state: ChipGrant::E,
                        ..
                    }
                )
        })
        .map(|&(_, _, t, m)| (t, m))
        .expect("uncached read gets an E grant from DRAM");
    // Directory state and DRAM data are both charged.
    assert!(at.since(t0) >= cfg.memctl_latency + cfg.dram_latency);
    // Unblock finalizes to Exclusive.
    k.inject(
        l2a,
        home,
        DirMsg::UnblockHome {
            block,
            result: HomeResult::Exclusive,
        },
    );
    k.run(10_000, Time::from_ns(1000));
    assert_eq!(
        k.nodes()[home.index()].home().state(block),
        HomeState::Exclusive(CmpId(0))
    );
    // A second chip's write is forwarded to the owner with an ack count.
    k.inject(
        l2b,
        home,
        DirMsg::L2Req {
            block,
            requester: l2b,
            kind: ReqKind::Write,
        },
    );
    k.run(10_000, Time::from_ns(1500));
    assert!(received_by(&log, l2a).iter().any(|m| matches!(
        m,
        DirMsg::FwdL2 {
            kind: ReqKind::Write,
            ..
        }
    )));
    assert!(received_by(&log, l2b)
        .iter()
        .any(|m| matches!(m, DirMsg::FwdInfo { acks: 0, .. })));
}

#[test]
fn home_writeback_handshake_clears_the_owner() {
    let cfg = cfg();
    let layout = cfg.layout();
    let block = Block(0x42);
    let home_cmp = cfg.home_of(block);
    let (mut k, log, home) = build(&cfg, Unit::Mem(home_cmp));
    let l2a = layout.l2(CmpId(0), 0);
    // Make chip 0 the exclusive owner.
    k.inject(
        l2a,
        home,
        DirMsg::L2Req {
            block,
            requester: l2a,
            kind: ReqKind::Write,
        },
    );
    k.run(10_000, Time::from_ns(500));
    k.inject(
        l2a,
        home,
        DirMsg::UnblockHome {
            block,
            result: HomeResult::Exclusive,
        },
    );
    k.run(10_000, Time::from_ns(1000));
    // Three-phase writeback.
    k.inject(l2a, home, DirMsg::WbReqL2 { block });
    k.run(10_000, Time::from_ns(1500));
    assert!(received_by(&log, l2a)
        .iter()
        .any(|m| matches!(m, DirMsg::WbGrantL2 { .. })));
    k.inject(
        l2a,
        home,
        DirMsg::WbDataL2 {
            block,
            dirty: true,
            valid: true,
        },
    );
    k.run(10_000, Time::from_ns(2000));
    assert_eq!(
        k.nodes()[home.index()].home().state(block),
        HomeState::Uncached
    );
}

#[test]
fn home_defers_requests_while_busy() {
    let cfg = cfg();
    let layout = cfg.layout();
    let block = Block(0x42);
    let home_cmp = cfg.home_of(block);
    let (mut k, log, home) = build(&cfg, Unit::Mem(home_cmp));
    let l2a = layout.l2(CmpId(0), 0);
    let l2b = layout.l2(CmpId(1), 0);
    k.inject(
        l2a,
        home,
        DirMsg::L2Req {
            block,
            requester: l2a,
            kind: ReqKind::Read,
        },
    );
    k.inject(
        l2b,
        home,
        DirMsg::L2Req {
            block,
            requester: l2b,
            kind: ReqKind::Read,
        },
    );
    k.run(10_000, Time::from_ns(500));
    // Only the first got data; the second waits for the unblock.
    assert!(received_by(&log, l2b)
        .iter()
        .all(|m| !matches!(m, DirMsg::MemData { .. })));
    k.inject(
        l2a,
        home,
        DirMsg::UnblockHome {
            block,
            result: HomeResult::Exclusive,
        },
    );
    k.run(10_000, Time::from_ns(1500));
    // Now the deferred read is served by forwarding to the new owner.
    assert!(received_by(&log, l2a).iter().any(|m| matches!(
        m,
        DirMsg::FwdL2 {
            kind: ReqKind::Read,
            ..
        }
    )));
}
