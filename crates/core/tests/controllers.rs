//! Controller-level tests: each TokenCMP controller is driven directly
//! through a mini kernel in which every *other* layout position is a
//! recording stub, so individual protocol rules (§3/§4) can be asserted
//! message by message.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tokencmp_core::msg::{ReqKind, TokenBundle, TokenMsg};
use tokencmp_core::{PersistentBook, TokenL1, TokenL2, TokenMem, Variant};
use tokencmp_proto::{AccessKind, Block, CpuReq, CpuResp, ProcId, SystemConfig, Unit};
use tokencmp_sim::{Component, Ctx, Kernel, NodeId, Time};

type Log = Rc<RefCell<Vec<(NodeId, NodeId, Time, TokenMsg)>>>;

/// A stub occupying a layout slot; records everything it receives.
struct Recorder {
    me: NodeId,
    log: Log,
}

impl Component<TokenMsg> for Recorder {
    fn on_msg(&mut self, src: NodeId, msg: TokenMsg, ctx: &mut Ctx<'_, TokenMsg>) {
        self.log.borrow_mut().push((self.me, src, ctx.now, msg));
    }
    fn on_wake(&mut self, _tag: u64, _ctx: &mut Ctx<'_, TokenMsg>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Builds a kernel with the unit under test at its layout slot and
/// recorders everywhere else. Instant transport (latency zero) so timing
/// assertions reflect controller-internal delays only.
fn build(
    cfg: &Rc<SystemConfig>,
    under_test: Unit,
    variant: Variant,
) -> (Kernel<TokenMsg>, Log, NodeId) {
    let layout = cfg.layout();
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let mut k: Kernel<TokenMsg> = Kernel::new_instant();
    let target = layout.node(under_test);
    let book = Rc::new(RefCell::new(PersistentBook::new(&layout)));
    for i in 0..layout.total_nodes() {
        let me = NodeId(i);
        if me == target {
            match under_test {
                Unit::L1D(p) | Unit::L1I(p) => {
                    let id = k.add_component(TokenL1::new(
                        cfg.clone(),
                        me,
                        p,
                        variant,
                        7,
                        Rc::new(Cell::new(0)),
                        book.clone(),
                    ));
                    assert_eq!(id, me);
                }
                Unit::L2Bank(c, b) => {
                    let id =
                        k.add_component(TokenL2::new(cfg.clone(), me, c, b, variant, book.clone()));
                    assert_eq!(id, me);
                }
                Unit::Mem(c) => {
                    let id = k.add_component(TokenMem::new(cfg.clone(), me, c, book.clone()));
                    assert_eq!(id, me);
                }
                Unit::Proc(_) => unreachable!("no processor controller under test"),
            }
        } else {
            let id = k.add_component(Recorder {
                me,
                log: log.clone(),
            });
            assert_eq!(id, me);
        }
    }
    (k, log, target)
}

fn received_by(log: &Log, node: NodeId) -> Vec<TokenMsg> {
    log.borrow()
        .iter()
        .filter(|&&(me, _, _, _)| me == node)
        .map(|&(_, _, _, m)| m)
        .collect()
}

fn bundle(count: u32, owner: bool, data: bool, dirty: bool) -> TokenBundle {
    TokenBundle {
        count,
        owner,
        data,
        dirty,
    }
}

fn cfg() -> Rc<SystemConfig> {
    Rc::new(SystemConfig::small_test())
}

// ---- L1 -------------------------------------------------------------------------

#[test]
fn l1_store_miss_broadcasts_within_its_chip_only() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p), Variant::Dst1);
    let block = Block(0x40);
    k.inject(
        layout.proc(p),
        l1,
        TokenMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Store,
            block,
        }),
    );
    k.run(100_000, Time::from_ns(50));

    // The other local L1s and the local bank for the block see the
    // transient request; nothing crosses the chip (the L2 does that).
    let local_cmp = layout.cmp_of_proc(p);
    let bank = layout.l2(local_cmp, cfg.l2_bank_of(block));
    for l1_node in layout.l1s_on(local_cmp) {
        if l1_node == l1 {
            continue;
        }
        let msgs = received_by(&log, l1_node);
        assert!(
            msgs.iter().any(|m| matches!(
                m,
                TokenMsg::Transient {
                    external: false,
                    ..
                }
            )),
            "local L1 {l1_node:?} must see the broadcast"
        );
    }
    assert!(received_by(&log, bank)
        .iter()
        .any(|m| matches!(m, TokenMsg::Transient { .. })));
    // No remote node hears anything.
    for c in layout.cmp_ids().filter(|&c| c != local_cmp) {
        for n in layout.l1s_on(c) {
            assert!(
                received_by(&log, n).is_empty(),
                "remote L1 {n:?} heard the L1"
            );
        }
    }
}

#[test]
fn l1_completes_store_when_all_tokens_arrive() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p), Variant::Dst1);
    let block = Block(0x40);
    k.inject(
        layout.proc(p),
        l1,
        TokenMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Store,
            block,
        }),
    );
    k.run(10_000, Time::from_ns(20));
    // The world answers with all T tokens + owner + data.
    k.inject(
        layout.mem(cfg.home_of(block)),
        l1,
        TokenMsg::Tokens {
            block,
            bundle: bundle(cfg.tokens_per_block, true, true, false),
            serial: 0,
            writeback: false,
        },
    );
    k.run(10_000, Time::from_ns(100));
    let done = received_by(&log, layout.proc(p));
    assert!(
        done.iter().any(|m| matches!(
            m,
            TokenMsg::CpuResp(CpuResp::Done {
                kind: AccessKind::Store,
                ..
            })
        )),
        "store must complete: {done:?}"
    );
    // The L1 now holds everything.
    let l1c = k.component_as::<TokenL1>(l1).unwrap();
    assert_eq!(
        l1c.token_census(),
        vec![(block, cfg.tokens_per_block, true)]
    );
}

#[test]
fn l1_answers_external_write_with_everything_and_fires_watch() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p), Variant::Dst1);
    let block = Block(0x40);
    // Seed: complete a load so the L1 holds one token.
    k.inject(
        layout.proc(p),
        l1,
        TokenMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Load,
            block,
        }),
    );
    k.run(10_000, Time::from_ns(20));
    k.inject(
        layout.mem(cfg.home_of(block)),
        l1,
        TokenMsg::Tokens {
            block,
            bundle: bundle(2, false, true, false),
            serial: 0,
            writeback: false,
        },
    );
    k.run(10_000, Time::from_ns(40));
    // Register a spin watch.
    k.inject(layout.proc(p), l1, TokenMsg::Cpu(CpuReq::Watch { block }));
    k.run(10_000, Time::from_ns(60));
    // A remote L1 sends an external write request.
    let remote = layout.l1d(ProcId(3));
    k.inject(
        remote,
        l1,
        TokenMsg::Transient {
            block,
            requester: remote,
            kind: ReqKind::Write,
            external: true,
            hint: None,
        },
    );
    k.run(10_000, Time::from_ns(200));
    // All tokens went to the requester...
    let granted = received_by(&log, remote);
    let total: u32 = granted
        .iter()
        .filter_map(|m| match m {
            TokenMsg::Tokens { bundle, .. } => Some(bundle.count),
            _ => None,
        })
        .sum();
    assert_eq!(total, 2, "both tokens surrendered");
    // ...and the spin watch fired.
    assert!(received_by(&log, layout.proc(p))
        .iter()
        .any(|m| matches!(m, TokenMsg::CpuResp(CpuResp::WatchFired { .. }))));
    assert!(k
        .component_as::<TokenL1>(l1)
        .unwrap()
        .token_census()
        .is_empty());
}

#[test]
fn l1_keeps_single_token_on_local_read_request() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p), Variant::Dst1);
    let block = Block(0x40);
    // Seed with exactly one token.
    k.inject(
        layout.proc(p),
        l1,
        TokenMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Load,
            block,
        }),
    );
    k.run(10_000, Time::from_ns(20));
    k.inject(
        layout.mem(cfg.home_of(block)),
        l1,
        TokenMsg::Tokens {
            block,
            bundle: bundle(1, false, true, false),
            serial: 0,
            writeback: false,
        },
    );
    k.run(10_000, Time::from_ns(40));
    // A local read request must be left unanswered (a single-token cache
    // keeps its read permission, §4).
    let peer = layout.l1d(ProcId(1));
    k.inject(
        peer,
        l1,
        TokenMsg::Transient {
            block,
            requester: peer,
            kind: ReqKind::Read,
            external: false,
            hint: None,
        },
    );
    k.run(10_000, Time::from_ns(200));
    assert!(
        received_by(&log, peer)
            .iter()
            .all(|m| !matches!(m, TokenMsg::Tokens { .. })),
        "single-token holder must stay silent on reads"
    );
    assert_eq!(
        k.component_as::<TokenL1>(l1).unwrap().token_census(),
        vec![(block, 1, false)]
    );
}

#[test]
fn l1_response_delay_defers_stealing_requests() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p), Variant::Dst1);
    let block = Block(0x40);
    // Acquire write permission (completes at some time t).
    k.inject(
        layout.proc(p),
        l1,
        TokenMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Store,
            block,
        }),
    );
    k.run(10_000, Time::from_ns(20));
    k.inject(
        layout.mem(cfg.home_of(block)),
        l1,
        TokenMsg::Tokens {
            block,
            bundle: bundle(cfg.tokens_per_block, true, true, false),
            serial: 0,
            writeback: false,
        },
    );
    k.run(10_000, Time::from_ns(30));
    // Completion time comes from the Done message in the log (the kernel
    // clock may already sit past it).
    let completed_at = log
        .borrow()
        .iter()
        .find(|&&(me, _, _, m)| {
            me == layout.proc(p) && matches!(m, TokenMsg::CpuResp(CpuResp::Done { .. }))
        })
        .map(|&(_, _, t, _)| t)
        .expect("store must have completed");
    // An immediate external write request must be deferred by the
    // response-delay window (§3.2).
    let remote = layout.l1d(ProcId(3));
    k.inject(
        remote,
        l1,
        TokenMsg::Transient {
            block,
            requester: remote,
            kind: ReqKind::Write,
            external: true,
            hint: None,
        },
    );
    k.run(100_000, Time::from_ns(500));
    let reply_time = log
        .borrow()
        .iter()
        .find(|&&(me, _, _, m)| me == remote && matches!(m, TokenMsg::Tokens { .. }))
        .map(|&(_, _, t, _)| t)
        .expect("the deferred request is eventually honored");
    assert!(
        reply_time.since(completed_at) >= cfg.response_delay,
        "tokens left {} after completion; the window is {}",
        reply_time.since(completed_at),
        cfg.response_delay
    );
}

#[test]
fn l1_persistent_activation_forwards_present_and_future_tokens() {
    let cfg = cfg();
    let layout = cfg.layout();
    let p = ProcId(0);
    let (mut k, log, l1) = build(&cfg, Unit::L1D(p), Variant::Dst1);
    let block = Block(0x40);
    // Seed the L1 with three tokens.
    k.inject(
        layout.proc(p),
        l1,
        TokenMsg::Cpu(CpuReq::Access {
            kind: AccessKind::Load,
            block,
        }),
    );
    k.run(10_000, Time::from_ns(20));
    k.inject(
        layout.mem(cfg.home_of(block)),
        l1,
        TokenMsg::Tokens {
            block,
            bundle: bundle(3, false, true, false),
            serial: 0,
            writeback: false,
        },
    );
    k.run(10_000, Time::from_ns(40));
    // A foreign persistent write activates.
    let requester = layout.l1d(ProcId(2));
    k.inject(
        requester,
        l1,
        TokenMsg::PersistentActivate {
            block,
            proc: ProcId(2),
            requester,
            kind: ReqKind::Write,
            epoch: 1,
        },
    );
    k.run(10_000, Time::from_ns(200));
    let granted: u32 = received_by(&log, requester)
        .iter()
        .filter_map(|m| match m {
            TokenMsg::Tokens { bundle, .. } => Some(bundle.count),
            _ => None,
        })
        .sum();
    assert_eq!(granted, 3, "present tokens forwarded");
    // Future tokens are captured too.
    k.inject(
        layout.mem(cfg.home_of(block)),
        l1,
        TokenMsg::Tokens {
            block,
            bundle: bundle(2, false, true, false),
            serial: 0,
            writeback: false,
        },
    );
    k.run(10_000, Time::from_ns(400));
    let granted: u32 = received_by(&log, requester)
        .iter()
        .filter_map(|m| match m {
            TokenMsg::Tokens { bundle, .. } => Some(bundle.count),
            _ => None,
        })
        .sum();
    assert_eq!(granted, 5, "future tokens forwarded as well");
}

// ---- L2 -------------------------------------------------------------------------

#[test]
fn l2_rebroadcasts_unsatisfiable_local_requests_off_chip() {
    let cfg = cfg();
    let layout = cfg.layout();
    let (mut k, log, l2) = build(
        &cfg,
        Unit::L2Bank(tokencmp_proto::CmpId(0), 0),
        Variant::Dst1,
    );
    let block = Block(0x42); // bank 0; homed on chip 1 in small_test
    let requester = layout.l1d(ProcId(0));
    k.inject(
        requester,
        l2,
        TokenMsg::Transient {
            block,
            requester,
            kind: ReqKind::Write,
            external: false,
            hint: None,
        },
    );
    k.run(10_000, Time::from_ns(100));
    // The same bank on the other chip hears an external request.
    let remote_bank = layout.l2(tokencmp_proto::CmpId(1), 0);
    assert!(received_by(&log, remote_bank)
        .iter()
        .any(|m| matches!(m, TokenMsg::Transient { external: true, .. })));
    // Memory is reached through its home chip's L2, not directly (§8
    // message accounting) — here home != our chip, so no memory message.
    assert_eq!(cfg.home_of(block).0, 1, "test block must be remote-homed");
    assert!(received_by(&log, layout.mem(cfg.home_of(block))).is_empty());
}

#[test]
fn l2_fans_external_requests_out_to_local_l1s() {
    let cfg = cfg();
    let layout = cfg.layout();
    let c = tokencmp_proto::CmpId(0);
    let (mut k, log, l2) = build(&cfg, Unit::L2Bank(c, 0), Variant::Dst1);
    let block = Block(0x40);
    let remote = layout.l1d(ProcId(3));
    k.inject(
        remote,
        l2,
        TokenMsg::Transient {
            block,
            requester: remote,
            kind: ReqKind::Write,
            external: true,
            hint: None,
        },
    );
    k.run(10_000, Time::from_ns(100));
    for l1 in layout.l1s_on(c) {
        assert!(
            received_by(&log, l1)
                .iter()
                .any(|m| matches!(m, TokenMsg::Transient { external: true, .. })),
            "external request must reach local L1 {l1:?}"
        );
    }
}

#[test]
fn l2_grants_exclusive_on_read_when_holding_everything() {
    let cfg = cfg();
    let layout = cfg.layout();
    let c = tokencmp_proto::CmpId(0);
    let (mut k, log, l2) = build(&cfg, Unit::L2Bank(c, 0), Variant::Dst1);
    let block = Block(0x40);
    // Seed the bank with all tokens (an L1 writeback of an E line).
    k.inject(
        layout.l1d(ProcId(0)),
        l2,
        TokenMsg::Tokens {
            block,
            bundle: bundle(cfg.tokens_per_block, true, true, false),
            serial: 0,
            writeback: true,
        },
    );
    k.run(10_000, Time::from_ns(50));
    // A local read gets everything (E-grant; a private store then hits).
    let requester = layout.l1d(ProcId(1));
    k.inject(
        requester,
        l2,
        TokenMsg::Transient {
            block,
            requester,
            kind: ReqKind::Read,
            external: false,
            hint: None,
        },
    );
    k.run(10_000, Time::from_ns(100));
    let got: Vec<_> = received_by(&log, requester);
    assert!(
        got.iter().any(|m| matches!(
            m,
            TokenMsg::Tokens { bundle, .. } if bundle.count == cfg.tokens_per_block && bundle.owner
        )),
        "storage read grant must be exclusive: {got:?}"
    );
}

// ---- memory ---------------------------------------------------------------------

#[test]
fn memory_grants_all_tokens_with_dram_latency() {
    let cfg = cfg();
    let layout = cfg.layout();
    let block = Block(0x44); // homed on chip 1 in small_test (bit 2 set -> home 1? computed below)
    let home = cfg.home_of(block);
    let (mut k, log, mem) = build(&cfg, Unit::Mem(home), Variant::Dst1);
    let requester = layout.l1d(ProcId(0));
    let t0 = k.now();
    k.inject(
        requester,
        mem,
        TokenMsg::Transient {
            block,
            requester,
            kind: ReqKind::Write,
            external: true,
            hint: None,
        },
    );
    k.run(10_000, Time::from_ns(500));
    let (at, msg) = log
        .borrow()
        .iter()
        .find(|&&(me, _, _, m)| me == requester && matches!(m, TokenMsg::Tokens { .. }))
        .map(|&(_, _, t, m)| (t, m))
        .expect("memory must respond");
    match msg {
        TokenMsg::Tokens { bundle, .. } => {
            assert_eq!(bundle.count, cfg.tokens_per_block);
            assert!(bundle.owner && bundle.data);
        }
        _ => unreachable!(),
    }
    // Data responses pay controller + DRAM latency.
    assert!(at.since(t0) >= cfg.memctl_latency + cfg.dram_latency);
}

#[test]
fn memory_ignores_requests_for_blocks_homed_elsewhere() {
    let cfg = cfg();
    let layout = cfg.layout();
    let block = Block(0x44);
    let home = cfg.home_of(block);
    let other = tokencmp_proto::CmpId(1 - home.0);
    let (mut k, log, mem) = build(&cfg, Unit::Mem(other), Variant::Dst1);
    let requester = layout.l1d(ProcId(0));
    k.inject(
        requester,
        mem,
        TokenMsg::Transient {
            block,
            requester,
            kind: ReqKind::Write,
            external: true,
            hint: None,
        },
    );
    k.run(10_000, Time::from_ns(500));
    assert!(
        received_by(&log, requester).is_empty(),
        "a non-home controller holds no tokens and must stay silent"
    );
}

#[test]
fn memory_arbiter_serializes_and_hands_off() {
    let cfg = cfg();
    let layout = cfg.layout();
    let block = Block(0x44);
    let home = cfg.home_of(block);
    let (mut k, log, mem) = build(&cfg, Unit::Mem(home), Variant::Arb0);
    let r1 = layout.l1d(ProcId(0));
    let r2 = layout.l1d(ProcId(1));
    k.inject(
        r1,
        mem,
        TokenMsg::ArbRequest {
            block,
            proc: ProcId(0),
            requester: r1,
            kind: ReqKind::Write,
            epoch: 1,
        },
    );
    k.inject(
        r2,
        mem,
        TokenMsg::ArbRequest {
            block,
            proc: ProcId(1),
            requester: r2,
            kind: ReqKind::Write,
            epoch: 1,
        },
    );
    k.run(10_000, Time::from_ns(100));
    // Only the first request is activated (broadcast to all nodes).
    let activations: Vec<_> = log
        .borrow()
        .iter()
        .filter_map(|&(_, _, _, m)| match m {
            TokenMsg::ArbActivate { proc, .. } => Some(proc),
            _ => None,
        })
        .collect();
    assert!(activations.iter().all(|&p| p == ProcId(0)));
    assert!(!activations.is_empty());
    // Completion deactivates and activates the next.
    k.inject(
        r1,
        mem,
        TokenMsg::ArbDeactivateRequest {
            block,
            proc: ProcId(0),
            epoch: 1,
        },
    );
    k.run(10_000, Time::from_ns(300));
    let second: Vec<_> = log
        .borrow()
        .iter()
        .filter_map(|&(_, _, _, m)| match m {
            TokenMsg::ArbActivate { proc, .. } => Some(proc),
            _ => None,
        })
        .collect();
    assert!(second.contains(&ProcId(1)), "handoff to the queued request");
}
