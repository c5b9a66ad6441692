//! The DirectoryCMP L1 cache controller (MESI at the L1 level).
//!
//! L1 misses go to the local L2 bank (the intra-CMP directory) and block
//! until a grant arrives — the directory serializes per block, so no
//! retries are needed. Dirty/exclusive evictions use the three-phase
//! writeback handshake; forwarded requests and invalidations are answered
//! from the line or from the writeback buffer (a benign race the `valid`
//! flag resolves). The bounded response-delay window (§3.2) defers
//! forwards/invalidations for recently-written blocks, as in all protocols
//! of the paper.

use std::collections::HashMap;
use std::rc::Rc;

use tokencmp_cache::{InsertOutcome, SetAssoc};
use tokencmp_proto::{AccessKind, Block, CpuReq, CpuResp, Layout, ProcId, SystemConfig};
use tokencmp_sim::{Component, Ctx, Dur, NodeId, Time};
use tokencmp_trace::{LatencyBreakdown, Segment, SegmentParts, TraceEvent, TraceHandle};

use crate::msg::{DirMsg, GrantSource, L1Grant, ReqKind};

const TAG_LOCK: u64 = 1 << 63;

/// Stable label for trace events.
fn state_label(s: L1State) -> &'static str {
    match s {
        L1State::S => "S",
        L1State::E => "E",
        L1State::M => "M",
    }
}

/// L1 line states (MESI minus a distinct Invalid: absent = invalid).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L1State {
    /// Shared, read-only.
    S,
    /// Exclusive clean (silently upgradable to M).
    E,
    /// Modified.
    M,
}

/// Counters exposed by a DirectoryCMP L1 after a run.
#[derive(Clone, Debug, Default)]
pub struct DirL1Stats {
    /// Accesses satisfied in the L1.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Writebacks issued (three-phase handshakes started).
    pub writebacks: u64,
    /// Miss latency distribution with per-tier attribution (picoseconds).
    pub lat: LatencyBreakdown,
}

#[derive(Debug)]
struct Miss {
    block: Block,
    access: AccessKind,
    started: Time,
}

/// A DirectoryCMP L1 cache controller.
pub struct DirL1 {
    cfg: Rc<SystemConfig>,
    layout: Layout,
    me: NodeId,
    proc: ProcId,
    proc_node: NodeId,
    lines: SetAssoc<L1State>,
    miss: Option<Miss>,
    /// Evicted-but-not-yet-written-back lines (data still held).
    wb_buffer: HashMap<Block, L1State>,
    watch: Option<Block>,
    locks: HashMap<Block, Time>,
    deferred: Vec<DirMsg>,
    trace: Option<TraceHandle>,
    /// Run statistics.
    pub stats: DirL1Stats,
}

impl DirL1 {
    /// Creates an L1 controller for processor `proc` registered at `me`.
    pub fn new(cfg: Rc<SystemConfig>, me: NodeId, proc: ProcId) -> DirL1 {
        let layout = cfg.layout();
        DirL1 {
            lines: SetAssoc::new(cfg.l1_sets, cfg.l1_ways, 0),
            proc_node: layout.proc(proc),
            layout,
            me,
            proc,
            miss: None,
            wb_buffer: HashMap::new(),
            watch: None,
            locks: HashMap::new(),
            deferred: Vec::new(),
            trace: None,
            cfg,
            stats: DirL1Stats::default(),
        }
    }

    /// Installs the run's trace sink, if any (none ⇒ zero tracing work).
    pub fn set_trace(&mut self, trace: Option<&TraceHandle>) {
        self.trace = trace.cloned();
    }

    /// The number of resident lines; unlike [`DirL1::lines`], valid at
    /// any time, writebacks in flight included.
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Resident lines and their states (for quiescence audits).
    pub fn lines(&self) -> Vec<(Block, L1State)> {
        debug_assert!(self.wb_buffer.is_empty(), "writeback in flight at audit");
        self.lines.iter().map(|(b, &s)| (b, s)).collect()
    }

    fn bank_of(&self, block: Block) -> NodeId {
        let cmp = self.layout.cmp_of_proc(self.proc);
        self.layout.l2(cmp, self.cfg.l2_bank_of(block))
    }

    fn locked(&self, block: Block, now: Time) -> bool {
        self.locks.get(&block).is_some_and(|&t| t > now)
    }

    fn lock(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        if self.cfg.response_delay.is_zero() {
            return;
        }
        let until = ctx.now + self.cfg.response_delay;
        self.locks.insert(block, until);
        debug_assert!(block.0 < TAG_LOCK);
        ctx.wake_at(until, TAG_LOCK | block.0);
    }

    fn fire_watch_if(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        if self.watch == Some(block) {
            self.watch = None;
            ctx.send(
                self.proc_node,
                DirMsg::CpuResp(CpuResp::WatchFired { block }),
            );
        }
    }

    fn start_writeback(&mut self, block: Block, state: L1State, ctx: &mut Ctx<'_, DirMsg>) {
        self.stats.writebacks += 1;
        self.wb_buffer.insert(block, state);
        ctx.send(self.bank_of(block), DirMsg::WbReqL1 { block });
    }

    fn handle_cpu(&mut self, req: CpuReq, ctx: &mut Ctx<'_, DirMsg>) {
        match req {
            CpuReq::Access { kind, block } => {
                assert!(self.miss.is_none(), "sequencer issues one op at a time");
                let write = kind.needs_write();
                let hit = match self.lines.get_mut(block) {
                    Some(s @ (L1State::E | L1State::M)) => {
                        if write {
                            *s = L1State::M;
                        }
                        true
                    }
                    Some(L1State::S) => !write,
                    None => false,
                };
                if hit {
                    if let Some(t) = &self.trace {
                        t.borrow_mut().record(
                            ctx.now,
                            TraceEvent::AccessDone {
                                node: self.me,
                                proc: self.proc,
                                block,
                                kind,
                            },
                        );
                    }
                    if write {
                        self.lock(block, ctx);
                    }
                    self.stats.hits += 1;
                    ctx.send_after(
                        self.cfg.l1_latency,
                        self.proc_node,
                        DirMsg::CpuResp(CpuResp::Done { kind, block }),
                    );
                    return;
                }
                self.stats.misses += 1;
                self.miss = Some(Miss {
                    block,
                    access: kind,
                    started: ctx.now,
                });
                let rkind = if write { ReqKind::Write } else { ReqKind::Read };
                ctx.send_after(
                    self.cfg.l1_latency,
                    self.bank_of(block),
                    DirMsg::L1Req {
                        block,
                        requester: self.me,
                        kind: rkind,
                    },
                );
            }
            CpuReq::Watch { block } => {
                if self.lines.contains(block) {
                    self.watch = Some(block);
                } else {
                    ctx.send(
                        self.proc_node,
                        DirMsg::CpuResp(CpuResp::WatchFired { block }),
                    );
                }
            }
        }
    }

    fn handle_grant(
        &mut self,
        block: Block,
        state: L1Grant,
        source: GrantSource,
        ctx: &mut Ctx<'_, DirMsg>,
    ) {
        let m = self.miss.take().expect("grant without an outstanding miss");
        assert_eq!(m.block, block, "grant for the wrong block");
        let write = m.access.needs_write();
        let installed = match (state, write) {
            (_, true) => {
                debug_assert_eq!(state, L1Grant::M, "writes are granted M");
                L1State::M
            }
            (L1Grant::S, false) => L1State::S,
            (L1Grant::E, false) => L1State::E,
            // A migratory grant hands a load read/write access.
            (L1Grant::M, false) => L1State::M,
        };
        match self.lines.insert(block, installed) {
            InsertOutcome::Evicted(vb, vs) => {
                self.fire_watch_if(vb, ctx);
                if let Some(t) = &self.trace {
                    t.borrow_mut().record(
                        ctx.now,
                        TraceEvent::CacheEvict {
                            node: self.me,
                            block: vb,
                            state: state_label(vs),
                        },
                    );
                }
                match vs {
                    L1State::S => {} // silent drop; stale sharer bits are tolerated
                    s => self.start_writeback(vb, s, ctx),
                }
            }
            InsertOutcome::Inserted | InsertOutcome::Replaced(_) => {}
        }
        if write {
            self.lock(block, ctx);
        }
        // The directory path has no retries: the entire miss is governed by
        // whichever tier supplied the data.
        let total = ctx.now.since(m.started).as_ps();
        let mut parts = SegmentParts::default();
        parts.add(
            match source {
                GrantSource::Intra => Segment::Intra,
                GrantSource::Inter => Segment::Inter,
                GrantSource::Mem => Segment::Mem,
            },
            total,
        );
        self.stats.lat.record(total, parts);
        if let Some(t) = &self.trace {
            let mut t = t.borrow_mut();
            t.record(
                ctx.now,
                TraceEvent::CacheFill {
                    node: self.me,
                    block,
                    state: state_label(installed),
                },
            );
            t.record(
                ctx.now,
                TraceEvent::AccessDone {
                    node: self.me,
                    proc: self.proc,
                    block,
                    kind: m.access,
                },
            );
            t.record(
                ctx.now,
                TraceEvent::MissCommit {
                    proc: self.proc,
                    block,
                    kind: m.access,
                    total: Dur::from_ps(total),
                    parts,
                },
            );
        }
        ctx.send(self.bank_of(block), DirMsg::UnblockL1 { block });
        ctx.send(
            self.proc_node,
            DirMsg::CpuResp(CpuResp::Done {
                kind: m.access,
                block,
            }),
        );
    }

    /// Where the (possibly evicted) copy of `block` lives.
    fn copy_state(&self, block: Block) -> Option<(L1State, bool)> {
        if let Some(&s) = self.lines.peek(block) {
            Some((s, false))
        } else {
            self.wb_buffer.get(&block).map(|&s| (s, true))
        }
    }

    fn handle_fwd(&mut self, block: Block, kind: ReqKind, ctx: &mut Ctx<'_, DirMsg>) {
        if self.locked(block, ctx.now) {
            self.deferred.push(DirMsg::FwdL1 { block, kind });
            return;
        }
        let Some((state, buffered)) = self.copy_state(block) else {
            // Benign race: the line is gone (writeback data already sent).
            ctx.send_after(
                self.cfg.l1_latency,
                self.bank_of(block),
                DirMsg::DataL1ToL2 {
                    block,
                    dirty: false,
                    relinquished: true,
                    valid: false,
                },
            );
            return;
        };
        debug_assert!(matches!(state, L1State::E | L1State::M), "fwd to non-owner");
        let dirty = state == L1State::M;
        let relinquish = match kind {
            ReqKind::Write => true,
            // Migratory sharing: a modified line moves wholesale on a read.
            ReqKind::Read => dirty && self.cfg.migratory_sharing,
        };
        if relinquish {
            if buffered {
                self.wb_buffer.remove(&block);
            } else {
                self.lines.remove(block);
                // The buffered copy was already traced as evicted when it
                // left the cache; only a resident line's departure is new.
                if let Some(t) = &self.trace {
                    t.borrow_mut().record(
                        ctx.now,
                        TraceEvent::CacheEvict {
                            node: self.me,
                            block,
                            state: "fwd",
                        },
                    );
                }
            }
            self.fire_watch_if(block, ctx);
        } else if buffered {
            self.wb_buffer.insert(block, L1State::S);
        } else {
            *self.lines.get_mut(block).unwrap() = L1State::S;
            // Downgrade in place: the refinement checker sees the holder's
            // new read-only state as a fill.
            if let Some(t) = &self.trace {
                t.borrow_mut().record(
                    ctx.now,
                    TraceEvent::CacheFill {
                        node: self.me,
                        block,
                        state: "S",
                    },
                );
            }
        }
        ctx.send_after(
            self.cfg.l1_latency,
            self.bank_of(block),
            DirMsg::DataL1ToL2 {
                block,
                dirty,
                relinquished: relinquish,
                valid: true,
            },
        );
    }

    fn handle_inv(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        if self.locked(block, ctx.now) {
            self.deferred.push(DirMsg::InvL1 { block });
            return;
        }
        let resident = self.lines.contains(block);
        self.lines.remove(block);
        self.wb_buffer.remove(&block);
        if resident {
            if let Some(t) = &self.trace {
                t.borrow_mut().record(
                    ctx.now,
                    TraceEvent::CacheEvict {
                        node: self.me,
                        block,
                        state: "inv",
                    },
                );
            }
        }
        self.fire_watch_if(block, ctx);
        ctx.send_after(
            self.cfg.l1_latency,
            self.bank_of(block),
            DirMsg::InvAckL1 { block },
        );
    }

    fn handle_wb_grant(&mut self, block: Block, ctx: &mut Ctx<'_, DirMsg>) {
        let (dirty, valid) = match self.wb_buffer.remove(&block) {
            Some(L1State::M) => (true, true),
            Some(_) => (false, true),
            None => (false, false), // lost to a racing forward/invalidate
        };
        ctx.send(
            self.bank_of(block),
            DirMsg::WbDataL1 {
                block,
                dirty,
                valid,
            },
        );
    }
}

impl Component<DirMsg> for DirL1 {
    fn on_msg(&mut self, _src: NodeId, msg: DirMsg, ctx: &mut Ctx<'_, DirMsg>) {
        match msg {
            DirMsg::Cpu(req) => self.handle_cpu(req, ctx),
            DirMsg::GrantToL1 {
                block,
                state,
                source,
            } => self.handle_grant(block, state, source, ctx),
            DirMsg::FwdL1 { block, kind } => self.handle_fwd(block, kind, ctx),
            DirMsg::InvL1 { block } => self.handle_inv(block, ctx),
            DirMsg::WbGrantL1 { block } => self.handle_wb_grant(block, ctx),
            other => unreachable!("unexpected message at L1: {other:?}"),
        }
    }

    fn on_wake(&mut self, tag: u64, ctx: &mut Ctx<'_, DirMsg>) {
        debug_assert!(tag & TAG_LOCK != 0, "L1 only schedules lock wakes");
        let block = Block(tag & !TAG_LOCK);
        if self.locked(block, ctx.now) {
            return; // re-locked; a later wake exists
        }
        self.locks.remove(&block);
        let deferred = std::mem::take(&mut self.deferred);
        for m in deferred {
            match m {
                DirMsg::FwdL1 { block: b, kind } if b == block => self.handle_fwd(b, kind, ctx),
                DirMsg::InvL1 { block: b } if b == block => self.handle_inv(b, ctx),
                other => self.deferred.push(other),
            }
        }
    }

    fn kind(&self) -> &'static str {
        "l1"
    }
}

impl std::fmt::Debug for DirL1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirL1")
            .field("me", &self.me)
            .field("proc", &self.proc)
            .field("lines", &self.lines.len())
            .field("miss", &self.miss)
            .finish()
    }
}
