//! Persistent-request state (§3.2).
//!
//! Two activation mechanisms:
//!
//! * **Distributed activation** — every coherence node keeps a table with
//!   one entry per processor. Among entries for the same block, only the
//!   highest-priority (lowest processor number — least-significant bits
//!   vary within a chip, giving the locality the paper describes) is
//!   *active*. A "marking" (wave) rule prevents a processor from
//!   re-issuing a persistent request for a block until every request that
//!   was outstanding when its own completed has been satisfied.
//!
//! * **Arbiter-based activation** — the original scheme: each home memory
//!   controller arbitrates with a FIFO queue, activating one request at a
//!   time and broadcasting activate/deactivate messages. The handoff
//!   indirection through the arbiter is exactly what Figure 2 punishes.

use std::collections::{HashMap, VecDeque};

use tokencmp_proto::{Block, ProcId};
use tokencmp_sim::NodeId;

use crate::msg::ReqKind;

/// The persistent request a node should currently honor for some block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ActiveReq {
    /// Issuing processor.
    pub proc: ProcId,
    /// The L1 cache tokens must be forwarded to.
    pub requester: NodeId,
    /// Read (leave one token) or write (forward all).
    pub kind: ReqKind,
}

#[derive(Clone, Copy, Debug)]
struct DistEntry {
    proc: ProcId,
    block: Block,
    requester: NodeId,
    kind: ReqKind,
    epoch: u64,
    /// Wave marking: set on entries outstanding when the local processor's
    /// own request deactivated; blocks local re-issue until cleared.
    marked: bool,
}

/// The distributed-activation persistent request table kept at *every*
/// coherence node: at most one entry per processor (the paper sizes it at
/// one six-byte entry per processor and searches it associatively).
///
/// Only live entries are stored, sorted by processor — which is also the
/// priority order — so a lookup costs O(live entries), not O(processors),
/// and an idle table holds no entry storage at all.
///
/// The interconnect is unordered, so a deactivation can arrive before its
/// own activation; each entry carries the issuing processor's *epoch*
/// (issue number) and the table remembers the highest deactivated epoch
/// per processor, suppressing late-arriving ghost activations. That
/// record is sparse too: only processors that have deactivated here have
/// one (an absent processor reads as epoch 0).
#[derive(Clone, Debug, Default)]
pub struct DistTable {
    live: Vec<DistEntry>,
    deactivated_up_to: Vec<(ProcId, u64)>,
}

impl DistTable {
    /// Creates an empty table.
    pub fn new() -> DistTable {
        DistTable::default()
    }

    /// Position of `proc`'s live entry, or where it would be inserted.
    fn slot(&self, proc: ProcId) -> Result<usize, usize> {
        self.live.binary_search_by_key(&proc, |e| e.proc)
    }

    /// Position of `proc` in the deactivation-epoch record, or where it
    /// would be inserted.
    fn done_slot(&self, proc: ProcId) -> Result<usize, usize> {
        self.deactivated_up_to
            .binary_search_by_key(&proc, |&(p, _)| p)
    }

    /// Records an activation (ignored if epoch `epoch` was already
    /// deactivated — a ghost that overtook its own deactivation).
    pub fn activate(
        &mut self,
        proc: ProcId,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        epoch: u64,
    ) {
        let done = self
            .done_slot(proc)
            .map_or(0, |i| self.deactivated_up_to[i].1);
        if epoch <= done {
            return;
        }
        let entry = DistEntry {
            proc,
            block,
            requester,
            kind,
            epoch,
            marked: false,
        };
        match self.slot(proc) {
            Ok(i) => self.live[i] = entry,
            Err(i) => self.live.insert(i, entry),
        }
    }

    /// Clears an entry on deactivation (epoch-matched) and suppresses any
    /// late-arriving activation with the same or an earlier epoch.
    /// Returns true if an entry was removed.
    pub fn deactivate(&mut self, proc: ProcId, epoch: u64) -> bool {
        match self.done_slot(proc) {
            Ok(i) => {
                let done = &mut self.deactivated_up_to[i].1;
                *done = (*done).max(epoch);
            }
            Err(i) => self.deactivated_up_to.insert(i, (proc, epoch)),
        }
        match self.slot(proc) {
            Ok(i) if self.live[i].epoch <= epoch => {
                self.live.remove(i);
                true
            }
            _ => false,
        }
    }

    /// Applies the wave rule at the issuing processor's own table: when its
    /// request for `block` completes, all remaining valid entries for the
    /// same block are marked.
    pub fn mark_peers(&mut self, block: Block) {
        for e in &mut self.live {
            if e.block == block {
                e.marked = true;
            }
        }
    }

    /// True if marked entries for `block` remain — the local processor may
    /// not issue a new persistent request for it yet (FutureBus-style wave
    /// grouping, §3.2).
    pub fn has_marked(&self, block: Block) -> bool {
        self.live.iter().any(|e| e.block == block && e.marked)
    }

    /// The active (highest-priority) request for `block`, if any.
    ///
    /// Priority is the fixed processor number: with `proc = chip *
    /// procs_per_chip + core`, the low bits vary within a chip, so
    /// contended blocks tend to hand off within a chip first. The live
    /// list is sorted by processor, so the first match wins.
    pub fn active_for(&self, block: Block) -> Option<ActiveReq> {
        self.live
            .iter()
            .find(|e| e.block == block)
            .map(|e| ActiveReq {
                proc: e.proc,
                requester: e.requester,
                kind: e.kind,
            })
    }

    /// Number of valid entries (for table-occupancy statistics).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Every valid entry as `(proc, block)`, in priority order — the
    /// telemetry sampler walks this to track how long each persistent
    /// request has been outstanding (starvation age).
    pub fn entries(&self) -> impl Iterator<Item = (ProcId, Block)> + '_ {
        self.live.iter().map(|e| (e.proc, e.block))
    }

    /// True if the table has no valid entries.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Heap bytes the table currently holds: live entries plus the
    /// deactivation-epoch record, both sized by what the node has seen,
    /// not by the processor count (DESIGN.md §18 budgets this).
    pub fn resident_bytes(&self) -> usize {
        self.live.capacity() * std::mem::size_of::<DistEntry>()
            + self.deactivated_up_to.capacity() * std::mem::size_of::<(ProcId, u64)>()
    }
}

/// Per-node record of arbiter-activated requests (at most one per arbiter,
/// so at most one per home memory controller). Epoch-suppressed like
/// [`DistTable`].
#[derive(Clone, Debug, Default)]
pub struct ArbNodeTable {
    active: HashMap<Block, (ProcId, u64, ActiveReq)>,
    deactivated_up_to: HashMap<ProcId, u64>,
}

impl ArbNodeTable {
    /// Creates an empty table.
    pub fn new() -> ArbNodeTable {
        ArbNodeTable::default()
    }

    /// Records an arbiter activation (ignored if already deactivated).
    pub fn activate(&mut self, block: Block, req: ActiveReq, epoch: u64) {
        if epoch <= self.deactivated_up_to.get(&req.proc).copied().unwrap_or(0) {
            return;
        }
        self.active.insert(block, (req.proc, epoch, req));
    }

    /// Clears an arbiter activation (matching by processor and epoch) and
    /// suppresses late ghosts.
    pub fn deactivate(&mut self, block: Block, proc: ProcId, epoch: u64) {
        let d = self.deactivated_up_to.entry(proc).or_insert(0);
        if epoch > *d {
            *d = epoch;
        }
        if let Some((p, e, _)) = self.active.get(&block) {
            if *p == proc && *e <= epoch {
                self.active.remove(&block);
            }
        }
    }

    /// The active request for `block`, if any.
    pub fn active_for(&self, block: Block) -> Option<ActiveReq> {
        self.active.get(&block).map(|&(_, _, r)| r)
    }

    /// Number of active entries.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// True if no entries are active.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }
}

/// The fair FIFO arbiter at a home memory controller (original token
/// coherence scheme [Martin et al., ISCA '03] extended to M-CMPs).
///
/// At most one request is active per arbiter at a time; handing off to the
/// next request requires a deactivate → arbiter → activate exchange, the
/// indirection that makes `TokenCMP-arb0` fragile under contention.
#[derive(Clone, Debug, Default)]
pub struct Arbiter {
    queue: VecDeque<(Block, ActiveReq, u64)>,
    current: Option<(Block, ActiveReq, u64)>,
}

impl Arbiter {
    /// Creates an idle arbiter.
    pub fn new() -> Arbiter {
        Arbiter::default()
    }

    /// Enqueues a request. Returns the request (with its epoch) to
    /// activate now, if the arbiter was idle.
    pub fn enqueue(
        &mut self,
        block: Block,
        req: ActiveReq,
        epoch: u64,
    ) -> Option<(Block, ActiveReq, u64)> {
        self.queue.push_back((block, req, epoch));
        if self.current.is_none() {
            self.current = self.queue.pop_front();
            self.current
        } else {
            None
        }
    }

    /// Completes the current request (matching by processor). Returns the
    /// next request to activate, if any.
    ///
    /// A completion for a request that is still *queued* (tokens arrived
    /// before arbitration) withdraws it from the queue; without this, the
    /// arbiter would eventually activate a ghost nobody will ever finish.
    pub fn complete(
        &mut self,
        block: Block,
        proc: ProcId,
        epoch: u64,
    ) -> Option<(Block, ActiveReq, u64)> {
        match self.current {
            Some((b, r, e)) if b == block && r.proc == proc && e <= epoch => {
                self.current = self.queue.pop_front();
                self.current
            }
            _ => {
                if let Some(pos) = self
                    .queue
                    .iter()
                    .position(|&(b, r, e)| b == block && r.proc == proc && e <= epoch)
                {
                    self.queue.remove(pos);
                }
                None
            }
        }
    }

    /// The currently active request.
    pub fn current(&self) -> Option<(Block, ActiveReq, u64)> {
        self.current
    }

    /// Number of queued (not yet active) requests.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(p: u16) -> ActiveReq {
        ActiveReq {
            proc: ProcId(p),
            requester: NodeId(100 + p as u32),
            kind: ReqKind::Write,
        }
    }

    #[test]
    fn dist_priority_is_lowest_proc() {
        let mut t = DistTable::new();
        t.activate(ProcId(5), Block(1), NodeId(105), ReqKind::Write, 1);
        t.activate(ProcId(2), Block(1), NodeId(102), ReqKind::Read, 1);
        t.activate(ProcId(9), Block(2), NodeId(109), ReqKind::Write, 1);
        let a = t.active_for(Block(1)).unwrap();
        assert_eq!(a.proc, ProcId(2));
        assert_eq!(a.kind, ReqKind::Read);
        assert_eq!(t.active_for(Block(2)).unwrap().proc, ProcId(9));
        assert_eq!(t.active_for(Block(3)), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn dist_deactivate_promotes_next() {
        let mut t = DistTable::new();
        t.activate(ProcId(1), Block(7), NodeId(101), ReqKind::Write, 1);
        t.activate(ProcId(3), Block(7), NodeId(103), ReqKind::Write, 1);
        assert!(t.deactivate(ProcId(1), 1));
        assert_eq!(t.active_for(Block(7)).unwrap().proc, ProcId(3));
        assert!(!t.deactivate(ProcId(1), 1), "double deactivate is ignored");
    }

    #[test]
    fn dist_suppresses_reordered_ghost_activation() {
        // The unordered network can deliver a deactivation before its own
        // activation; the late activation must not install a ghost entry.
        let mut t = DistTable::new();
        t.deactivate(ProcId(2), 5); // deactivate for epoch 5 arrives first
        t.activate(ProcId(2), Block(9), NodeId(12), ReqKind::Write, 5);
        assert_eq!(t.active_for(Block(9)), None, "ghost suppressed");
        // A *newer* request (epoch 6) is legitimate.
        t.activate(ProcId(2), Block(9), NodeId(12), ReqKind::Write, 6);
        assert_eq!(t.active_for(Block(9)).unwrap().proc, ProcId(2));
    }

    #[test]
    fn dist_deactivate_does_not_clear_newer_epoch() {
        let mut t = DistTable::new();
        t.activate(ProcId(1), Block(3), NodeId(11), ReqKind::Read, 7);
        // A stale deactivation (epoch 6) must not clear epoch 7's entry.
        assert!(!t.deactivate(ProcId(1), 6));
        assert!(t.active_for(Block(3)).is_some());
        assert!(t.deactivate(ProcId(1), 7));
        assert!(t.active_for(Block(3)).is_none());
    }

    #[test]
    fn wave_marking_blocks_reissue_until_clear() {
        let mut t = DistTable::new();
        t.activate(ProcId(4), Block(7), NodeId(104), ReqKind::Write, 1);
        t.activate(ProcId(8), Block(9), NodeId(108), ReqKind::Write, 1);
        t.mark_peers(Block(7));
        assert!(t.has_marked(Block(7)));
        assert!(!t.has_marked(Block(9)), "marking is per block");
        t.deactivate(ProcId(4), 1);
        assert!(!t.has_marked(Block(7)));
    }

    #[test]
    fn dist_tracks_presence() {
        let mut t = DistTable::new();
        assert!(t.is_empty());
        assert_eq!(t.resident_bytes(), 0, "an idle table holds no storage");
        t.activate(ProcId(0), Block(1), NodeId(10), ReqKind::Read, 1);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
        assert!(t.resident_bytes() > 0);
        t.deactivate(ProcId(0), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn arb_node_table_matches_by_proc_and_epoch() {
        let mut t = ArbNodeTable::new();
        t.activate(Block(3), req(1), 1);
        assert_eq!(t.active_for(Block(3)).unwrap().proc, ProcId(1));
        t.deactivate(Block(3), ProcId(2), 1); // wrong proc: ignored
        assert!(!t.is_empty());
        t.deactivate(Block(3), ProcId(1), 1);
        assert_eq!(t.active_for(Block(3)), None);
        assert!(t.is_empty());
        // Ghost suppression: deactivate-then-activate for the same epoch.
        t.deactivate(Block(4), ProcId(3), 2);
        t.activate(Block(4), req(3), 2);
        assert!(t.active_for(Block(4)).is_none());
    }

    #[test]
    fn arbiter_is_fifo_and_single_active() {
        let mut a = Arbiter::new();
        assert_eq!(a.enqueue(Block(1), req(3), 1).unwrap().1.proc, ProcId(3));
        assert_eq!(a.enqueue(Block(1), req(1), 1), None, "busy: queued");
        assert_eq!(a.enqueue(Block(2), req(2), 1), None);
        assert_eq!(a.queued(), 2);
        // Completing a queued (not active) request withdraws it.
        assert_eq!(a.complete(Block(1), ProcId(1), 1), None);
        assert_eq!(a.queued(), 1);
        // Completing the active request activates the next in FIFO order.
        let next = a.complete(Block(1), ProcId(3), 1).unwrap();
        assert_eq!((next.0, next.1.proc), (Block(2), ProcId(2)));
        assert_eq!(a.complete(Block(2), ProcId(2), 1), None);
        assert_eq!(a.current(), None);
    }

    #[test]
    fn arbiter_withdraws_satisfied_queued_requests() {
        // A request satisfied by ordinary token transfers before its turn
        // must leave the queue, or the arbiter would activate a ghost.
        let mut a = Arbiter::new();
        a.enqueue(Block(1), req(0), 1);
        a.enqueue(Block(2), req(1), 4);
        assert_eq!(a.complete(Block(2), ProcId(1), 4), None);
        assert_eq!(a.queued(), 0);
        // Completing the active request finds nothing left to activate.
        assert_eq!(a.complete(Block(1), ProcId(0), 1), None);
        assert_eq!(a.current(), None);
    }
}
