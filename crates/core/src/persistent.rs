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
//!
//! ## One book for every node's distributed table
//!
//! Every coherence node receives the same activation payloads; only
//! *which* of them a node has applied, suppressed or wave-marked differs.
//! The run therefore keeps all distributed tables in one shared
//! [`PersistentBook`], the paper's per-node table stored transposed:
//!
//! * each activation payload is stored once, as a reference-counted
//!   *record* in a slab, and live records are indexed by
//!   `(block, proc, record)`, so the records of one block come out in
//!   priority order;
//! * each processor owns a *column* of one 8-byte cell per coherence node
//!   (indexed by `NodeId − procs`): the node's entry for that processor as
//!   a record handle whose top bit is the node's wave mark, and the
//!   highest epoch the node has seen deactivated. A column is allocated in
//!   full the first time its processor's request reaches any node, so one
//!   broadcast's deliveries all touch the same, cache-hot column.
//!
//! An idle book holds no storage; a live processor costs `8 × nodes`
//! bytes plus one record per payload still referenced by some node. The
//! deactivated epoch is stored in 32 bits: an epoch that does not fit
//! panics instead of wrapping (a processor would have to issue four
//! billion persistent requests in one run).

use std::collections::VecDeque;

use tokencmp_proto::{Block, IdMap, Layout, ProcId};
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

/// A record handle is the slab index plus one; zero means "no entry".
const NO_RECORD: u32 = 0;
/// The wave-mark bit of a cell's handle word.
const MARK: u32 = 1 << 31;
/// Below this many live records, block lookups scan the index linearly
/// instead of binary-searching it.
const LINEAR_SCAN: usize = 16;

/// One activation payload, shared by every node whose entry holds it.
#[derive(Clone, Copy, Debug)]
struct Record {
    block: Block,
    epoch: u64,
    requester: NodeId,
    /// Cells currently holding this record; zero once freed.
    refs: u32,
    proc: ProcId,
    kind: ReqKind,
}

impl Record {
    fn is(&self, block: Block, requester: NodeId, kind: ReqKind, epoch: u64) -> bool {
        self.epoch == epoch
            && self.block == block
            && self.requester == requester
            && self.kind == kind
    }
}

/// One node's table entry for one processor.
#[derive(Clone, Copy, Debug, Default)]
struct NodeCell {
    /// Record handle of the live entry ([`NO_RECORD`] if none), with the
    /// node's wave mark in the top bit.
    entry: u32,
    /// Highest epoch of this processor deactivated at this node.
    done: u32,
}

impl NodeCell {
    fn record(self) -> u32 {
        self.entry & !MARK
    }
}

/// Per-processor state: one cell per coherence node, and the newest
/// record the processor's activations created (a lookup hint).
#[derive(Clone, Debug, Default)]
struct Column {
    cells: Box<[NodeCell]>,
    newest: u32,
}

/// An index entry: a live record, keyed for priority-ordered lookup.
type IndexEntry = (Block, ProcId, u32);

/// The distributed-activation persistent-request tables of every
/// coherence node of a run, stored as one book (see the module docs).
///
/// Each method takes the `node` whose table it reads or writes; the rules
/// are those of one independent table per node:
///
/// * the active request for a block is its lowest-numbered processor's
///   entry;
/// * an activation replaces the processor's entry (even one for another
///   block), unless its epoch is at or below the highest epoch the node
///   has seen deactivated — a ghost that overtook its own deactivation;
/// * a deactivation removes the processor's entry only if that entry's
///   epoch is at or below its own, and raises the suppression epoch.
#[derive(Clone, Debug)]
pub struct PersistentBook {
    /// Processors in the system; also the node id of the first
    /// coherence node.
    procs: u32,
    /// Coherence nodes: the length of every column.
    nodes: u32,
    /// Per processor, empty until any processor is touched.
    columns: Vec<Column>,
    records: Vec<Record>,
    free: Vec<u32>,
    /// Live records sorted by `(block, proc, handle)`.
    index: Vec<IndexEntry>,
}

impl PersistentBook {
    /// An empty book for every coherence node of `layout`.
    pub fn new(layout: &Layout) -> PersistentBook {
        PersistentBook {
            procs: layout.procs(),
            nodes: layout.caches() + u32::from(layout.cmps),
            columns: Vec::new(),
            records: Vec::new(),
            free: Vec::new(),
            index: Vec::new(),
        }
    }

    /// The cell position of a coherence node.
    fn cell_of(&self, node: NodeId) -> usize {
        let i = node.0.wrapping_sub(self.procs);
        assert!(i < self.nodes, "{node:?} keeps no persistent table");
        i as usize
    }

    /// `proc`'s column, allocated in full on first touch.
    fn column_mut(&mut self, proc: ProcId) -> &mut Column {
        if self.columns.is_empty() {
            self.columns = vec![Column::default(); self.procs as usize];
        }
        let col = &mut self.columns[proc.0 as usize];
        if col.cells.is_empty() {
            col.cells = vec![NodeCell::default(); self.nodes as usize].into_boxed_slice();
        }
        col
    }

    /// `proc`'s cell at cell position `n`. Every indexed record's
    /// processor has a column.
    fn cell(&self, proc: ProcId, n: usize) -> NodeCell {
        self.columns[proc.0 as usize].cells[n]
    }

    fn record(&self, handle: u32) -> &Record {
        &self.records[handle as usize - 1]
    }

    /// Index positions of `block`'s live records.
    fn block_range(&self, block: Block) -> std::ops::Range<usize> {
        let ix = &self.index;
        let start = if ix.len() < LINEAR_SCAN {
            ix.iter().position(|e| e.0 >= block).unwrap_or(ix.len())
        } else {
            ix.partition_point(|e| e.0 < block)
        };
        let len = ix[start..].iter().take_while(|e| e.0 == block).count();
        start..start + len
    }

    /// The live record holding this payload, created if there is none.
    fn find_or_insert(
        &mut self,
        proc: ProcId,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        epoch: u64,
    ) -> u32 {
        let newest = self.columns[proc.0 as usize].newest;
        if newest != NO_RECORD && self.record(newest).is(block, requester, kind, epoch) {
            return newest;
        }
        let range = self.block_range(block);
        let found = self.index[range.clone()]
            .iter()
            .find(|e| e.1 == proc && self.record(e.2).is(block, requester, kind, epoch))
            .map(|e| e.2);
        let handle = match found {
            Some(h) => h,
            None => {
                let rec = Record {
                    block,
                    epoch,
                    requester,
                    refs: 0,
                    proc,
                    kind,
                };
                let handle = match self.free.pop() {
                    Some(h) => {
                        self.records[h as usize - 1] = rec;
                        h
                    }
                    None => {
                        self.records.push(rec);
                        let h = self.records.len() as u32;
                        assert!(h < MARK, "persistent book record space exhausted");
                        h
                    }
                };
                let key = (block, proc, handle);
                let at = range.start + self.index[range].partition_point(|e| *e < key);
                self.index.insert(at, key);
                handle
            }
        };
        self.columns[proc.0 as usize].newest = handle;
        handle
    }

    /// Drops one cell's reference to a record, freeing it with the last.
    fn release(&mut self, handle: u32) {
        let rec = &mut self.records[handle as usize - 1];
        rec.refs -= 1;
        if rec.refs > 0 {
            return;
        }
        let key = (rec.block, rec.proc, handle);
        let col = &mut self.columns[rec.proc.0 as usize];
        if col.newest == handle {
            col.newest = NO_RECORD;
        }
        let at = self
            .index
            .binary_search(&key)
            .expect("live record is indexed");
        self.index.remove(at);
        self.free.push(handle);
    }

    /// Records an activation at `node` (ignored if epoch `epoch` was
    /// already deactivated there — a ghost that overtook its own
    /// deactivation).
    pub fn activate(
        &mut self,
        node: NodeId,
        proc: ProcId,
        block: Block,
        requester: NodeId,
        kind: ReqKind,
        epoch: u64,
    ) {
        let n = self.cell_of(node);
        let old = self.column_mut(proc).cells[n];
        if epoch <= u64::from(old.done) {
            return;
        }
        let handle = self.find_or_insert(proc, block, requester, kind, epoch);
        if old.record() != handle {
            self.records[handle as usize - 1].refs += 1;
            if old.record() != NO_RECORD {
                self.release(old.record());
            }
        }
        // A re-delivered activation also clears the node's wave mark.
        self.columns[proc.0 as usize].cells[n].entry = handle;
    }

    /// Clears `proc`'s entry at `node` on deactivation (epoch-matched)
    /// and suppresses any late-arriving activation with the same or an
    /// earlier epoch there. Returns true if an entry was removed.
    pub fn deactivate(&mut self, node: NodeId, proc: ProcId, epoch: u64) -> bool {
        let n = self.cell_of(node);
        let stored = u32::try_from(epoch)
            .expect("persistent-request epoch exceeds the table's 32-bit bound");
        let cell = &mut self.column_mut(proc).cells[n];
        cell.done = cell.done.max(stored);
        let handle = cell.record();
        if handle == NO_RECORD || self.record(handle).epoch > epoch {
            return false;
        }
        self.columns[proc.0 as usize].cells[n].entry = NO_RECORD;
        self.release(handle);
        true
    }

    /// Applies the wave rule at the issuing processor's own table (at
    /// `node`): when its request for `block` completes, all remaining
    /// valid entries for the same block are marked there.
    pub fn mark_peers(&mut self, node: NodeId, block: Block) {
        let n = self.cell_of(node);
        for i in self.block_range(block) {
            let (_, proc, handle) = self.index[i];
            let cell = &mut self.columns[proc.0 as usize].cells[n];
            if cell.record() == handle {
                cell.entry |= MARK;
            }
        }
    }

    /// True if marked entries for `block` remain at `node` — its
    /// processor may not issue a new persistent request for it yet
    /// (FutureBus-style wave grouping, §3.2).
    pub fn has_marked(&self, node: NodeId, block: Block) -> bool {
        let n = self.cell_of(node);
        self.index[self.block_range(block)]
            .iter()
            .any(|&(_, proc, handle)| self.cell(proc, n).entry == handle | MARK)
    }

    /// The active (highest-priority) request for `block` at `node`, if
    /// any.
    ///
    /// Priority is the fixed processor number: with `proc = chip *
    /// procs_per_chip + core`, the low bits vary within a chip, so
    /// contended blocks tend to hand off within a chip first. The index
    /// lists a block's records by processor, so the first one the node
    /// holds wins.
    pub fn active_for(&self, node: NodeId, block: Block) -> Option<ActiveReq> {
        if self.index.is_empty() {
            return None;
        }
        let n = self.cell_of(node);
        self.index[self.block_range(block)]
            .iter()
            .find(|&&(_, proc, handle)| self.cell(proc, n).record() == handle)
            .map(|&(_, proc, handle)| {
                let rec = self.record(handle);
                ActiveReq {
                    proc,
                    requester: rec.requester,
                    kind: rec.kind,
                }
            })
    }

    /// Every valid entry at `node` as `(proc, block)`, in priority order
    /// — the telemetry sampler walks this to track how long each
    /// persistent request has been outstanding (starvation age).
    pub fn entries(&self, node: NodeId) -> impl Iterator<Item = (ProcId, Block)> + '_ {
        let n = self.cell_of(node);
        self.columns.iter().enumerate().filter_map(move |(p, col)| {
            let handle = col.cells.get(n)?.record();
            (handle != NO_RECORD).then(|| (ProcId(p as u16), self.record(handle).block))
        })
    }

    /// Number of valid entries at `node` (for table-occupancy
    /// statistics).
    pub fn len(&self, node: NodeId) -> usize {
        self.entries(node).count()
    }

    /// True if `node`'s table has no valid entries.
    pub fn is_empty(&self, node: NodeId) -> bool {
        self.entries(node).next().is_none()
    }

    /// Heap bytes the whole book holds: the column table, the columns,
    /// the records and the index (DESIGN.md §18 budgets this).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.columns.capacity() * size_of::<Column>()
            + self.columns.iter().map(|c| c.cells.len()).sum::<usize>() * size_of::<NodeCell>()
            + self.records.capacity() * size_of::<Record>()
            + self.free.capacity() * size_of::<u32>()
            + self.index.capacity() * size_of::<IndexEntry>()
    }

    /// Bytes of one node's own table: its cell in every allocated
    /// column. Every node owns the same amount; the rest of
    /// [`resident_bytes`](Self::resident_bytes) is shared.
    pub fn node_bytes(&self) -> usize {
        let touched = self.columns.iter().filter(|c| !c.cells.is_empty()).count();
        touched * std::mem::size_of::<NodeCell>()
    }
}

/// Per-node record of arbiter-activated requests (at most one per arbiter,
/// so at most one per home memory controller). Epoch-suppressed like
/// the distributed tables of [`PersistentBook`].
#[derive(Clone, Debug, Default)]
pub struct ArbNodeTable {
    active: IdMap<Block, (ProcId, u64, ActiveReq)>,
    deactivated_up_to: IdMap<ProcId, u64>,
}

impl ArbNodeTable {
    /// Creates an empty table.
    #[inline]
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

    /// A book for a 16-processor system, and one of its coherence nodes.
    fn book() -> (PersistentBook, NodeId) {
        let layout = Layout::new(4, 4, 4);
        (
            PersistentBook::new(&layout),
            layout.mem(tokencmp_proto::CmpId(0)),
        )
    }

    #[test]
    fn dist_priority_is_lowest_proc() {
        let (mut t, n) = book();
        t.activate(n, ProcId(5), Block(1), NodeId(105), ReqKind::Write, 1);
        t.activate(n, ProcId(2), Block(1), NodeId(102), ReqKind::Read, 1);
        t.activate(n, ProcId(9), Block(2), NodeId(109), ReqKind::Write, 1);
        let a = t.active_for(n, Block(1)).unwrap();
        assert_eq!(a.proc, ProcId(2));
        assert_eq!(a.kind, ReqKind::Read);
        assert_eq!(t.active_for(n, Block(2)).unwrap().proc, ProcId(9));
        assert_eq!(t.active_for(n, Block(3)), None);
        assert_eq!(t.len(n), 3);
    }

    #[test]
    fn dist_deactivate_promotes_next() {
        let (mut t, n) = book();
        t.activate(n, ProcId(1), Block(7), NodeId(101), ReqKind::Write, 1);
        t.activate(n, ProcId(3), Block(7), NodeId(103), ReqKind::Write, 1);
        assert!(t.deactivate(n, ProcId(1), 1));
        assert_eq!(t.active_for(n, Block(7)).unwrap().proc, ProcId(3));
        assert!(
            !t.deactivate(n, ProcId(1), 1),
            "double deactivate is ignored"
        );
    }

    #[test]
    fn dist_suppresses_reordered_ghost_activation() {
        // The unordered network can deliver a deactivation before its own
        // activation; the late activation must not install a ghost entry.
        let (mut t, n) = book();
        t.deactivate(n, ProcId(2), 5); // deactivate for epoch 5 arrives first
        t.activate(n, ProcId(2), Block(9), NodeId(12), ReqKind::Write, 5);
        assert_eq!(t.active_for(n, Block(9)), None, "ghost suppressed");
        // A *newer* request (epoch 6) is legitimate.
        t.activate(n, ProcId(2), Block(9), NodeId(12), ReqKind::Write, 6);
        assert_eq!(t.active_for(n, Block(9)).unwrap().proc, ProcId(2));
    }

    #[test]
    fn dist_deactivate_does_not_clear_newer_epoch() {
        let (mut t, n) = book();
        t.activate(n, ProcId(1), Block(3), NodeId(11), ReqKind::Read, 7);
        // A stale deactivation (epoch 6) must not clear epoch 7's entry.
        assert!(!t.deactivate(n, ProcId(1), 6));
        assert!(t.active_for(n, Block(3)).is_some());
        assert!(t.deactivate(n, ProcId(1), 7));
        assert!(t.active_for(n, Block(3)).is_none());
    }

    #[test]
    fn wave_marking_blocks_reissue_until_clear() {
        let (mut t, n) = book();
        t.activate(n, ProcId(4), Block(7), NodeId(104), ReqKind::Write, 1);
        t.activate(n, ProcId(8), Block(9), NodeId(108), ReqKind::Write, 1);
        t.mark_peers(n, Block(7));
        assert!(t.has_marked(n, Block(7)));
        assert!(!t.has_marked(n, Block(9)), "marking is per block");
        t.deactivate(n, ProcId(4), 1);
        assert!(!t.has_marked(n, Block(7)));
    }

    #[test]
    fn dist_tracks_presence() {
        let (mut t, n) = book();
        assert!(t.is_empty(n));
        assert_eq!(t.resident_bytes(), 0, "an idle book holds no storage");
        t.activate(n, ProcId(0), Block(1), NodeId(10), ReqKind::Read, 1);
        assert!(!t.is_empty(n));
        assert_eq!(t.len(n), 1);
        assert!(t.resident_bytes() > 0);
        assert_eq!(t.node_bytes(), 8, "one 8-byte cell per live processor");
        t.deactivate(n, ProcId(0), 1);
        assert!(t.is_empty(n));
    }

    #[test]
    fn nodes_share_records_but_not_entries() {
        let layout = Layout::new(4, 4, 4);
        let mut t = PersistentBook::new(&layout);
        let (a, b) = (layout.l1d(ProcId(0)), layout.mem(tokencmp_proto::CmpId(3)));
        for n in [a, b] {
            t.activate(n, ProcId(6), Block(2), NodeId(60), ReqKind::Write, 1);
        }
        assert_eq!(t.records.iter().filter(|r| r.refs > 0).count(), 1);
        // The wave mark is a node's own.
        t.mark_peers(a, Block(2));
        assert!(t.has_marked(a, Block(2)) && !t.has_marked(b, Block(2)));
        // A deactivation reaching one node leaves the other's entry live.
        assert!(t.deactivate(b, ProcId(6), 1));
        assert_eq!(t.active_for(a, Block(2)).unwrap().proc, ProcId(6));
        assert_eq!(t.active_for(b, Block(2)), None);
        // The newer epoch replaces the entry, even for another block.
        t.activate(a, ProcId(6), Block(5), NodeId(60), ReqKind::Read, 2);
        assert_eq!(t.active_for(a, Block(2)), None);
        assert_eq!(t.active_for(a, Block(5)).unwrap().kind, ReqKind::Read);
        assert_eq!(t.index.len(), 1, "the superseded record was freed");
    }

    #[test]
    fn cells_are_eight_bytes_and_records_thirty_two() {
        assert_eq!(std::mem::size_of::<NodeCell>(), 8);
        assert_eq!(std::mem::size_of::<Record>(), 32);
    }

    #[test]
    #[should_panic(expected = "32-bit bound")]
    fn oversized_epoch_panics_instead_of_truncating() {
        let (mut t, n) = book();
        t.deactivate(n, ProcId(1), 1 << 32);
    }

    #[test]
    #[should_panic(expected = "keeps no persistent table")]
    fn processor_nodes_have_no_table() {
        let (t, _) = book();
        t.is_empty(NodeId(0));
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
