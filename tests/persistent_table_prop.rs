//! Differential property tests of the distributed-activation persistent
//! request tables (`core::PersistentBook`) against dense reference tables.
//!
//! The reference keeps one slot per processor and answers every query by
//! scanning all of them — the straightforward reading of the paper's
//! "one entry per processor" table, one independent table per node. The
//! book stores every node's table at once: each activation payload once,
//! plus one cell per (processor, node). Random sequences of activations,
//! deactivations (including ones that overtake their own activation and
//! stale epochs) and wave markings must leave the book giving the same
//! answer as the reference to every query, at 4, 16 and 1024 processors:
//!
//! * at one node, with arbitrary epochs (one `(proc, epoch)` may even
//!   arrive with different payloads);
//! * at 2–6 nodes sharing one book, each with its own reference, where
//!   every node receives the broadcasts in its own order, some twice and
//!   some never, and wave marks land on one node only.

use proptest::prelude::*;
use tokencmp::core::{ActiveReq, PersistentBook};
use tokencmp::proto::{CmpId, Layout, ProcId};
use tokencmp::sim::NodeId;
use tokencmp::{Block, ReqKind};

/// A one-processor-per-core, one-chip layout of `procs` processors.
fn layout(procs: usize) -> Layout {
    Layout::new(1, procs as u16, 1)
}

/// One live oracle entry: `(block, requester, kind, epoch, marked)`.
type Slot = (Block, NodeId, ReqKind, u64, bool);

/// Dense oracle: one optional entry per processor slot, plus the highest
/// deactivated epoch per processor.
struct DenseTable {
    slots: Vec<Option<Slot>>,
    deactivated_up_to: Vec<u64>,
}

impl DenseTable {
    fn new(procs: usize) -> DenseTable {
        DenseTable {
            slots: vec![None; procs],
            deactivated_up_to: vec![0; procs],
        }
    }

    fn activate(&mut self, p: ProcId, block: Block, req: NodeId, kind: ReqKind, epoch: u64) {
        if epoch > self.deactivated_up_to[p.0 as usize] {
            self.slots[p.0 as usize] = Some((block, req, kind, epoch, false));
        }
    }

    fn deactivate(&mut self, p: ProcId, epoch: u64) -> bool {
        let i = p.0 as usize;
        self.deactivated_up_to[i] = self.deactivated_up_to[i].max(epoch);
        let hit = matches!(self.slots[i], Some(e) if e.3 <= epoch);
        if hit {
            self.slots[i] = None;
        }
        hit
    }

    fn mark_peers(&mut self, block: Block) {
        for e in self.slots.iter_mut().flatten() {
            e.4 |= e.0 == block;
        }
    }

    fn live(&self) -> impl Iterator<Item = (ProcId, Slot)> + '_ {
        let live = self.slots.iter().enumerate();
        live.filter_map(|(i, e)| e.map(|e| (ProcId(i as u16), e)))
    }

    fn active_for(&self, block: Block) -> Option<ActiveReq> {
        self.live()
            .find(|(_, e)| e.0 == block)
            .map(|(proc, (_, requester, kind, _, _))| ActiveReq {
                proc,
                requester,
                kind,
            })
    }

    fn has_marked(&self, block: Block) -> bool {
        self.live().any(|(_, e)| e.0 == block && e.4)
    }
}

/// One table operation; processors are indices into a per-case pool.
#[derive(Clone, Debug)]
enum Op {
    Activate {
        proc: usize,
        block: u64,
        write: bool,
        epoch: u64,
    },
    Deactivate {
        proc: usize,
        epoch: u64,
    },
    MarkPeers {
        block: u64,
    },
}

/// Blocks drawn by the ops; queries also probe one never-used block.
const BLOCKS: u64 = 4;

fn op() -> impl Strategy<Value = Op> {
    // Small epoch and block ranges make overtaking deactivations, stale
    // epochs, re-activations and shared blocks common. Activation appears
    // twice so tables fill up between deactivations.
    let activate = || {
        (0usize..8, 0..BLOCKS, any::<bool>(), 0u64..6).prop_map(|(proc, block, write, epoch)| {
            Op::Activate {
                proc,
                block,
                write,
                epoch,
            }
        })
    };
    prop_oneof![
        activate(),
        activate(),
        (0usize..8, 0u64..6).prop_map(|(proc, epoch)| Op::Deactivate { proc, epoch }),
        (0..BLOCKS).prop_map(|block| Op::MarkPeers { block }),
    ]
}

/// A processor count, a pool of up to eight processors of that system
/// (so ops collide on the same slots even at 1024 processors), and an op
/// sequence.
fn case() -> impl Strategy<Value = (usize, Vec<u16>, Vec<Op>)> {
    prop_oneof![Just(4usize), Just(16), Just(1024)].prop_flat_map(|procs| {
        (
            Just(procs),
            proptest::collection::vec(0..procs as u16, 1..9),
            proptest::collection::vec(op(), 1..80),
        )
    })
}

/// Checks every query of `node`'s table in `book` against `dense`.
fn agree(book: &PersistentBook, node: NodeId, dense: &DenseTable) {
    for b in 0..=BLOCKS {
        prop_assert_eq!(dense.active_for(Block(b)), book.active_for(node, Block(b)));
        prop_assert_eq!(dense.has_marked(Block(b)), book.has_marked(node, Block(b)));
    }
    let want: Vec<(ProcId, Block)> = dense.live().map(|(p, e)| (p, e.0)).collect();
    let got: Vec<(ProcId, Block)> = book.entries(node).collect();
    prop_assert_eq!(book.len(node), want.len());
    prop_assert_eq!(book.is_empty(node), want.is_empty());
    prop_assert_eq!(got, want);
}

/// One delivery step of the multi-node property.
#[derive(Clone, Debug)]
enum Step {
    /// Broadcast `msg` (an index into the case's broadcasts, modulo
    /// their number) reaches node `node`.
    Deliver { node: usize, msg: usize },
    /// Node `node`'s own request completes: wave-mark `block` there only.
    Mark { node: usize, block: u64 },
}

/// A broadcast: an activation `(proc, block, write, epoch)` or, with no
/// block, the deactivation of `(proc, epoch)`.
type Broadcast = (ProcId, Option<(u64, bool)>, u64);

/// The broadcasts of a list of requests `(pool index, block, write)`:
/// each processor numbers its requests 1, 2, … as the L1s do, and each
/// request is one activation and one deactivation.
fn broadcasts(pool: &[u16], requests: &[(usize, u64, bool)]) -> Vec<Broadcast> {
    let mut issued = std::collections::HashMap::new();
    let mut out = Vec::new();
    for &(proc, block, write) in requests {
        let p = ProcId(pool[proc % pool.len()]);
        let epoch = issued.entry(p).or_insert(0u64);
        *epoch += 1;
        out.push((p, Some((block, write)), *epoch));
        out.push((p, None, *epoch));
    }
    out
}

fn step() -> impl Strategy<Value = Step> {
    // Deliveries dominate; any (node, broadcast) pair may repeat or never
    // occur, so nodes see overtaking deactivations, duplicates and both
    // epochs of a processor in either order.
    let deliver = || (0usize..6, 0usize..64).prop_map(|(node, msg)| Step::Deliver { node, msg });
    prop_oneof![
        deliver(),
        deliver(),
        deliver(),
        (0usize..6, 0..BLOCKS).prop_map(|(node, block)| Step::Mark { node, block }),
    ]
}

/// A processor count, a pool of up to eight of its processors, the node
/// count, the requests and the delivery steps.
type MultiCase = (usize, Vec<u16>, usize, Vec<(usize, u64, bool)>, Vec<Step>);

fn multi_case() -> impl Strategy<Value = MultiCase> {
    prop_oneof![Just(4usize), Just(16), Just(1024)].prop_flat_map(|procs| {
        (
            Just(procs),
            proptest::collection::vec(0..procs as u16, 1..9),
            2usize..7,
            proptest::collection::vec((0usize..8, 0..BLOCKS, any::<bool>()), 1..16),
            proptest::collection::vec(step(), 1..160),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn sparse_table_matches_dense_oracle(case in case()) {
        let (procs, pool, ops) = case;
        let layout = layout(procs);
        let node = layout.mem(CmpId(0));
        let mut dense = DenseTable::new(procs);
        let mut book = PersistentBook::new(&layout);
        for op in ops {
            match op {
                Op::Activate { proc, block, write, epoch } => {
                    let p = ProcId(pool[proc % pool.len()]);
                    let kind = if write { ReqKind::Write } else { ReqKind::Read };
                    let req = NodeId(1000 + u32::from(p.0));
                    dense.activate(p, Block(block), req, kind, epoch);
                    book.activate(node, p, Block(block), req, kind, epoch);
                }
                Op::Deactivate { proc, epoch } => {
                    let p = ProcId(pool[proc % pool.len()]);
                    prop_assert_eq!(dense.deactivate(p, epoch), book.deactivate(node, p, epoch));
                }
                Op::MarkPeers { block } => {
                    dense.mark_peers(Block(block));
                    book.mark_peers(node, Block(block));
                }
            }
            agree(&book, node, &dense);
        }
    }

    #[test]
    fn shared_book_matches_per_node_dense_oracles(case in multi_case()) {
        let (procs, pool, k, requests, steps) = case;
        let layout = layout(procs);
        // Nodes spread over the coherence range: L1s, the L2 bank, memory.
        let all = layout.all_coherence_nodes().count();
        let nodes: Vec<NodeId> = layout.all_coherence_nodes().step_by(all / k).take(k).collect();
        let msgs = broadcasts(&pool, &requests);
        let mut book = PersistentBook::new(&layout);
        let mut dense: Vec<DenseTable> = nodes.iter().map(|_| DenseTable::new(procs)).collect();
        for step in steps {
            match step {
                Step::Deliver { node, msg } => {
                    let i = node % k;
                    let (p, payload, epoch) = msgs[msg % msgs.len()];
                    match payload {
                        Some((block, write)) => {
                            let kind = if write { ReqKind::Write } else { ReqKind::Read };
                            let req = layout.l1d(p);
                            dense[i].activate(p, Block(block), req, kind, epoch);
                            book.activate(nodes[i], p, Block(block), req, kind, epoch);
                        }
                        None => prop_assert_eq!(
                            dense[i].deactivate(p, epoch),
                            book.deactivate(nodes[i], p, epoch)
                        ),
                    }
                }
                Step::Mark { node, block } => {
                    let i = node % k;
                    dense[i].mark_peers(Block(block));
                    book.mark_peers(nodes[i], Block(block));
                }
            }
            for (node, dense) in nodes.iter().zip(&dense) {
                agree(&book, *node, dense);
            }
        }
    }
}
