//! Differential property test of the distributed-activation persistent
//! request table (`core::DistTable`) against a dense reference table.
//!
//! The reference keeps one slot per processor and answers every query by
//! scanning all of them — the straightforward reading of the paper's
//! "one entry per processor" table. The real table stores only live
//! entries, sorted by processor. Random sequences of activations,
//! deactivations (including ones that overtake their own activation and
//! stale epochs) and wave markings must leave both tables giving the same
//! answer to every query, at 4, 16 and 1024 processors.

use proptest::prelude::*;
use tokencmp::core::{ActiveReq, DistTable};
use tokencmp::proto::ProcId;
use tokencmp::sim::NodeId;
use tokencmp::{Block, ReqKind};

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn sparse_table_matches_dense_oracle(case in case()) {
        let (procs, pool, ops) = case;
        let mut dense = DenseTable::new(procs);
        let mut sparse = DistTable::new();
        for op in ops {
            match op {
                Op::Activate { proc, block, write, epoch } => {
                    let p = ProcId(pool[proc % pool.len()]);
                    let kind = if write { ReqKind::Write } else { ReqKind::Read };
                    let req = NodeId(1000 + u32::from(p.0));
                    dense.activate(p, Block(block), req, kind, epoch);
                    sparse.activate(p, Block(block), req, kind, epoch);
                }
                Op::Deactivate { proc, epoch } => {
                    let p = ProcId(pool[proc % pool.len()]);
                    prop_assert_eq!(dense.deactivate(p, epoch), sparse.deactivate(p, epoch));
                }
                Op::MarkPeers { block } => {
                    dense.mark_peers(Block(block));
                    sparse.mark_peers(Block(block));
                }
            }
            for b in 0..=BLOCKS {
                prop_assert_eq!(dense.active_for(Block(b)), sparse.active_for(Block(b)));
                prop_assert_eq!(dense.has_marked(Block(b)), sparse.has_marked(Block(b)));
            }
            let want: Vec<(ProcId, Block)> = dense.live().map(|(p, e)| (p, e.0)).collect();
            let got: Vec<(ProcId, Block)> = sparse.entries().collect();
            prop_assert_eq!(sparse.len(), want.len());
            prop_assert_eq!(sparse.is_empty(), want.is_empty());
            prop_assert_eq!(got, want);
        }
    }
}
