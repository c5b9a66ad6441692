//! Memory-footprint regression suite for the scale-out configurations.
//!
//! The 64-CMP × 16-core system instantiates 1024 L1s and 1024 L2 banks.
//! With the old dense backing store every `SetAssoc` preallocated
//! `sets × ways` slots — ~1.3 MB per L2 bank, ~1.4 GB across the system
//! before the first access. The paged store allocates slot pages on
//! first touch, so per-cache resident bytes must track the *touched*
//! working set. The same holds for the persistent-request tables of the
//! coherence nodes, kept in one shared book: their bytes track live
//! requesters, not the 1024 processors, and each activation is stored
//! once rather than at every node. These budgets are documented in
//! DESIGN.md §18; the tests here hold the implementation to them.

use tokencmp::cache::SetAssoc;
use tokencmp::core::PersistentBook;
use tokencmp::proto::{Layout, ProcId};
use tokencmp::{Block, Fabric, ReqKind, SystemConfig};

/// A stand-in for the per-line coherence state the protocols store
/// (token counts, owner flags, MOESI-ish tags): 24 bytes, at least as
/// large as any real state payload in the tree.
type FatState = [u8; 24];

/// The 64-CMP × 16-core scale-out configuration under test.
fn config_1024() -> SystemConfig {
    let mut cfg = SystemConfig {
        cmps: 64,
        procs_per_cmp: 16,
        banks_per_cmp: 16,
        fabric: Fabric::Mesh { cols: 8 },
        ..SystemConfig::default()
    };
    cfg.tokens_per_block = (cfg.layout().caches() + 1).next_power_of_two();
    cfg.validate().expect("64x16 mesh config");
    cfg
}

/// DESIGN.md §18 budgets, in bytes.
const EMPTY_BUDGET: usize = 2 * 1024;
const ONE_PAGE_BUDGET: usize = 128 * 1024;

#[test]
fn untouched_caches_cost_kilobytes_not_megabytes() {
    let cfg = config_1024();
    let l1: SetAssoc<FatState> = SetAssoc::new(cfg.l1_sets, cfg.l1_ways, 0);
    let l2: SetAssoc<FatState> = SetAssoc::new(cfg.l2_sets, cfg.l2_ways, 0);
    assert!(
        l1.resident_bytes() <= EMPTY_BUDGET,
        "empty L1 resident {} B exceeds the {} B budget",
        l1.resident_bytes(),
        EMPTY_BUDGET
    );
    assert!(
        l2.resident_bytes() <= EMPTY_BUDGET,
        "empty L2 bank resident {} B exceeds the {} B budget",
        l2.resident_bytes(),
        EMPTY_BUDGET
    );

    // System-wide: every cache of the 1024-core machine, untouched,
    // fits in a few megabytes — against ~1.4 GB for dense preallocation.
    let caches = cfg.layout().caches() as usize;
    let total_empty = caches * l2.resident_bytes().max(l1.resident_bytes());
    assert!(
        total_empty <= 8 * 1024 * 1024,
        "untouched 1024-core system resident {} B",
        total_empty
    );
    let dense_l2 = cfg.l2_sets
        * cfg.l2_ways
        * (std::mem::size_of::<FatState>() + std::mem::size_of::<Block>() + 16);
    assert!(
        total_empty < dense_l2,
        "paged empty system ({total_empty} B) should undercut even ONE dense L2 bank ({dense_l2} B)"
    );
}

#[test]
fn touched_working_set_stays_within_the_page_budget() {
    // A litmus- or locking-sized working set (dozens of hot blocks,
    // clustered set indices) touches one slot page per cache: resident
    // bytes stay under the single-page budget no matter the nominal
    // cache capacity.
    let cfg = config_1024();
    let mut l2: SetAssoc<FatState> = SetAssoc::new(cfg.l2_sets, cfg.l2_ways, 0);
    for b in 0..64u64 {
        l2.insert(Block(b), [0; 24]);
    }
    assert_eq!(l2.len(), 64);
    assert!(
        l2.resident_bytes() <= ONE_PAGE_BUDGET,
        "64-block working set resident {} B exceeds the {} B one-page budget",
        l2.resident_bytes(),
        ONE_PAGE_BUDGET
    );

    // Even if every cache of the 1024-core system held a page, the
    // aggregate stays in the hundreds of megabytes — inside RAM.
    let caches = cfg.layout().caches() as usize;
    assert!(
        caches * ONE_PAGE_BUDGET <= 512 * 1024 * 1024,
        "one-page-per-cache aggregate breaks the 512 MiB documented ceiling"
    );
}

/// Persistent-request state per coherence node in the mesh-1024 regime:
/// one locking core per chip, so up to 64 live distributed-activation
/// entries and 64 processors in the deactivation-epoch record.
const PERSISTENT_NODE_BUDGET: usize = 4 * 1024;
/// All 3,136 coherence nodes of the 1024-core system together.
const PERSISTENT_SYSTEM_CEILING: usize = 16 * 1024 * 1024;
/// All 832 coherence nodes of the 64 × 4 mesh with every one of its 256
/// processors live at every node. A table per node with a 24-byte entry
/// and a 16-byte epoch record per processor needs 8.5 MB here: the
/// budget rules out any layout that copies each activation per node.
const PERSISTENT_FULL_LOAD_BUDGET: usize = 2 * 1024 * 1024;

/// Delivers the broadcast of `(proc, epoch)`'s activation (or, with no
/// block, its deactivation) to every coherence node, as the L1s do.
fn broadcast(book: &mut PersistentBook, layout: &Layout, p: u16, block: Option<Block>, epoch: u64) {
    for node in layout.all_coherence_nodes() {
        match block {
            Some(b) => book.activate(
                node,
                ProcId(p),
                b,
                layout.l1d(ProcId(p)),
                ReqKind::Write,
                epoch,
            ),
            None => {
                book.deactivate(node, ProcId(p), epoch);
            }
        }
    }
}

/// Activates one request per processor in `procs` (four blocks shared
/// among them) at every node, then deactivates them all.
fn churn(book: &mut PersistentBook, layout: &Layout, procs: impl Iterator<Item = u16> + Clone) {
    for p in procs.clone() {
        broadcast(book, layout, p, Some(Block(u64::from(p % 4))), 1);
    }
    for p in procs {
        broadcast(book, layout, p, None, 1);
    }
}

#[test]
fn persistent_tables_grow_with_live_entries_not_processors() {
    let cfg = config_1024();
    let layout = cfg.layout();
    let procs = layout.procs() as u16;
    assert_eq!(procs, 1024);
    let nodes = layout.all_coherence_nodes().count();
    assert_eq!(nodes, 3136);

    // An idle book holds no storage at all.
    let mut book = PersistentBook::new(&layout);
    assert_eq!(book.resident_bytes(), 0, "empty persistent book allocates");

    // 64 requesters spread over all 1024 processors (one per chip), seen
    // by every node.
    let one_per_chip = (0..procs).step_by(cfg.procs_per_cmp as usize);
    churn(&mut book, &layout, one_per_chip.clone());
    assert!((0..nodes as u32).all(|i| book.is_empty(tokencmp::sim::NodeId(u32::from(procs) + i))));
    let per_node = book.node_bytes();
    let spread = book.resident_bytes();
    println!("64 requesters: {per_node} B per node, {spread} B for the book");
    assert!(
        per_node <= PERSISTENT_NODE_BUDGET,
        "64-requester persistent table resident {per_node} B per node exceeds the {PERSISTENT_NODE_BUDGET} B budget"
    );
    assert!(
        spread <= PERSISTENT_SYSTEM_CEILING,
        "{nodes} persistent tables in {spread} B exceed the {PERSISTENT_SYSTEM_CEILING} B ceiling"
    );

    // The same number of requesters packed onto the first 64 processors
    // costs exactly the same: bytes track requesters, not the proc count.
    let mut packed = PersistentBook::new(&layout);
    churn(&mut packed, &layout, 0..64);
    assert_eq!(packed.node_bytes(), per_node);
    assert_eq!(packed.resident_bytes(), spread);

    // More live requesters cost more.
    let mut busier = PersistentBook::new(&layout);
    churn(&mut busier, &layout, 0..128);
    assert!(busier.node_bytes() > per_node);
    assert!(busier.resident_bytes() > spread);
}

#[test]
fn full_load_persistent_book_stores_each_activation_once() {
    // The 64 × 4 mesh at full load: every processor has completed one
    // persistent request (so every node keeps its deactivated epoch) and
    // has its next one live at every node.
    let mut cfg = SystemConfig {
        cmps: 64,
        procs_per_cmp: 4,
        banks_per_cmp: 4,
        fabric: Fabric::Mesh { cols: 8 },
        ..SystemConfig::default()
    };
    cfg.tokens_per_block = (cfg.layout().caches() + 1).next_power_of_two();
    cfg.validate().expect("64x4 mesh config");
    let layout = cfg.layout();
    assert_eq!(layout.all_coherence_nodes().count(), 832);
    let mut book = PersistentBook::new(&layout);
    for p in 0..layout.procs() as u16 {
        let block = Some(Block(u64::from(p % 4)));
        broadcast(&mut book, &layout, p, block, 1);
        broadcast(&mut book, &layout, p, None, 1);
        broadcast(&mut book, &layout, p, block, 2);
    }
    let probe = layout.mem(tokencmp::proto::CmpId(63));
    assert_eq!(book.len(probe), 256);
    let bytes = book.resident_bytes();
    println!(
        "full load: {} B per node, {bytes} B for the book",
        book.node_bytes()
    );
    assert!(
        bytes <= PERSISTENT_FULL_LOAD_BUDGET,
        "full-load persistent book resident {bytes} B exceeds the {PERSISTENT_FULL_LOAD_BUDGET} B budget"
    );
}

#[test]
fn footprint_grows_and_shrinks_with_residency_pattern() {
    // Resident bytes are monotone in touched pages, and a scattered
    // fill costs what the dense store always paid — the paged design
    // must converge to dense cost only under full occupancy.
    let cfg = config_1024();
    let mut l2: SetAssoc<FatState> = SetAssoc::new(cfg.l2_sets, cfg.l2_ways, 0);
    let empty = l2.resident_bytes();
    l2.insert(Block(0), [0; 24]);
    let one = l2.resident_bytes();
    assert!(one > empty, "first touch must allocate a page");
    // Fill every set: all pages allocate; cost lands at dense scale.
    for b in 0..cfg.l2_sets as u64 {
        l2.insert(Block(b), [0; 24]);
    }
    let full = l2.resident_bytes();
    assert!(full > one);
    let slot = std::mem::size_of::<Option<(Block, FatState, u64, u32)>>();
    assert!(
        full >= cfg.l2_sets * cfg.l2_ways * std::mem::size_of::<FatState>()
            && full <= 4 * cfg.l2_sets * cfg.l2_ways * slot,
        "full-array resident {} B is out of the dense-cost envelope",
        full
    );
}
