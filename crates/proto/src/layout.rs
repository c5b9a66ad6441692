//! The fixed component topology of an M-CMP system.
//!
//! A system is `cmps` chips, each with `procs_per_cmp` processors (split
//! L1 I/D caches per processor), `banks_per_cmp` shared-L2 banks, and one
//! off-chip memory controller per chip (Figure 1 of the paper).
//!
//! [`Layout`] assigns every [`Unit`] a deterministic dense [`NodeId`] so
//! components can address each other before the kernel is built. The system
//! builder registers components in exactly this order and asserts the ids.

use std::fmt;

use tokencmp_sim::NodeId;

/// A processor index, global across the whole system (`cmp * procs_per_cmp
/// + core`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub u16);

/// A chip (CMP) index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CmpId(pub u16);

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Debug for CmpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A hardware unit in the M-CMP system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Unit {
    /// A processor sequencer.
    Proc(ProcId),
    /// A private L1 data cache.
    L1D(ProcId),
    /// A private L1 instruction cache.
    L1I(ProcId),
    /// A shared L2 bank `(chip, bank)`.
    L2Bank(CmpId, u16),
    /// The off-chip memory controller of a chip (also the home of the
    /// inter-CMP directory / the token arbiter for its address slice).
    Mem(CmpId),
}

/// Where a unit physically sits, for interconnect routing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    /// On chip `CmpId` (processors, L1s, L2 banks).
    OnChip(CmpId),
    /// Off chip, attached to chip `CmpId` by a dedicated memory link.
    OffChip(CmpId),
}

impl Placement {
    /// The chip this unit belongs to (on-chip or via its memory link).
    pub fn cmp(self) -> CmpId {
        match self {
            Placement::OnChip(c) | Placement::OffChip(c) => c,
        }
    }
}

/// The deterministic `Unit → NodeId` layout of a system.
///
/// Node order: processors, L1-D caches, L1-I caches, L2 banks
/// (chip-major), memory controllers.
///
/// # Example
///
/// ```
/// use tokencmp_proto::{Layout, ProcId, Unit};
/// let l = Layout::new(4, 4, 4);
/// assert_eq!(l.total_nodes(), 16 + 16 + 16 + 16 + 4);
/// let n = l.node(Unit::L1D(ProcId(3)));
/// assert_eq!(l.unit(n), Unit::L1D(ProcId(3)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Layout {
    /// Number of chips.
    pub cmps: u16,
    /// Processors per chip.
    pub procs_per_cmp: u16,
    /// Shared-L2 banks per chip.
    pub banks_per_cmp: u16,
}

impl Layout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(cmps: u16, procs_per_cmp: u16, banks_per_cmp: u16) -> Layout {
        assert!(cmps > 0 && procs_per_cmp > 0 && banks_per_cmp > 0);
        // ProcId is u16, so the global processor (and bank) spaces must
        // fit; 64 CMPs x 16 cores sits far inside this bound.
        assert!(
            cmps as u32 * procs_per_cmp as u32 <= u16::MAX as u32,
            "total processors exceed the u16 id space"
        );
        assert!(
            cmps as u32 * banks_per_cmp as u32 <= u16::MAX as u32,
            "total L2 banks exceed the u16 id space"
        );
        Layout {
            cmps,
            procs_per_cmp,
            banks_per_cmp,
        }
    }

    /// Total processors in the system.
    pub fn procs(&self) -> u32 {
        self.cmps as u32 * self.procs_per_cmp as u32
    }

    /// Total L2 banks in the system.
    pub fn l2_banks(&self) -> u32 {
        self.cmps as u32 * self.banks_per_cmp as u32
    }

    /// Total caches (L1-D + L1-I + L2 banks): the token holders besides
    /// memory, and the size of per-cache persistent-request state.
    pub fn caches(&self) -> u32 {
        2 * self.procs() + self.l2_banks()
    }

    /// Total kernel components.
    pub fn total_nodes(&self) -> u32 {
        3 * self.procs() + self.l2_banks() + self.cmps as u32
    }

    /// The chip a processor lives on.
    pub fn cmp_of_proc(&self, p: ProcId) -> CmpId {
        CmpId(p.0 / self.procs_per_cmp)
    }

    /// The core index of a processor within its chip.
    pub fn core_of_proc(&self, p: ProcId) -> u16 {
        p.0 % self.procs_per_cmp
    }

    /// The node id of a unit.
    ///
    /// # Panics
    ///
    /// Panics if the unit is out of range for this layout.
    pub fn node(&self, u: Unit) -> NodeId {
        let p = self.procs();
        let idx = match u {
            Unit::Proc(ProcId(i)) => {
                assert!((i as u32) < p);
                i as u32
            }
            Unit::L1D(ProcId(i)) => {
                assert!((i as u32) < p);
                p + i as u32
            }
            Unit::L1I(ProcId(i)) => {
                assert!((i as u32) < p);
                2 * p + i as u32
            }
            Unit::L2Bank(CmpId(c), b) => {
                assert!(c < self.cmps && b < self.banks_per_cmp);
                3 * p + c as u32 * self.banks_per_cmp as u32 + b as u32
            }
            Unit::Mem(CmpId(c)) => {
                assert!(c < self.cmps);
                3 * p + self.l2_banks() + c as u32
            }
        };
        NodeId(idx)
    }

    /// The unit of a node id.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn unit(&self, n: NodeId) -> Unit {
        let p = self.procs();
        let banks = self.l2_banks();
        let i = n.0;
        if i < p {
            Unit::Proc(ProcId(i as u16))
        } else if i < 2 * p {
            Unit::L1D(ProcId((i - p) as u16))
        } else if i < 3 * p {
            Unit::L1I(ProcId((i - 2 * p) as u16))
        } else if i < 3 * p + banks {
            let rel = i - 3 * p;
            Unit::L2Bank(
                CmpId((rel / self.banks_per_cmp as u32) as u16),
                (rel % self.banks_per_cmp as u32) as u16,
            )
        } else if i < 3 * p + banks + self.cmps as u32 {
            Unit::Mem(CmpId((i - 3 * p - banks) as u16))
        } else {
            panic!("node id {i} out of range for {self:?}");
        }
    }

    /// Where a node physically sits.
    pub fn placement(&self, n: NodeId) -> Placement {
        match self.unit(n) {
            Unit::Proc(p) | Unit::L1D(p) | Unit::L1I(p) => Placement::OnChip(self.cmp_of_proc(p)),
            Unit::L2Bank(c, _) => Placement::OnChip(c),
            Unit::Mem(c) => Placement::OffChip(c),
        }
    }

    /// True if the node is a cache (L1-D, L1-I or L2 bank).
    pub fn is_cache(&self, n: NodeId) -> bool {
        matches!(self.unit(n), Unit::L1D(_) | Unit::L1I(_) | Unit::L2Bank(..))
    }

    // ---- Convenience addressing -------------------------------------------------

    /// The L1 data cache of a processor.
    pub fn l1d(&self, p: ProcId) -> NodeId {
        self.node(Unit::L1D(p))
    }

    /// The L1 instruction cache of a processor.
    pub fn l1i(&self, p: ProcId) -> NodeId {
        self.node(Unit::L1I(p))
    }

    /// The sequencer node of a processor.
    pub fn proc(&self, p: ProcId) -> NodeId {
        self.node(Unit::Proc(p))
    }

    /// An L2 bank.
    pub fn l2(&self, c: CmpId, bank: u16) -> NodeId {
        self.node(Unit::L2Bank(c, bank))
    }

    /// The memory controller of a chip.
    pub fn mem(&self, c: CmpId) -> NodeId {
        self.node(Unit::Mem(c))
    }

    // ---- Iterators ---------------------------------------------------------------

    /// All processor ids.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> + 'static {
        (0..self.procs() as u16).map(ProcId)
    }

    /// All chip ids.
    pub fn cmp_ids(&self) -> impl Iterator<Item = CmpId> + 'static {
        (0..self.cmps).map(CmpId)
    }

    /// All processors on a chip.
    pub fn procs_on(&self, c: CmpId) -> impl Iterator<Item = ProcId> + 'static {
        let base = c.0 * self.procs_per_cmp;
        (base..base + self.procs_per_cmp).map(ProcId)
    }

    /// The L1 caches (D then I) on a chip.
    pub fn l1s_on(&self, c: CmpId) -> impl Iterator<Item = NodeId> + Clone + 'static {
        let first = self.l1d(ProcId(c.0 * self.procs_per_cmp)).0;
        let l1d = first..first + u32::from(self.procs_per_cmp);
        let l1i = l1d.start + self.procs()..l1d.end + self.procs();
        l1d.chain(l1i).map(NodeId)
    }

    /// The position of `node` among chip `c`'s L1 caches, in
    /// [`l1s_on`](Layout::l1s_on) order, or `None` if it is not one of
    /// them.
    pub fn l1_index(&self, c: CmpId, node: NodeId) -> Option<u32> {
        let (proc, first) = match self.unit(node) {
            Unit::L1D(p) => (p, 0),
            Unit::L1I(p) => (p, self.procs_per_cmp),
            _ => return None,
        };
        (self.cmp_of_proc(proc) == c).then(|| u32::from(first) + u32::from(self.core_of_proc(proc)))
    }

    /// The L2 banks on a chip.
    pub fn l2s_on(&self, c: CmpId) -> impl Iterator<Item = NodeId> + Clone + 'static {
        let first = self.l2(c, 0).0;
        (first..first + u32::from(self.banks_per_cmp)).map(NodeId)
    }

    /// Every cache node in the system (L1-D, L1-I, L2 banks): the
    /// contiguous node range after the processors.
    pub fn all_caches(&self) -> impl Iterator<Item = NodeId> + Clone + 'static {
        let first = self.procs();
        (first..first + self.caches()).map(NodeId)
    }

    /// Every memory controller.
    pub fn all_mems(&self) -> impl Iterator<Item = NodeId> + Clone + 'static {
        let first = self.procs() + self.caches();
        (first..self.total_nodes()).map(NodeId)
    }

    /// Every token-holding / persistent-table node: caches plus memory
    /// controllers.
    pub fn all_coherence_nodes(&self) -> impl Iterator<Item = NodeId> + Clone + 'static {
        (self.procs()..self.total_nodes()).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l() -> Layout {
        Layout::new(4, 4, 4)
    }

    #[test]
    fn node_unit_round_trip_all() {
        let l = l();
        for i in 0..l.total_nodes() {
            let n = NodeId(i);
            let u = l.unit(n);
            assert_eq!(l.node(u), n, "unit {u:?}");
        }
    }

    #[test]
    fn counts_match_paper_system() {
        let l = l();
        assert_eq!(l.procs(), 16);
        assert_eq!(l.l2_banks(), 16);
        assert_eq!(l.caches(), 48);
        assert_eq!(l.total_nodes(), 68);
        assert_eq!(l.all_coherence_nodes().count(), 52);
    }

    #[test]
    fn proc_cmp_mapping() {
        let l = l();
        assert_eq!(l.cmp_of_proc(ProcId(0)), CmpId(0));
        assert_eq!(l.cmp_of_proc(ProcId(3)), CmpId(0));
        assert_eq!(l.cmp_of_proc(ProcId(4)), CmpId(1));
        assert_eq!(l.cmp_of_proc(ProcId(15)), CmpId(3));
        assert_eq!(l.core_of_proc(ProcId(6)), 2);
    }

    #[test]
    fn placement_distinguishes_mem() {
        let l = l();
        assert_eq!(l.placement(l.l1d(ProcId(5))), Placement::OnChip(CmpId(1)));
        assert_eq!(l.placement(l.mem(CmpId(2))), Placement::OffChip(CmpId(2)));
        assert_eq!(l.placement(l.mem(CmpId(2))).cmp(), CmpId(2));
    }

    #[test]
    fn cache_predicate() {
        let l = l();
        assert!(l.is_cache(l.l1d(ProcId(0))));
        assert!(l.is_cache(l.l1i(ProcId(0))));
        assert!(l.is_cache(l.l2(CmpId(0), 0)));
        assert!(!l.is_cache(l.proc(ProcId(0))));
        assert!(!l.is_cache(l.mem(CmpId(0))));
    }

    #[test]
    fn per_cmp_iterators() {
        let l = l();
        let c = CmpId(2);
        assert_eq!(l.procs_on(c).count(), 4);
        assert_eq!(l.l1s_on(c).count(), 8);
        assert_eq!(l.l2s_on(c).count(), 4);
        for n in l.l1s_on(c) {
            assert_eq!(l.placement(n), Placement::OnChip(c));
        }
    }

    #[test]
    fn l1_index_is_the_position_in_l1s_on() {
        for l in [l(), Layout::new(3, 2, 4), Layout::new(2, 9, 3)] {
            for c in l.cmp_ids() {
                for (i, n) in l.l1s_on(c).enumerate() {
                    assert_eq!(l.l1_index(c, n), Some(i as u32), "{l:?}: {n:?}");
                    let foreign = CmpId((c.0 + 1) % l.cmps);
                    assert_eq!(l.l1_index(foreign, n), None, "{l:?}: {n:?}");
                }
                let others = l.procs_on(c).map(|p| l.proc(p));
                for n in others.chain(l.l2s_on(c)).chain([l.mem(c)]) {
                    assert_eq!(l.l1_index(c, n), None, "{l:?}: {n:?}");
                }
            }
        }
    }

    #[test]
    fn walks_list_nodes_in_unit_order() {
        let l = Layout::new(3, 2, 4);
        let c = CmpId(1);
        let l1s: Vec<NodeId> = l.procs_on(c).map(|p| l.l1d(p)).collect();
        let l1s = [l1s, l.procs_on(c).map(|p| l.l1i(p)).collect()].concat();
        assert_eq!(l.l1s_on(c).collect::<Vec<_>>(), l1s);
        let banks: Vec<NodeId> = (0..4).map(|b| l.l2(c, b)).collect();
        assert_eq!(l.l2s_on(c).collect::<Vec<_>>(), banks);
        let mut caches: Vec<NodeId> = l.proc_ids().map(|p| l.l1d(p)).collect();
        caches.extend(l.proc_ids().map(|p| l.l1i(p)));
        caches.extend(l.cmp_ids().flat_map(|c| (0..4).map(move |b| l.l2(c, b))));
        assert_eq!(l.all_caches().collect::<Vec<_>>(), caches);
        let mems: Vec<NodeId> = l.cmp_ids().map(|c| l.mem(c)).collect();
        assert_eq!(l.all_mems().collect::<Vec<_>>(), mems);
        caches.extend(mems);
        assert_eq!(l.all_coherence_nodes().collect::<Vec<_>>(), caches);
    }

    #[test]
    fn asymmetric_layout_round_trips() {
        let l = Layout::new(2, 3, 5);
        for i in 0..l.total_nodes() {
            let n = NodeId(i);
            assert_eq!(l.node(l.unit(n)), n);
        }
        assert_eq!(l.caches(), 2 * 6 + 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_of_bad_node_panics() {
        let _ = l().unit(NodeId(1_000));
    }
}
