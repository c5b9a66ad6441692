//! Interconnect models for the M-CMP system.
//!
//! Three tiers of links (Figure 1 / Table 3 of the paper):
//!
//! * **intra-CMP** — a directly-connected on-chip network (64 GB/s links,
//!   2 ns one-way),
//! * **inter-CMP** — directly-connected chip-to-chip links (16 GB/s, 20 ns
//!   one-way including interface, wire and synchronization),
//! * **memory** — each chip's dedicated link to its off-chip memory
//!   controller (20 ns one-way).
//!
//! A cross-chip message is charged inter-CMP bytes once and intra-CMP bytes
//! at *both* ends (it enters and leaves each chip's on-chip network through
//! the global interface); this is what makes DirectoryCMP's strictly
//! hierarchical data routing (L1 → L2 → interface) visibly more expensive
//! than TokenCMP's direct L1 → requester responses in the Figure 7b
//! reproduction.
//!
//! Bandwidth is modeled as serialization occupancy on the inter-CMP and
//! memory links (next-free-time per directed link). Intra-CMP links are
//! latency-only: at 64 GB/s their utilization is negligible for every
//! workload in the paper (the paper notes queuing delay is insignificant
//! for its parameters).
//!
//! The chip-to-chip tier is a pluggable [`Fabric`]: the flat bus above
//! (Table 3, one direct serialized link per ordered chip pair), a ring,
//! or a 2D mesh with dimension-order routing. Multi-hop fabrics charge
//! inter-CMP bytes and acquire a serialized link *per hop*, so per-link
//! FIFO contention emerges naturally from the same occupancy model the
//! flat bus uses. The flat fabric is the degenerate one-hop case and
//! reproduces the pre-fabric arithmetic bit-identically. The network
//! walks each route from per-chip state (a mesh chip's column and row),
//! choosing a leg's direction and output port once; [`next_hop`] /
//! [`inter_path`] / [`inter_hops`] are the pure routing functions that
//! define the paths, and the walk is tested against them.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use tokencmp_proto::{Block, Fabric, IdMap, Layout, MsgClass, NetMsg, SystemConfig, Unit};
use tokencmp_sim::{Delivery, Dur, NodeId, Rng, Time, Transport};
use tokencmp_trace::{FaultKind, TraceEvent, TraceHandle, TraceTier};

pub mod fault;

pub use fault::{FaultCounters, FaultHandle, FaultPlan, FaultSpec};

/// The interconnect tier a byte was charged to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// On-chip network.
    Intra,
    /// Chip-to-chip global network (the paper's Figure 7a).
    Inter,
    /// Chip-to-memory-controller links.
    Mem,
}

impl Tier {
    /// All tiers.
    pub const ALL: [Tier; 3] = [Tier::Intra, Tier::Inter, Tier::Mem];

    fn index(self) -> usize {
        match self {
            Tier::Intra => 0,
            Tier::Inter => 1,
            Tier::Mem => 2,
        }
    }

    /// The trace tier events on this tier are labelled with.
    fn trace(self) -> TraceTier {
        match self {
            Tier::Intra => TraceTier::Intra,
            Tier::Inter => TraceTier::Inter,
            Tier::Mem => TraceTier::Mem,
        }
    }

    /// Short lowercase label (`"intra"`, `"inter"`, `"mem"`), the tier
    /// segment of traffic, in-flight and trace keys.
    pub fn label(self) -> &'static str {
        self.trace().label()
    }
}

/// Per-tier, per-[`MsgClass`] byte and message counts.
#[derive(Clone, Default)]
pub struct Traffic {
    bytes: [[u64; 7]; 3],
    msgs: [[u64; 7]; 3],
}

impl Traffic {
    /// Creates an empty account.
    pub fn new() -> Traffic {
        Traffic::default()
    }

    /// Charges `n` messages of `bytes` each, one per link of `tier` a
    /// message crosses.
    fn charge(&mut self, tier: Tier, class: MsgClass, bytes: u64, n: u32) {
        self.bytes[tier.index()][class.index()] += bytes * u64::from(n);
        self.msgs[tier.index()][class.index()] += u64::from(n);
    }

    /// Bytes charged to a tier and class.
    pub fn bytes(&self, tier: Tier, class: MsgClass) -> u64 {
        self.bytes[tier.index()][class.index()]
    }

    /// Messages charged to a tier and class.
    pub fn msgs(&self, tier: Tier, class: MsgClass) -> u64 {
        self.msgs[tier.index()][class.index()]
    }

    /// Total bytes on a tier.
    pub fn total_bytes(&self, tier: Tier) -> u64 {
        self.bytes[tier.index()].iter().sum()
    }

    /// Total messages on a tier.
    pub fn total_msgs(&self, tier: Tier) -> u64 {
        self.msgs[tier.index()].iter().sum()
    }

    /// Per-class byte breakdown of a tier, in [`MsgClass::ALL`] order.
    pub fn breakdown(&self, tier: Tier) -> [u64; 7] {
        self.bytes[tier.index()]
    }
}

impl fmt::Debug for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("Traffic");
        for tier in Tier::ALL {
            s.field(tier.label(), &self.total_bytes(tier));
        }
        s.finish()
    }
}

/// A shared handle onto a network's traffic account, harvested by the
/// benchmark harnesses after a run.
pub type TrafficHandle = Rc<RefCell<Traffic>>;

/// How a message travels between two units.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Route {
    /// Processor ↔ its own L1: core-internal, free and instant.
    Local,
    /// Between units on the same chip.
    Intra,
    /// Between chips.
    Inter { src_cmp: u16, dst_cmp: u16 },
    /// To/from the memory controller of the chip a unit sits on.
    MemLink { cmp: u16, to_mem: bool },
    /// Cross-chip to/from a memory controller: global link plus the home
    /// chip's memory link.
    InterPlusMem {
        src_cmp: u16,
        dst_cmp: u16,
        to_mem: bool,
    },
    /// Memory controller to memory controller: both memory links plus the
    /// global link.
    MemToMem { src_cmp: u16, dst_cmp: u16 },
}

impl Route {
    /// The tier that governs the route — the dominant (most failure-prone
    /// / highest-latency) link crossed, chip-to-chip for any cross-chip
    /// route — or `None` for core-internal traffic.
    fn tier(self) -> Option<Tier> {
        match self {
            Route::Local => None,
            Route::Intra => Some(Tier::Intra),
            Route::MemLink { .. } => Some(Tier::Mem),
            Route::Inter { .. } | Route::InterPlusMem { .. } | Route::MemToMem { .. } => {
                Some(Tier::Inter)
            }
        }
    }

    /// The single tier a route's trace events are labelled with: its
    /// governing tier, the one whose fault spec `dispatch_faulty` applies.
    fn trace_tier(self) -> TraceTier {
        self.tier().map_or(TraceTier::Local, Tier::trace)
    }
}

/// What a node is to routing: the only pair of nodes that talk
/// core-internally is a processor's sequencer and one of its L1s, and
/// every other route depends only on the two chips and on which end is a
/// memory controller.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// A processor sequencer.
    Seq,
    /// An L1 (data or instruction) cache.
    L1,
    /// A shared-L2 bank.
    Bank,
    /// An off-chip memory controller.
    Mem,
}

/// A node's routing site: its role, the chip it sits on (or, for a
/// memory controller, hangs off), and the processor a sequencer or L1
/// serves. [`Network`] keeps one per node, indexed by id, so a route is
/// two loads and [`Site::route_to`].
#[derive(Clone, Copy)]
struct Site {
    role: Role,
    cmp: u16,
    /// The processor of a sequencer or L1; 0 for banks and memory.
    core: u16,
}

impl Site {
    /// The site of node `n`, from its [`Unit`].
    fn of(layout: &Layout, n: NodeId) -> Site {
        let (role, cmp, core) = match layout.unit(n) {
            Unit::Proc(p) => (Role::Seq, layout.cmp_of_proc(p).0, p.0),
            Unit::L1D(p) | Unit::L1I(p) => (Role::L1, layout.cmp_of_proc(p).0, p.0),
            Unit::L2Bank(c, _) => (Role::Bank, c.0, 0),
            Unit::Mem(c) => (Role::Mem, c.0, 0),
        };
        Site { role, cmp, core }
    }

    /// Classifies the path from this site to `to` (a pure function of the
    /// two sites; the network's occupancy state never changes routing).
    fn route_to(self, to: Site) -> Route {
        let (a, b) = (self.cmp, to.cmp);
        match (self.role, to.role) {
            // Processor ↔ its own L1 caches: core-internal.
            (Role::Seq, Role::L1) | (Role::L1, Role::Seq) if self.core == to.core => Route::Local,
            // Memory controllers talk to each other only via persistent-
            // request broadcasts; route over both memory links and the
            // global network.
            (Role::Mem, Role::Mem) => {
                debug_assert_ne!(a, b, "memory controller self-message");
                Route::MemToMem {
                    src_cmp: a,
                    dst_cmp: b,
                }
            }
            (Role::Mem, _) | (_, Role::Mem) => {
                let to_mem = to.role == Role::Mem;
                if a == b {
                    Route::MemLink { cmp: a, to_mem }
                } else {
                    Route::InterPlusMem {
                        src_cmp: a,
                        dst_cmp: b,
                        to_mem,
                    }
                }
            }
            _ if a == b => Route::Intra,
            _ => Route::Inter {
                src_cmp: a,
                dst_cmp: b,
            },
        }
    }
}

// ---- Inter-CMP fabric routing ---------------------------------------------
//
// Pure functions of `(fabric, cmps, from, to)`: the network's occupancy
// state never influences a path, so routing is deterministic and the
// topology property suite can check paths without building a network.

/// The next chip on the path `from → to` under `fabric`.
///
/// * Flat: the destination itself (one direct link).
/// * Ring: one step in the shorter direction; an exact tie (even rings,
///   diametrically opposite chips) goes clockwise, toward increasing ids.
/// * Mesh: dimension-order routing — correct the column (X) first, then
///   the row (Y). X never resumes after the first Y step, so the
///   channel-dependency graph is acyclic and routing is deadlock-free by
///   construction.
///
/// # Panics
///
/// Panics if `from == to` or either chip is out of range.
pub fn next_hop(fabric: Fabric, cmps: u16, from: u16, to: u16) -> u16 {
    assert!(from != to, "next_hop of a self-route");
    assert!(from < cmps && to < cmps, "chip out of range");
    match fabric {
        Fabric::Flat => to,
        Fabric::Ring => {
            let n = cmps as i32;
            let fwd = (to as i32 - from as i32).rem_euclid(n);
            if fwd <= n - fwd {
                ((from as i32 + 1).rem_euclid(n)) as u16
            } else {
                ((from as i32 - 1).rem_euclid(n)) as u16
            }
        }
        Fabric::Mesh { cols } => {
            let (fx, fy) = (from % cols, from / cols);
            let (tx, ty) = (to % cols, to / cols);
            if fx != tx {
                if fx < tx {
                    from + 1
                } else {
                    from - 1
                }
            } else if fy < ty {
                from + cols
            } else {
                from - cols
            }
        }
    }
}

/// The full hop path `from → to`: each chip visited after `from`, ending
/// at `to`. Empty when `from == to`.
pub fn inter_path(fabric: Fabric, cmps: u16, from: u16, to: u16) -> Vec<u16> {
    let mut path = Vec::new();
    let mut cur = from;
    while cur != to {
        cur = next_hop(fabric, cmps, cur, to);
        path.push(cur);
    }
    path
}

/// Number of serialized inter-CMP links the path `from → to` crosses.
pub fn inter_hops(fabric: Fabric, cmps: u16, from: u16, to: u16) -> u32 {
    if from == to {
        return 0;
    }
    match fabric {
        Fabric::Flat => 1,
        Fabric::Ring => {
            let n = cmps as u32;
            let fwd = (to as i32 - from as i32).rem_euclid(n as i32) as u32;
            fwd.min(n - fwd)
        }
        Fabric::Mesh { cols } => {
            let dx = (from % cols).abs_diff(to % cols) as u32;
            let dy = (from / cols).abs_diff(to / cols) as u32;
            dx + dy
        }
    }
}

/// One inter-CMP route, walked hop by hop: yields the `next_free` index
/// ([`Network::inter_link`]) of each directed link the route crosses, in
/// path order. A hop is an add, a compare and a multiply-add; it never
/// divides and never calls [`next_hop`]. Built by [`Network::walk`].
#[derive(Clone, Debug)]
struct Walk {
    /// The chip the next hop leaves.
    cur: u16,
    /// Chip count: a step that leaves `0..cmps` wraps (a ring's ends).
    cmps: u16,
    /// Output ports per chip, as in [`Network::inter_link`].
    ports: usize,
    /// The legs left, the current one first: a mesh's X leg then its Y
    /// leg; one leg on a ring or the flat bus. A leg of no hops is done.
    legs: [Leg; 2],
}

/// A run of hops in one direction: one mesh dimension, a ring's arc, or
/// the flat bus's direct link.
#[derive(Clone, Copy, Debug, Default)]
struct Leg {
    /// Hops left.
    hops: u16,
    /// What each hop adds to the chip id (wrapping, so `u16::MAX` is −1).
    step: u16,
    /// What a step that leaves `0..cmps` adds on top: `−cmps` or `cmps`
    /// on a ring, unused on the other fabrics.
    wrap: u16,
    /// The output port every hop of the leg leaves by.
    port: u16,
}

impl Leg {
    /// The chip one `step` from `at`.
    fn advance(at: u16, step: u16, wrap: u16, cmps: u16) -> u16 {
        let next = at.wrapping_add(step);
        if next < cmps {
            next
        } else {
            next.wrapping_add(wrap)
        }
    }
}

impl Walk {
    /// Links left to cross: what the route charges to the inter-CMP tier.
    fn hops(&self) -> u32 {
        u32::from(self.legs[0].hops) + u32::from(self.legs[1].hops)
    }
}

impl Iterator for Walk {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.legs[0].hops == 0 {
            self.legs = [self.legs[1], Leg::default()];
        }
        let leg = &mut self.legs[0];
        leg.hops = leg.hops.checked_sub(1)?;
        let link = usize::from(self.cur) * self.ports + usize::from(leg.port);
        self.cur = Leg::advance(self.cur, leg.step, leg.wrap, self.cmps);
        Some(link)
    }
}

/// Live fault-injection state: the plan, its private RNG stream, shared
/// counters, and the per-directed-pair FIFO clamp used so that jitter on
/// serialized links delays but never reorders.
struct FaultState {
    plan: FaultPlan,
    rng: Rng,
    counters: FaultHandle,
    last_arrival: IdMap<(NodeId, NodeId), Time>,
}

/// The tier that *governs* a `src → dst` hop — the dominant (most
/// failure-prone / highest-latency) link crossed — or `None` for
/// core-internal processor ↔ own-L1 traffic. This is exactly the
/// mapping fault injection uses to pick a route's fault spec, exposed
/// so the telemetry sampler can classify in-flight messages into the
/// same tiers the traffic account and fault counters report.
pub fn tier_between(layout: &Layout, src: NodeId, dst: NodeId) -> Option<Tier> {
    Site::of(layout, src).route_to(Site::of(layout, dst)).tier()
}

/// The three-tier interconnect: computes delivery times (latency +
/// serialization occupancy) and records per-class traffic.
pub struct Network {
    /// Every node's routing site, indexed by node id.
    sites: Vec<Site>,
    fabric: Fabric,
    cmps: u16,
    intra_latency: Dur,
    inter_latency: Dur,
    offchip_latency: Dur,
    intra_gbps: u64,
    inter_gbps: u64,
    mem_gbps: u64,
    /// Next-free time of every serialized directed link, indexed by
    /// [`Network::inter_link`] / [`Network::mem_link`]: `ports` output
    /// ports per chip, then the two memory links of each chip.
    next_free: Vec<Time>,
    /// Inter-CMP output ports per chip: every other chip on the flat
    /// fabric (indexed by destination), 2 on a ring, 4 on a mesh.
    ports: usize,
    /// Each chip's `(column, row)` on a mesh, indexed by chip (empty on
    /// the other fabrics): what [`Network::walk`] routes from.
    mesh_xy: Vec<(u16, u16)>,
    traffic: TrafficHandle,
    faults: Option<Box<FaultState>>,
    trace: Option<TraceHandle>,
}

impl Network {
    /// Builds a network from the system configuration.
    pub fn new(cfg: &SystemConfig) -> Network {
        let cmps = cfg.cmps as usize;
        let ports = match cfg.fabric {
            Fabric::Flat => cmps,
            Fabric::Ring => 2,
            Fabric::Mesh { .. } => 4,
        };
        let layout = cfg.layout();
        Network {
            sites: (0..layout.total_nodes())
                .map(|i| Site::of(&layout, NodeId(i)))
                .collect(),
            fabric: cfg.fabric,
            cmps: cfg.cmps,
            intra_latency: cfg.intra_latency,
            inter_latency: cfg.inter_latency,
            offchip_latency: cfg.offchip_latency,
            intra_gbps: cfg.intra_gbps,
            inter_gbps: cfg.inter_gbps,
            mem_gbps: cfg.mem_gbps,
            next_free: vec![Time::ZERO; cmps * (ports + 2)],
            ports,
            mesh_xy: match cfg.fabric {
                Fabric::Mesh { cols } => (0..cfg.cmps).map(|c| (c % cols, c / cols)).collect(),
                Fabric::Flat | Fabric::Ring => Vec::new(),
            },
            traffic: Rc::new(RefCell::new(Traffic::new())),
            faults: None,
            trace: None,
        }
    }

    /// Installs a trace sink; every accepted message emits a
    /// [`TraceEvent::MsgSend`] and every injected fault a
    /// [`TraceEvent::Fault`]. Call before the network is boxed into the
    /// kernel. With no sink (the default) no event is constructed.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Emits a [`TraceEvent::Fault`] if a sink is installed (free
    /// otherwise, like every emission site).
    fn emit_fault<M: NetMsg>(&self, now: Time, kind: FaultKind, tier: Tier, msg: &M) {
        if let Some(trace) = &self.trace {
            trace.borrow_mut().record(
                now,
                TraceEvent::Fault {
                    kind,
                    class: msg.class(),
                    tier: tier.trace(),
                    block: msg.block_id().map(Block),
                },
            );
        }
    }

    /// Builds a network with a fault-injection plan. A no-op `plan` is
    /// dropped entirely (no fault state, no RNG, bit-identical behaviour
    /// to [`Network::new`]); otherwise the plan's RNG stream is derived
    /// from `seed` so the same plan and seed replay bit-identically.
    pub fn with_faults(cfg: &SystemConfig, plan: FaultPlan, seed: u64) -> Network {
        let mut n = Network::new(cfg);
        if !plan.is_noop() {
            n.faults = Some(Box::new(FaultState {
                plan,
                rng: Rng::new(seed ^ 0xFA17_1A7E_5EED_C0DE),
                counters: Rc::new(RefCell::new(FaultCounters::default())),
                last_arrival: IdMap::default(),
            }));
        }
        n
    }

    /// A shareable handle onto the fault counters, if fault injection is
    /// active (`None` means the fault path is provably pass-through).
    pub fn fault_handle(&self) -> Option<FaultHandle> {
        self.faults.as_ref().map(|f| Rc::clone(&f.counters))
    }

    /// A shareable handle onto the traffic account.
    pub fn traffic_handle(&self) -> TrafficHandle {
        Rc::clone(&self.traffic)
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Route {
        self.sites[src.0 as usize].route_to(self.sites[dst.0 as usize])
    }

    /// Index of the directed inter-CMP link `from → to` (`to` a fabric
    /// neighbor of `from`) in `next_free`: the chip's output port toward
    /// `to`. Distinct neighbors get distinct ports, so every directed
    /// link keeps its own occupancy.
    fn inter_link(&self, from: u16, to: u16) -> usize {
        let port = match self.fabric {
            Fabric::Flat => to as usize,
            Fabric::Ring => usize::from(to != (from + 1) % self.cmps),
            Fabric::Mesh { cols } => {
                if to == from + 1 {
                    0
                } else if to + 1 == from {
                    1
                } else if to == from + cols {
                    2
                } else {
                    3
                }
            }
        };
        from as usize * self.ports + port
    }

    /// Index of chip `cmp`'s memory link (toward memory when `to_mem`)
    /// in `next_free`, after every chip's inter-CMP ports.
    fn mem_link(&self, cmp: u16, to_mem: bool) -> usize {
        self.cmps as usize * self.ports + 2 * cmp as usize + usize::from(to_mem)
    }

    /// Acquires a serialized link: waits for it to be free, then occupies
    /// it for the serialization time. Returns the departure-from-link time.
    fn occupy(&mut self, link: usize, at: Time, ser: Dur) -> Time {
        let free = &mut self.next_free[link];
        let start = at.max(*free);
        *free = start + ser;
        start + ser
    }

    /// The route `from → to` ([`inter_path`]'s path), as a [`Walk`] built
    /// from per-chip state: the mesh's X leg then its Y leg, a ring's
    /// shorter arc (clockwise on a tie), or the flat bus's one direct
    /// link. Each leg's direction and output port are chosen here, once;
    /// its port comes from [`Network::inter_link`].
    fn walk(&self, from: u16, to: u16) -> Walk {
        let mut walk = Walk {
            cur: from,
            cmps: self.cmps,
            ports: self.ports,
            legs: [Leg::default(); 2],
        };
        if from == to {
            return walk;
        }
        let n = self.cmps;
        match self.fabric {
            Fabric::Flat => walk.legs[0] = self.leg(from, to.wrapping_sub(from), 1, 0),
            Fabric::Ring => {
                // `to - from` modulo `n`; the wrapped sum is below `n`.
                let fwd = to
                    .wrapping_sub(from)
                    .wrapping_add(if to < from { n } else { 0 });
                walk.legs[0] = if fwd <= n - fwd {
                    self.leg(from, 1, fwd, n.wrapping_neg())
                } else {
                    self.leg(from, u16::MAX, n - fwd, n)
                };
            }
            Fabric::Mesh { cols } => {
                let ((fx, fy), (tx, ty)) = (
                    self.mesh_xy[usize::from(from)],
                    self.mesh_xy[usize::from(to)],
                );
                let mut legs = walk.legs.iter_mut();
                if fx != tx {
                    let step = if fx < tx { 1 } else { u16::MAX };
                    *legs.next().expect("two legs") = self.leg(from, step, fx.abs_diff(tx), 0);
                }
                if fy != ty {
                    // The Y leg starts in the destination's column.
                    let corner = from.wrapping_sub(fx).wrapping_add(tx);
                    let step = if fy < ty { cols } else { cols.wrapping_neg() };
                    *legs.next().expect("two legs") = self.leg(corner, step, fy.abs_diff(ty), 0);
                }
            }
        }
        walk
    }

    /// A leg of `hops` hops from chip `at`, each moving the chip id by
    /// `step` (wrapping by `wrap` past either end of a ring).
    fn leg(&self, at: u16, step: u16, hops: u16, wrap: u16) -> Leg {
        let port = self.inter_link(at, Leg::advance(at, step, wrap, self.cmps))
            - usize::from(at) * self.ports;
        Leg {
            hops,
            step,
            wrap,
            port: port as u16,
        }
    }

    /// Acquires every serialized link of `walk` in path order (per-hop
    /// FIFO contention), paying the link latency per hop. On the flat
    /// fabric this is a single `occupy` on the direct link — exactly the
    /// pre-fabric arithmetic.
    fn traverse_inter(&mut self, walk: Walk, at: Time, ser: Dur) -> Time {
        walk.fold(at, |t, link| self.occupy(link, t, ser) + self.inter_latency)
    }

    /// Delivery with fault injection, for messages whose route has active
    /// fault state. Decision order per message is fixed (drop, then
    /// jitter, then reorder-hold), and a fault kind only consumes
    /// randomness when its rate is positive — so the RNG stream, and with
    /// it the whole simulation, is a deterministic function of
    /// (plan, seed, message sequence).
    fn dispatch_faulty<M: NetMsg>(
        &mut self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        msg: &M,
    ) -> Delivery {
        let route = self.route(src, dst);
        // The tier whose fault spec governs this route; core-internal
        // traffic is never faulted.
        let Some(tier) = route.tier() else {
            return Delivery::At(self.deliver_at(now, src, dst, msg));
        };
        let mut state = self
            .faults
            .take()
            .expect("dispatch_faulty without fault state");
        let spec = state.plan.spec(tier, msg.class());

        // Lossy delivery: discarded at injection, so a dropped message
        // consumes no bandwidth and is not charged to traffic. Gated on
        // the message's own droppability: transients always opt in, token
        // bundles only under the opt-in token-lossy tier (and never with
        // a dirty owner aboard), persistent-table and recreation
        // handshake messages can never be lost regardless of the plan.
        let can_drop = msg.droppable() || (spec.lossy_tokens && msg.lossy_droppable());
        if spec.drop_rate > 0.0 && can_drop && state.rng.chance(spec.drop_rate) {
            let mut counters = state.counters.borrow_mut();
            counters.dropped[msg.class().index()] += 1;
            if let Some(p) = msg.token_payload() {
                // Destroyed tokens enter the lost ledger so the end-of-
                // run conservation audit balances census + lost = T.
                let block = msg.block_id().expect("token payload without a block");
                let entry = counters.lost_tokens.entry((block, p.serial)).or_default();
                entry.count += p.count;
                entry.owners += p.owner as u32;
            }
            drop(counters);
            self.emit_fault(now, FaultKind::Drop, tier, msg);
            if let (Some(p), Some(trace)) = (msg.token_payload(), &self.trace) {
                trace.borrow_mut().record(
                    now,
                    TraceEvent::TokenLost {
                        block: Block(msg.block_id().expect("token payload without a block")),
                        to: dst,
                        count: p.count,
                        owner: p.owner,
                        serial: p.serial,
                    },
                );
            }
            self.faults = Some(state);
            return Delivery::Dropped;
        }

        let mut arrive = self.deliver_at(now, src, dst, msg);
        if spec.jitter_rate > 0.0
            && !spec.max_jitter.is_zero()
            && state.rng.chance(spec.jitter_rate)
        {
            arrive += Dur::from_ps(state.rng.below(spec.max_jitter.as_ps() + 1));
            state.counters.borrow_mut().jittered[msg.class().index()] += 1;
            self.emit_fault(now, FaultKind::Jitter, tier, msg);
        }
        if matches!(route, Route::Intra)
            && spec.reorder_rate > 0.0
            && !spec.reorder_hold.is_zero()
            && state.rng.chance(spec.reorder_rate)
        {
            // Adversarial hold on the unordered on-chip fabric: younger
            // messages between the same endpoints will overtake this one.
            arrive += spec.reorder_hold;
            state.counters.borrow_mut().reordered[msg.class().index()] += 1;
            self.emit_fault(now, FaultKind::Hold, tier, msg);
        }
        if !matches!(route, Route::Intra) {
            // Serialized links are FIFO channels: jitter may slow a
            // message but must not let a later send on the same directed
            // pair arrive earlier.
            let last = state.last_arrival.entry((src, dst)).or_insert(Time::ZERO);
            arrive = arrive.max(*last);
            *last = arrive;
        }
        self.faults = Some(state);
        Delivery::At(arrive)
    }

    /// The time `msg`, sent from `src` at `now`, arrives at `dst`: charges
    /// its traffic, occupies the serialized links it crosses and traces
    /// its send. Both dispatch paths deliver through here.
    fn deliver_at<M: NetMsg>(&mut self, now: Time, src: NodeId, dst: NodeId, msg: &M) -> Time {
        let size = msg.size_bytes() as u64;
        let class = msg.class();
        let route = self.route(src, dst);
        let mut traffic = self.traffic.borrow_mut();
        let at = match route {
            Route::Local => now,
            Route::Intra => {
                if size > 0 {
                    traffic.charge(Tier::Intra, class, size, 1);
                }
                drop(traffic);
                now + self.intra_latency + Dur::from_bytes_at_gbps(size, self.intra_gbps)
            }
            Route::Inter { src_cmp, dst_cmp } => {
                let walk = self.walk(src_cmp, dst_cmp);
                if size > 0 {
                    // On-chip segments at both ends, plus every global
                    // link crossed (one on the flat fabric).
                    traffic.charge(Tier::Intra, class, size, 2);
                    traffic.charge(Tier::Inter, class, size, walk.hops());
                }
                drop(traffic);
                let ser = Dur::from_bytes_at_gbps(size, self.inter_gbps);
                self.traverse_inter(walk, now, ser)
            }
            Route::MemLink { cmp, to_mem } => {
                if size > 0 {
                    traffic.charge(Tier::Intra, class, size, 1);
                    traffic.charge(Tier::Mem, class, size, 1);
                }
                drop(traffic);
                let ser = Dur::from_bytes_at_gbps(size, self.mem_gbps);
                let out = self.occupy(self.mem_link(cmp, to_mem), now, ser);
                out + self.offchip_latency
            }
            Route::InterPlusMem {
                src_cmp,
                dst_cmp,
                to_mem,
            } => {
                let walk = self.walk(src_cmp, dst_cmp);
                if size > 0 {
                    traffic.charge(Tier::Intra, class, size, 1);
                    traffic.charge(Tier::Inter, class, size, walk.hops());
                    traffic.charge(Tier::Mem, class, size, 1);
                }
                drop(traffic);
                let ser_inter = Dur::from_bytes_at_gbps(size, self.inter_gbps);
                let mem_cmp = if to_mem { dst_cmp } else { src_cmp };
                let after_inter = self.traverse_inter(walk, now, ser_inter);
                let ser_mem = Dur::from_bytes_at_gbps(size, self.mem_gbps);
                let out = self.occupy(self.mem_link(mem_cmp, to_mem), after_inter, ser_mem);
                out + self.offchip_latency
            }
            Route::MemToMem { src_cmp, dst_cmp } => {
                let walk = self.walk(src_cmp, dst_cmp);
                if size > 0 {
                    traffic.charge(Tier::Inter, class, size, walk.hops());
                    traffic.charge(Tier::Mem, class, size, 2);
                }
                drop(traffic);
                let ser_mem = Dur::from_bytes_at_gbps(size, self.mem_gbps);
                let ser_inter = Dur::from_bytes_at_gbps(size, self.inter_gbps);
                let t1 =
                    self.occupy(self.mem_link(src_cmp, false), now, ser_mem) + self.offchip_latency;
                let t2 = self.traverse_inter(walk, t1, ser_inter);
                let t3 = self.occupy(self.mem_link(dst_cmp, true), t2, ser_mem);
                t3 + self.offchip_latency
            }
        };
        // The single emission point every protocol message funnels
        // through: one MsgSend per accepted message, labelled with the
        // route's dominant tier. The fault layer's drop path returns
        // before reaching here, so dropped messages emit no MsgSend.
        if let Some(trace) = &self.trace {
            trace.borrow_mut().record(
                now,
                TraceEvent::MsgSend {
                    src,
                    dst,
                    class,
                    tier: route.trace_tier(),
                    bytes: msg.size_bytes(),
                    block: msg.block_id().map(Block),
                    arrive: at,
                },
            );
        }
        at
    }
}

impl<M: NetMsg> Transport<M> for Network {
    fn dispatch(&mut self, now: Time, src: NodeId, dst: NodeId, msg: &M) -> Delivery {
        if self.faults.is_none() {
            // Pass-through: without fault state this is exactly the
            // pre-fault-injection delivery path, RNG untouched.
            return Delivery::At(self.deliver_at(now, src, dst, msg));
        }
        self.dispatch_faulty(now, src, dst, msg)
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("fabric", &self.fabric)
            .field("nodes", &self.sites.len())
            .field("traffic", &*self.traffic.borrow())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokencmp_proto::{CmpId, ProcId};

    #[derive(Debug)]
    struct TestMsg {
        size: u32,
        class: MsgClass,
    }

    impl NetMsg for TestMsg {
        fn size_bytes(&self) -> u32 {
            self.size
        }
        fn class(&self) -> MsgClass {
            self.class
        }
    }

    fn data() -> TestMsg {
        TestMsg {
            size: 72,
            class: MsgClass::ResponseData,
        }
    }

    fn ctrl() -> TestMsg {
        TestMsg {
            size: 8,
            class: MsgClass::Request,
        }
    }

    fn net() -> (Network, Layout) {
        let cfg = SystemConfig::default();
        (Network::new(&cfg), cfg.layout())
    }

    #[test]
    fn tier_between_matches_route_classification() {
        let (_, l) = net();
        // Core-internal: proc ↔ its own L1.
        assert_eq!(tier_between(&l, l.proc(ProcId(0)), l.l1d(ProcId(0))), None);
        // Same chip, L1 → L2 bank.
        assert_eq!(
            tier_between(&l, l.l1d(ProcId(0)), l.l2(CmpId(0), 1)),
            Some(Tier::Intra)
        );
        // Cross-chip cache-to-cache.
        let far = l.procs_on(CmpId(1)).last().unwrap();
        assert_eq!(
            tier_between(&l, l.l1d(ProcId(0)), l.l1d(far)),
            Some(Tier::Inter)
        );
        // On-chip unit to its own chip's memory controller.
        assert_eq!(
            tier_between(&l, l.l2(CmpId(0), 0), l.mem(CmpId(0))),
            Some(Tier::Mem)
        );
        // Cross-chip to a remote memory controller: governed by inter.
        assert_eq!(
            tier_between(&l, l.l1d(ProcId(0)), l.mem(CmpId(1))),
            Some(Tier::Inter)
        );
        assert_eq!(
            tier_between(&l, l.mem(CmpId(0)), l.mem(CmpId(1))),
            Some(Tier::Inter)
        );
    }

    /// The route of `src → dst` derived from the two nodes' [`Unit`]s
    /// and [`Placement`](tokencmp_proto::Placement)s: the oracle the
    /// site table is checked against.
    fn route_by_unit(layout: &Layout, src: NodeId, dst: NodeId) -> Route {
        use tokencmp_proto::Placement;
        match (layout.unit(src), layout.unit(dst)) {
            (Unit::Proc(p), Unit::L1D(q) | Unit::L1I(q))
            | (Unit::L1D(p) | Unit::L1I(p), Unit::Proc(q))
                if p == q =>
            {
                return Route::Local;
            }
            _ => {}
        }
        let (src_cmp, dst_cmp) = (layout.placement(src).cmp().0, layout.placement(dst).cmp().0);
        match (layout.placement(src), layout.placement(dst)) {
            (Placement::OnChip(_), Placement::OnChip(_)) if src_cmp == dst_cmp => Route::Intra,
            (Placement::OnChip(_), Placement::OnChip(_)) => Route::Inter { src_cmp, dst_cmp },
            (Placement::OffChip(_), Placement::OffChip(_)) => Route::MemToMem { src_cmp, dst_cmp },
            (from, _) => {
                let to_mem = matches!(from, Placement::OnChip(_));
                if src_cmp == dst_cmp {
                    Route::MemLink {
                        cmp: src_cmp,
                        to_mem,
                    }
                } else {
                    Route::InterPlusMem {
                        src_cmp,
                        dst_cmp,
                        to_mem,
                    }
                }
            }
        }
    }

    #[test]
    fn site_table_routes_every_pair_as_the_unit_layout_does() {
        let mesh = SystemConfig {
            cmps: 64,
            procs_per_cmp: 4,
            banks_per_cmp: 4,
            fabric: Fabric::Mesh { cols: 8 },
            ..SystemConfig::default()
        };
        let ring = SystemConfig {
            cmps: 8,
            procs_per_cmp: 2,
            banks_per_cmp: 2,
            fabric: Fabric::Ring,
            ..SystemConfig::default()
        };
        for cfg in [SystemConfig::default(), ring, mesh] {
            let l = cfg.layout();
            let n = Network::new(&cfg);
            // Every route kind occurs, the core-internal and memory-to-
            // memory ones included.
            let mut kinds = [0u32; 6];
            for a in (0..l.total_nodes()).map(NodeId) {
                for b in (0..l.total_nodes()).map(NodeId) {
                    if a == b && l.all_mems().any(|m| m == a) {
                        continue; // no memory controller messages itself
                    }
                    let want = route_by_unit(&l, a, b);
                    assert_eq!(n.route(a, b), want, "{l:?}: {a:?} -> {b:?}");
                    assert_eq!(tier_between(&l, a, b), want.tier());
                    kinds[match want {
                        Route::Local => 0,
                        Route::Intra => 1,
                        Route::Inter { .. } => 2,
                        Route::MemLink { .. } => 3,
                        Route::InterPlusMem { .. } => 4,
                        Route::MemToMem { .. } => 5,
                    }] += 1;
                }
            }
            // Each processor reaches its two L1s and back.
            assert_eq!(kinds[0], 4 * l.procs(), "{l:?}");
            assert!(kinds.iter().all(|&k| k > 0), "{l:?}: {kinds:?}");
        }
    }

    #[test]
    fn multi_hop_charges_one_message_per_link() {
        // 0 → 63 on the 8 × 8 mesh crosses 14 links: 14 inter-CMP
        // messages and bytes, and one intra-CMP segment at each end.
        let cfg = fabric_cfg(64, Fabric::Mesh { cols: 8 });
        let l = cfg.layout();
        let mut n = Network::new(&cfg);
        let _ = n.deliver_at(Time::ZERO, l.l1d(ProcId(0)), l.l1d(ProcId(63)), &data());
        let tr = n.traffic_handle();
        let tr = tr.borrow();
        assert_eq!(tr.msgs(Tier::Inter, MsgClass::ResponseData), 14);
        assert_eq!(tr.bytes(Tier::Inter, MsgClass::ResponseData), 14 * 72);
        assert_eq!(tr.msgs(Tier::Intra, MsgClass::ResponseData), 2);
        assert_eq!(tr.bytes(Tier::Intra, MsgClass::ResponseData), 2 * 72);
        // Memory to memory: both memory links, plus every global hop.
        drop(tr);
        let _ = n.deliver_at(Time::ZERO, l.mem(CmpId(0)), l.mem(CmpId(63)), &ctrl());
        let tr = n.traffic_handle();
        assert_eq!(tr.borrow().msgs(Tier::Inter, MsgClass::Request), 14);
        assert_eq!(tr.borrow().bytes(Tier::Mem, MsgClass::Request), 16);
        assert_eq!(tr.borrow().msgs(Tier::Mem, MsgClass::Request), 2);
    }

    #[test]
    fn proc_to_own_l1_is_free_and_instant() {
        let (mut n, l) = net();
        let t = n.deliver_at(
            Time::from_ns(5),
            l.proc(ProcId(3)),
            l.l1d(ProcId(3)),
            &data(),
        );
        assert_eq!(t, Time::from_ns(5));
        assert_eq!(n.traffic_handle().borrow().total_bytes(Tier::Intra), 0);
    }

    #[test]
    fn intra_cmp_latency_and_traffic() {
        let (mut n, l) = net();
        let t = n.deliver_at(Time::ZERO, l.l1d(ProcId(0)), l.l2(CmpId(0), 1), &data());
        // 2 ns latency + 72 B / 64 GB/s = 1.125 ns
        assert_eq!(t.as_ps(), 2_000 + 1_125);
        let tr = n.traffic_handle();
        assert_eq!(tr.borrow().bytes(Tier::Intra, MsgClass::ResponseData), 72);
        assert_eq!(tr.borrow().total_bytes(Tier::Inter), 0);
    }

    #[test]
    fn inter_cmp_charges_both_chips_intra() {
        let (mut n, l) = net();
        let t = n.deliver_at(
            Time::ZERO,
            l.l1d(ProcId(0)),  // chip 0
            l.l1d(ProcId(15)), // chip 3
            &data(),
        );
        // serialization 72/16 GB/s = 4.5 ns, then 20 ns latency
        assert_eq!(t.as_ps(), 4_500 + 20_000);
        let tr = n.traffic_handle();
        let tr = tr.borrow();
        assert_eq!(tr.bytes(Tier::Inter, MsgClass::ResponseData), 72);
        assert_eq!(tr.bytes(Tier::Intra, MsgClass::ResponseData), 144);
        assert_eq!(tr.msgs(Tier::Inter, MsgClass::ResponseData), 1);
    }

    #[test]
    fn mem_link_same_chip() {
        let (mut n, l) = net();
        let t = n.deliver_at(Time::ZERO, l.l2(CmpId(2), 0), l.mem(CmpId(2)), &ctrl());
        // 8 B / 16 GB/s = 0.5 ns + 20 ns off-chip
        assert_eq!(t.as_ps(), 500 + 20_000);
        let tr = n.traffic_handle();
        assert_eq!(tr.borrow().bytes(Tier::Mem, MsgClass::Request), 8);
        assert_eq!(tr.borrow().bytes(Tier::Intra, MsgClass::Request), 8);
        assert_eq!(tr.borrow().total_bytes(Tier::Inter), 0);
    }

    #[test]
    fn remote_mem_crosses_both_links() {
        let (mut n, l) = net();
        let t = n.deliver_at(Time::ZERO, l.l2(CmpId(0), 0), l.mem(CmpId(1)), &ctrl());
        // inter: 0.5 ser + 20 lat; mem: 0.5 ser + 20 lat
        assert_eq!(t.as_ps(), 500 + 20_000 + 500 + 20_000);
        let tr = n.traffic_handle();
        let tr = tr.borrow();
        assert_eq!(tr.bytes(Tier::Inter, MsgClass::Request), 8);
        assert_eq!(tr.bytes(Tier::Mem, MsgClass::Request), 8);
    }

    #[test]
    fn serialization_queues_back_to_back_messages() {
        let (mut n, l) = net();
        let src = l.l1d(ProcId(0));
        let dst = l.l1d(ProcId(15));
        let t1 = n.deliver_at(Time::ZERO, src, dst, &data());
        let t2 = n.deliver_at(Time::ZERO, src, dst, &data());
        // Second message waits for the first's 4.5 ns serialization.
        assert_eq!(t2.as_ps(), t1.as_ps() + 4_500);
    }

    #[test]
    fn reverse_direction_is_a_separate_link() {
        let (mut n, l) = net();
        let a = l.l1d(ProcId(0));
        let b = l.l1d(ProcId(15));
        let t1 = n.deliver_at(Time::ZERO, a, b, &data());
        let t2 = n.deliver_at(Time::ZERO, b, a, &data());
        assert_eq!(t1, t2); // no shared occupancy
    }

    #[test]
    fn zero_size_messages_are_never_charged() {
        let (mut n, l) = net();
        let m = TestMsg {
            size: 0,
            class: MsgClass::Request,
        };
        let _ = n.deliver_at(Time::ZERO, l.l1d(ProcId(0)), l.l1d(ProcId(15)), &m);
        let tr = n.traffic_handle();
        for tier in Tier::ALL {
            assert_eq!(tr.borrow().total_bytes(tier), 0);
            assert_eq!(tr.borrow().total_msgs(tier), 0);
        }
    }

    proptest::proptest! {
        /// Delivery never precedes departure, repeated sends on one link
        /// are monotone (FIFO serialization), and every charged byte shows
        /// up in exactly the tiers its route says it should.
        #[test]
        fn delivery_times_are_sane(
            pairs in proptest::collection::vec((0u32..68, 0u32..68, 1u32..100), 1..40)
        ) {
            let cfg = SystemConfig::default();
            let mut n = Network::new(&cfg);
            let l = cfg.layout();
            let mut now = Time::ZERO;
            let mut last_per_pair: std::collections::HashMap<(u32, u32), Time> =
                std::collections::HashMap::new();
            for (a, b, sz) in pairs {
                let (src, dst) = (NodeId(a), NodeId(b));
                if src == dst {
                    continue;
                }
                // Skip mem↔mem self-chip pairs the layout forbids.
                if let (tokencmp_proto::Placement::OffChip(x), tokencmp_proto::Placement::OffChip(y)) =
                    (l.placement(src), l.placement(dst))
                {
                    if x == y {
                        continue;
                    }
                }
                let m = TestMsg { size: sz, class: MsgClass::Request };
                let t = n.deliver_at(now, src, dst, &m);
                proptest::prop_assert!(t >= now, "delivery precedes departure");
                // Serialized links (cross-chip and memory) are FIFO; the
                // latency-only intra links may legitimately reorder (the
                // protocols assume an unordered network).
                let serialized = l.placement(src).cmp() != l.placement(dst).cmp()
                    || matches!(l.placement(src), tokencmp_proto::Placement::OffChip(_))
                    || matches!(l.placement(dst), tokencmp_proto::Placement::OffChip(_));
                if serialized {
                    if let Some(prev) = last_per_pair.get(&(a, b)) {
                        proptest::prop_assert!(t >= *prev, "serialized-link reordering");
                    }
                    last_per_pair.insert((a, b), t);
                }
                now += Dur::from_ps(1); // strictly increasing send times
            }
        }
    }

    /// A transient-request stand-in: the only droppable message kind.
    #[derive(Debug)]
    struct DroppableMsg;

    impl NetMsg for DroppableMsg {
        fn size_bytes(&self) -> u32 {
            8
        }
        fn class(&self) -> MsgClass {
            MsgClass::Request
        }
        fn droppable(&self) -> bool {
            true
        }
    }

    #[test]
    fn noop_plan_is_pass_through() {
        let cfg = SystemConfig::default();
        let l = cfg.layout();
        let mut plain = Network::new(&cfg);
        let mut faulty = Network::with_faults(&cfg, FaultPlan::none(), 42);
        assert!(faulty.fault_handle().is_none());
        let (src, dst) = (l.l1d(ProcId(0)), l.l1d(ProcId(15)));
        for i in 0..20 {
            let now = Time::from_ns(i);
            let a = Transport::<TestMsg>::dispatch(&mut plain, now, src, dst, &data());
            let b = Transport::<TestMsg>::dispatch(&mut faulty, now, src, dst, &data());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn drops_hit_only_droppable_messages() {
        let cfg = SystemConfig::default();
        let l = cfg.layout();
        let plan = FaultPlan::none().dropping(1.0);
        let mut n = Network::with_faults(&cfg, plan, 7);
        let handle = n.fault_handle().unwrap();
        let (src, dst) = (l.l1d(ProcId(0)), l.l1d(ProcId(15)));
        // Droppable: always lost at rate 1.0, and never charged.
        let v = Transport::<DroppableMsg>::dispatch(&mut n, Time::ZERO, src, dst, &DroppableMsg);
        assert_eq!(v, Delivery::Dropped);
        assert_eq!(handle.borrow().dropped_total(), 1);
        let tr = n.traffic_handle();
        for tier in Tier::ALL {
            assert_eq!(tr.borrow().total_msgs(tier), 0, "dropped msg was charged");
        }
        // Non-droppable (token-carrying/persistent stand-in): delivered.
        let v = Transport::<TestMsg>::dispatch(&mut n, Time::ZERO, src, dst, &data());
        assert!(matches!(v, Delivery::At(_)));
        assert_eq!(handle.borrow().dropped_total(), 1);
    }

    #[test]
    fn jitter_bounds_and_fifo_hold_on_serialized_links() {
        let cfg = SystemConfig::default();
        let l = cfg.layout();
        let max = Dur::from_ns(30);
        let plan = FaultPlan::none().jittering(1.0, max);
        let mut faulty = Network::with_faults(&cfg, plan, 11);
        let mut plain = Network::new(&cfg);
        let (src, dst) = (l.l1d(ProcId(0)), l.l1d(ProcId(15))); // inter-CMP
        let mut last = Time::ZERO;
        for i in 0..200u64 {
            let now = Time::from_ps(i);
            let base = plain.deliver_at(now, src, dst, &ctrl());
            let Delivery::At(t) =
                Transport::<TestMsg>::dispatch(&mut faulty, now, src, dst, &ctrl())
            else {
                panic!("jitter must not drop");
            };
            // Jitter only ever adds, is bounded, and preserves FIFO.
            assert!(t >= base, "jitter went backwards");
            assert!(t.since(base) <= max, "jitter exceeded bound");
            assert!(t >= last, "serialized link reordered under jitter");
            last = t;
        }
        assert_eq!(
            faulty.fault_handle().unwrap().borrow().jittered_total(),
            200
        );
    }

    #[test]
    fn reorder_hold_applies_on_intra_tier_only() {
        let cfg = SystemConfig::default();
        let l = cfg.layout();
        let hold = Dur::from_ns(10);
        let plan = FaultPlan::none().reordering(1.0, hold);
        let mut faulty = Network::with_faults(&cfg, plan, 13);
        let mut plain = Network::new(&cfg);
        // Intra route: always held by exactly `hold`.
        let (a, b) = (l.l1d(ProcId(0)), l.l2(CmpId(0), 1));
        let base = plain.deliver_at(Time::ZERO, a, b, &ctrl());
        let Delivery::At(t) =
            Transport::<TestMsg>::dispatch(&mut faulty, Time::ZERO, a, b, &ctrl())
        else {
            panic!("reorder must not drop");
        };
        assert_eq!(t, base + hold);
        // Inter route: the serialized (FIFO) tier is never held.
        let (a, b) = (l.l1d(ProcId(0)), l.l1d(ProcId(15)));
        let base = plain.deliver_at(Time::ZERO, a, b, &ctrl());
        let Delivery::At(t) =
            Transport::<TestMsg>::dispatch(&mut faulty, Time::ZERO, a, b, &ctrl())
        else {
            panic!("reorder must not drop");
        };
        assert_eq!(t, base);
        assert_eq!(faulty.fault_handle().unwrap().borrow().reordered_total(), 1);
    }

    #[test]
    fn same_plan_same_seed_replays_bit_identically() {
        let cfg = SystemConfig::default();
        let plan = FaultPlan::none()
            .dropping(0.3)
            .jittering(0.5, Dur::from_ns(25))
            .reordering(0.5, Dur::from_ns(5));
        let run = |seed: u64| -> Vec<Delivery> {
            let mut n = Network::with_faults(&cfg, plan, seed);
            (0..300u64)
                .map(|i| {
                    let now = Time::from_ps(i * 7);
                    let (src, dst) = (NodeId((i % 20) as u32), NodeId(((i + 3) % 20) as u32));
                    if src == dst {
                        return Delivery::At(now);
                    }
                    Transport::<DroppableMsg>::dispatch(&mut n, now, src, dst, &DroppableMsg)
                })
                .collect()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should perturb differently");
    }

    fn fabric_cfg(cmps: u16, fabric: Fabric) -> SystemConfig {
        SystemConfig {
            cmps,
            procs_per_cmp: 1,
            banks_per_cmp: 1,
            tokens_per_block: 256,
            fabric,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn ring_path_takes_shorter_direction_with_clockwise_tie() {
        let f = Fabric::Ring;
        assert_eq!(inter_path(f, 8, 0, 2), vec![1, 2]);
        assert_eq!(inter_path(f, 8, 0, 6), vec![7, 6]);
        // Diametric tie on an even ring goes clockwise.
        assert_eq!(inter_path(f, 8, 0, 4), vec![1, 2, 3, 4]);
        assert_eq!(inter_hops(f, 8, 0, 4), 4);
        assert_eq!(inter_hops(f, 8, 3, 3), 0);
    }

    #[test]
    fn mesh_path_is_dimension_ordered() {
        let f = Fabric::Mesh { cols: 4 };
        // 0 → 15 on a 4×4 mesh: X first (0→1→2→3), then Y (3→7→11→15).
        assert_eq!(inter_path(f, 16, 0, 15), vec![1, 2, 3, 7, 11, 15]);
        assert_eq!(inter_hops(f, 16, 0, 15), 6);
        // Same column: pure Y.
        assert_eq!(inter_path(f, 16, 1, 13), vec![5, 9, 13]);
    }

    /// The walk `traverse_inter` takes crosses, for every ordered chip
    /// pair, exactly the links of the pure oracle — `inter_link` of each
    /// hop of `inter_path`, in order — and `inter_hops` of them: on
    /// square, oblong and one-column meshes, on rings with and without a
    /// diametric tie, and on the flat bus.
    #[test]
    fn walks_cross_the_oracle_links_in_order() {
        let fabrics = [
            (64, Fabric::Mesh { cols: 8 }),
            (8, Fabric::Mesh { cols: 4 }),
            (8, Fabric::Mesh { cols: 1 }),
            (8, Fabric::Mesh { cols: 8 }),
            (2, Fabric::Ring),
            (8, Fabric::Ring),
            (16, Fabric::Ring),
            (4, Fabric::Flat),
        ];
        for (cmps, fabric) in fabrics {
            let n = Network::new(&fabric_cfg(cmps, fabric));
            for from in 0..cmps {
                for to in 0..cmps {
                    let mut cur = from;
                    let want: Vec<usize> = inter_path(fabric, cmps, from, to)
                        .into_iter()
                        .map(|next| {
                            let link = n.inter_link(cur, next);
                            cur = next;
                            link
                        })
                        .collect();
                    let walk = n.walk(from, to);
                    assert_eq!(walk.hops(), inter_hops(fabric, cmps, from, to));
                    let got: Vec<usize> = walk.collect();
                    assert_eq!(got, want, "{fabric:?} on {cmps} chips: {from} -> {to}");
                }
            }
        }
    }

    #[test]
    fn flat_fabric_delivery_matches_default_network() {
        // `Fabric::Flat` must be byte-identical to the pre-fabric
        // network: same occupancy keys, same arithmetic.
        let cfg = SystemConfig::default();
        assert_eq!(cfg.fabric, Fabric::Flat);
        let l = cfg.layout();
        let mut n = Network::new(&cfg);
        let t = n.deliver_at(Time::ZERO, l.l1d(ProcId(0)), l.l1d(ProcId(15)), &data());
        assert_eq!(t.as_ps(), 4_500 + 20_000);
    }

    #[test]
    fn multi_hop_delivery_pays_latency_and_serialization_per_hop() {
        let cfg = fabric_cfg(8, Fabric::Ring);
        let l = cfg.layout();
        let mut n = Network::new(&cfg);
        // Chip 0 → chip 4: four ring hops, each 4.5 ns ser + 20 ns lat.
        let t = n.deliver_at(Time::ZERO, l.l1d(ProcId(0)), l.l1d(ProcId(4)), &data());
        assert_eq!(t.as_ps(), 4 * (4_500 + 20_000));
        // Inter bytes are charged once per hop; intra once per end.
        let tr = n.traffic_handle();
        assert_eq!(tr.borrow().bytes(Tier::Inter, MsgClass::ResponseData), 288);
        assert_eq!(tr.borrow().bytes(Tier::Intra, MsgClass::ResponseData), 144);
    }

    #[test]
    fn shared_middle_link_creates_contention() {
        // Two messages whose mesh paths share the 1→2 link must
        // serialize on it even though src/dst chips differ.
        let cfg = fabric_cfg(4, Fabric::Mesh { cols: 4 });
        let l = cfg.layout();
        let mut n = Network::new(&cfg);
        let t1 = n.deliver_at(Time::ZERO, l.l1d(ProcId(0)), l.l1d(ProcId(2)), &data());
        // First: hops 0→1 (ser 4.5 @0, +20) then 1→2 (ser 4.5 @24.5, +20).
        assert_eq!(t1.as_ps(), 49_000);
        // The occupancy model is a no-backfill FIFO queue per directed
        // link: t1 advanced 1→2's next-free time to 29 ns, so a message
        // injected at chip 1 afterwards queues behind it even though it
        // asks at t=0.
        let t2 = n.deliver_at(Time::ZERO, l.l1d(ProcId(1)), l.l1d(ProcId(2)), &data());
        assert_eq!(t2.as_ps(), 29_000 + 4_500 + 20_000);
        // And the queue keeps extending: next arrival waits for t2's slot.
        let t3 = n.deliver_at(
            Time::from_ps(25_000),
            l.l1d(ProcId(1)),
            l.l1d(ProcId(2)),
            &data(),
        );
        assert_eq!(t3.as_ps(), 33_500 + 4_500 + 20_000);
    }

    #[test]
    fn breakdown_orders_by_class() {
        let (mut n, l) = net();
        let _ = n.deliver_at(Time::ZERO, l.l1d(ProcId(0)), l.l1d(ProcId(15)), &data());
        let tr = n.traffic_handle();
        let b = tr.borrow().breakdown(Tier::Inter);
        assert_eq!(b[MsgClass::ResponseData.index()], 72);
        assert_eq!(b.iter().sum::<u64>(), 72);
    }
}
