//! Property tests for the inter-CMP fabric topologies.
//!
//! The routing functions (`tokencmp::net::{next_hop, inter_path,
//! inter_hops}`) are pure, so the properties here are checked directly
//! against the topology definitions:
//!
//! * routes are deterministic and well-formed (every hop is a fabric
//!   neighbor, paths terminate at the destination, repeated queries
//!   agree);
//! * hop counts equal the topological distance — shortest ring arc for
//!   rings, Manhattan distance for meshes, one hop for the flat bus;
//! * mesh routes are dimension-ordered (all X hops precede all Y hops),
//!   which is the standard structural argument for deadlock freedom of
//!   DOR on a mesh: the X→Y channel-dependence order is acyclic, so no
//!   cyclic link wait can form;
//! * the flat fabric is the degenerate one-hop case, and reproduces the
//!   pre-fabric simulator bit for bit on the paper's Table 3 system
//!   (golden fingerprints over outcome, runtime, traffic, and every
//!   counter, for all nine protocol configurations);
//! * on a multi-hop mesh, what the event-queue census exposes (the
//!   sampled queue-depth and in-flight gauges, and the watchdog
//!   diagnostic of an event-limited run) is pinned too, so the queue's
//!   storage can change without changing what observers see; so are the
//!   sampled persistent-request gauges under reordering, so the tables'
//!   storage can change the same way.

use proptest::prelude::*;
use tokencmp::net::{inter_hops, inter_path, next_hop};
use tokencmp::{Fabric, MsgClass, SystemConfig, Tier};

/// Strategy: a ring of 2..=64 chips plus a (from, to) pair (possibly
/// equal; tests remap the self-route case).
fn ring_case() -> impl Strategy<Value = (u16, u16, u16)> {
    (2u16..=64).prop_flat_map(|n| (Just(n), 0..n, 0..n))
}

/// Strategy: a cols × rows mesh of 2..=64 chips plus a (from, to) pair
/// (possibly equal; tests remap the self-route case). The degenerate
/// 1 × 1 draw widens to 1 × 2 so every case has a route to exercise.
fn mesh_case() -> impl Strategy<Value = (u16, u16, u16, u16)> {
    (1u16..=8, 1u16..=8).prop_flat_map(|(cols, rows)| {
        let rows = if cols == 1 && rows == 1 { 2 } else { rows };
        let n = cols * rows;
        (Just(cols), Just(n), 0..n, 0..n)
    })
}

/// Self-routes are rejected by the fabric (`next_hop` panics), so remap
/// an equal draw to the next chip instead of discarding the case.
fn distinct(n: u16, from: u16, to: u16) -> u16 {
    if from == to {
        (to + 1) % n
    } else {
        to
    }
}

/// Walks a route hop by hop via `next_hop`, asserting it matches
/// `inter_path` and terminates within `cmps` hops.
fn walk(fabric: Fabric, cmps: u16, from: u16, to: u16) -> Vec<u16> {
    let path = inter_path(fabric, cmps, from, to);
    let mut cur = from;
    for (i, &hop) in path.iter().enumerate() {
        assert_eq!(
            next_hop(fabric, cmps, cur, to),
            hop,
            "hop {i} of {fabric:?} {from}->{to} diverges from inter_path"
        );
        cur = hop;
    }
    assert_eq!(cur, to, "{fabric:?} route {from}->{to} must end at {to}");
    assert!(
        path.len() <= cmps as usize,
        "{fabric:?} route {from}->{to} visits more hops than chips"
    );
    path
}

proptest! {
    /// Flat is the degenerate single-hop fabric.
    #[test]
    fn flat_routes_in_one_hop(case in ring_case()) {
        let (n, from, to) = case;
        let to = distinct(n, from, to);
        prop_assert_eq!(walk(Fabric::Flat, n, from, to), vec![to]);
        prop_assert_eq!(inter_hops(Fabric::Flat, n, from, to), 1);
    }

    /// Ring routes take the shortest arc, step neighbor to neighbor,
    /// and repeated queries agree.
    #[test]
    fn ring_routes_are_shortest_arcs(case in ring_case()) {
        let (n, from, to) = case;
        let to = distinct(n, from, to);
        let fabric = Fabric::Ring;
        let path = walk(fabric, n, from, to);
        prop_assert_eq!(path.clone(), inter_path(fabric, n, from, to), "determinism");

        // Hop count is the shortest arc length.
        let fwd = (to + n - from) % n;
        let dist = fwd.min(n - fwd) as u32;
        prop_assert_eq!(path.len() as u32, dist);
        prop_assert_eq!(inter_hops(fabric, n, from, to), dist);

        // Every hop moves to a ring neighbor, always the same direction.
        let mut cur = from;
        let first_step = (path[0] + n - from) % n; // 1 = cw, n-1 = ccw
        for &hop in &path {
            prop_assert_eq!((hop + n - cur) % n, first_step, "direction flip");
            cur = hop;
        }
    }

    /// Mesh routes are dimension-ordered shortest paths: Manhattan hop
    /// count, grid-neighbor steps, and every X-dimension hop precedes
    /// every Y-dimension hop (the acyclic channel order that makes DOR
    /// deadlock-free by construction).
    #[test]
    fn mesh_routes_are_dimension_ordered(case in mesh_case()) {
        let (cols, n, from, to) = case;
        let to = distinct(n, from, to);
        let fabric = Fabric::Mesh { cols };
        let path = walk(fabric, n, from, to);
        prop_assert_eq!(path.clone(), inter_path(fabric, n, from, to), "determinism");

        let (fx, fy) = (from % cols, from / cols);
        let (tx, ty) = (to % cols, to / cols);
        let manhattan = (fx.abs_diff(tx) + fy.abs_diff(ty)) as u32;
        prop_assert_eq!(path.len() as u32, manhattan);
        prop_assert_eq!(inter_hops(fabric, n, from, to), manhattan);

        let mut cur = from;
        let mut seen_y = false;
        for &hop in &path {
            let (cx, cy) = (cur % cols, cur / cols);
            let (hx, hy) = (hop % cols, hop / cols);
            let x_hop = cy == hy && cx.abs_diff(hx) == 1;
            let y_hop = cx == hx && cy.abs_diff(hy) == 1;
            prop_assert!(x_hop ^ y_hop, "hop {cur}->{hop} is not a grid neighbor");
            if y_hop {
                seen_y = true;
            } else {
                prop_assert!(!seen_y, "X hop {cur}->{hop} after a Y hop breaks DOR");
            }
            cur = hop;
        }
    }
}

/// FNV-1a over the run's observable results: outcome, simulated
/// runtime, event count, per-tier/per-class traffic, and the full
/// counter registry display.
fn fingerprint(res: &tokencmp::system::RunResult) -> u64 {
    let mut s = String::new();
    s.push_str(&format!(
        "outcome={:?} runtime_ps={} events={}\n",
        res.outcome,
        res.runtime.as_ps(),
        res.events
    ));
    for tier in Tier::ALL {
        for class in MsgClass::ALL {
            s.push_str(&format!(
                "traffic {tier:?} {class:?} bytes={} msgs={}\n",
                res.traffic.bytes(tier, class),
                res.traffic.msgs(tier, class)
            ));
        }
    }
    s.push_str(&format!("{}", res.counters));
    fnv1a(&s)
}

/// The flat fabric must reproduce the pre-fabric simulator bit for bit:
/// these fingerprints were captured on the paper's Table 3 system
/// *before* the multi-hop fabrics and the u16 node space landed, and
/// cover outcome, runtime, events, traffic, and every counter of all
/// nine protocol configurations. Any drift here is an unintended
/// semantic change to the default topology.
#[test]
fn flat_fabric_reproduces_pre_fabric_table3_results() {
    let golden: [(&str, u64); 9] = [
        ("TokenCMP-arb0", 0x416b_29af_d6f9_b79e),
        ("TokenCMP-dst0", 0x5c4f_5330_bd2e_c941),
        ("TokenCMP-dst4", 0xfcbb_f543_1145_f04c),
        ("TokenCMP-dst1", 0x13ee_9a6b_3dd9_0e9f),
        ("TokenCMP-dst1-pred", 0xad3b_f477_6cce_97a1),
        ("TokenCMP-dst1-filt", 0x6449_f6c8_ca55_316e),
        ("DirectoryCMP", 0x8cbd_f2da_e48b_7143),
        ("DirectoryCMP-zero", 0xdc72_0c08_0f94_94e0),
        ("PerfectL2", 0x590d_069d_7438_9acd),
    ];
    let cfg = SystemConfig::default();
    assert_eq!(cfg.fabric, Fabric::Flat, "Table 3 defaults to the flat bus");
    for (proto, (name, want)) in tokencmp::system::Protocol::ALL.iter().zip(golden) {
        assert_eq!(proto.name(), name, "protocol order drifted");
        let wl = tokencmp::LockingWorkload::new(16, 4, 6, 0xA11CE);
        let (res, _) =
            tokencmp::run_workload(&cfg, *proto, wl, &tokencmp::system::RunOptions::default());
        let got = fingerprint(&res);
        assert_eq!(
            got, want,
            "{name}: flat-fabric fingerprint 0x{got:016x} != golden 0x{want:016x}"
        );
    }
}

/// TokenCMP-dst1 locking on an 8-chip multi-hop `fabric` (2 cores and
/// banks per chip), the pinned run of the tests below.
fn run_multi_hop_dst1(
    fabric: Fabric,
    opts: &tokencmp::system::RunOptions,
) -> tokencmp::system::RunResult {
    let mut cfg = SystemConfig {
        cmps: 8,
        procs_per_cmp: 2,
        banks_per_cmp: 2,
        fabric,
        ..SystemConfig::default()
    };
    cfg.tokens_per_block = (cfg.layout().caches() + 1).next_power_of_two();
    cfg.validate().expect("8-chip multi-hop config");
    let wl = tokencmp::LockingWorkload::new(16, 4, 6, 0xA11CE);
    let proto = tokencmp::Protocol::Token(tokencmp::Variant::Dst1);
    tokencmp::run_workload(&cfg, proto, wl, opts).0
}

/// FNV-1a over a string.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The multi-hop fabrics must keep their link-occupancy arithmetic and
/// persistent-table behaviour bit for bit: TokenCMP-dst1 locking on an
/// 8-chip 4 × 2 mesh and an 8-chip ring (2 cores and banks per chip),
/// where contended locks drive distributed persistent requests across
/// several serialized hops. Captured before the dense link vector and
/// the sparse persistent tables replaced their hash-map and dense-slot
/// predecessors.
#[test]
fn multi_hop_fabrics_reproduce_pinned_dst1_results() {
    let golden: [(Fabric, u64); 2] = [
        (Fabric::Mesh { cols: 4 }, 0x3332_fecc_9d3c_b4c9),
        (Fabric::Ring, 0xf81d_e083_2e51_0cf4),
    ];
    for (fabric, want) in golden {
        let res = run_multi_hop_dst1(fabric, &tokencmp::system::RunOptions::default());
        assert!(
            res.counters.counter("l1.persistent") > 0,
            "{fabric:?}: the pinned run must exercise persistent requests"
        );
        let got = fingerprint(&res);
        assert_eq!(
            got, want,
            "{fabric:?}: dst1 fingerprint 0x{got:016x} != golden 0x{want:016x}"
        );
    }
}

/// What the event-queue census exposes must not depend on how the queue
/// stores pending events. Pinned here: the sampled queue depth and every
/// `inflight.*` gauge of the 4 × 2 mesh run above, whose distributed
/// persistent requests broadcast to all 40 coherence nodes, digested
/// over every sample.
#[test]
fn multi_hop_census_series_is_pinned() {
    let opts = tokencmp::system::RunOptions::default().with_sampling(tokencmp::Dur::from_ns(20));
    let res = run_multi_hop_dst1(Fabric::Mesh { cols: 4 }, &opts);
    let series = res.series.expect("sampling was on");
    let mut s = String::new();
    let mut peak_persistent = 0;
    for sample in &series.samples {
        s.push_str(&format!("at={}", sample.at_ps));
        for (k, v) in &sample.gauges {
            if k == "kernel.queue_depth" || k.starts_with("inflight.") {
                s.push_str(&format!(" {k}={v}"));
            }
            if k.ends_with(".persistent") {
                peak_persistent = peak_persistent.max(*v);
            }
        }
        s.push('\n');
    }
    assert!(
        peak_persistent >= 39,
        "the series must catch a persistent broadcast in flight"
    );
    let (got, want) = (fnv1a(&s), 0xeae1_ad69_11de_889d);
    assert_eq!(
        (series.samples.len(), got),
        (261, want),
        "census series digest 0x{got:016x} != golden 0x{want:016x}"
    );
}

/// The persistent-request gauges the sampler builds from the memory
/// controllers' table views — `persistent.occupancy` (the largest live
/// count) and `persistent.max_age_ps` (the oldest live request) — must
/// not depend on how the tables are stored. Pinned on the 4 × 2 mesh run
/// above under the reorder fault tier, so activations and deactivations
/// reach the controllers out of order, digested over every sample.
#[test]
fn multi_hop_persistent_gauges_are_pinned_under_reordering() {
    let plan = tokencmp::FaultPlan::none().reordering(0.10, tokencmp::Dur::from_ns(15));
    let opts = tokencmp::system::RunOptions::default()
        .with_faults(plan)
        .with_sampling(tokencmp::Dur::from_ns(20));
    let res = run_multi_hop_dst1(Fabric::Mesh { cols: 4 }, &opts);
    assert!(res.counters.counter("net.fault.reordered") > 0);
    let series = res.series.expect("sampling was on");
    let mut s = String::new();
    let (mut peak_occupancy, mut peak_age) = (0, 0);
    for sample in &series.samples {
        let occupancy = sample.gauges["persistent.occupancy"];
        let age = sample.gauges["persistent.max_age_ps"];
        peak_occupancy = peak_occupancy.max(occupancy);
        peak_age = peak_age.max(age);
        s.push_str(&format!("at={} occ={occupancy} age={age}\n", sample.at_ps));
    }
    assert!(
        peak_occupancy >= 2 && peak_age > 0,
        "the series must see concurrent persistent requests age"
    );
    let (got, want) = (fnv1a(&s), 0xe2df_34a4_22e5_1979);
    assert_eq!(
        (series.samples.len(), got),
        (286, want),
        "persistent gauge digest 0x{got:016x} != golden 0x{want:016x}"
    );
}

/// The watchdog diagnostic of a token run cut off by its event budget
/// while distributed persistent broadcasts are in flight: the in-flight
/// census counts every pending copy of every broadcast.
#[test]
fn event_limit_diagnostic_is_pinned() {
    let opts = tokencmp::system::RunOptions {
        max_events: 1_000,
        ..tokencmp::system::RunOptions::default()
    };
    let res = run_multi_hop_dst1(Fabric::Mesh { cols: 4 }, &opts);
    assert_eq!(res.outcome, tokencmp::RunOutcome::EventLimit);
    let diag = res
        .diagnostic
        .expect("an event-limited run carries a snapshot");
    let census: Vec<&str> = diag.lines().filter(|l| l.contains("in flight")).collect();
    assert_eq!(
        census,
        [
            "  in flight: 5 wakeups",
            "  in flight: 4 \u{d7} Response Data",
            "  in flight: 32 \u{d7} Request",
            "  in flight: 527 \u{d7} Persistent",
        ]
    );
    let (got, want) = (fnv1a(&diag), 0xe1c5_1183_f3fe_9ffe);
    assert_eq!(
        got, want,
        "diagnostic digest 0x{got:016x} != golden 0x{want:016x}:\n{diag}"
    );
}
