//! **Scalability & hierarchy ablation** — two claims the paper makes in
//! prose but does not plot:
//!
//! 1. §4: the original flat TokenB policy "is not well-suited for an
//!    M-CMP system" — it broadcasts to every cache, wasting lookup
//!    bandwidth and ignoring locality. We run TokenB-flat against
//!    TokenCMP-dst1 on the Table 3 system.
//! 2. §8: "In a system with more CMPs, TokenCMP traffic results will be
//!    worse (unless multicast with destination set prediction is
//!    employed)." We sweep 2 / 4 / 8 chips and report inter-CMP request
//!    bytes per L1 miss for TokenCMP (grows with chip count) versus
//!    DirectoryCMP (constant).
//!
//! It then measures the scale-out grid into the committed trajectory
//! `BENCH_scale.json` (see `tokencmp_bench::scale`): per point, a timed
//! run and the per-layer profile of a separate profiled run. Modes
//! (`tokencmp_bench::trajectory::Invocation`): `TOKENCMP_BENCH_SMOKE=1`
//! measures only a CI-sized grid, into
//! `target/sweep/BENCH_scale.smoke.json`; `--validate [path]` checks the
//! file's schema and its 1024-core gate.

use std::time::{Duration, Instant};

use tokencmp::{
    run_workload, Fabric, LockingWorkload, MsgClass, Protocol, RunOptions, RunOutcome,
    SystemConfig, Tier, Variant,
};
use tokencmp_bench::scale::{Repeats, ScaleBenchEntry};
use tokencmp_bench::trajectory::Invocation;
use tokencmp_bench::{banner, BenchGrid};

/// One scale-out grid point: fabric, chip count, cores and banks per
/// chip, and lock acquires per core (smaller for the big systems so a
/// 1024-core point stays minutes-scale on one host core).
struct ScalePoint {
    fabric: Fabric,
    cmps: u16,
    procs_per_cmp: u16,
    banks_per_cmp: u16,
    acquires: u32,
}

const SP: fn(Fabric, u16, u16, u16, u32) -> ScalePoint =
    |fabric, cmps, procs_per_cmp, banks_per_cmp, acquires| ScalePoint {
        fabric,
        cmps,
        procs_per_cmp,
        banks_per_cmp,
        acquires,
    };

/// The scale-out grid: core count spans 16 → 1024, each fabric gets at
/// least one point, and the last point is the acceptance run — a
/// 64-CMP × 16-core workload over the 8 × 8 mesh with per-link
/// contention. Smoke mode trims to CI-sized systems.
fn scale_grid(smoke: bool) -> Vec<ScalePoint> {
    if smoke {
        vec![
            SP(Fabric::Flat, 2, 2, 2, 4),
            SP(Fabric::Ring, 8, 2, 2, 2),
            SP(Fabric::Mesh { cols: 4 }, 8, 2, 2, 2),
        ]
    } else {
        vec![
            SP(Fabric::Flat, 4, 4, 4, 4),
            SP(Fabric::Ring, 16, 4, 4, 2),
            SP(Fabric::Mesh { cols: 4 }, 16, 4, 4, 2),
            SP(Fabric::Mesh { cols: 8 }, 64, 4, 4, 1),
            SP(Fabric::Mesh { cols: 8 }, 64, 16, 16, 1),
        ]
    }
}

/// A point's timed run repeats until at least this much wall time has
/// passed, so a small point is timed over many runs rather than one of a
/// few milliseconds.
const MIN_TIMED: Duration = Duration::from_secs(1);

/// Runs one grid point (TokenCMP-dst1, locking with one lock per four
/// cores) and records it as a trajectory entry: the timed run repeats
/// until [`MIN_TIMED`] has passed, and the entry keeps the median and
/// quartiles of its wall times. A separate profiled run of the same
/// point attaches the host-time attribution and its own wall time, kept
/// out of the timed runs so the recorded rates never carry profiling
/// overhead.
fn run_scale_point(run: &str, p: &ScalePoint) -> ScaleBenchEntry {
    let mut cfg = SystemConfig {
        cmps: p.cmps,
        procs_per_cmp: p.procs_per_cmp,
        banks_per_cmp: p.banks_per_cmp,
        fabric: p.fabric,
        ..SystemConfig::default()
    };
    cfg.tokens_per_block = (cfg.layout().caches() + 1).next_power_of_two();
    cfg.validate().expect("scale-out grid config");
    let procs = cfg.layout().procs();
    let workload = || LockingWorkload::new(procs, (procs / 4).max(2), p.acquires, 7);
    let protocol = Protocol::Token(Variant::Dst1);
    let mut times = Vec::new();
    let res = loop {
        let start = Instant::now();
        let (res, _) = run_workload(&cfg, protocol, workload(), &RunOptions::default());
        times.push(start.elapsed());
        assert_eq!(
            res.outcome,
            RunOutcome::Idle,
            "{} {}x{} did not finish",
            p.fabric.name(),
            p.cmps,
            p.procs_per_cmp
        );
        if times.iter().sum::<Duration>() >= MIN_TIMED {
            break res;
        }
    };
    let (elapsed, repeats) = Repeats::of(&times);
    let mut entry = ScaleBenchEntry::measured(
        run,
        p.fabric.name(),
        p.cmps as u64,
        p.procs_per_cmp as u64,
        res.events,
        res.runtime.as_ps(),
        elapsed,
    );
    entry.repeats = Some(repeats);
    let opts = RunOptions::default().with_profiling();
    let (profiled, _) = run_workload(&cfg, protocol, workload(), &opts);
    let profile = profiled
        .profile
        .expect("profiled run returns an attribution report");
    entry.shared.profile = profile.category_ns();
    entry.profiled_wall_ns = Some(profile.wall_ns);
    entry
}

/// Measures the scale-out grid and merges it into the trajectory file.
fn run_scale_study(inv: &Invocation<ScaleBenchEntry>) {
    println!("\nscale-out trajectory (TokenCMP-dst1, one lock per four cores):");
    println!(
        "{:>7} {:>6} {:>7} {:>10} {:>14} {:>14} {:>12} {:>5}",
        "fabric", "chips", "cores", "events", "runtime (ps)", "events/sec", "wall (s)", "reps"
    );
    let mut fresh = Vec::new();
    for p in scale_grid(inv.smoke) {
        let e = run_scale_point(&inv.run, &p);
        println!(
            "{:>7} {:>6} {:>7} {:>10} {:>14} {:>14.3e} {:>12.3} {:>5}",
            e.fabric,
            e.cmps,
            e.cores,
            e.events,
            e.runtime_ps,
            e.events_per_sec,
            e.elapsed_ns as f64 / 1e9,
            e.repeats.map_or(1, |r| r.reps)
        );
        fresh.push(e);
    }
    inv.record(fresh);
}

fn main() {
    let inv = Invocation::<ScaleBenchEntry>::start();
    banner(
        "Scalability & hierarchy ablations",
        "HPCA 2005 paper, §4 (TokenB unsuitability) and §8 (CMP-count scaling)",
    );

    // Smoke mode measures only the (trimmed) scale-out grid — the three
    // paper studies below are full-size runs that CI exercises through
    // the committed trajectory, not by re-measuring.
    if inv.smoke {
        run_scale_study(&inv);
        return;
    }

    // All three studies queued as one grid through the parallel engine.
    let cfg = SystemConfig::default();
    let mut grid = BenchGrid::new();

    // --- 1. flat TokenB vs hierarchical TokenCMP --------------------------------
    let flat_variants = [Variant::FlatB, Variant::Dst1];
    let flat_cells: Vec<_> = flat_variants
        .iter()
        .map(|&v| {
            grid.push(&cfg, Protocol::Token(v), |seed| {
                LockingWorkload::new(16, 64, 40, seed)
            })
        })
        .collect();

    // --- 2. CMP-count sweep ------------------------------------------------------
    let chip_counts = [2u16, 4, 8];
    let sweep_protocols = [
        Protocol::Token(Variant::Dst1),
        Protocol::Token(Variant::Dst1Dsp),
        Protocol::Directory,
    ];
    let chip_cells: Vec<Vec<_>> = chip_counts
        .iter()
        .map(|&cmps| {
            let c = SystemConfig {
                cmps,
                tokens_per_block: 256, // > caches at 8 chips
                ..SystemConfig::default()
            };
            c.validate().expect("scaled config");
            let procs = c.layout().procs();
            sweep_protocols
                .iter()
                .map(|&protocol| {
                    grid.push_single(&c, protocol, 9, move |_| {
                        LockingWorkload::new(procs, 256, 25, 9)
                    })
                })
                .collect()
        })
        .collect();

    // --- 3. destination-set prediction on stable owners ---------------------------
    use tokencmp::system::ScriptedWorkload;
    use tokencmp::AccessKind;
    use tokencmp::Block;
    let dsp_cfg = SystemConfig {
        cmps: 8,
        tokens_per_block: 256,
        migratory_sharing: false,
        // A small L2 forces the consumer to re-fetch off chip each round
        // instead of retaining spilled tokens locally.
        l2_sets: 64,
        ..SystemConfig::default()
    };
    dsp_cfg.validate().expect("scaled config");
    let blocks: Vec<Block> = (0..4096u64).map(|i| Block(0x100_0000 + i)).collect();
    let procs = dsp_cfg.layout().procs();
    let last_chip_proc = (procs - dsp_cfg.procs_per_cmp as u32) as usize;
    let dsp_cells: Vec<_> = [Variant::Dst1, Variant::Dst1Dsp]
        .iter()
        .map(|&v| {
            let blocks = blocks.clone();
            grid.push_single(&dsp_cfg, Protocol::Token(v), 1, move |_| {
                let mut scripts = vec![vec![]; procs as usize];
                scripts[0] = blocks.iter().map(|&b| (AccessKind::Store, b)).collect();
                let mut reader = Vec::new();
                for _ in 0..3 {
                    reader.extend(blocks.iter().map(|&b| (AccessKind::Load, b)));
                }
                scripts[last_chip_proc] = reader;
                ScriptedWorkload::new(scripts)
            })
        })
        .collect();

    let results = grid.run();
    results.export_logged("scalability");

    // --- 1. report ---------------------------------------------------------------
    println!("\nTokenB-flat vs TokenCMP-dst1 (locking, 64 locks, Table 3 system):");
    println!(
        "{:>16} {:>14} {:>18} {:>18}",
        "protocol", "runtime (ns)", "intra req bytes", "inter req bytes"
    );
    let mut req_bytes = Vec::new();
    for (&v, &g) in flat_variants.iter().zip(&flat_cells) {
        let m = results.measure(g);
        let res = results.last(g);
        println!(
            "{:>16} {:>14} {:>18} {:>18}",
            v.name(),
            m.fmt(0),
            res.traffic.bytes(Tier::Intra, MsgClass::Request),
            res.traffic.bytes(Tier::Inter, MsgClass::Request)
        );
        req_bytes.push(res.traffic.bytes(Tier::Intra, MsgClass::Request));
    }
    let (flat_req, hier_req) = (req_bytes[0], req_bytes[1]);
    println!(
        "  hierarchy cuts intra-CMP request bytes to {:.2} of flat broadcast",
        hier_req as f64 / flat_req as f64
    );
    assert!(
        hier_req < flat_req,
        "the hierarchical policy must reduce on-chip request traffic"
    );

    // --- 2. report ---------------------------------------------------------------
    println!("\ninter-CMP request bytes per L1 miss vs chip count (locking, low contention):");
    println!(
        "{:>8} {:>22} {:>24} {:>22}",
        "chips", "TokenCMP-dst1 (B/miss)", "TokenCMP-dst1-dsp (B/miss)", "DirectoryCMP (B/miss)"
    );
    let mut token_growth = Vec::new();
    let mut dsp_at_8 = 0.0;
    for (&cmps, cells) in chip_counts.iter().zip(&chip_cells) {
        let row: Vec<f64> = cells
            .iter()
            .map(|&g| {
                results.measure(g); // asserts completion
                let res = results.last(g);
                res.traffic.bytes(Tier::Inter, MsgClass::Request) as f64
                    / res.counters.counter("l1.misses") as f64
            })
            .collect();
        println!(
            "{cmps:>8} {:>22.1} {:>24.1} {:>22.1}",
            row[0], row[1], row[2]
        );
        token_growth.push(row[0]);
        if cmps == 8 {
            dsp_at_8 = row[1];
        }
    }
    println!(
        "\n  TokenCMP request bytes/miss grow {:.1}x from 2 to 8 chips (paper: \"will\n  be worse ... unless multicast with destination set prediction is employed\");\n  DirectoryCMP's stay flat.",
        token_growth[2] / token_growth[0]
    );
    assert!(
        token_growth[2] > 1.5 * token_growth[0],
        "TokenCMP broadcast cost must grow with chip count"
    );
    println!(
        "  (randomly migrating locks defeat an owner predictor — dsp = {:.1} B/miss\n   at 8 chips, no better than broadcast; prediction needs stable owners.)",
        dsp_at_8,
    );

    // --- 3. report ---------------------------------------------------------------
    println!("\ndestination-set prediction, stable producer/consumer, 8 chips:");
    let per_miss: Vec<f64> = dsp_cells
        .iter()
        .map(|&g| {
            results.measure(g); // asserts completion
            let res = results.last(g);
            res.traffic.bytes(Tier::Inter, MsgClass::Request) as f64
                / res.counters.counter("l1.misses") as f64
        })
        .collect();
    let (full, dsp) = (per_miss[0], per_miss[1]);
    println!(
        "{:>22} {:>14.1} B/miss\n{:>22} {:>14.1} B/miss   ({:.2} of broadcast)",
        "TokenCMP-dst1",
        full,
        "TokenCMP-dst1-dsp",
        dsp,
        dsp / full
    );
    println!(
        "  (cold first-touch misses have no prediction by definition and dilute\n   the ratio; steady-state rounds multicast 2 of 7 chips ≈ 0.29.)"
    );
    assert!(
        dsp < 0.8 * full,
        "prediction must substantially narrow stable-owner fetches"
    );

    // --- 4. scale-out trajectory ---------------------------------------------------
    run_scale_study(&inv);
}
