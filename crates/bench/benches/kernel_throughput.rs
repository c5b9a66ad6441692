//! Kernel scheduling throughput, events/sec.
//!
//! Two tiers of measurement, both recorded into the committed
//! trajectory file `BENCH_kernel.json` (see `tokencmp_bench::kernel`):
//!
//! * `churn/d<depth>` — the classic hold-model microbench on a bare
//!   `EventQueue`: prefill to a steady-state depth, then pop the
//!   earliest event and push a replacement at a random future offset.
//!   Pure queue work, no protocol — this is where the queue's
//!   asymptotics are visible.
//! * `table3/<protocol>` — full runs on the paper's Table 3 system, so
//!   the trajectory also records the kernel's cost end to end
//!   (protocols spend most cycles outside the queue).
//!
//! Modes:
//! * default — full depths and all nine protocols; merges results into
//!   `BENCH_kernel.json` under the `TOKENCMP_BENCH_RUN` label (default
//!   `dev`).
//! * `TOKENCMP_BENCH_SMOKE=1` — CI-sized iteration counts, two
//!   protocols, and results written to a scratch file in the system
//!   temp dir so CI never dirties the committed trajectory.
//! * `--validate [path]` — no measurement: schema-validate the file
//!   (default: the committed trajectory).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use tokencmp::sim::{EventKind, EventQueue, NodeId, Time};
use tokencmp::{run_workload, LockingWorkload, Protocol, RunOptions, RunOutcome, SystemConfig};
use tokencmp_bench::banner;
use tokencmp_bench::kernel::{append, trajectory_path, validate_file, KernelBenchEntry};

/// Churn offsets are drawn below 2^20 ps (~1 µs), the spread every
/// recorded churn row since the trajectory began used, so new rows stay
/// comparable with the old ones.
const SPREAD_PS: u64 = 1 << 20;

/// One hold-model rep: returns events processed and the timed span.
fn churn_rep(depth: u64, pops: u64) -> (u64, Duration) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15 ^ depth;
    let mut next = |now: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        now + (lcg >> 33) % SPREAD_PS
    };
    for i in 0..depth {
        let t = next(0);
        q.push(
            Time::from_ps(t),
            NodeId((i % 16) as u32),
            EventKind::Wake { tag: i },
        );
    }
    let start = Instant::now();
    for _ in 0..pops {
        let ev = q.pop().expect("steady-state queue never drains");
        let t = next(ev.time.as_ps());
        q.push(Time::from_ps(t), ev.dst, EventKind::Wake { tag: 0 });
    }
    (pops, start.elapsed())
}

/// Best-of-`reps` churn measurement (min wall time wins: the least
/// queue-external noise on a shared 1-core host).
fn churn(run: &str, depth: u64, pops: u64, reps: u32) -> KernelBenchEntry {
    let mut best: Option<(u64, Duration)> = None;
    for _ in 0..reps {
        let (events, elapsed) = churn_rep(depth, pops);
        if best.is_none_or(|(_, b)| elapsed < b) {
            best = Some((events, elapsed));
        }
    }
    let (events, elapsed) = best.expect("reps >= 1");
    KernelBenchEntry::measured(run, format!("churn/d{depth}"), events, elapsed)
}

/// A full protocol run on the Table 3 system, wall-timed end to end;
/// best of `reps` identical runs (short runs on a shared host need the
/// same noise treatment as the churn reps). A separate *profiled*
/// companion run then attaches the host-time attribution breakdown —
/// kept out of the timed reps so the recorded rates never carry
/// profiling overhead.
fn protocol_run(run: &str, protocol: Protocol, acquires: u32, reps: u32) -> KernelBenchEntry {
    let cfg = SystemConfig::default();
    let opts = RunOptions {
        seed: 11,
        ..RunOptions::default()
    };
    let mut best: Option<(u64, Duration)> = None;
    for _ in 0..reps {
        let w = LockingWorkload::new(16, 8, acquires, 11);
        let start = Instant::now();
        let (res, _) = run_workload(&cfg, protocol, w, &opts);
        let elapsed = start.elapsed();
        assert_eq!(res.outcome, RunOutcome::Idle, "{protocol} did not finish");
        if best.is_none_or(|(_, b)| elapsed < b) {
            best = Some((res.events, elapsed));
        }
    }
    let (events, elapsed) = best.expect("reps >= 1");
    let w = LockingWorkload::new(16, 8, acquires, 11);
    let (profiled, _) = run_workload(&cfg, protocol, w, &opts.with_profiling());
    let profile = profiled
        .profile
        .expect("profiled run returns an attribution report")
        .category_ns();
    KernelBenchEntry::measured(run, format!("table3/{protocol}"), events, elapsed)
        .with_profile(profile)
}

fn print_table(entries: &[KernelBenchEntry]) {
    println!(
        "{:<18} {:>12} {:>14} {:>12}",
        "bench", "events", "events/sec", "ns/event"
    );
    for e in entries {
        println!(
            "{:<18} {:>12} {:>14.3e} {:>12.1}",
            e.bench, e.events, e.events_per_sec, e.ns_per_event
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if args.first().map(String::as_str) == Some("--validate") {
        let path = args
            .get(1)
            .map(PathBuf::from)
            .unwrap_or_else(trajectory_path);
        match validate_file(&path) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("BENCH_kernel.json validation failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    banner(
        "kernel_throughput",
        "kernel events/sec trajectory (infrastructure, not a paper figure)",
    );
    let smoke = std::env::var("TOKENCMP_BENCH_SMOKE").is_ok();
    let run = std::env::var("TOKENCMP_BENCH_RUN")
        .unwrap_or_else(|_| if smoke { "smoke" } else { "dev" }.into());
    // Smoke results land in a scratch file: CI exercises the full
    // measure→merge→validate path without rewriting the committed
    // trajectory with noisy, tiny-iteration numbers.
    let path = if smoke {
        let p =
            std::env::temp_dir().join(format!("BENCH_kernel.smoke.{}.json", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    } else {
        trajectory_path()
    };
    let (depths, pops, reps): (&[u64], u64, u32) = if smoke {
        (&[512, 32_768], 100_000, 1)
    } else {
        (&[512, 4_096, 32_768], 2_000_000, 3)
    };
    let (protocols, acquires): (Vec<Protocol>, u32) = if smoke {
        (vec![Protocol::ALL[0], Protocol::Directory], 8)
    } else {
        (Protocol::ALL.to_vec(), 24)
    };

    let mut fresh = Vec::new();
    for &depth in depths {
        fresh.push(churn(&run, depth, pops, reps));
    }
    for &p in &protocols {
        fresh.push(protocol_run(&run, p, acquires, reps));
    }
    print_table(&fresh);

    match append(&path, fresh) {
        Ok(all) => println!(
            "\nwrote {} ({} entries, run `{run}`)",
            path.display(),
            all.len()
        ),
        Err(e) => {
            eprintln!("failed to write trajectory: {e}");
            std::process::exit(1);
        }
    }
}
