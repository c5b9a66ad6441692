//! Kernel scheduling throughput, events/sec, recorded into the committed
//! trajectory file `BENCH_kernel.json` (see `tokencmp_bench::kernel`).
//!
//! `churn/d<depth>` is the classic hold-model microbench on a bare
//! `EventQueue`: prefill to a steady-state depth, then pop the earliest
//! event and push a replacement at a random future offset. Pure queue
//! work, no protocol — this is where the queue's asymptotics are
//! visible. `fan/d<depth>` holds the same depth in broadcasts: fan-outs
//! of 16 copies arriving four to a tick, and the pop of a fan-out's last
//! copy re-broadcasts it from that time, so pops re-key fan heads (most
//! of them at a tied time) the way a protocol's broadcasts do. The
//! file's historical `table3/<protocol>` rows still load,
//! but new runs no longer measure them; the scalability bench records
//! per-layer profiles of full protocol runs in `BENCH_scale.json`.
//!
//! Modes (`tokencmp_bench::trajectory::Invocation`):
//! * default — three depths of each; merges results into `BENCH_kernel.json`
//!   under the `TOKENCMP_BENCH_RUN` label (default `dev`).
//! * `TOKENCMP_BENCH_SMOKE=1` — CI-sized iteration counts, results
//!   merged into `target/sweep/BENCH_kernel.smoke.json` so CI never
//!   dirties the committed trajectory.
//! * `--validate [path]` — no measurement: schema-validate the file
//!   (default: the committed trajectory).

use std::time::{Duration, Instant};

use tokencmp::sim::{EventKind, EventQueue, NodeId, Time};
use tokencmp_bench::banner;
use tokencmp_bench::kernel::KernelBenchEntry;
use tokencmp_bench::trajectory::Invocation;

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

/// Copies per fan-out in the `fan/d<depth>` rows, and copies per
/// arrival tick.
const FAN_COPIES: u64 = 16;
const FAN_TIED: u64 = 4;

/// Spacing of a fan-out's arrival ticks: one inter-CMP hop of a data
/// message on the Table 3 links (4.5 ns serialization, 20 ns latency).
const FAN_TICK_PS: u64 = 24_500;

/// One fan-out churn rep: `depth / FAN_COPIES` broadcasts in flight; the
/// pop of a broadcast's last copy sends it again from that time, its
/// copies [`FAN_TIED`] to a tick from a random offset on. Returns events
/// processed and the timed span.
fn fan_rep(depth: u64, pops: u64) -> (u64, Duration) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15 ^ depth ^ 0xFA40;
    let mut arrivals: Vec<(Time, NodeId)> = Vec::with_capacity(FAN_COPIES as usize);
    let mut broadcast = |q: &mut EventQueue<u64>, id: u64, now: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let base = now + (lcg >> 33) % SPREAD_PS;
        arrivals.clear();
        arrivals.extend((0..FAN_COPIES).map(|j| {
            let t = Time::from_ps(base + j / FAN_TIED * FAN_TICK_PS);
            (t, NodeId(j as u32))
        }));
        q.push_fan(NodeId(0), id, &arrivals);
    };
    let fans = depth / FAN_COPIES;
    let mut left = vec![FAN_COPIES; fans as usize];
    for id in 0..fans {
        broadcast(&mut q, id, 0);
    }
    let start = Instant::now();
    for _ in 0..pops {
        let ev = q.pop().expect("steady-state queue never drains");
        let EventKind::Msg { msg: id, .. } = ev.kind else {
            unreachable!("only broadcasts are queued")
        };
        let copies = &mut left[id as usize];
        *copies -= 1;
        if *copies == 0 {
            *copies = FAN_COPIES;
            broadcast(&mut q, id, ev.time.as_ps());
        }
    }
    (pops, start.elapsed())
}

/// Best-of-`reps` measurement of one rep kind (min wall time wins: the
/// least queue-external noise on a shared host).
fn best_of(
    run: &str,
    bench: String,
    reps: u32,
    mut rep: impl FnMut() -> (u64, Duration),
) -> KernelBenchEntry {
    let mut best: Option<(u64, Duration)> = None;
    for _ in 0..reps {
        let (events, elapsed) = rep();
        if best.is_none_or(|(_, b)| elapsed < b) {
            best = Some((events, elapsed));
        }
    }
    let (events, elapsed) = best.expect("reps >= 1");
    KernelBenchEntry::measured(run, bench, events, elapsed)
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
    let inv = Invocation::<KernelBenchEntry>::start();
    banner(
        "kernel_throughput",
        "kernel events/sec trajectory (infrastructure, not a paper figure)",
    );
    let (depths, pops, reps): (&[u64], u64, u32) = if inv.smoke {
        (&[512, 32_768], 100_000, 1)
    } else {
        (&[512, 4_096, 32_768], 2_000_000, 3)
    };
    let churn = depths.iter().map(|&depth| {
        best_of(&inv.run, format!("churn/d{depth}"), reps, || {
            churn_rep(depth, pops)
        })
    });
    let fan = depths.iter().map(|&depth| {
        best_of(&inv.run, format!("fan/d{depth}"), reps, || {
            fan_rep(depth, pops)
        })
    });
    let fresh: Vec<_> = churn.chain(fan).collect();
    print_table(&fresh);
    inv.record(fresh);
}
