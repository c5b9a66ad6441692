//! Host micro-benchmarks of the simulator's hot structures, recorded
//! into the committed trajectory file `BENCH_kernel.json` (see
//! `tokencmp_bench::kernel`).
//!
//! `churn/d<depth>` is the classic hold-model microbench on a bare
//! `EventQueue`: prefill to a steady-state depth, then pop the earliest
//! event and push a replacement at a random future offset. Pure queue
//! work, no protocol — this is where the queue's asymptotics are
//! visible. `fan/d<depth>` holds the same depth in broadcasts: fan-outs
//! of 16 copies arriving four to a tick, and the pop of a fan-out's last
//! copy re-broadcasts it from that time, so pops re-key fan heads (most
//! of them at a tied time) the way a protocol's broadcasts do.
//! `bcast/c3135` times machine-wide broadcasts: fan-outs of 3,135 copies
//! (every other coherence node of the 64 × 16 mesh) whose arrivals form
//! 131 ascending runs spread over 2^22 ps, four in flight, each re-sent
//! when its last copy pops; it counts copies as events. Its fans take
//! the queue's radix sort, while the `fan/d*` rows' 16-copy fans stay on
//! the comparison sort, so they are its control between two binaries.
//!
//! The `cache/*` and `book/*` rows time the cache array and the
//! persistent-request book, and count operations as their events:
//! * `cache/insert_get` — one insert and one `get_mut` of the same block
//!   on a full 512 × 4 `SetAssoc`, cycling over twice its capacity in
//!   random blocks, so almost every insert evicts its set's LRU line.
//! * `cache/probe_miss` — one `contains` of an absent block on the same
//!   full array, a broadcast's common case: all four tags of the set
//!   are read and none matches.
//! * `book/p16`, `book/p1024` — one `PersistentBook` activate, resolve
//!   (`active_for`) or deactivate at one node: rounds of `live`
//!   activations over four blocks, a resolve of each block, and the
//!   deactivations, with 16 of 16 processors live (the Table 3 system)
//!   and 64 of 1,024 (one locking core per chip of the 64 × 16 mesh).
//!
//! The file's historical `table3/<protocol>` rows still load, but new
//! runs no longer measure them; the scalability bench records per-layer
//! profiles of full protocol runs in `BENCH_scale.json`.
//!
//! Modes (`tokencmp_bench::trajectory::Invocation`):
//! * default — three depths of each queue row and every cache and book
//!   row, about 2,000,000 events or operations each, best of 3; merges
//!   results into `BENCH_kernel.json` under the `TOKENCMP_BENCH_RUN`
//!   label (default `dev`).
//! * `TOKENCMP_BENCH_SMOKE=1` — CI-sized iteration counts, results
//!   merged into `target/sweep/BENCH_kernel.smoke.json` so CI never
//!   dirties the committed trajectory.
//! * `--validate [path]` — no measurement: schema-validate the file
//!   (default: the committed trajectory).

use std::hint::black_box;
use std::time::{Duration, Instant};

use tokencmp::cache::SetAssoc;
use tokencmp::core::{PersistentBook, ReqKind};
use tokencmp::proto::{CmpId, Layout, ProcId};
use tokencmp::sim::{EventKind, EventQueue, NodeId, Rng, Time};
use tokencmp::Block;
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

/// Steps `lcg` and returns its high bits, the churn rows' random draw.
fn draw(lcg: &mut u64) -> u64 {
    *lcg = lcg
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *lcg >> 33
}

/// One broadcast churn rep: `fans` broadcasts of `copies` copies in
/// flight; the pop of a broadcast's last copy sends it again from that
/// time, with the arrivals `arrive(now, lcg, out)` writes into `out`.
/// Returns events processed and the timed span.
fn fan_churn(
    fans: u64,
    copies: u64,
    pops: u64,
    mut lcg: u64,
    mut arrive: impl FnMut(u64, &mut u64, &mut Vec<(Time, NodeId)>),
) -> (u64, Duration) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut arrivals: Vec<(Time, NodeId)> = Vec::with_capacity(copies as usize);
    let mut broadcast = |q: &mut EventQueue<u64>, id: u64, now: u64| {
        arrivals.clear();
        arrive(now, &mut lcg, &mut arrivals);
        q.push_fan(NodeId(0), id, &arrivals);
    };
    let mut left = vec![copies; fans as usize];
    for id in 0..fans {
        broadcast(&mut q, id, 0);
    }
    let start = Instant::now();
    for _ in 0..pops {
        let ev = q.pop().expect("steady-state queue never drains");
        let EventKind::Msg { msg: id, .. } = ev.kind else {
            unreachable!("only broadcasts are queued")
        };
        let pending = &mut left[id as usize];
        *pending -= 1;
        if *pending == 0 {
            *pending = copies;
            broadcast(&mut q, id, ev.time.as_ps());
        }
    }
    (pops, start.elapsed())
}

/// One fan-out churn rep: `depth / FAN_COPIES` broadcasts in flight,
/// each one's copies [`FAN_TIED`] to a tick from a random offset on.
fn fan_rep(depth: u64, pops: u64) -> (u64, Duration) {
    let seed = 0x9E37_79B9_7F4A_7C15 ^ depth ^ 0xFA40;
    fan_churn(
        depth / FAN_COPIES,
        FAN_COPIES,
        pops,
        seed,
        |now, lcg, out| {
            let base = now + draw(lcg) % SPREAD_PS;
            out.extend((0..FAN_COPIES).map(|j| {
                let t = Time::from_ps(base + j / FAN_TIED * FAN_TICK_PS);
                (t, NodeId(j as u32))
            }));
        },
    )
}

/// Copies per `bcast/c3135` broadcast, copies per ascending run of its
/// arrivals, the step between a run's arrivals, the span the runs'
/// starts are drawn from, and broadcasts in flight.
const BCAST_COPIES: u64 = 3_135;
const BCAST_RUN: u64 = 24;
const BCAST_STEP_PS: u64 = 2_000;
const BCAST_SPAN_PS: u64 = 1 << 22;
const BCAST_IN_FLIGHT: u64 = 4;

/// One `bcast/c3135` rep: [`BCAST_IN_FLIGHT`] machine-wide broadcasts in
/// flight, each run of [`BCAST_RUN`] arrivals starting at a random
/// offset below the span.
fn bcast_rep(pops: u64) -> (u64, Duration) {
    let seed = 0x9E37_79B9_7F4A_7C15 ^ 0xB0CA;
    let starts = BCAST_SPAN_PS - BCAST_RUN * BCAST_STEP_PS;
    fan_churn(
        BCAST_IN_FLIGHT,
        BCAST_COPIES,
        pops,
        seed,
        |now, lcg, out| {
            let mut start = now;
            out.extend((0..BCAST_COPIES).map(|j| {
                if j % BCAST_RUN == 0 {
                    start = now + draw(lcg) % starts;
                }
                let t = Time::from_ps(start + j % BCAST_RUN * BCAST_STEP_PS);
                (t, NodeId(j as u32))
            }));
        },
    )
}

/// Sets and ways of the `cache/*` rows' array, and the number of random
/// blocks each row cycles through (a power of two, so the next block is
/// a mask away).
const CACHE_SETS: u64 = 512;
const CACHE_WAYS: u64 = 4;
const CACHE_BLOCKS: u64 = 4096;

/// A `CACHE_SETS × CACHE_WAYS` array with every way holding one of the
/// blocks `0..sets × ways`.
fn full_array() -> SetAssoc<u32> {
    let mut arr = SetAssoc::new(CACHE_SETS as usize, CACHE_WAYS as usize, 0);
    for n in 0..CACHE_SETS * CACHE_WAYS {
        arr.insert(Block(n), n as u32);
    }
    arr
}

/// `CACHE_BLOCKS` random blocks at or above `floor`.
fn random_blocks(seed: u64, floor: u64) -> Vec<Block> {
    let mut rng = Rng::new(seed);
    (0..CACHE_BLOCKS)
        .map(|_| Block(floor + rng.below(1 << 20)))
        .collect()
}

/// One `cache/insert_get` rep: `ops` insert-then-`get_mut` pairs on a
/// full array built before the timer starts.
fn insert_get_rep(ops: u64) -> (u64, Duration) {
    let mut arr = full_array();
    let blocks = random_blocks(9, 0);
    let start = Instant::now();
    for i in 0..ops {
        let blk = blocks[(i & (CACHE_BLOCKS - 1)) as usize];
        arr.insert(blk, i as u32);
        black_box(arr.get_mut(blk));
    }
    (ops, start.elapsed())
}

/// One `cache/probe_miss` rep: `ops` probes of blocks the full array
/// does not hold.
fn probe_miss_rep(ops: u64) -> (u64, Duration) {
    let arr = full_array();
    let absent = random_blocks(11, CACHE_SETS * CACHE_WAYS);
    let start = Instant::now();
    let mut hits = 0;
    for i in 0..ops {
        hits += u64::from(black_box(&arr).contains(absent[(i & (CACHE_BLOCKS - 1)) as usize]));
    }
    let elapsed = start.elapsed();
    assert_eq!(hits, 0, "a probe of an absent block hit");
    (ops, elapsed)
}

/// The `book/*` rows: name, chips, cores (and L2 banks) per chip, and
/// live processors, spread evenly over the system's processor ids.
const BOOKS: [(&str, u16, u16, u16); 2] = [("book/p16", 4, 4, 16), ("book/p1024", 64, 16, 64)];

/// One `book/*` rep on a fresh book: rounds of `live` activations over
/// four blocks, one resolve per block, and `live` deactivations, all at
/// chip 0's memory controller, until at least `ops` operations are done.
/// Each round issues the processors' next epoch.
fn book_rep(layout: Layout, live: u16, ops: u64) -> (u64, Duration) {
    let node = layout.mem(CmpId(0));
    let stride = layout.procs() as u16 / live;
    let mut book = PersistentBook::new(&layout);
    let per_round = 2 * u64::from(live) + 4;
    let rounds = ops.div_ceil(per_round);
    let start = Instant::now();
    for epoch in 1..=rounds {
        for i in 0..live {
            let p = i * stride;
            let requester = NodeId(20 + u32::from(p));
            let blk = Block(u64::from(i % 4));
            book.activate(node, ProcId(p), blk, requester, ReqKind::Write, epoch);
        }
        for blk in 0..4 {
            black_box(book.active_for(node, Block(blk)));
        }
        for i in 0..live {
            book.deactivate(node, ProcId(i * stride), epoch);
        }
    }
    (rounds * per_round, start.elapsed())
}

/// Best-of-`reps` measurement of one rep kind (min wall time wins: the
/// least noise from outside the timed code on a shared host).
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
        "host ns per event or operation: queue, cache array, persistent book (infrastructure, not a paper figure)",
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
    let mut fresh: Vec<_> = churn.chain(fan).collect();
    fresh.push(best_of(&inv.run, "bcast/c3135".into(), reps, || {
        bcast_rep(pops)
    }));
    fresh.push(best_of(&inv.run, "cache/insert_get".into(), reps, || {
        insert_get_rep(pops)
    }));
    fresh.push(best_of(&inv.run, "cache/probe_miss".into(), reps, || {
        probe_miss_rep(pops)
    }));
    fresh.extend(BOOKS.map(|(bench, cmps, cores, live)| {
        let layout = Layout::new(cmps, cores, cores);
        best_of(&inv.run, bench.into(), reps, || {
            book_rep(layout, live, pops)
        })
    }));
    print_table(&fresh);
    inv.record(fresh);
}
