//! The host-speed reference: a fixed event-driven kernel with the
//! simulator's memory and branch profile (a binary-heap event queue,
//! per-component hash maps, data-dependent branches), timed before every
//! pass.
//!
//! Shared hosts slow down in phases that last minutes, and a simulator
//! slows more than a plain arithmetic or pointer-chasing loop does. The
//! reference slows with it, so the benchmark reports its time metrics in
//! reference units: a raw time `t` measured while the reference takes
//! `r` reads as `t × NOMINAL_S / r`. This kernel is part of the
//! benchmark and must not change between the commits being compared.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::measure::median;

/// The unit time metrics are scaled to: the median host time of 200
/// single-threaded reference runs on the host the baselines in
/// `README.md` were measured on.
pub const NOMINAL_S: f64 = 0.245;

const COMPONENTS: u64 = 3072;
const EVENTS: u64 = 1_000_000;
/// Clock reads per event of the timed kernel.
const READS: u64 = 3;

type Map = HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>;

/// Runs `events` events over `COMPONENTS` components. With `TIMED`, every
/// event is timed as the host profiler times a sampled one: a read
/// before and after the queue pop, and one at the end.
fn kernel<const TIMED: bool>(seed: u64, events: u64) -> u64 {
    let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut comps: Vec<Map> = (0..COMPONENTS).map(|_| Map::default()).collect();
    let mut queue: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    for c in 0..COMPONENTS {
        queue.push(Reverse((next() % 1000, c, next())));
    }
    let mut acc = 0u64;
    for _ in 0..events {
        let t0 = TIMED.then(Instant::now);
        let Some(Reverse((t, c, v))) = queue.pop() else {
            break;
        };
        let t1 = TIMED.then(Instant::now);
        let m = &mut comps[c as usize];
        let key = v % 64;
        let e = m.entry(key).or_insert(0);
        *e += 1;
        if e.is_multiple_of(3) {
            m.remove(&key);
        }
        acc = acc.wrapping_add(u64::from(*m.get(&(v % 61)).unwrap_or(&1)));
        let fanout = if v % 5 == 0 { 2 } else { 1 };
        for k in 0..fanout {
            let d = next();
            queue.push(Reverse((t + 1 + d % 97, (c + d) % COMPONENTS, d ^ k)));
        }
        if queue.len() > 20_000 {
            queue.pop();
        }
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let pop = t1.duration_since(t0).as_nanos() as u64;
            acc = acc.wrapping_add(pop ^ t1.elapsed().as_nanos() as u64);
        }
    }
    acc
}

/// Host seconds of one `kernel` run of `events` events on the calling
/// thread.
fn time(kernel: fn(u64, u64) -> u64, seed: u64, events: u64) -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(seed), events));
    t.elapsed().as_secs_f64()
}

/// Host seconds of one reference run on the calling thread.
pub fn reference_s() -> f64 {
    time(kernel::<false>, 0, EVENTS)
}

/// What one clock read costs the host profiler's timed scopes, in ns.
///
/// Short plain and timed kernel runs alternate, each pair on the same
/// inputs, and each pair's extra time per read is a sample; the result is
/// their median, so a pair the host interrupts does not move it. The
/// reads sit in code with the simulator's memory traffic, where their
/// ordering waits cost more than in a tight loop.
pub fn read_cost_ns() -> f64 {
    const PAIRS: u64 = 25;
    const CHUNK: u64 = 40_000;
    let samples: Vec<f64> = (0..PAIRS)
        .map(|seed| {
            let plain = time(kernel::<false>, seed, CHUNK);
            let timed = time(kernel::<true>, seed, CHUNK);
            (timed - plain) * 1e9 / (READS * CHUNK) as f64
        })
        .collect();
    median(&samples).max(0.0)
}
