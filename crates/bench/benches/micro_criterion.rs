//! Criterion micro-benchmarks of the simulator's hot data structures and
//! an end-to-end throughput measurement (host-time performance of the
//! simulator itself, not simulated-time results — those live in the
//! figure/table harnesses).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use tokencmp::cache::SetAssoc;
use tokencmp::core::{PersistentBook, ReqKind};
use tokencmp::proto::{CmpId, Layout, ProcId};
use tokencmp::sim::{EventKind, EventQueue, NodeId, Rng, Time};
use tokencmp::system::ScriptedWorkload;
use tokencmp::{
    run_workload, AccessKind, Block, LockingWorkload, Protocol, RunOptions, SystemConfig, Variant,
};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        let mut rng = Rng::new(7);
        let times: Vec<u64> = (0..1000).map(|_| rng.below(1_000_000)).collect();
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for &t in &times {
                q.push(Time::from_ps(t), NodeId(0), EventKind::Wake { tag: t });
            }
            while let Some(e) = q.pop() {
                black_box(e.time);
            }
        });
    });
}

fn bench_cache_array(c: &mut Criterion) {
    c.bench_function("set_assoc_insert_get_4k", |b| {
        let mut rng = Rng::new(9);
        let blocks: Vec<Block> = (0..4096).map(|_| Block(rng.below(1 << 20))).collect();
        b.iter(|| {
            let mut arr: SetAssoc<u32> = SetAssoc::new(512, 4, 0);
            for (i, &blk) in blocks.iter().enumerate() {
                arr.insert(blk, i as u32);
                black_box(arr.get_mut(blk));
            }
            black_box(arr.len())
        });
    });
    // The common case of a broadcast: a probe of a cache that does not
    // hold the block. Every set of the 512 × 4 array is full, so each
    // probe scans all four tags of its set and misses.
    c.bench_function("set_assoc_contains_miss_4k", |b| {
        let mut arr: SetAssoc<u32> = SetAssoc::new(512, 4, 0);
        for n in 0..2048u64 {
            arr.insert(Block(n), n as u32);
        }
        assert_eq!(arr.len(), 2048);
        let mut rng = Rng::new(11);
        let absent: Vec<Block> = (0..4096)
            .map(|_| Block(2048 + rng.below(1 << 20)))
            .collect();
        b.iter(|| {
            let arr = black_box(&arr);
            absent.iter().filter(|&&blk| arr.contains(blk)).count()
        });
    });
}

fn bench_persistent_table(c: &mut Criterion) {
    // Activate `live` requests spread `stride` processors apart over four
    // blocks, resolve every block, then deactivate them all, at one node
    // of the system's book: the Table 3 table (16 of 16 processors live)
    // and the 1024-core mesh regime (64 of 1024 live, one locking core
    // per chip). The book persists across iterations, as in a run, so
    // each iteration issues the processors' next epoch.
    for (name, layout, live, stride) in [
        (
            "dist_table_activate_resolve",
            Layout::new(4, 4, 4),
            16u16,
            1u16,
        ),
        (
            "dist_table_activate_resolve_1024p_64live",
            Layout::new(64, 16, 16),
            64,
            16,
        ),
    ] {
        let node = layout.mem(CmpId(0));
        let mut t = PersistentBook::new(&layout);
        let mut epoch = 0;
        c.bench_function(name, |b| {
            b.iter(|| {
                epoch += 1;
                for i in 0..live {
                    let p = i * stride;
                    t.activate(
                        node,
                        ProcId(p),
                        Block(u64::from(i % 4)),
                        NodeId(20 + u32::from(p)),
                        ReqKind::Write,
                        epoch,
                    );
                }
                for blk in 0..4u64 {
                    black_box(t.active_for(node, Block(blk)));
                }
                for i in 0..live {
                    t.deactivate(node, ProcId(i * stride), epoch);
                }
            });
        });
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator_throughput");
    g.sample_size(10);
    g.bench_function("token_dst1_scripted_1k_ops", |b| {
        let cfg = SystemConfig::default();
        b.iter(|| {
            let scripts = (0..16u64)
                .map(|p| {
                    (0..64)
                        .map(|i: u64| {
                            let k = if i.is_multiple_of(4) {
                                AccessKind::Store
                            } else {
                                AccessKind::Load
                            };
                            (k, Block(p * 100 + i % 16))
                        })
                        .collect()
                })
                .collect();
            let w = ScriptedWorkload::new(scripts);
            let (res, _) = run_workload(
                &cfg,
                Protocol::Token(Variant::Dst1),
                w,
                &RunOptions::default(),
            );
            black_box(res.events)
        });
    });
    g.bench_function("locking_16x10_dst1", |b| {
        let cfg = SystemConfig::default();
        b.iter(|| {
            let w = LockingWorkload::new(16, 16, 10, 1);
            let (res, _) = run_workload(
                &cfg,
                Protocol::Token(Variant::Dst1),
                w,
                &RunOptions::default(),
            );
            black_box(res.events)
        });
    });
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng_next_u64_1k", |b| {
        let mut rng = Rng::new(3);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc ^= rng.next_u64();
            }
            black_box(acc)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_event_queue, bench_cache_array, bench_persistent_table, bench_rng, bench_end_to_end
}
criterion_main!(benches);
