//! Property tests for the event queue against a sorted-`Vec` reference.
//!
//! Every simulation result rests on one contract: events leave in
//! ascending `(time, seq)` order — earliest delivery first, FIFO by push
//! order among same-picosecond ties — for every interleaving of pushes
//! and pops. A fan-out (one payload, many destinations) must behave as
//! its copies pushed one by one in order. After every operation the
//! queue's pop, `next_time`, `len` and sorted census must match the
//! reference, and the two must drain to the same tail.

use std::collections::BTreeMap;

use proptest::prelude::*;

use tokencmp::sim::{EventKind, EventQueue, NodeId, QueuedEvent, Time};

/// One step of a schedule. Offsets are relative to the time of the
/// last pop; negative offsets land below it.
#[derive(Clone, Debug)]
enum Op {
    /// Push one event.
    Push(i64),
    /// Push one fan-out with a copy per offset (possibly none).
    Fan(Vec<i64>),
    Pop,
}

/// Runs `ops` and then enough pops to drain, on the queue and on the
/// reference. Single pushes alternate wake tags and messages so both
/// payload kinds are checked; a fan-out's copies share one payload and
/// go to consecutive destinations.
fn agree_with_reference(ops: &[Op]) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut reference: Vec<(Time, u64, NodeId, u64)> = Vec::new(); // (time, seq, dst, payload), descending
    let mut last = 1u64 << 21; // time of the last pop
    let mut pushes = 0u64;
    let pending: usize = ops
        .iter()
        .map(|op| match op {
            Op::Push(_) => 1,
            Op::Fan(offsets) => offsets.len(),
            Op::Pop => 0,
        })
        .sum();
    let drain = std::iter::repeat_n(Op::Pop, pending);
    for (i, op) in ops.iter().cloned().chain(drain).enumerate() {
        let at = |offset: i64| Time::from_ps(last.saturating_add_signed(offset));
        match op {
            Op::Push(offset) => {
                let (t, dst, p) = (at(offset), NodeId(i as u32 % 7), i as u64);
                let kind = match i % 2 {
                    0 => EventKind::Wake { tag: p },
                    _ => EventKind::Msg { src: dst, msg: p },
                };
                q.push(t, dst, kind);
                insert(&mut reference, &mut pushes, (t, dst, p));
            }
            Op::Fan(offsets) => {
                let arrivals: Vec<(Time, NodeId)> = offsets
                    .iter()
                    .enumerate()
                    .map(|(j, &o)| (at(o), NodeId((i + j) as u32 % 11)))
                    .collect();
                q.push_fan(NodeId(i as u32 % 5), i as u64, &arrivals);
                for (t, dst) in arrivals {
                    insert(&mut reference, &mut pushes, (t, dst, i as u64));
                }
            }
            Op::Pop => {
                let got = q.pop().map(|e| match e.kind {
                    EventKind::Wake { tag: p } | EventKind::Msg { msg: p, .. } => {
                        (e.time, e.seq(), e.dst, p)
                    }
                });
                prop_assert_eq!(got, reference.pop(), "pop diverged at op {}", i);
                if let Some((t, ..)) = got {
                    last = t.as_ps();
                }
            }
        }
        let next = reference.last().map(|e| e.0);
        prop_assert_eq!(q.next_time(), next, "next_time at op {}", i);
        prop_assert_eq!(q.len(), reference.len(), "len at op {}", i);
        prop_assert_eq!(q.next_seq(), pushes, "next_seq at op {}", i);
        let census: Vec<_> = q
            .census()
            .into_iter()
            .map(|e| match e.kind {
                EventKind::Wake { tag: p } | EventKind::Msg { msg: p, .. } => {
                    (e.time, e.seq(), e.dst, p)
                }
            })
            .collect();
        let expect: Vec<_> = reference.iter().rev().copied().collect();
        prop_assert_eq!(census, expect, "census at op {}", i);
    }
}

/// Pushes `(time, dst, payload)` onto the descending reference with the
/// next sequence number.
fn insert(
    reference: &mut Vec<(Time, u64, NodeId, u64)>,
    pushes: &mut u64,
    ev: (Time, NodeId, u64),
) {
    let (t, dst, p) = ev;
    let at = reference.partition_point(|e| (e.0, e.1) > (t, *pushes));
    reference.insert(at, (t, *pushes, dst, p));
    *pushes += 1;
}

/// An arrival offset: same-tick bursts (ties within a fan-out and with
/// single events on the same grid), the near and far future, and times
/// below the last pop.
fn offset() -> impl Strategy<Value = i64> {
    prop_oneof![
        (0u64..4).prop_map(|k| k as i64 * 1024),
        (0u64..1 << 20).prop_map(|d| d as i64),
        (1u64 << 30..1 << 32).prop_map(|d| d as i64),
        (1u64..1 << 20).prop_map(|d| -(d as i64)),
    ]
}

/// A fan-out of 0 to 40 copies, mostly on a coarse grid so copies tie.
fn fan() -> impl Strategy<Value = Op> {
    let tick = prop_oneof![
        (0u64..4).prop_map(|k| k as i64 * 1024),
        (0u64..4).prop_map(|k| k as i64 * 1024),
        offset(),
    ];
    proptest::collection::vec(tick, 0..=40).prop_map(Op::Fan)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The queue and the reference agree on every observation of mixed
    /// schedules: same-tick bursts, far-future times, times below the
    /// last pop, and fan-outs among them.
    #[test]
    fn backends_are_observationally_identical(ops in proptest::collection::vec(prop_oneof![
        offset().prop_map(Op::Push),
        offset().prop_map(Op::Push),
        offset().prop_map(Op::Push),
        fan(),
        Just(Op::Pop),
        Just(Op::Pop),
    ], 0..250)) {
        agree_with_reference(&ops);
    }

    /// Past-heavy schedules: one far event is pushed and popped, then
    /// every push (single or fan-out) lands below it; the drain must
    /// still be in order.
    #[test]
    fn past_inserts_match_the_reference(ticks in proptest::collection::vec(
        (1u64..1 << 21, 0usize..8), 1..40,
    )) {
        let past = ticks.iter().map(|&(t, copies)| match copies {
            0 => Op::Push(-(t as i64)),
            n => Op::Fan((0..n as i64).map(|j| -(t as i64) + (j % 3) * 64).collect()),
        });
        let ops: Vec<_> = [Op::Push(1 << 30), Op::Pop].into_iter().chain(past).collect();
        agree_with_reference(&ops);
    }
}

/// A deep deterministic schedule, far past the proptest schedules' 250
/// operations: 100,000 operations with thousands of pending heads, single
/// pushes on a tied grid, in the near and far future and below the last
/// pop, fan-outs of 2 to 24 copies with tied, staggered and scattered
/// arrivals, and every 5,000 operations one fan-out of 3,135 copies (a
/// 64-chip, 16-core system's broadcast: one arrival per chip-hop count,
/// staggered within a chip). Every pop is checked against a sorted
/// reference, `next_time` and `len` after every operation, and the full
/// census every 10,000 operations.
#[test]
fn a_deep_schedule_matches_the_reference_pop_by_pop() {
    let mut q: EventQueue<u64> = EventQueue::new();
    // (time, seq) -> (dst, payload, entry); an entry is one push or one
    // non-empty fan-out, whose count of pending events is `left[entry]`.
    let mut reference: BTreeMap<(Time, u64), (NodeId, u64, usize)> = BTreeMap::new();
    let mut left: Vec<u32> = Vec::new();
    let (mut heads, mut max_heads, mut seq) = (0usize, 0usize, 0u64);
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut rand = move |n: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % n
    };
    let mut last = 1u64 << 30; // time of the last pop, in ps
    let payload = |e: &QueuedEvent<u64>| match e.kind {
        EventKind::Wake { tag: p } | EventKind::Msg { msg: p, .. } => p,
    };
    for op in 0..100_000u64 {
        let at = |offset: i64| Time::from_ps(last.saturating_add_signed(offset));
        let roll = match op % 5_000 {
            4_999 => 16, // a machine-wide broadcast
            _ if reference.len() > 30_000 => 15,
            _ => rand(16),
        };
        match roll {
            0..=5 => {
                let offset = match rand(4) {
                    0 => rand(4) as i64 * 1024,
                    1 => rand(1 << 20) as i64,
                    2 => (1 << 30) + rand(1 << 32) as i64,
                    _ => -(1 + rand(1 << 20) as i64),
                };
                let (t, dst) = (at(offset), NodeId(op as u32 % 7));
                let kind = match op % 2 {
                    0 => EventKind::Wake { tag: op },
                    _ => EventKind::Msg { src: dst, msg: op },
                };
                q.push(t, dst, kind);
                reference.insert((t, seq), (dst, op, left.len()));
                (seq, heads) = (seq + 1, heads + 1);
                left.push(1);
            }
            6..=7 => {
                let n = 2 + rand(23) as usize;
                let (base, stagger) = (rand(4) as i64 * 1024 - 512, rand(3) as i64 * 700);
                let arrivals: Vec<(Time, NodeId)> = (0..n)
                    .map(|j| {
                        let offset = match rand(4) {
                            0 => rand(1 << 20) as i64 - (1 << 19),
                            _ => base + stagger * j as i64,
                        };
                        (at(offset), NodeId((op as usize + j) as u32 % 11))
                    })
                    .collect();
                push_fan(&mut q, &mut reference, &mut left, &mut seq, op, &arrivals);
                heads += 1;
            }
            16 => {
                // From chip 0 of an 8 x 8 mesh to the other 3,135 nodes,
                // 49 per chip: one arrival per hop count, staggered
                // within a chip.
                let arrivals: Vec<(Time, NodeId)> = (1..3_136u32)
                    .map(|j| {
                        let (chip, node) = (j / 49, j % 49);
                        let hops = chip % 8 + chip / 8;
                        let t = last + 2_000 + u64::from(hops * 24_500 + node % 7 * 500);
                        (Time::from_ps(t), NodeId(j))
                    })
                    .collect();
                push_fan(&mut q, &mut reference, &mut left, &mut seq, op, &arrivals);
                heads += 1;
            }
            _ => {
                for _ in 0..1 + rand(6) {
                    let got = q.pop();
                    let want = reference.pop_first();
                    let got = got.map(|e| (e.time, e.seq(), e.dst, payload(&e)));
                    let entry = want.map(|(_, (.., entry))| entry);
                    let want = want.map(|((t, s), (dst, p, _))| (t, s, dst, p));
                    assert_eq!(got, want, "pop diverged at op {op}");
                    let Some(entry) = entry else { break };
                    last = got.expect("matched a pending event").0.as_ps();
                    left[entry] -= 1;
                    heads -= usize::from(left[entry] == 0);
                }
            }
        }
        max_heads = max_heads.max(heads);
        assert_eq!(
            q.next_time(),
            reference.first_key_value().map(|(k, _)| k.0),
            "op {op}"
        );
        assert_eq!((q.len(), q.next_seq()), (reference.len(), seq), "op {op}");
        if op % 10_000 == 0 {
            let census: Vec<_> = q
                .census()
                .iter()
                .map(|e| (e.time, e.seq(), e.dst, payload(e)))
                .collect();
            let expect: Vec<_> = reference
                .iter()
                .map(|(&(t, s), &(dst, p, _))| (t, s, dst, p))
                .collect();
            assert_eq!(census, expect, "census at op {op}");
        }
    }
    assert!(
        max_heads >= 2_000,
        "the schedule stayed shallow: {max_heads} heads"
    );
    while let Some(e) = q.pop() {
        let ((t, s), (dst, p, _)) = reference.pop_first().expect("reference drained first");
        assert_eq!(
            (e.time, e.seq(), e.dst, payload(&e)),
            (t, s, dst, p),
            "drain"
        );
    }
    assert!(reference.is_empty(), "queue drained first");
}

/// Pushes one fan-out of `arrivals`, with payload `op`, on the queue and
/// its copies on the reference.
fn push_fan(
    q: &mut EventQueue<u64>,
    reference: &mut BTreeMap<(Time, u64), (NodeId, u64, usize)>,
    left: &mut Vec<u32>,
    seq: &mut u64,
    op: u64,
    arrivals: &[(Time, NodeId)],
) {
    q.push_fan(NodeId(op as u32 % 5), op, arrivals);
    for &(t, dst) in arrivals {
        reference.insert((t, *seq), (dst, op, left.len()));
        *seq += 1;
    }
    left.push(arrivals.len() as u32);
}

/// `next_seq` stays strictly monotonic across millions of pushes: the
/// sequence number is assigned centrally, so the queue can neither skip
/// nor reuse one.
#[test]
fn next_seq_is_monotonic_under_millions_of_pushes() {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut pushed = 0u64;
    for round in 0..2_000u64 {
        for i in 0..1_000u64 {
            assert_eq!(q.next_seq(), pushed, "seq skipped");
            q.push(
                Time::from_ps(round * 512 + (i % 13)),
                NodeId(0),
                EventKind::Wake { tag: i },
            );
            pushed += 1;
        }
        // Drain half each round so the queue stays bounded but the push
        // counter keeps climbing past 2 million.
        for _ in 0..500 {
            q.pop();
        }
    }
    assert_eq!(pushed, 2_000_000);
    assert_eq!(q.next_seq(), pushed, "pops must not consume seqs");
}
