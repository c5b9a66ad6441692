//! Property tests for the event queue against a sorted-`Vec` reference.
//!
//! Every simulation result rests on one contract: events leave in
//! ascending `(time, seq)` order — earliest delivery first, FIFO by push
//! order among same-picosecond ties — for every interleaving of pushes
//! and pops. A fan-out (one payload, many destinations) must behave as
//! its copies pushed one by one in order. After every operation the
//! queue's pop, `next_time`, `len` and sorted census must match the
//! reference, and the two must drain to the same tail.

use proptest::prelude::*;

use tokencmp::sim::{EventKind, EventQueue, NodeId, Time};

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
