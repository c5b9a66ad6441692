//! Property tests for the event queue against a sorted-`Vec` reference.
//!
//! Every simulation result rests on one contract: events leave in
//! ascending `(time, seq)` order — earliest delivery first, FIFO by push
//! order among same-picosecond ties — for every interleaving of pushes
//! and pops. After every operation the queue's pop, `next_time` and `len`
//! must match the reference, and the two must drain to the same tail.

use proptest::prelude::*;

use tokencmp::sim::{EventKind, EventQueue, NodeId, Time};

/// Runs `ops` and then enough pops to drain, on the queue and on the
/// reference. `Some(offset)` pushes at `last pop + offset` (negative
/// offsets land below the last pop); `None` pops. Pushes alternate wake
/// tags and messages so both payload kinds are checked.
fn agree_with_reference(ops: &[Option<i64>]) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut reference: Vec<(Time, u64, NodeId, u64)> = Vec::new(); // (time, seq, dst, payload), descending
    let mut last = 1u64 << 21; // time of the last pop
    let mut pushes = 0u64;
    let drain = std::iter::repeat_n(None, ops.len());
    for (i, op) in ops.iter().copied().chain(drain).enumerate() {
        if let Some(offset) = op {
            let t = Time::from_ps(last.saturating_add_signed(offset));
            let (dst, p) = (NodeId(i as u32 % 7), i as u64);
            let kind = match i % 2 {
                0 => EventKind::Wake { tag: p },
                _ => EventKind::Msg { src: dst, msg: p },
            };
            q.push(t, dst, kind);
            let at = reference.partition_point(|e| (e.0, e.1) > (t, pushes));
            reference.insert(at, (t, pushes, dst, p));
            pushes += 1;
        } else {
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
        let next = reference.last().map(|e| e.0);
        prop_assert_eq!(q.next_time(), next, "next_time at op {}", i);
        prop_assert_eq!(q.len(), reference.len(), "len at op {}", i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The queue and the reference agree on every observation of mixed
    /// schedules: same-tick bursts, far-future times, times below the
    /// last pop.
    #[test]
    fn backends_are_observationally_identical(ops in proptest::collection::vec(prop_oneof![
        (0u64..4).prop_map(|k| Some(k as i64 * 1024)),   // same-tick bursts
        (0u64..1 << 20).prop_map(|d| Some(d as i64)),     // near future
        (1u64 << 30..1 << 32).prop_map(|d| Some(d as i64)), // far future
        (1u64..1 << 20).prop_map(|d| Some(-(d as i64))),  // below the last pop
        Just(None),
        Just(None),
    ], 0..250)) {
        agree_with_reference(&ops);
    }

    /// Past-heavy schedules: one far event is pushed and popped, then
    /// every push lands below it; the drain must still be in order.
    #[test]
    fn past_inserts_match_the_reference(ticks in proptest::collection::vec(1u64..1 << 21, 1..40)) {
        let past = ticks.iter().map(|&t| Some(-(t as i64)));
        let ops: Vec<_> = [Some(1 << 30), None].into_iter().chain(past).collect();
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
