//! The pending-event queue.
//!
//! A deterministic min-queue ordered by `(time, sequence)`. The sequence
//! number makes tie-breaking FIFO among events scheduled for the same
//! picosecond, which in turn makes whole simulations reproducible.
//!
//! A 4-ary min-heap holds small `(time, seq, slot)` *heads*, ordered by
//! one `u128` key (`time << 64 | seq`); the events themselves live in a
//! slab. A slab entry is either one event or a *fan-out*: one message
//! bound for many destinations (a broadcast), its payload stored once
//! next to a 16-byte `(arrival, seq offset, dst)` record per pending
//! copy. A fan-out's head carries the key of its earliest pending copy,
//! and popping that copy re-keys the head in place, so the heap holds
//! one entry per in-flight broadcast while the copies still leave in
//! ascending per-copy `(time, seq)` order. When the next copy arrives at
//! the same time as the one just popped, the re-keyed head stays at the
//! root without a sift: the fan owns every seq in `[base, base + n)`, so
//! no other pending key lies between the two copies'. A fan-out's
//! records are sorted once, when it is pushed: by a comparison sort, or,
//! for a machine-wide broadcast, by a stable radix sort on arrival that
//! yields the same order.

use std::cmp::Reverse;

use crate::kernel::NodeId;
use crate::time::Time;

/// What a queued event delivers to its destination component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind<M> {
    /// A message from another component (or injected externally).
    Msg {
        /// Sending component.
        src: NodeId,
        /// Protocol payload.
        msg: M,
    },
    /// A self-scheduled wakeup carrying an opaque tag.
    Wake {
        /// Component-defined discriminator (e.g. an MSHR index).
        tag: u64,
    },
}

/// An event plus its delivery coordinates.
#[derive(Debug, Clone)]
pub struct QueuedEvent<M> {
    /// Delivery time.
    pub time: Time,
    /// Destination component.
    pub dst: NodeId,
    /// Payload.
    pub kind: EventKind<M>,
    pub(crate) seq: u64,
}

impl<M> QueuedEvent<M> {
    /// The queue sequence number (FIFO tie-break key among same-time
    /// events). Assigned by [`EventQueue::push`] and
    /// [`EventQueue::push_fan`], strictly increasing.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// The heap's view of a slab entry: the key of its earliest pending
/// event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    time: Time,
    seq: u64,
    slot: u32,
}

impl Head {
    /// The `(time, seq)` order as one integer. Seqs are unique, so no two
    /// heads tie and the slot never decides.
    #[inline]
    fn key(&self) -> u128 {
        u128::from(self.time.as_ps()) << 64 | u128::from(self.seq)
    }
}

/// Children per heap node: half the depth of a binary heap, and a node's
/// children sit side by side in memory.
const ARITY: usize = 4;

/// Moves the head at `pos` up to its place among its ancestors.
fn sift_up(heads: &mut [Head], mut pos: usize) {
    let moving = heads[pos];
    let key = moving.key();
    while pos > 0 {
        let parent = (pos - 1) / ARITY;
        if heads[parent].key() < key {
            break;
        }
        heads[pos] = heads[parent];
        pos = parent;
    }
    heads[pos] = moving;
}

/// The least of the children of the node whose first child is `first`
/// (at least one child exists), and its key. A full node's four are
/// compared as a tournament of two independent pairs, by selects
/// rather than branches: which child wins is data the branch predictor
/// cannot learn.
#[inline]
fn least_child(heads: &[Head], first: usize) -> (usize, u128) {
    let kids = &heads[first..heads.len().min(first + ARITY)];
    if let [a, b, c, d] = kids {
        let (ka, kb, kc, kd) = (a.key(), b.key(), c.key(), d.key());
        let (ab, ab_key) = (usize::from(kb < ka), ka.min(kb));
        let (cd, cd_key) = (2 + usize::from(kd < kc), kc.min(kd));
        let best = if cd_key < ab_key { cd } else { ab };
        (first + best, ab_key.min(cd_key))
    } else {
        let mut best = (0, kids[0].key());
        for (i, kid) in kids.iter().enumerate().skip(1) {
            if kid.key() < best.1 {
                best = (i, kid.key());
            }
        }
        (first + best.0, best.1)
    }
}

/// Moves the head at `pos` down to its place among its descendants.
fn sift_down(heads: &mut [Head], mut pos: usize) {
    let moving = heads[pos];
    let key = moving.key();
    while ARITY * pos + 1 < heads.len() {
        let (kid, kid_key) = least_child(heads, ARITY * pos + 1);
        if key < kid_key {
            break;
        }
        heads[pos] = heads[kid];
        pos = kid;
    }
    heads[pos] = moving;
}

/// Emptied fan-out copy buffers are kept for reuse up to this capacity:
/// a chip-wide broadcast fits, and a machine-wide one on a large system
/// is freed rather than held for the rest of the run.
const SPARE_COPIES: usize = 64;

/// Fan-outs of at least this many copies are ordered by
/// [`radix_order`], smaller ones by a comparison sort. Below it the
/// radix sort's fixed cost, a 2,048-bucket count per digit, outweighs
/// the comparisons it saves on arrivals that span two or three digits
/// (DESIGN.md §14 records the crossover).
const RADIX_MIN_COPIES: usize = 512;

/// Bits per radix digit.
const DIGIT_BITS: u32 = 11;

/// One pending copy of a fan-out; its seq is the fan's `base + off`.
#[derive(Debug, Clone, Copy)]
struct FanCopy {
    time: Time,
    off: u32,
    dst: NodeId,
}

/// Digits needed to sort arrivals `span` ps apart: none when every copy
/// arrives at once.
fn radix_passes(span: u64) -> u32 {
    (u64::BITS - span.leading_zeros()).div_ceil(DIGIT_BITS)
}

/// Orders `copies`, given in descending offset order, descending by
/// `(time, off)`: the order a comparison sort on that key gives. An
/// LSD radix sort on each copy's distance below the latest arrival,
/// [`DIGIT_BITS`] bits a pass and as many passes as the span of
/// arrivals needs ([`radix_passes`]), is stable, so copies that arrive
/// together keep their descending offsets. The passes alternate between
/// `copies` and `second`; the two may trade buffers, and `second`
/// keeps the other for the next call.
fn radix_order(copies: &mut Vec<FanCopy>, second: &mut Vec<FanCopy>) {
    let (first, last) = copies.iter().fold((u64::MAX, 0), |(lo, hi), c| {
        (lo.min(c.time.as_ps()), hi.max(c.time.as_ps()))
    });
    let passes = radix_passes(last - first);
    if passes == 0 {
        return;
    }
    let mask = (1 << DIGIT_BITS) - 1;
    second.resize(copies.len(), copies[0]);
    let (mut from, mut to) = (copies, second);
    for pass in 0..passes {
        let shift = pass * DIGIT_BITS;
        let digit = |c: &FanCopy| ((last - c.time.as_ps()) >> shift) as usize & mask;
        let mut next = [0u32; 1 << DIGIT_BITS];
        for c in from.iter() {
            next[digit(c)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        for c in from.iter() {
            let at = &mut next[digit(c)];
            to[*at as usize] = *c;
            *at += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    if passes % 2 == 1 {
        std::mem::swap(from, to);
    }
}

#[derive(Debug)]
enum Entry<M> {
    /// One event; its time and seq live in its head.
    One { dst: NodeId, kind: EventKind<M> },
    /// One message to many destinations. `copies` holds at least one
    /// pending copy, sorted descending by `(time, off)` so the earliest
    /// is last.
    Fan {
        src: NodeId,
        msg: M,
        base: u64,
        copies: Vec<FanCopy>,
    },
    /// A slot on the free list.
    Vacant,
}

/// A deterministic min-queue of simulation events.
///
/// # Example
///
/// ```
/// use tokencmp_sim::{EventKind, EventQueue, NodeId, Time};
/// let mut q: EventQueue<u32> = EventQueue::new();
/// q.push(Time::from_ns(5), NodeId(0), EventKind::Wake { tag: 1 });
/// q.push(Time::from_ns(2), NodeId(0), EventKind::Wake { tag: 2 });
/// // One payload to nodes 1 and 2: seqs 2 and 3, one heap entry.
/// let arrivals = [(Time::from_ns(9), NodeId(1)), (Time::from_ns(3), NodeId(2))];
/// q.push_fan(NodeId(0), 7, &arrivals);
/// assert_eq!(q.len(), 4);
/// let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
///     .map(|e| (e.time, e.seq()))
///     .collect();
/// assert_eq!(order, [(2, 1), (3, 3), (5, 0), (9, 2)].map(|(t, s)| (Time::from_ns(t), s)));
/// ```
#[derive(Debug)]
pub struct EventQueue<M> {
    /// A 4-ary min-heap by [`Head::key`]: the children of `i` are
    /// `ARITY * i + 1 ..= ARITY * i + ARITY`.
    heads: Vec<Head>,
    slab: Vec<Entry<M>>,
    free: Vec<u32>,
    /// Emptied copy buffers of finished fan-outs, each of capacity at
    /// most [`SPARE_COPIES`], for [`push_fan`](Self::push_fan) to reuse.
    spare: Vec<Vec<FanCopy>>,
    /// The radix sort's second buffer, as large as the largest fan-out
    /// it has ordered; empty until a fan-out of [`RADIX_MIN_COPIES`].
    /// Kept across calls: one allocated and freed per fan-out raised
    /// peak memory more than the buffer's size (DESIGN.md §14).
    radix: Vec<FanCopy>,
    /// Pending events, counting every pending copy of a fan-out.
    len: usize,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<M> {
        EventQueue {
            heads: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            spare: Vec::new(),
            radix: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `kind` for delivery to `dst` at `time`.
    pub fn push(&mut self, time: Time, dst: NodeId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let slot = self.insert(Entry::One { dst, kind });
        self.push_head(Head { time, seq, slot });
    }

    /// Schedules one copy of `msg` from `src` per `(arrival, dst)` in
    /// `arrivals`. Copy `i` takes seq `next_seq + i`, exactly as pushing
    /// the copies one by one in `arrivals` order would, and leaves at the
    /// same point in the `(time, seq)` order; but the payload is stored
    /// once and the heap gains one entry for the whole fan-out.
    pub fn push_fan(&mut self, src: NodeId, msg: M, arrivals: &[(Time, NodeId)]) {
        match *arrivals {
            [] => return,
            [(time, dst)] => return self.push(time, dst, EventKind::Msg { src, msg }),
            _ => {}
        }
        let (base, n) = (self.next_seq, arrivals.len());
        // Built back to front: arrivals that come roughly in send order
        // are then already close to the descending order kept.
        let mut copies = self.spare.pop().unwrap_or_default();
        copies.extend((0..n).rev().map(|i| FanCopy {
            time: arrivals[i].0,
            off: i as u32,
            dst: arrivals[i].1,
        }));
        if n < RADIX_MIN_COPIES {
            copies.sort_unstable_by_key(|c| Reverse((c.time, c.off)));
        } else {
            radix_order(&mut copies, &mut self.radix);
        }
        let first = copies[n - 1];
        self.next_seq += n as u64;
        self.len += n;
        let slot = self.insert(Entry::Fan {
            src,
            msg,
            base,
            copies,
        });
        self.push_head(Head {
            time: first.time,
            seq: base + u64::from(first.off),
            slot,
        });
    }

    fn push_head(&mut self, head: Head) {
        let pos = self.heads.len();
        self.heads.push(head);
        sift_up(&mut self.heads, pos);
    }

    /// Removes the root head. The hole it leaves moves down along the
    /// least children to a leaf, and the last head fills it from there,
    /// sifting up: the last head is a leaf's, so it seldom rises far,
    /// and the way down skips comparing it at every level.
    fn pop_head(&mut self) {
        let last = self.heads.pop().expect("a head to remove");
        if self.heads.is_empty() {
            return;
        }
        let heads = &mut self.heads[..];
        let mut hole = 0;
        while ARITY * hole + 1 < heads.len() {
            let (kid, _) = least_child(heads, ARITY * hole + 1);
            heads[hole] = heads[kid];
            hole = kid;
        }
        heads[hole] = last;
        sift_up(heads, hole);
    }

    fn insert(&mut self, entry: Entry<M>) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Delivery time of the earliest pending event.
    pub fn next_time(&self) -> Option<Time> {
        self.heads.first().map(|h| h.time)
    }

    /// Number of pending events (every pending copy of a fan-out counts).
    pub fn len(&self) -> usize {
        self.len
    }

    /// The sequence number the next [`push`](Self::push) will assign —
    /// equivalently, the number of events ever pushed, each copy of a
    /// fan-out counting as one.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<M: Clone> EventQueue<M> {
    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<QueuedEvent<M>> {
        let Head { time, seq, slot } = *self.heads.first()?;
        self.len -= 1;
        let (dst, kind) = match &mut self.slab[slot as usize] {
            Entry::Fan {
                src,
                msg,
                base,
                copies,
            } if copies.len() > 1 => {
                let copy = copies.pop().expect("more than one copy pending");
                let next = copies[copies.len() - 1];
                // Re-key the root in place. At the same time it stays the
                // minimum with no sift: a key between the popped copy's
                // and the next copy's would need a seq between theirs,
                // and the fan owns all of those.
                let root = &mut self.heads[0];
                root.seq = *base + u64::from(next.off);
                if next.time != time {
                    root.time = next.time;
                    sift_down(&mut self.heads, 0);
                }
                (
                    copy.dst,
                    EventKind::Msg {
                        src: *src,
                        msg: msg.clone(),
                    },
                )
            }
            _ => {
                self.pop_head();
                self.free.push(slot);
                match std::mem::replace(&mut self.slab[slot as usize], Entry::Vacant) {
                    Entry::One { dst, kind } => (dst, kind),
                    Entry::Fan {
                        src,
                        msg,
                        mut copies,
                        ..
                    } => {
                        let dst = copies[0].dst;
                        if copies.capacity() <= SPARE_COPIES {
                            copies.clear();
                            self.spare.push(copies);
                        }
                        (dst, EventKind::Msg { src, msg })
                    }
                    Entry::Vacant => unreachable!("a head points at a live slot"),
                }
            }
        };
        Some(QueuedEvent {
            time,
            dst,
            kind,
            seq,
        })
    }

    /// A snapshot of every pending event, one per pending copy of a
    /// fan-out, sorted by `(time, seq)` — the order events would leave
    /// the queue — so watchdog stall dumps and flight-recorder
    /// diagnostics do not depend on the queue's layout.
    pub fn census(&self) -> Vec<QueuedEvent<M>> {
        let mut out: Vec<QueuedEvent<M>> = self.iter().collect();
        out.sort_unstable_by_key(|e| (e.time, e.seq));
        out
    }

    /// Every pending event, one per pending copy of a fan-out, in
    /// layout order — for callers that only *count* pending events (the
    /// telemetry sampler) and should not pay for the sort.
    pub fn iter(&self) -> impl Iterator<Item = QueuedEvent<M>> + '_ {
        self.heads.iter().flat_map(move |h| {
            let (one, fan) = match &self.slab[h.slot as usize] {
                Entry::One { dst, kind } => {
                    let ev = QueuedEvent {
                        time: h.time,
                        dst: *dst,
                        kind: kind.clone(),
                        seq: h.seq,
                    };
                    (Some(ev), None)
                }
                Entry::Fan {
                    src,
                    msg,
                    base,
                    copies,
                } => {
                    let copies = copies.iter().map(move |c| QueuedEvent {
                        time: c.time,
                        dst: c.dst,
                        kind: EventKind::Msg {
                            src: *src,
                            msg: msg.clone(),
                        },
                        seq: base + u64::from(c.off),
                    });
                    (None, Some(copies))
                }
                Entry::Vacant => unreachable!("a head points at a live slot"),
            };
            one.into_iter().chain(fan.into_iter().flatten())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(tag: u64) -> EventKind<u8> {
        EventKind::Wake { tag }
    }

    impl<M> EventQueue<M> {
        /// Panics unless every head's key exceeds its parent's.
        fn assert_heap(&self) {
            for (i, h) in self.heads.iter().enumerate().skip(1) {
                let parent = &self.heads[(i - 1) / ARITY];
                assert!(parent.key() < h.key(), "head {i} sorts before its parent");
            }
        }

        /// The slot of the one pending fan-out.
        fn fan_slot(&self) -> u32 {
            let slot = self
                .slab
                .iter()
                .position(|e| matches!(e, Entry::Fan { .. }));
            slot.expect("a pending fan-out") as u32
        }
    }

    #[test]
    fn tied_fan_copies_keep_the_root_and_the_order() {
        let ns = Time::from_ns;
        let mut q: EventQueue<u8> = EventQueue::new();
        let mut want = Vec::new();
        // Filler from 5 to 24 ns, two of it at 12 ns: seqs 0..40.
        for i in 0..40 {
            let t = ns(5 + (i * 7) % 20);
            q.push(t, NodeId(1), wake(i));
            q.assert_heap();
            want.push((t, i));
        }
        // One event at the fan's time with a lower seq (40), then eight
        // copies, six at 12 ns and two at 13 ns (seqs 41..=48).
        q.push(ns(12), NodeId(2), wake(100));
        q.assert_heap();
        let arrivals: Vec<(Time, NodeId)> = (0..8)
            .map(|i| (ns(12 + u64::from(i % 4 == 3)), NodeId(10 + i)))
            .collect();
        q.push_fan(NodeId(0), 7, &arrivals);
        q.assert_heap();
        let fan = q.fan_slot();
        // The event pushed mid-fan at 12 ns below takes seq 49.
        want.push((ns(12), 40));
        want.extend(arrivals.iter().zip(41..).map(|(&(t, _), seq)| (t, seq)));
        want.push((ns(12), 49));
        want.sort();
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            q.assert_heap();
            got.push((e.time, e.seq));
            if e.seq == 41 {
                q.push(ns(12), NodeId(3), wake(200));
                q.assert_heap();
            }
            // The next copy is also at 12 ns: the fan keeps the root.
            if [41, 42, 43, 45, 46].contains(&e.seq) {
                assert_eq!(q.heads[0].slot, fan, "after seq {}", e.seq);
            }
        }
        assert_eq!(got, want);
        let at = |seq| got.iter().position(|e| e.1 == seq).unwrap();
        assert_eq!(at(40) + 1, at(41), "the lower seq pops before the copies");
        assert_eq!(at(47) + 1, at(49), "the mid-fan push pops after them");
    }

    /// `n` arrivals from `t0` spanning exactly `span` ps: ascending runs
    /// of 24 copies, each run starting at a pseudo-random multiple of
    /// `span / 64`, so copies of different runs tie.
    fn runs(n: usize, t0: u64, span: u64) -> Vec<(Time, NodeId)> {
        let step = span / 64;
        let mut lcg = 0x9E37_79B9_7F4A_7C15u64 ^ span;
        let mut run_start = 0;
        (0..n)
            .map(|i| {
                if i % 24 == 0 {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    run_start = (lcg >> 33) % 41 * step;
                }
                let t = match i {
                    0 => 0,
                    _ if i == n - 1 => span,
                    _ => run_start + (i % 24) as u64 * step,
                };
                (Time::from_ps(t0 + t), NodeId(i as u32))
            })
            .collect()
    }

    #[test]
    fn fan_copies_leave_in_comparison_order_on_both_sort_paths() {
        // Spans: every copy at once (no radix pass), one digit, then two,
        // three and four digits.
        let spans = [0, (1 << DIGIT_BITS) - 1, (1 << 22) - 1, 1 << 22, 1 << 40];
        assert_eq!(spans.map(radix_passes), [0, 1, 2, 3, 4]);
        for n in [RADIX_MIN_COPIES - 1, RADIX_MIN_COPIES, 3_135] {
            for span in spans {
                let arrivals = runs(n, 7_000, span);
                let mut q: EventQueue<u8> = EventQueue::new();
                q.push(Time::from_ps(7_000), NodeId(u32::MAX), wake(0));
                q.push_fan(NodeId(0), 9, &arrivals);
                let mut want: Vec<(Time, u64, NodeId)> = arrivals
                    .iter()
                    .zip(1..)
                    .map(|(&(t, dst), seq)| (t, seq, dst))
                    .collect();
                want.push((Time::from_ps(7_000), 0, NodeId(u32::MAX)));
                want.sort_by_key(|&(t, seq, _)| (t, seq));
                let got: Vec<_> = std::iter::from_fn(|| q.pop())
                    .map(|e| (e.time, e.seq, e.dst))
                    .collect();
                assert_eq!(got, want, "{n} copies over {span} ps");
            }
        }
    }

    #[test]
    fn finished_fan_buffers_are_reused_up_to_the_cap() {
        let ns = Time::from_ns;
        let mut q: EventQueue<u8> = EventQueue::new();
        let fan = |n: u32| -> Vec<(Time, NodeId)> { (0..n).map(|i| (ns(1), NodeId(i))).collect() };
        q.push_fan(NodeId(0), 1, &fan(16));
        while q.pop().is_some() {}
        assert_eq!(q.spare.len(), 1, "the emptied buffer is kept");
        q.push_fan(NodeId(0), 2, &fan(3));
        assert!(q.spare.is_empty(), "and taken by the next fan-out");
        while q.pop().is_some() {}
        // A fan-out past the cap frees its buffer at its last copy.
        q.push_fan(NodeId(0), 3, &fan(SPARE_COPIES as u32 + 1));
        while q.pop().is_some() {}
        assert!(q.spare.is_empty(), "a buffer grown past the cap is freed");
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), NodeId(0), wake(3));
        q.push(Time::from_ns(10), NodeId(0), wake(1));
        q.push(Time::from_ns(20), NodeId(0), wake(2));
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Wake { tag } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        for tag in 0..10 {
            q.push(t, NodeId(0), wake(tag));
        }
        for expect in 0..10 {
            match q.pop().unwrap().kind {
                EventKind::Wake { tag } => assert_eq!(tag, expect),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn next_time_peeks_without_removing() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(Time::from_ns(7), NodeId(1), wake(0));
        assert_eq!(q.next_time(), Some(Time::from_ns(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn census_is_sorted_by_time_then_seq() {
        let mut q = EventQueue::new();
        // Push in scrambled time order, with a same-time tie pair.
        q.push(Time::from_ns(9), NodeId(0), wake(0));
        q.push(Time::from_ns(1), NodeId(1), wake(1));
        q.push(Time::from_ns(9), NodeId(2), wake(2));
        q.push(Time::from_ns(4), NodeId(3), wake(3));
        let order: Vec<(Time, u64)> = q.census().iter().map(|e| (e.time, e.seq)).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "census must be (time, seq)-sorted");
        assert_eq!(q.iter().count(), order.len());
        // And it matches the pop order exactly.
        let popped: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq()))
            .collect();
        assert_eq!(order, popped);
    }

    #[test]
    fn next_seq_counts_every_push() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_seq(), 0);
        for i in 0..100 {
            q.push(Time::from_ns(i % 7), NodeId(0), wake(i));
        }
        assert_eq!(q.next_seq(), 100);
        q.pop();
        assert_eq!(q.next_seq(), 100, "pops do not consume sequence numbers");
    }

    #[test]
    fn a_fan_out_holds_one_head_and_leaves_copy_by_copy() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(Time::from_ns(4), NodeId(9), wake(0));
        let ns = |t| Time::from_ns(t);
        // Five copies with tied and out-of-order arrivals: seqs 1..=5.
        let arrivals = [
            (ns(6), NodeId(1)),
            (ns(2), NodeId(2)),
            (ns(6), NodeId(3)),
            (ns(4), NodeId(4)),
            (ns(2), NodeId(5)),
        ];
        q.push_fan(NodeId(0), 42, &arrivals);
        assert_eq!((q.len(), q.heads.len(), q.next_seq()), (6, 2, 6));
        assert_eq!(q.census().len(), 6);
        let order: Vec<(u64, u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_ps() / 1000, e.seq, e.dst.0))
            .collect();
        assert_eq!(
            order,
            [
                (2, 2, 2),
                (2, 5, 5),
                (4, 0, 9),
                (4, 4, 4),
                (6, 1, 1),
                (6, 3, 3)
            ]
        );
        assert!(q.heads.is_empty());
        assert_eq!(q.free.len(), q.slab.len(), "every slot is freed");
        // An empty fan takes no seq; a one-copy fan is a plain event.
        q.push_fan(NodeId(0), 1, &[]);
        q.push_fan(NodeId(0), 2, &[(ns(1), NodeId(7))]);
        assert_eq!((q.len(), q.next_seq()), (1, 7));
        assert!(matches!(
            q.slab[q.heads[0].slot as usize],
            Entry::One { .. }
        ));
    }
}
