//! The pending-event queue.
//!
//! A deterministic min-queue ordered by `(time, sequence)`: a binary heap
//! of owned events plus a central sequence counter. The sequence number
//! makes tie-breaking FIFO among events scheduled for the same
//! picosecond, which in turn makes whole simulations reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
    /// events). Assigned by [`EventQueue::push`], strictly increasing.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}

impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
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
/// assert_eq!(q.pop().unwrap().time, Time::from_ns(2));
/// ```
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: BinaryHeap<QueuedEvent<M>>,
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
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `kind` for delivery to `dst` at `time`.
    pub fn push(&mut self, time: Time, dst: NodeId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent {
            time,
            dst,
            kind,
            seq,
        });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<QueuedEvent<M>> {
        self.heap.pop()
    }

    /// Delivery time of the earliest pending event.
    pub fn next_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// The sequence number the next [`push`](Self::push) will assign —
    /// equivalently, the number of events ever pushed.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// A snapshot of every pending event, sorted by `(time, seq)` — the
    /// order events would leave the queue — so watchdog stall dumps and
    /// flight-recorder diagnostics do not depend on heap layout.
    pub fn census(&self) -> Vec<&QueuedEvent<M>> {
        let mut out: Vec<&QueuedEvent<M>> = self.heap.iter().collect();
        out.sort_unstable_by_key(|e| (e.time, e.seq));
        out
    }

    /// Every pending event in heap-internal order — for callers that only
    /// *count* pending events (the telemetry sampler) and should not pay
    /// for the sort.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedEvent<M>> {
        self.heap.iter()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wake(tag: u64) -> EventKind<u8> {
        EventKind::Wake { tag }
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
}
