//! The pending-event queue.
//!
//! A deterministic min-queue ordered by `(time, sequence)`. The sequence
//! number makes tie-breaking FIFO among events scheduled for the same
//! picosecond, which in turn makes whole simulations reproducible.
//!
//! The binary heap holds small `(time, seq, slot)` *heads*; the events
//! themselves live in a slab. A slab entry is either one event or a
//! *fan-out*: one message bound for many destinations (a broadcast),
//! its payload stored once next to a 16-byte `(arrival, seq offset,
//! dst)` record per pending copy. A fan-out's head carries the key of
//! its earliest pending copy, and popping that copy re-keys the head in
//! place, so the heap holds one entry per in-flight broadcast while the
//! copies still leave in ascending per-copy `(time, seq)` order.

use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
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

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we want earliest-first.
        // Seqs are unique, so the slot never decides.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One pending copy of a fan-out; its seq is the fan's `base + off`.
#[derive(Debug, Clone, Copy)]
struct FanCopy {
    time: Time,
    off: u32,
    dst: NodeId,
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
    heads: BinaryHeap<Head>,
    slab: Vec<Entry<M>>,
    free: Vec<u32>,
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
            heads: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
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
        self.heads.push(Head { time, seq, slot });
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
        let mut copies: Vec<FanCopy> = (0..n)
            .rev()
            .map(|i| FanCopy {
                time: arrivals[i].0,
                off: i as u32,
                dst: arrivals[i].1,
            })
            .collect();
        copies.sort_unstable_by_key(|c| Reverse((c.time, c.off)));
        let first = copies[n - 1];
        self.next_seq += n as u64;
        self.len += n;
        let slot = self.insert(Entry::Fan {
            src,
            msg,
            base,
            copies,
        });
        self.heads.push(Head {
            time: first.time,
            seq: base + u64::from(first.off),
            slot,
        });
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
        self.heads.peek().map(|h| h.time)
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
        let mut head = self.heads.peek_mut()?;
        let Head { time, seq, slot } = *head;
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
                // Re-key in place: dropping `head` sifts it down.
                head.time = next.time;
                head.seq = *base + u64::from(next.off);
                (
                    copy.dst,
                    EventKind::Msg {
                        src: *src,
                        msg: msg.clone(),
                    },
                )
            }
            _ => {
                PeekMut::pop(head);
                self.free.push(slot);
                match std::mem::replace(&mut self.slab[slot as usize], Entry::Vacant) {
                    Entry::One { dst, kind } => (dst, kind),
                    Entry::Fan {
                        src, msg, copies, ..
                    } => (copies[0].dst, EventKind::Msg { src, msg }),
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
            q.slab[q.heads.peek().unwrap().slot as usize],
            Entry::One { .. }
        ));
    }
}
