//! Trace sinks: where emitted events go.
//!
//! A run owns at most one sink, shared by every component through a
//! [`TraceHandle`] (`Rc<RefCell<..>>` — a simulation is single-threaded;
//! the sweep engine parallelises across runs, never within one). When no
//! sink is installed the per-component handle is `None` and emission
//! sites skip even constructing the event.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;

use tokencmp_sim::Time;

use tokencmp_proto::Block;

use crate::event::TraceEvent;

/// A recorded event: global sequence number, emission time, payload.
/// Sequence numbers are assigned by the sink and never reused, so a
/// bounded recorder can report exactly how many events it evicted.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceRecord {
    /// Monotonic per-sink sequence number (0-based).
    pub seq: u64,
    /// Simulation time at emission.
    pub at: Time,
    /// The event.
    pub ev: TraceEvent,
}

/// Consumes trace events during a run.
pub trait TraceSink {
    /// Records one event emitted at simulation time `at`.
    fn record(&mut self, at: Time, ev: TraceEvent);

    /// Renders the sink's retained tail for a stall/panic diagnostic,
    /// if it retains one (the flight-recorder contract). `None` means
    /// this sink keeps no replayable history.
    fn flight_dump(&self) -> Option<String> {
        None
    }

    /// The sink's conformance verdict, if it is a checking sink (the
    /// refinement-checker contract — see `tokencmp-conform`). `None`
    /// means this sink performs no checking; `Some(Err(report))`
    /// carries a rendered violation report. Queried by the system
    /// runner at end of run when online conformance is enabled.
    fn conformance(&self) -> Option<Result<(), String>> {
        None
    }
}

/// Shared handle to a run's sink.
pub type TraceHandle = Rc<RefCell<dyn TraceSink>>;

/// The bounded ring-buffer recorder — the default sink and the flight
/// recorder. Keeps the most recent `capacity` events (older ones are
/// evicted but still counted), optionally filtered to a single block.
///
/// # Example
///
/// ```
/// use std::{cell::RefCell, rc::Rc};
/// use tokencmp_sim::Time;
/// use tokencmp_proto::{Block, ProcId, AccessKind};
/// use tokencmp_trace::{RingRecorder, TraceEvent, TraceSink};
///
/// let mut r = RingRecorder::new(2);
/// for i in 0..3 {
///     r.record(Time::from_ns(i), TraceEvent::SeqIssue {
///         proc: ProcId(0), block: Block(i), kind: AccessKind::Load,
///     });
/// }
/// assert_eq!(r.len(), 2); // bounded
/// assert_eq!(r.evicted(), 1);
/// assert_eq!(r.records()[0].seq, 1); // tail survives, head evicted
/// ```
#[derive(Debug)]
pub struct RingRecorder {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    evicted: u64,
    filtered: u64,
    block_filter: Option<Block>,
}

impl RingRecorder {
    /// Capacity used by [`RingRecorder::default`] and the system wiring
    /// when the caller does not choose one.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// How many tail events a [`flight_dump`](TraceSink::flight_dump)
    /// renders (the ring may retain more; a dump is for human eyes).
    pub const DUMP_TAIL: usize = 48;

    /// Creates a recorder keeping the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> RingRecorder {
        RingRecorder {
            buf: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            next_seq: 0,
            evicted: 0,
            filtered: 0,
            block_filter: None,
        }
    }

    /// Restricts recording to events about `block` (events that concern
    /// no single block are also dropped): the way to debug one cache
    /// line, with [`block_timeline`](crate::block_timeline) rendering
    /// what was kept.
    pub fn with_block_filter(mut self, block: Block) -> RingRecorder {
        self.block_filter = Some(block);
        self
    }

    /// Wraps the recorder into the shared handle the system wiring
    /// installs into components.
    pub fn into_handle(self) -> Rc<RefCell<RingRecorder>> {
        Rc::new(RefCell::new(self))
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> &VecDeque<TraceRecord> {
        &self.buf
    }

    /// Retained records as a fresh contiguous vector, oldest first.
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.buf.iter().copied().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the capacity bound (recorded, then displaced).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Events rejected by the block filter (never recorded).
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Total events that passed the filter (retained + evicted).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }
}

impl Default for RingRecorder {
    fn default() -> Self {
        RingRecorder::new(Self::DEFAULT_CAPACITY)
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, at: Time, ev: TraceEvent) {
        if let Some(want) = self.block_filter {
            if ev.block() != Some(want) {
                self.filtered += 1;
                return;
            }
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(TraceRecord {
            seq: self.next_seq,
            at,
            ev,
        });
        self.next_seq += 1;
    }

    fn flight_dump(&self) -> Option<String> {
        if self.buf.is_empty() {
            return None;
        }
        let tail = self.buf.len().min(Self::DUMP_TAIL);
        let skipped = self.recorded() - tail as u64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: last {tail} of {} trace events{}",
            self.recorded(),
            if skipped > 0 {
                format!(" ({skipped} earlier not shown)")
            } else {
                String::new()
            }
        );
        for r in self.buf.iter().skip(self.buf.len() - tail) {
            let _ = writeln!(out, "  #{:<6} @{:>12} {}", r.seq, format!("{}", r.at), r.ev);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokencmp_proto::{AccessKind, ProcId};

    fn ev(b: u64) -> TraceEvent {
        TraceEvent::SeqIssue {
            proc: ProcId(1),
            block: Block(b),
            kind: AccessKind::Store,
        }
    }

    #[test]
    fn ring_bounds_and_counts() {
        let mut r = RingRecorder::new(3);
        for i in 0..10 {
            r.record(Time::from_ns(i), ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 7);
        assert_eq!(r.recorded(), 10);
        let seqs: Vec<u64> = r.records().iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn block_filter_drops_other_blocks() {
        let mut r = RingRecorder::new(8).with_block_filter(Block(5));
        r.record(Time::ZERO, ev(4));
        r.record(Time::ZERO, ev(5));
        r.record(Time::ZERO, ev(6));
        assert_eq!(r.len(), 1);
        assert_eq!(r.filtered(), 2);
        assert_eq!(r.records()[0].ev.block(), Some(Block(5)));
    }

    #[test]
    fn flight_dump_shows_tail_with_counts() {
        let mut r = RingRecorder::new(4);
        assert!(r.flight_dump().is_none());
        for i in 0..100 {
            r.record(Time::from_ns(i), ev(i));
        }
        let dump = r.flight_dump().unwrap();
        assert!(dump.contains("flight recorder: last 4 of 100"));
        assert!(dump.contains("96 earlier not shown"));
        assert!(dump.contains("#99"));
        assert!(!dump.contains("#95 "));
    }
}
