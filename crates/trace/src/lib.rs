//! Structured observability for the TokenCMP simulator.
//!
//! The paper's evaluation is an exercise in *explaining* protocol
//! behaviour — runtime decomposition (Fig 6), traffic attribution
//! (Fig 7), persistent-request dynamics (Figs 2/3). This crate is the
//! substrate for those explanations:
//!
//! * [`TraceEvent`] / [`TraceSink`] — typed, sim-timestamped protocol
//!   events (message sends per tier/class, token transfers, persistent
//!   activations, cache transitions, sequencer issue/commit, injected
//!   faults), recorded through a sink handle installed per run.
//! * [`RingRecorder`] — the bounded ring-buffer sink, doubling as the
//!   **flight recorder**: when a run stalls or a bench completion assert
//!   fires, the ring's tail is dumped so "Stalled" comes with a
//!   replayable event timeline.
//! * [`LatencyBreakdown`] / [`SegmentParts`] — per-transaction miss
//!   latency attribution: every committed miss is decomposed into
//!   intra-CMP, inter-CMP, memory, retry and persistent-wait segments
//!   that sum exactly (in integer picoseconds) to the measured latency.
//! * [`chrome_trace_json`] — a Chrome `trace_event` / Perfetto exporter,
//!   and [`block_timeline`] — the textual per-block timeline (pair it
//!   with [`RingRecorder::with_block_filter`] to follow one cache line).
//!
//! # Zero-cost when disabled
//!
//! Components hold an `Option<TraceHandle>` that defaults to `None`;
//! every emission site is `if let Some(t) = &self.trace { ... }`, so no
//! event is even *constructed* on the disabled path. Tracing never feeds
//! back into simulation state, so a traced run is bit-identical to an
//! untraced one (enforced by `tests/trace_events.rs`).

pub mod chrome;
pub mod event;
pub mod latency;
pub mod profile;
pub mod sink;
pub mod timeseries;

pub use chrome::{block_timeline, chrome_trace_json, chrome_trace_with_counters};
pub use event::{FaultKind, TraceEvent, TraceTier};
pub use latency::{LatencyBreakdown, Segment, SegmentParts};
pub use profile::{HostProfile, HostProfiler, ProfiledSink, ProfilerHandle};
pub use sink::{RingRecorder, TraceHandle, TraceRecord, TraceSink};
pub use timeseries::{Sample, TimeSeries, TIMESERIES_SCHEMA};
