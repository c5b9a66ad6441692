//! System assembly and the measurement harness.
//!
//! [`run_workload`] builds a full M-CMP system for any [`Protocol`], drives
//! it with a [`Workload`] until every processor finishes and the event
//! queue drains, audits protocol invariants at quiescence, and returns a
//! unified [`RunResult`] the benchmark harnesses consume.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use tokencmp_core::Variant;
use tokencmp_net::{FaultHandle, FaultPlan, Network, Traffic};
use tokencmp_proto::{MsgClass, NetMsg, SystemConfig};
use tokencmp_sim::kernel::RunOutcome;
use tokencmp_sim::{
    Dur, EventKind, HostProfiler, InstantTransport, Kernel, Stats, Time, Transport,
};
use tokencmp_trace::{HostProfile, ProfiledSink, TimeSeries, TraceHandle};

use crate::directory;
use crate::nodes::System;
use crate::perfect::PerfectNodes;
use crate::telemetry::{Sampler, TelemetryOptions};
use crate::token;
use crate::workload::Workload;

/// The protocols of the paper's evaluation (§6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protocol {
    /// A TokenCMP variant (Table 1).
    Token(Variant),
    /// The hierarchical directory baseline with a DRAM directory.
    Directory,
    /// DirectoryCMP with an unrealistic zero-cycle directory.
    DirectoryZero,
    /// The unimplementable perfect shared-L2 lower bound.
    PerfectL2,
}

impl Protocol {
    /// Every protocol configuration of the paper's evaluation, in the
    /// paper's presentation order: the six TokenCMP variants (Table 1),
    /// the two DirectoryCMP baselines, and the PerfectL2 lower bound.
    ///
    /// Cross-protocol suites (`tests/cross_protocol.rs`, the litmus
    /// differential harness) iterate this list rather than spelling out
    /// their own, so adding a protocol cannot silently skip a suite.
    pub const ALL: [Protocol; 9] = [
        Protocol::Token(Variant::Arb0),
        Protocol::Token(Variant::Dst0),
        Protocol::Token(Variant::Dst4),
        Protocol::Token(Variant::Dst1),
        Protocol::Token(Variant::Dst1Pred),
        Protocol::Token(Variant::Dst1Filt),
        Protocol::Directory,
        Protocol::DirectoryZero,
        Protocol::PerfectL2,
    ];

    /// The paper's name for this protocol.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Token(v) => v.name(),
            Protocol::Directory => "DirectoryCMP",
            Protocol::DirectoryZero => "DirectoryCMP-zero",
            Protocol::PerfectL2 => "PerfectL2",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Online refinement-checking knobs (the `tokencmp-conform` crate
/// provides the checking sink; the runner only queries its verdict).
#[derive(Clone, Copy, Debug, Default)]
pub struct ConformOptions {
    /// Query the installed trace sink's conformance verdict
    /// ([`tokencmp_trace::TraceSink::conformance`]) when a run ends
    /// cleanly, and panic on a refinement violation — audit-like
    /// semantics, mirroring [`RunOptions::audit`]. A no-op when the
    /// installed sink is not a checking sink (or no sink is installed).
    pub online: bool,
}

/// Run limits and reproducibility knobs.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Seed for all pseudo-random protocol behaviour.
    pub seed: u64,
    /// Event budget (exceeded ⇒ [`RunOutcome::EventLimit`], i.e. a bug).
    pub max_events: u64,
    /// Check protocol invariants at quiescence (token conservation /
    /// directory consistency). On by default; panics on violation.
    pub audit: bool,
    /// Interconnect fault-injection plan. The default ([`FaultPlan::none`])
    /// is a guaranteed pass-through: results are bit-identical to a run
    /// without fault injection. Plans with a positive drop rate are
    /// rejected at configuration time for the DirectoryCMP protocols,
    /// which have no message-loss recovery path; PerfectL2 models no
    /// interconnect, so faults have no effect there.
    pub faults: FaultPlan,
    /// Progress watchdog: if no sequencer commits an operation for this
    /// much *simulated* time, the run stops with [`RunOutcome::Stalled`]
    /// and [`RunResult::diagnostic`] carries a snapshot. `None` disables
    /// the watchdog. The default (1 ms of simulated time, ~10⁴× a typical
    /// operation latency) is far above any legitimate quiet period of the
    /// modeled workloads; [`RunOptions::with_stall_window`] widens it
    /// for runs whose recovery backoffs outgrow it.
    pub stall_window: Option<Dur>,
    /// Online refinement checking against the verified mcheck models.
    pub conform: ConformOptions,
    /// Time-series sampling and host-time profiling knobs. Both default
    /// to off; a run with telemetry off is bit-identical to a build
    /// without the subsystem.
    pub telemetry: TelemetryOptions,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 1,
            max_events: 2_000_000_000,
            audit: true,
            faults: FaultPlan::none(),
            stall_window: Some(Dur::from_ns(1_000_000)),
            conform: ConformOptions::default(),
            telemetry: TelemetryOptions::default(),
        }
    }
}

impl RunOptions {
    /// Returns these options with the given fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> RunOptions {
        self.faults = faults;
        self
    }

    /// Returns these options with online conformance checking enabled
    /// (panic at end of a clean run if the installed checking sink saw a
    /// refinement violation).
    pub fn with_conformance(mut self) -> RunOptions {
        self.conform.online = true;
        self
    }

    /// Returns these options with the given stall-watchdog window
    /// (`None` disables the watchdog).
    pub fn with_stall_window(mut self, window: Option<Dur>) -> RunOptions {
        self.stall_window = window;
        self
    }

    /// Returns these options with time-series sampling enabled at the
    /// given sim-time period ([`RunResult::series`] carries the result).
    pub fn with_sampling(mut self, period: Dur) -> RunOptions {
        self.telemetry.sample_period = Some(period);
        self
    }

    /// Returns these options with the host-time self-profiler enabled
    /// ([`RunResult::profile`] carries the attribution report).
    pub fn with_profiling(mut self) -> RunOptions {
        self.telemetry.profile = true;
        self
    }
}

/// The unified outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// How the kernel stopped ([`RunOutcome::Idle`] is the success case).
    pub outcome: RunOutcome,
    /// Time at which the *last* processor finished its program.
    pub runtime: Dur,
    /// Events processed.
    pub events: u64,
    /// Per-tier, per-class traffic (empty for PerfectL2).
    pub traffic: Traffic,
    /// Merged counters (`l1.misses`, `l1.persistent`, ...).
    pub counters: Stats,
    /// A human-readable snapshot of the stuck system — per-processor
    /// pending operation, persistent-table state, in-flight message
    /// census — populated whenever the run did *not* end cleanly
    /// (anything but [`RunOutcome::Idle`]).
    pub diagnostic: Option<String>,
    /// The sampled time series, when [`RunOptions::with_sampling`]
    /// enabled the sim-time sampler.
    pub series: Option<TimeSeries>,
    /// The wall-clock attribution report, when
    /// [`RunOptions::with_profiling`] enabled the host-time self-profiler.
    pub profile: Option<HostProfile>,
}

impl RunResult {
    /// Runtime in nanoseconds.
    pub fn runtime_ns(&self) -> f64 {
        self.runtime.as_ns_f64()
    }

    /// Persistent requests as a fraction of L1 misses (the paper reports
    /// < 0.3 % for all commercial workloads).
    pub fn persistent_fraction(&self) -> f64 {
        let misses = self.counters.counter("l1.misses");
        if misses == 0 {
            0.0
        } else {
            self.counters.counter("l1.persistent") as f64 / misses as f64
        }
    }
}

/// Builds and runs the given protocol on the given workload.
///
/// Returns the run result and the workload (for workload-level
/// validation, e.g. mutual-exclusion bookkeeping).
///
/// # Panics
///
/// Panics if the configuration is invalid, or if `opts.audit` is set and
/// a protocol invariant is violated at quiescence.
pub fn run_workload<W: Workload + 'static>(
    cfg: &SystemConfig,
    protocol: Protocol,
    workload: W,
    opts: &RunOptions,
) -> (RunResult, W) {
    run_workload_traced(cfg, protocol, workload, opts, None)
}

/// [`run_workload`] with an optional trace sink installed into every
/// emitting component (network, L1 controllers, sequencers).
///
/// With `trace: None` this is exactly `run_workload`: no event is even
/// constructed, and results are bit-identical with tracing on or off —
/// tracing observes the simulation but never feeds back into it. When a
/// sink is installed and the run ends un-cleanly, the sink's flight-
/// recorder tail is appended to [`RunResult::diagnostic`].
pub fn run_workload_traced<W: Workload + 'static>(
    cfg: &SystemConfig,
    protocol: Protocol,
    workload: W,
    opts: &RunOptions,
    trace: Option<TraceHandle>,
) -> (RunResult, W) {
    cfg.validate().expect("invalid system configuration");
    if matches!(protocol, Protocol::Directory | Protocol::DirectoryZero) {
        // TokenCMP tolerates losing transient requests because they carry
        // no tokens and have a timeout/retry/persistent-escalation path
        // (§4). DirectoryCMP has no such recovery story for *any* message,
        // so a lossy plan is a configuration error, not an experiment.
        assert!(
            opts.faults.max_drop_rate() <= 0.0,
            "{}: FaultPlan with drop_rate {} rejected — DirectoryCMP has no \
             message-loss recovery path (jitter and reordering are allowed)",
            protocol.name(),
            opts.faults.max_drop_rate(),
        );
    }
    let wl = Rc::new(RefCell::new(workload));
    let result = run_protocol(cfg, protocol, wl.clone(), opts, trace.clone());
    let w = Rc::try_unwrap(wl)
        .ok()
        .expect("kernel leaked workload references")
        .into_inner();
    if opts.conform.online && result.outcome == RunOutcome::Idle {
        if let Some(t) = &trace {
            if let Some(Err(report)) = t.borrow().conformance() {
                panic!("refinement violation (protocol {protocol}):\n{report}");
            }
        }
    }
    (result, w)
}

/// Runs `protocol` on `cfg`. Kept apart from the workload-generic
/// [`run_workload_traced`] so that the harness is compiled once per
/// node-set type, not once per workload type.
fn run_protocol(
    cfg: &SystemConfig,
    protocol: Protocol,
    wl: Rc<RefCell<dyn Workload>>,
    opts: &RunOptions,
    trace: Option<TraceHandle>,
) -> RunResult {
    let cfg = Rc::new(cfg.clone());
    match protocol {
        Protocol::Token(v) => run(&cfg, opts, trace, |s| token::build(&cfg, v, &wl, opts, s)),
        Protocol::Directory | Protocol::DirectoryZero => run(&cfg, opts, trace, |s| {
            let zero_cycle = protocol == Protocol::DirectoryZero;
            directory::build(&cfg, zero_cycle, &wl, s)
        }),
        Protocol::PerfectL2 => run(&cfg, opts, trace, |s| PerfectNodes::build(&cfg, &wl, s)),
    }
}

/// The one run harness: builds the system `build` returns (given the
/// run's trace sink) around the run's transport, profiler, sampler and
/// trace sink, drives it until every processor finishes, and diagnoses,
/// harvests and audits it through its [`System`] passes.
fn run<S: System>(
    cfg: &SystemConfig,
    opts: &RunOptions,
    trace: Option<TraceHandle>,
    build: impl FnOnce(Option<&TraceHandle>) -> S,
) -> RunResult {
    let layout = cfg.layout();
    // With both a host profiler and a trace sink, a `ProfiledSink`
    // interposes so sink time is attributed; it forwards flight dumps
    // and conformance verdicts, so callers holding the original handle
    // are unaffected.
    let profiler = opts
        .telemetry
        .profile
        .then(|| HostProfiler::handle(opts.telemetry.profile_stride));
    let trace = match (&profiler, trace) {
        (Some(p), Some(t)) => Some(ProfiledSink::wrap(t, p.clone()) as TraceHandle),
        (_, t) => t,
    };
    let (transport, traffic, faults): (Box<dyn Transport<S::Msg>>, _, _) = if S::NETWORKED {
        let mut net = Network::with_faults(cfg, opts.faults, opts.seed);
        if let Some(t) = &trace {
            net.set_trace(t.clone());
        }
        let (traffic, faults) = (net.traffic_handle(), net.fault_handle());
        (Box::new(net), Some(traffic), faults)
    } else {
        let instant = InstantTransport { latency: Dur::ZERO };
        (Box::new(instant), None, None)
    };
    let mut k = Kernel::new(transport, build(trace.as_ref()));
    if let Some(p) = &profiler {
        k.set_profiler(p.clone());
    }
    let sampler = opts.telemetry.sample_period.map(|period| {
        let tiers = S::NETWORKED.then_some(layout);
        let s = Rc::new(RefCell::new(Sampler::new(period, tiers, faults.clone())));
        k.set_monitor(period, s.clone());
        s
    });

    for p in layout.proc_ids() {
        k.wake(layout.proc(p), Dur::ZERO, 0);
    }
    let outcome = k.run_watched(opts.max_events, opts.stall_window);
    let mut diagnostic = diagnose(&k, outcome);
    let (mut runtime, mut done) = (Dur::ZERO, 0);
    for (p, seq) in layout.proc_ids().zip(k.nodes().seqs()) {
        match seq.done_at {
            Some(t) => {
                runtime = runtime.max(t.since(Time::ZERO));
                done += 1;
            }
            None => assert_ne!(
                outcome,
                RunOutcome::Idle,
                "kernel went idle with processor {p:?} unfinished (protocol deadlock)"
            ),
        }
    }
    let series = sampler.map(|s| s.borrow().series().clone());
    if let Some(d) = diagnostic.as_mut() {
        // The sink's flight-recorder tail, the protocol's own lines, and
        // the last samples of the time series: the gauges just before a
        // stall are usually the story.
        if let Some(dump) = trace.as_ref().and_then(|t| t.borrow().flight_dump()) {
            d.push_str(&dump);
        }
        k.nodes().snapshot(d);
        if let Some(s) = series.as_ref().filter(|s| !s.is_empty()) {
            d.push_str(&s.tail_table(8));
        }
    }

    let mut counters = Stats::new();
    if done > 0 {
        counters.add("procs.done", done);
    }
    k.nodes().harvest(&mut counters);
    export_fault_counters(&mut counters, faults.as_ref());
    if opts.audit && outcome == RunOutcome::Idle {
        k.nodes().audit(faults.as_ref());
    }
    RunResult {
        outcome,
        runtime,
        events: k.events_processed(),
        traffic: traffic.map(|t| t.borrow().clone()).unwrap_or_default(),
        counters,
        diagnostic,
        series,
        profile: profiler.map(|p| p.borrow().report()),
    }
}

/// Builds the watchdog diagnostic snapshot for a run that did not end
/// cleanly: kernel progress state, each processor's pending operation,
/// and a census of in-flight messages by class.
fn diagnose<S: System>(kernel: &Kernel<S::Msg, S>, outcome: RunOutcome) -> Option<String> {
    if outcome == RunOutcome::Idle {
        return None;
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "watchdog diagnostic: {outcome:?} at {} after {} events (last progress at {})",
        kernel.now(),
        kernel.events_processed(),
        kernel.last_progress(),
    );
    for seq in kernel.nodes().seqs() {
        let _ = writeln!(s, "  {seq:?}");
    }
    let mut wakes = 0u64;
    let mut by_class = [0u64; 7];
    // The census is (time, seq)-sorted, so this count — and any future
    // per-event dump — does not depend on the queue's layout.
    for ev in kernel.pending_events() {
        match &ev.kind {
            EventKind::Wake { .. } => wakes += 1,
            EventKind::Msg { msg, .. } => by_class[msg.class().index()] += 1,
        }
    }
    let _ = writeln!(s, "  in flight: {wakes} wakeups");
    for c in MsgClass::ALL {
        if by_class[c.index()] > 0 {
            let _ = writeln!(s, "  in flight: {} \u{d7} {c}", by_class[c.index()]);
        }
    }
    Some(s)
}

/// Exports fault counters into the run's counter registry: the aggregate
/// `net.fault.{dropped,jittered,reordered}` keys, a per-class breakout
/// (`net.fault.dropped.<class>` etc., written only for classes actually
/// hit), and the total tokens destroyed in flight. Only fault-injecting
/// runs carry a handle, so a no-op plan leaves the counter listing
/// bit-identical to a fault-free run.
fn export_fault_counters(counters: &mut Stats, faults: Option<&FaultHandle>) {
    let Some(h) = faults else {
        return;
    };
    let f = h.borrow();
    counters.add("net.fault.dropped", f.dropped_total());
    counters.add("net.fault.jittered", f.jittered_total());
    counters.add("net.fault.reordered", f.reordered_total());
    for c in MsgClass::ALL {
        let i = c.index();
        for (name, v) in [
            ("dropped", f.dropped[i]),
            ("jittered", f.jittered[i]),
            ("reordered", f.reordered[i]),
        ] {
            if v > 0 {
                counters.add(&format!("net.fault.{name}.{}", c.key()), v);
            }
        }
    }
    let (lost, lost_owners) = f.lost_tokens.values().fold((0u64, 0u64), |(t, o), l| {
        (t + l.count as u64, o + l.owners as u64)
    });
    if lost > 0 {
        counters.add("net.fault.lost_tokens", lost);
        counters.add("net.fault.lost_owners", lost_owners);
    }
}
