//! System assembly and the measurement harness.
//!
//! [`run_workload`] builds a full M-CMP system for any [`Protocol`], drives
//! it with a [`Workload`] until every processor finishes and the event
//! queue drains, audits protocol invariants at quiescence, and returns a
//! unified [`RunResult`] the benchmark harnesses consume.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use tokencmp_core::{
    PersistentBook, RecoveryParams, TokenL1, TokenL2, TokenMem, TokenMsg, Variant,
};
use tokencmp_directory::{ChipRights, DirHome, DirL1, DirL2, DirMsg, L1State};
use tokencmp_net::{FaultHandle, FaultPlan, Network, Traffic, TrafficHandle};
use tokencmp_proto::{Block, CpuPort, Layout, MsgClass, NetMsg, SystemConfig, Unit};
use tokencmp_sim::kernel::RunOutcome;
use tokencmp_sim::{
    Dur, EventKind, HostProfiler, InstantTransport, Kernel, NodeId, ProfilerHandle, Stats, Time,
};
use tokencmp_trace::{HostProfile, LatencyBreakdown, ProfiledSink, TimeSeries, TraceHandle};

use crate::perfect::PerfectL2;
use crate::sequencer::Sequencer;
use crate::telemetry::{
    default_telemetry, DirSampler, PerfectSampler, TelemetryOptions, TokenSampler,
};
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
    /// Simulated-time horizon.
    pub horizon: Time,
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
    /// modeled workloads; the `TOKENCMP_STALL_NS` environment variable
    /// overrides it (see [`parse_stall_ns`]).
    pub stall_window: Option<Dur>,
    /// Online refinement checking against the verified mcheck models.
    pub conform: ConformOptions,
    /// Time-series sampling and host-time profiling knobs. Both default
    /// to off (the `TOKENCMP_SAMPLE_NS` / `TOKENCMP_PROFILE` environment
    /// variables override, see [`crate::telemetry`]); a run with
    /// telemetry off is bit-identical to a build without the subsystem.
    pub telemetry: TelemetryOptions,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 1,
            max_events: 2_000_000_000,
            horizon: Time::MAX,
            audit: true,
            faults: FaultPlan::none(),
            stall_window: default_stall_window(),
            conform: ConformOptions::default(),
            telemetry: default_telemetry(),
        }
    }
}

/// Parses a `TOKENCMP_STALL_NS` value: the stall-watchdog window in
/// nanoseconds of simulated time, `0` to disable the watchdog entirely.
/// `Ok(None)` means the variable is unset (use the built-in default).
/// Separated from [`default_stall_window`] so malformed inputs are
/// unit-testable without exercising a panic.
pub fn parse_stall_ns(var: Option<&str>) -> Result<Option<Option<Dur>>, String> {
    let Some(raw) = var else {
        return Ok(None);
    };
    let v = raw.trim();
    if v.is_empty() {
        return Err(
            "TOKENCMP_STALL_NS is set but empty; unset it, give a window in \
             nanoseconds, or give 0 to disable the watchdog"
                .into(),
        );
    }
    match v.parse::<u64>() {
        Ok(0) => Ok(Some(None)),
        Ok(ns) => Ok(Some(Some(Dur::from_ns(ns)))),
        Err(_) => Err(format!(
            "TOKENCMP_STALL_NS: `{raw}` is not a non-negative integer nanosecond count"
        )),
    }
}

/// The stall-watchdog window [`RunOptions::default`] uses: the
/// `TOKENCMP_STALL_NS` override when set (longer windows let extreme
/// token-loss experiments ride out long recovery backoffs; `0` disables
/// the watchdog), else 1 ms of simulated time. Malformed values abort
/// immediately — a typo must not silently run with the default window.
pub fn default_stall_window() -> Option<Dur> {
    match parse_stall_ns(std::env::var("TOKENCMP_STALL_NS").ok().as_deref()) {
        Ok(Some(w)) => w,
        Ok(None) => Some(Dur::from_ns(1_000_000)),
        Err(msg) => panic!("{msg}"),
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
    /// (anything but [`RunOutcome::Idle`] / [`RunOutcome::Stopped`]).
    pub diagnostic: Option<String>,
    /// The sampled time series, when [`RunOptions::with_sampling`] (or
    /// `TOKENCMP_SAMPLE_NS`) enabled the sim-time sampler.
    pub series: Option<TimeSeries>,
    /// The wall-clock attribution report, when
    /// [`RunOptions::with_profiling`] (or `TOKENCMP_PROFILE`) enabled
    /// the host-time self-profiler.
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
    let cfg = Rc::new(cfg.clone());
    let wl = Rc::new(RefCell::new(workload));
    let result = match protocol {
        Protocol::Token(v) => run_token(&cfg, v, wl.clone(), opts, trace.clone()),
        Protocol::Directory => run_directory(&cfg, wl.clone(), opts, false, trace.clone()),
        Protocol::DirectoryZero => run_directory(&cfg, wl.clone(), opts, true, trace.clone()),
        Protocol::PerfectL2 => run_perfect(&cfg, wl.clone(), opts, trace.clone()),
    };
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

fn finish<M: Clone + 'static>(
    kernel: &Kernel<M>,
    outcome: RunOutcome,
    runtime: Dur,
    traffic: Option<&TrafficHandle>,
    counters: Stats,
    diagnostic: Option<String>,
) -> RunResult {
    RunResult {
        outcome,
        runtime,
        events: kernel.events_processed(),
        traffic: traffic.map(|t| t.borrow().clone()).unwrap_or_default(),
        counters,
        diagnostic,
        series: None,
        profile: None,
    }
}

/// Creates the run's host profiler (when enabled) and, when both a
/// profiler and a trace sink are present, interposes a [`ProfiledSink`]
/// so sink time is attributed; the wrapped handle forwards flight dumps
/// and conformance verdicts, so callers holding the original handle are
/// unaffected.
fn profiled_trace(
    opts: &RunOptions,
    trace: &Option<TraceHandle>,
) -> (Option<ProfilerHandle>, Option<TraceHandle>) {
    let profiler = opts
        .telemetry
        .profile
        .then(|| HostProfiler::handle(opts.telemetry.profile_stride));
    let sink = match (&profiler, trace) {
        (Some(p), Some(t)) => {
            let wrapped: TraceHandle = ProfiledSink::wrap(t.clone(), p.clone());
            Some(wrapped)
        }
        _ => trace.clone(),
    };
    (profiler, sink)
}

/// Satellite diagnostics: a stalled or limit-hit run with the sampler on
/// appends the tail of the time series to the watchdog snapshot — the
/// last gauge samples before the stall are usually the story.
fn append_series_tail(diagnostic: &mut Option<String>, series: Option<&TimeSeries>) {
    if let (Some(d), Some(s)) = (diagnostic.as_mut(), series) {
        if !s.is_empty() {
            d.push_str(&s.tail_table(8));
        }
    }
}

/// Appends the sink's flight-recorder tail (the last N trace events) to
/// an un-clean run's diagnostic snapshot.
fn append_flight_dump(diagnostic: &mut Option<String>, trace: &Option<TraceHandle>) {
    if let (Some(d), Some(t)) = (diagnostic.as_mut(), trace) {
        if let Some(dump) = t.borrow().flight_dump() {
            d.push_str(&dump);
        }
    }
}

/// Builds the watchdog diagnostic snapshot for a run that did not end
/// cleanly: kernel progress state, each processor's pending operation,
/// and a census of in-flight messages by class.
fn diagnose<M: CpuPort + NetMsg + Clone + 'static>(
    kernel: &Kernel<M>,
    layout: &Layout,
    outcome: RunOutcome,
) -> Option<String> {
    use std::fmt::Write as _;
    if matches!(outcome, RunOutcome::Idle | RunOutcome::Stopped) {
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
    for p in layout.proc_ids() {
        let seq = kernel
            .component_as::<Sequencer<M>>(layout.proc(p))
            .expect("sequencer type");
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

/// Drives the kernel and computes the last-processor-done time, plus a
/// diagnostic snapshot if the run did not end cleanly.
fn drive<M: CpuPort + NetMsg + Clone + 'static>(
    kernel: &mut Kernel<M>,
    layout: &Layout,
    opts: &RunOptions,
) -> (RunOutcome, Dur, Option<String>) {
    for p in layout.proc_ids() {
        kernel.wake(layout.proc(p), Dur::ZERO, 0);
    }
    let outcome = kernel.run_watched(opts.max_events, opts.horizon, opts.stall_window);
    let diagnostic = diagnose(kernel, layout, outcome);
    let mut runtime = Dur::ZERO;
    for p in layout.proc_ids() {
        let seq = kernel
            .component_as::<Sequencer<M>>(layout.proc(p))
            .expect("sequencer type");
        match seq.done_at {
            Some(t) => runtime = runtime.max(t.since(Time::ZERO)),
            None => {
                assert_ne!(
                    outcome,
                    RunOutcome::Idle,
                    "kernel went idle with processor {p:?} unfinished (protocol deadlock)"
                );
            }
        }
    }
    (outcome, runtime, diagnostic)
}

// ---- TokenCMP -------------------------------------------------------------------

fn run_token(
    cfg: &Rc<SystemConfig>,
    variant: Variant,
    wl: Rc<RefCell<dyn Workload>>,
    opts: &RunOptions,
    trace: Option<TraceHandle>,
) -> RunResult {
    let layout = cfg.layout();
    let (profiler, trace) = profiled_trace(opts, &trace);
    let mut net = Network::with_faults(cfg, opts.faults, opts.seed);
    if let Some(t) = &trace {
        net.set_trace(t.clone());
    }
    let traffic = net.traffic_handle();
    let faults = net.fault_handle();
    let mut k: Kernel<TokenMsg> = Kernel::new(Box::new(net));
    if let Some(p) = &profiler {
        k.set_profiler(p.clone());
    }
    let sampler = opts.telemetry.sample_period.map(|period| {
        let s = Rc::new(RefCell::new(TokenSampler::new(
            cfg.clone(),
            period,
            faults.clone(),
        )));
        k.set_monitor(period, s.clone());
        s
    });
    for p in layout.proc_ids() {
        let id = k.add_component(Sequencer::<TokenMsg>::new(
            p,
            layout.l1d(p),
            layout.l1i(p),
            wl.clone(),
        ));
        assert_eq!(id, layout.proc(p));
    }
    // Each processor's L1-D and L1-I share one persistent-request epoch
    // counter (they issue under a single processor identity), and every
    // coherence node keeps its distributed table in one shared book.
    let epochs: Vec<Rc<std::cell::Cell<u64>>> = layout
        .proc_ids()
        .map(|_| Rc::new(std::cell::Cell::new(0)))
        .collect();
    let book = Rc::new(RefCell::new(PersistentBook::new(&layout)));
    for p in layout.proc_ids() {
        let me = layout.l1d(p);
        let id = k.add_component(TokenL1::new(
            cfg.clone(),
            me,
            p,
            variant,
            opts.seed,
            epochs[p.0 as usize].clone(),
            book.clone(),
        ));
        assert_eq!(id, me);
    }
    for p in layout.proc_ids() {
        let me = layout.l1i(p);
        let id = k.add_component(TokenL1::new(
            cfg.clone(),
            me,
            p,
            variant,
            opts.seed ^ 0xF00D,
            epochs[p.0 as usize].clone(),
            book.clone(),
        ));
        assert_eq!(id, me);
    }
    for c in layout.cmp_ids() {
        for b in 0..layout.banks_per_cmp {
            let me = layout.l2(c, b);
            let id = k.add_component(TokenL2::new(cfg.clone(), me, c, b, variant, book.clone()));
            assert_eq!(id, me);
        }
    }
    for c in layout.cmp_ids() {
        let me = layout.mem(c);
        let id = k.add_component(TokenMem::new(cfg.clone(), me, c, book.clone()));
        assert_eq!(id, me);
    }
    // Token-loss recovery (§15) is armed only when the fault plan can
    // actually drop token-carrying messages: a lossless run schedules no
    // recovery timers and stays bit-identical to a build without the
    // recovery subsystem. The drain window extends the configured base
    // by the plan's worst extra in-flight delay so every stale bundle
    // has landed before the remint.
    if opts.faults.drops_tokens() {
        let recovery = RecoveryParams {
            base: cfg.recreation_timeout,
            cap: cfg.recreation_backoff_cap,
            drain: cfg.recreation_drain + opts.faults.max_extra_delay(),
        };
        for p in layout.proc_ids() {
            for node in [layout.l1d(p), layout.l1i(p)] {
                k.component_as_mut::<TokenL1>(node)
                    .unwrap()
                    .set_recovery(recovery);
            }
        }
        for c in layout.cmp_ids() {
            k.component_as_mut::<TokenMem>(layout.mem(c))
                .unwrap()
                .set_recovery(recovery);
        }
    }
    if let Some(t) = &trace {
        for p in layout.proc_ids() {
            k.component_as_mut::<Sequencer<TokenMsg>>(layout.proc(p))
                .unwrap()
                .set_trace(t.clone());
            for node in [layout.l1d(p), layout.l1i(p)] {
                k.component_as_mut::<TokenL1>(node)
                    .unwrap()
                    .set_trace(t.clone());
            }
        }
        for c in layout.cmp_ids() {
            for b in 0..layout.banks_per_cmp {
                k.component_as_mut::<TokenL2>(layout.l2(c, b))
                    .unwrap()
                    .set_trace(t.clone());
            }
            k.component_as_mut::<TokenMem>(layout.mem(c))
                .unwrap()
                .set_trace(t.clone());
        }
    }

    let (outcome, runtime, mut diagnostic) = drive(&mut k, &layout, opts);
    append_flight_dump(&mut diagnostic, &trace);
    if let Some(d) = diagnostic.as_mut() {
        use std::fmt::Write as _;
        for p in layout.proc_ids() {
            for node in [layout.l1d(p), layout.l1i(p)] {
                let l1 = k.component_as::<TokenL1>(node).unwrap();
                if let Some(line) = l1.pending_snapshot() {
                    let _ = writeln!(d, "  {:?} ({node:?}): {line}", layout.unit(node));
                }
            }
        }
    }
    let series = sampler.map(|s| s.borrow().series().clone());
    append_series_tail(&mut diagnostic, series.as_ref());

    // Harvest counters.
    let mut counters = k.stats().clone();
    let mut lat = LatencyBreakdown::new();
    for p in layout.proc_ids() {
        for node in [layout.l1d(p), layout.l1i(p)] {
            let l1 = k.component_as::<TokenL1>(node).unwrap();
            counters.add("l1.hits", l1.stats.hits);
            counters.add("l1.misses", l1.stats.misses);
            counters.add("l1.transient", l1.stats.transient_issued);
            counters.add("l1.retries", l1.stats.retries);
            counters.add("l1.persistent", l1.stats.persistent_issued);
            counters.add("l1.persistent_reads", l1.stats.persistent_reads);
            counters.add("l1.pred_shortcuts", l1.stats.predictor_shortcuts);
            if l1.stats.recreation_requests > 0 {
                counters.add("l1.recreation_requests", l1.stats.recreation_requests);
            }
            lat.merge(&l1.stats.lat);
        }
    }
    counters.add("l1.miss_latency_ps_sum", lat.total().sum() as u64);
    lat.export_into(&mut counters);
    for c in layout.cmp_ids() {
        for b in 0..layout.banks_per_cmp {
            let l2 = k.component_as::<TokenL2>(layout.l2(c, b)).unwrap();
            counters.add("l2.local_requests", l2.stats.local_requests);
            counters.add("l2.external_broadcasts", l2.stats.external_broadcasts);
            counters.add("l2.external_requests", l2.stats.external_requests);
            counters.add("l2.filtered", l2.stats.filtered);
            counters.add("l2.fanout", l2.stats.forwarded_to_l1);
        }
        let m = k.component_as::<TokenMem>(layout.mem(c)).unwrap();
        counters.add("mem.data_responses", m.stats.data_responses);
        counters.add("mem.writebacks", m.stats.writebacks);
        counters.add("mem.arb_activations", m.stats.arb_activations);
        if m.stats.recreations > 0 {
            counters.add("mem.recreations", m.stats.recreations);
        }
    }

    export_fault_counters(&mut counters, &faults);

    if opts.audit && outcome == RunOutcome::Idle {
        audit_tokens(&k, cfg, &layout, &faults);
    }
    let mut result = finish(&k, outcome, runtime, Some(&traffic), counters, diagnostic);
    result.series = series;
    result.profile = profiler.map(|p| p.borrow().report());
    result
}

/// Exports fault counters into the run's counter registry: the aggregate
/// `net.fault.{dropped,jittered,reordered}` keys, a per-class breakout
/// (`net.fault.dropped.<class>` etc., written only for classes actually
/// hit), and the total tokens destroyed in flight. Only fault-injecting
/// runs carry a handle, so a no-op plan leaves the counter listing
/// bit-identical to a fault-free run.
fn export_fault_counters(counters: &mut Stats, faults: &Option<FaultHandle>) {
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

/// Token conservation at quiescence: every touched block holds exactly
/// `T` tokens and exactly one owner token across all caches and its home
/// memory controller (§3.1's safety invariant, checked globally).
///
/// Under a token-lossy fault plan the invariant is *conservation per
/// recreation epoch*: held tokens plus tokens the interconnect recorded
/// as destroyed **under the block's current serial** must equal `T`
/// (tokens lost under superseded serials were reminted wholesale by a
/// recreation and do not count). A recreation can never be mid-flight
/// here — its pending ack or drain wake would have kept the kernel from
/// going idle — and that is asserted too.
fn audit_tokens(
    k: &Kernel<TokenMsg>,
    cfg: &SystemConfig,
    layout: &Layout,
    faults: &Option<FaultHandle>,
) {
    let mut tokens: HashMap<Block, (u32, u32)> = HashMap::new();
    let mut fold = |census: Vec<(Block, u32, bool)>| {
        for (b, t, o) in census {
            let e = tokens.entry(b).or_insert((0, 0));
            e.0 += t;
            e.1 += o as u32;
        }
    };
    for node in layout.all_caches() {
        match layout.unit(node) {
            Unit::L1D(_) | Unit::L1I(_) => {
                fold(k.component_as::<TokenL1>(node).unwrap().token_census())
            }
            Unit::L2Bank(..) => fold(k.component_as::<TokenL2>(node).unwrap().token_census()),
            _ => unreachable!(),
        }
    }
    for c in layout.cmp_ids() {
        let m = k.component_as::<TokenMem>(layout.mem(c)).unwrap();
        assert!(
            !m.recreation_in_progress(),
            "kernel idle with a token recreation in progress at {c:?}"
        );
        fold(m.explicit_census());
    }
    for (b, (mut t, mut o)) in tokens {
        if let Some(h) = faults {
            let home = k
                .component_as::<TokenMem>(layout.mem(cfg.home_of(b)))
                .unwrap();
            let lost = h.borrow().lost(b.0, home.serial_of(b));
            t += lost.count;
            o += lost.owners;
        }
        assert_eq!(
            t, cfg.tokens_per_block,
            "token conservation violated for {b:?}: {t} tokens"
        );
        assert_eq!(o, 1, "owner token count for {b:?} is {o}");
    }
}

// ---- DirectoryCMP ----------------------------------------------------------------

fn run_directory(
    cfg: &Rc<SystemConfig>,
    wl: Rc<RefCell<dyn Workload>>,
    opts: &RunOptions,
    zero_cycle: bool,
    trace: Option<TraceHandle>,
) -> RunResult {
    let mut cfg2 = (**cfg).clone();
    if zero_cycle {
        cfg2.dir_access_latency = Dur::ZERO;
    }
    let cfg = Rc::new(cfg2);
    let layout = cfg.layout();
    let (profiler, trace) = profiled_trace(opts, &trace);
    let mut net = Network::with_faults(&cfg, opts.faults, opts.seed);
    if let Some(t) = &trace {
        net.set_trace(t.clone());
    }
    let traffic = net.traffic_handle();
    let faults = net.fault_handle();
    let mut k: Kernel<DirMsg> = Kernel::new(Box::new(net));
    if let Some(p) = &profiler {
        k.set_profiler(p.clone());
    }
    let sampler = opts.telemetry.sample_period.map(|period| {
        let s = Rc::new(RefCell::new(DirSampler::new(&cfg, period, faults.clone())));
        k.set_monitor(period, s.clone());
        s
    });
    for p in layout.proc_ids() {
        let id = k.add_component(Sequencer::<DirMsg>::new(
            p,
            layout.l1d(p),
            layout.l1i(p),
            wl.clone(),
        ));
        assert_eq!(id, layout.proc(p));
    }
    for p in layout.proc_ids() {
        let me = layout.l1d(p);
        assert_eq!(k.add_component(DirL1::new(cfg.clone(), me, p)), me);
    }
    for p in layout.proc_ids() {
        let me = layout.l1i(p);
        assert_eq!(k.add_component(DirL1::new(cfg.clone(), me, p)), me);
    }
    for c in layout.cmp_ids() {
        for b in 0..layout.banks_per_cmp {
            let me = layout.l2(c, b);
            assert_eq!(k.add_component(DirL2::new(cfg.clone(), me, c, b)), me);
        }
    }
    for c in layout.cmp_ids() {
        let me = layout.mem(c);
        assert_eq!(k.add_component(DirHome::new(cfg.clone(), me, c)), me);
    }
    if let Some(t) = &trace {
        for p in layout.proc_ids() {
            k.component_as_mut::<Sequencer<DirMsg>>(layout.proc(p))
                .unwrap()
                .set_trace(t.clone());
            for node in [layout.l1d(p), layout.l1i(p)] {
                k.component_as_mut::<DirL1>(node)
                    .unwrap()
                    .set_trace(t.clone());
            }
        }
    }

    let (outcome, runtime, mut diagnostic) = drive(&mut k, &layout, opts);
    append_flight_dump(&mut diagnostic, &trace);
    let series = sampler.map(|s| s.borrow().series().clone());
    append_series_tail(&mut diagnostic, series.as_ref());

    let mut counters = k.stats().clone();
    let mut lat = LatencyBreakdown::new();
    for p in layout.proc_ids() {
        for node in [layout.l1d(p), layout.l1i(p)] {
            let l1 = k.component_as::<DirL1>(node).unwrap();
            counters.add("l1.hits", l1.stats.hits);
            counters.add("l1.misses", l1.stats.misses);
            counters.add("l1.writebacks", l1.stats.writebacks);
            lat.merge(&l1.stats.lat);
        }
    }
    counters.add("l1.miss_latency_ps_sum", lat.total().sum() as u64);
    lat.export_into(&mut counters);
    for c in layout.cmp_ids() {
        for b in 0..layout.banks_per_cmp {
            let l2 = k.component_as::<DirL2>(layout.l2(c, b)).unwrap();
            counters.add("l2.local_requests", l2.stats.local_requests);
            counters.add("l2.remote_requests", l2.stats.remote_requests);
            counters.add("l2.local_satisfied", l2.stats.local_satisfied);
            counters.add("l2.evictions", l2.stats.evictions);
        }
        let h = k.component_as::<DirHome>(layout.mem(c)).unwrap();
        counters.add("home.requests", h.stats.requests);
        counters.add("home.forwarded", h.stats.forwarded);
        counters.add("home.from_memory", h.stats.from_memory);
        counters.add("home.writebacks", h.stats.writebacks);
    }

    export_fault_counters(&mut counters, &faults);

    if opts.audit && outcome == RunOutcome::Idle {
        audit_directory(&k, &layout);
    }
    let mut result = finish(&k, outcome, runtime, Some(&traffic), counters, diagnostic);
    result.series = series;
    result.profile = profiler.map(|p| p.borrow().report());
    result
}

/// Directory consistency at quiescence: per block, at most one L1 in M/E
/// globally, and M/E implies no other L1 holds the block at all (the
/// single-writer / multiple-reader invariant).
fn audit_directory(k: &Kernel<DirMsg>, layout: &Layout) {
    let mut holders: HashMap<Block, (u32, u32)> = HashMap::new(); // (excl, shared)
    for p in layout.proc_ids() {
        for node in [layout.l1d(p), layout.l1i(p)] {
            let l1 = k.component_as::<DirL1>(node).unwrap();
            for (b, s) in l1.lines() {
                let e = holders.entry(b).or_insert((0, 0));
                match s {
                    L1State::M | L1State::E => e.0 += 1,
                    L1State::S => e.1 += 1,
                }
            }
        }
    }
    for (b, (excl, shared)) in holders {
        let dump = |b: Block| {
            for p in layout.proc_ids() {
                for node in [layout.l1d(p), layout.l1i(p)] {
                    let l1 = k.component_as::<DirL1>(node).unwrap();
                    for (lb, s) in l1.lines() {
                        if lb == b {
                            eprintln!("  {:?} {node:?}: {s:?}", layout.unit(node));
                        }
                    }
                }
            }
            for c in layout.cmp_ids() {
                for bnk in 0..layout.banks_per_cmp {
                    let l2 = k.component_as::<DirL2>(layout.l2(c, bnk)).unwrap();
                    if let Some(e) = l2.debug_entry(b) {
                        eprintln!("  L2 {c:?}/{bnk}: {e}");
                    }
                }
                let h = k.component_as::<DirHome>(layout.mem(c)).unwrap();
                eprintln!("  home {c:?}: {:?}", h.state(b));
            }
        };
        if excl > 1 || (excl >= 1 && shared > 0) {
            eprintln!("audit violation for {b:?}:");
            dump(b);
        }
        assert!(excl <= 1, "{b:?}: {excl} exclusive L1 copies");
        assert!(
            excl == 0 || shared == 0,
            "{b:?}: exclusive copy coexists with {shared} shared copies"
        );
    }
    // Chip-level: at most one chip with E rights per block.
    let mut chips: HashMap<Block, u32> = HashMap::new();
    for c in layout.cmp_ids() {
        for bnk in 0..layout.banks_per_cmp {
            let l2 = k.component_as::<DirL2>(layout.l2(c, bnk)).unwrap();
            for (b, r) in l2.rights() {
                if r == ChipRights::E {
                    *chips.entry(b).or_insert(0) += 1;
                }
            }
        }
    }
    for (b, n) in chips {
        assert!(n <= 1, "{b:?}: {n} chips with exclusive rights");
    }
}

// ---- PerfectL2 --------------------------------------------------------------------

fn run_perfect(
    cfg: &Rc<SystemConfig>,
    wl: Rc<RefCell<dyn Workload>>,
    opts: &RunOptions,
    trace: Option<TraceHandle>,
) -> RunResult {
    let layout = cfg.layout();
    let (profiler, trace) = profiled_trace(opts, &trace);
    let mut k: Kernel<TokenMsg> = Kernel::new(Box::new(InstantTransport { latency: Dur::ZERO }));
    let magic = NodeId(layout.procs());
    if let Some(p) = &profiler {
        k.set_profiler(p.clone());
    }
    let sampler = opts.telemetry.sample_period.map(|period| {
        let s = Rc::new(RefCell::new(PerfectSampler::new(period, magic)));
        k.set_monitor(period, s.clone());
        s
    });
    let mut seqs = Vec::new();
    for p in layout.proc_ids() {
        let id = k.add_component(Sequencer::<TokenMsg>::new(p, magic, magic, wl.clone()));
        seqs.push(id);
    }
    let id = k.add_component(PerfectL2::<TokenMsg>::new(cfg.clone(), seqs.clone()));
    assert_eq!(id, magic);
    if let Some(t) = &trace {
        for &s in &seqs {
            k.component_as_mut::<Sequencer<TokenMsg>>(s)
                .unwrap()
                .set_trace(t.clone());
        }
    }

    for &s in &seqs {
        k.wake(s, Dur::ZERO, 0);
    }
    let outcome = k.run_watched(opts.max_events, opts.horizon, opts.stall_window);
    let mut diagnostic = diagnose(&k, &layout, outcome);
    append_flight_dump(&mut diagnostic, &trace);
    let series = sampler.map(|s| s.borrow().series().clone());
    append_series_tail(&mut diagnostic, series.as_ref());
    let mut runtime = Dur::ZERO;
    for &s in &seqs {
        let seq = k.component_as::<Sequencer<TokenMsg>>(s).unwrap();
        match seq.done_at {
            Some(t) => runtime = runtime.max(t.since(Time::ZERO)),
            None => assert_ne!(outcome, RunOutcome::Idle, "PerfectL2 deadlock"),
        }
    }
    let mut counters = k.stats().clone();
    let m = k.component_as::<PerfectL2<TokenMsg>>(magic).unwrap();
    counters.add("l1.hits", m.stats.hits);
    counters.add("l1.misses", m.stats.misses);
    let mut result = finish(&k, outcome, runtime, None, counters, diagnostic);
    result.series = series;
    result.profile = profiler.map(|p| p.borrow().report());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_ns_unset_defers_to_the_default() {
        assert_eq!(parse_stall_ns(None), Ok(None));
    }

    #[test]
    fn stall_ns_zero_disables_the_watchdog() {
        assert_eq!(parse_stall_ns(Some("0")), Ok(Some(None)));
    }

    #[test]
    fn stall_ns_parses_a_window() {
        assert_eq!(
            parse_stall_ns(Some(" 2500 ")),
            Ok(Some(Some(Dur::from_ns(2_500))))
        );
    }

    #[test]
    fn stall_ns_rejects_empty_and_malformed_values() {
        assert!(parse_stall_ns(Some("")).is_err());
        assert!(parse_stall_ns(Some("  ")).is_err());
        assert!(parse_stall_ns(Some("fast")).is_err());
        assert!(parse_stall_ns(Some("-5")).is_err());
        assert!(parse_stall_ns(Some("1e6")).is_err());
    }
}
