//! Run telemetry: options, env knobs, and the per-protocol samplers.
//!
//! The sampler side of the two-clock telemetry model (DESIGN.md §16):
//! a [`KernelMonitor`] installed into the kernel snapshots system state
//! on a fixed *simulated-time* period into a
//! [`TimeSeries`](tokencmp_trace::TimeSeries) — queue depth, in-flight
//! messages per tier × class, token dispersion, persistent-table
//! pressure and starvation age, cache occupancy, recreation activity,
//! and windowed counter rates. The host-clock side (the
//! [`HostProfiler`](tokencmp_trace::HostProfiler)) is wired directly by
//! the run harness; this module only carries its knobs.
//!
//! Everything here observes the simulation through `&Kernel` and shared
//! read handles — a sampled run is bit-identical to an unsampled one
//! (enforced by `tests/telemetry.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use tokencmp_core::{TokenL1, TokenL2, TokenMem, TokenMsg};
use tokencmp_directory::{DirL1, DirL2, DirMsg};
use tokencmp_net::{tier_between, FaultHandle, Tier};
use tokencmp_proto::{Layout, NetMsg, SystemConfig};
use tokencmp_sim::{Dur, EventKind, Kernel, KernelMonitor, Time};
use tokencmp_trace::timeseries::keys;
use tokencmp_trace::TimeSeries;

use crate::perfect::PerfectL2;
use tokencmp_sim::NodeId;

/// Telemetry knobs carried by `RunOptions`. Both facilities default to
/// off and are zero-cost when off.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryOptions {
    /// Sim-time sampling period for the gauge sampler; `None` (default)
    /// installs no monitor.
    pub sample_period: Option<Dur>,
    /// Enable the host-time self-profiler.
    pub profile: bool,
    /// Profiler sampling stride (time one kernel event in `stride`);
    /// clamped to ≥ 1. See `HostProfiler::DEFAULT_STRIDE`.
    pub profile_stride: u32,
}

impl Default for TelemetryOptions {
    fn default() -> Self {
        TelemetryOptions {
            sample_period: None,
            profile: false,
            profile_stride: tokencmp_sim::HostProfiler::DEFAULT_STRIDE,
        }
    }
}

impl TelemetryOptions {
    /// True when either facility is on.
    pub fn enabled(&self) -> bool {
        self.sample_period.is_some() || self.profile
    }
}

/// Parses a `TOKENCMP_SAMPLE_NS` value: the telemetry sampling period in
/// nanoseconds of simulated time, `0` to disable sampling. `Ok(None)`
/// means the variable is unset (sampling stays off). Separated from
/// [`default_telemetry`] so malformed inputs are unit-testable.
pub fn parse_sample_ns(var: Option<&str>) -> Result<Option<Option<Dur>>, String> {
    let Some(raw) = var else {
        return Ok(None);
    };
    let v = raw.trim();
    if v.is_empty() {
        return Err(
            "TOKENCMP_SAMPLE_NS is set but empty; unset it, give a period in \
             nanoseconds, or give 0 to disable sampling"
                .into(),
        );
    }
    match v.parse::<u64>() {
        Ok(0) => Ok(Some(None)),
        Ok(ns) => Ok(Some(Some(Dur::from_ns(ns)))),
        Err(_) => Err(format!(
            "TOKENCMP_SAMPLE_NS: `{raw}` is not a non-negative integer nanosecond count"
        )),
    }
}

/// Parses a `TOKENCMP_PROFILE` value: `1`/`true` enables the host-time
/// self-profiler, `0`/`false`/unset leaves it off.
pub fn parse_profile(var: Option<&str>) -> Result<bool, String> {
    match var.map(str::trim) {
        None | Some("") | Some("0") | Some("false") => Ok(false),
        Some("1") | Some("true") => Ok(true),
        Some(other) => Err(format!(
            "TOKENCMP_PROFILE: `{other}` is not one of 0/1/false/true"
        )),
    }
}

/// The telemetry options `RunOptions::default` uses: off unless the
/// `TOKENCMP_SAMPLE_NS` / `TOKENCMP_PROFILE` environment knobs enable a
/// facility. Malformed values abort immediately — a typo must not
/// silently run without the telemetry it asked for.
pub fn default_telemetry() -> TelemetryOptions {
    let sample_period = match parse_sample_ns(std::env::var("TOKENCMP_SAMPLE_NS").ok().as_deref()) {
        Ok(Some(p)) => p,
        Ok(None) => None,
        Err(msg) => panic!("{msg}"),
    };
    let profile = match parse_profile(std::env::var("TOKENCMP_PROFILE").ok().as_deref()) {
        Ok(p) => p,
        Err(msg) => panic!("{msg}"),
    };
    TelemetryOptions {
        sample_period,
        profile,
        ..TelemetryOptions::default()
    }
}

/// The tier segment of an `inflight.<tier>.<class>` key.
fn tier_key(t: Tier) -> &'static str {
    match t {
        Tier::Intra => "intra",
        Tier::Inter => "inter",
        Tier::Mem => "mem",
    }
}

/// Gauges every protocol shares: event-queue depth and the census
/// of in-flight events — wakeups, and messages classified per tier ×
/// class with the same tier mapping fault injection and the traffic
/// account use. `layout: None` (PerfectL2's magic interconnect) counts
/// messages under the `local` tier.
fn base_gauges<M: NetMsg + Clone + 'static>(
    kernel: &Kernel<M>,
    layout: Option<&Layout>,
    gauges: &mut BTreeMap<String, u64>,
) {
    gauges.insert(keys::QUEUE_DEPTH.into(), kernel.queue_depth() as u64);
    let mut wakes = 0u64;
    // Count per (tier, class) first and render keys once per non-zero
    // combination — a String allocation per in-flight message would
    // dominate the sample cost on deep queues.
    let mut combos: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
    for ev in kernel.pending_events_unordered() {
        match &ev.kind {
            EventKind::Wake { .. } => wakes += 1,
            EventKind::Msg { src, msg } => {
                let tier = match layout.map(|l| tier_between(l, *src, ev.dst)) {
                    Some(Some(t)) => tier_key(t),
                    _ => "local",
                };
                *combos.entry((tier, msg.class().key())).or_insert(0) += 1;
            }
        }
    }
    for ((tier, class), n) in combos {
        gauges.insert(format!("{}{tier}.{class}", keys::INFLIGHT_PREFIX), n);
    }
    gauges.insert(keys::INFLIGHT_WAKES.into(), wakes);
}

/// Windowed-rate bookkeeping shared by the samplers: monotone counter
/// totals at the previous sample, turned into events per simulated
/// second over the elapsed window.
struct RateWindow {
    prev_at: Time,
    prev: BTreeMap<&'static str, u64>,
}

impl RateWindow {
    fn new() -> RateWindow {
        RateWindow {
            prev_at: Time::ZERO,
            prev: BTreeMap::new(),
        }
    }

    /// Converts current counter totals into `rate.<name>` entries over
    /// the window since the previous call (no entries on the first
    /// sample or a zero-length window), then advances the window.
    fn rates(&mut self, at: Time, totals: BTreeMap<&'static str, u64>) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let dt_ps = at.since(self.prev_at).as_ps();
        if dt_ps > 0 && !self.prev.is_empty() {
            let dt_s = dt_ps as f64 * 1e-12;
            for (&name, &total) in &totals {
                let before = self.prev.get(name).copied().unwrap_or(0);
                out.insert(
                    format!("{}{name}", keys::RATE_PREFIX),
                    total.saturating_sub(before) as f64 / dt_s,
                );
            }
        }
        self.prev_at = at;
        self.prev = totals;
        out
    }
}

/// Tracks how long each persistent request has been continuously
/// active, keyed `(block, proc)`; ages are derived sampler-side because
/// table entries deliberately carry no timestamps (the paper sizes them
/// at six bytes).
struct StarvationAges {
    first_seen: BTreeMap<(u64, u16), Time>,
}

impl StarvationAges {
    fn new() -> StarvationAges {
        StarvationAges {
            first_seen: BTreeMap::new(),
        }
    }

    /// Reconciles with the currently active set and returns the age of
    /// the oldest still-active request, in picoseconds.
    fn update(&mut self, at: Time, active: &BTreeSet<(u64, u16)>) -> u64 {
        self.first_seen.retain(|k, _| active.contains(k));
        for &k in active {
            self.first_seen.entry(k).or_insert(at);
        }
        self.first_seen
            .values()
            .map(|&t| at.saturating_since(t).as_ps())
            .max()
            .unwrap_or(0)
    }
}

/// The TokenCMP sampler: base gauges plus token dispersion, persistent
/// pressure, starvation age, cache occupancy, and recreation activity.
pub struct TokenSampler {
    cfg: Rc<SystemConfig>,
    layout: Layout,
    faults: Option<FaultHandle>,
    series: TimeSeries,
    window: RateWindow,
    ages: StarvationAges,
}

impl TokenSampler {
    /// Creates the sampler for a TokenCMP run.
    pub fn new(cfg: Rc<SystemConfig>, period: Dur, faults: Option<FaultHandle>) -> TokenSampler {
        TokenSampler {
            layout: cfg.layout(),
            cfg,
            faults,
            series: TimeSeries::new(period),
            window: RateWindow::new(),
            ages: StarvationAges::new(),
        }
    }

    /// The accumulated series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    fn l1_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.layout
            .proc_ids()
            .flat_map(|p| [self.layout.l1d(p), self.layout.l1i(p)])
    }
}

impl KernelMonitor<TokenMsg> for TokenSampler {
    fn sample(&mut self, at: Time, kernel: &Kernel<TokenMsg>) {
        let mut gauges = BTreeMap::new();
        base_gauges(kernel, Some(&self.layout), &mut gauges);

        // Token dispersion: per touched block, how many caches hold
        // tokens and where the owner token sits relative to the block's
        // home chip. `(holders, owner_cmp)` per block; owner at memory
        // is tracked separately.
        let mut disp: BTreeMap<u64, (u64, Option<u16>)> = BTreeMap::new();
        let mut l1_lines = 0u64;
        let mut l2_lines = 0u64;
        // `token_lines` (not `token_census`) keeps this walk
        // allocation-free: the sampler visits every cache every sample.
        let mut fold = |census: &mut dyn Iterator<Item = (tokencmp_proto::Block, u32, bool)>,
                        cmp: u16|
         -> u64 {
            let mut lines = 0u64;
            for (b, t, o) in census {
                lines += 1;
                if t == 0 && !o {
                    continue;
                }
                let e = disp.entry(b.0).or_insert((0, None));
                e.0 += 1;
                if o {
                    e.1 = Some(cmp);
                }
            }
            lines
        };
        for node in self.l1_nodes() {
            let l1 = kernel.component_as::<TokenL1>(node).expect("token L1");
            l1_lines += fold(&mut l1.token_lines(), self.layout.placement(node).cmp().0);
        }
        for c in self.layout.cmp_ids() {
            for b in 0..self.layout.banks_per_cmp {
                let node = self.layout.l2(c, b);
                let l2 = kernel.component_as::<TokenL2>(node).expect("token L2");
                l2_lines += fold(&mut l2.token_lines(), c.0);
            }
        }
        gauges.insert(keys::OCC_L1_LINES.into(), l1_lines);
        gauges.insert(keys::OCC_L2_LINES.into(), l2_lines);
        gauges.insert(keys::TOKEN_BLOCKS.into(), disp.len() as u64);
        gauges.insert(
            keys::TOKEN_HOLDERS_SUM.into(),
            disp.values().map(|&(h, _)| h).sum(),
        );
        gauges.insert(
            keys::TOKEN_HOLDERS_MAX.into(),
            disp.values().map(|&(h, _)| h).max().unwrap_or(0),
        );
        let (mut intra, mut inter) = (0u64, 0u64);
        for (&block, &(_, owner_cmp)) in &disp {
            if let Some(cmp) = owner_cmp {
                if self.cfg.home_of(tokencmp_proto::Block(block)).0 == cmp {
                    intra += 1;
                } else {
                    inter += 1;
                }
            }
        }
        gauges.insert(keys::TOKEN_OWNER_INTRA.into(), intra);
        gauges.insert(keys::TOKEN_OWNER_INTER.into(), inter);

        // Persistent pressure, recreation activity, and memory-held
        // owners. Every node keeps a distributed table view; the
        // memory controllers' copies are representative — take the
        // largest view (transient skew only reflects in-flight
        // activations/deactivations).
        let mut dist_max = 0u64;
        let mut arb = 0u64;
        let mut owners_at_mem = 0u64;
        let mut recreate_active = 0u64;
        let mut recreate_done = 0u64;
        let mut serial_sum = 0u64;
        let mut active: BTreeSet<(u64, u16)> = BTreeSet::new();
        for c in self.layout.cmp_ids() {
            let m = kernel
                .component_as::<TokenMem>(self.layout.mem(c))
                .expect("token mem");
            let ps = m.persistent();
            let book = ps.book();
            dist_max = dist_max.max(book.len(ps.node()) as u64);
            arb += ps.arb.len() as u64;
            arb += m.arbiter().queued() as u64;
            for (p, b) in book.entries(ps.node()) {
                active.insert((b.0, p.0));
            }
            if let Some((b, req, _)) = m.arbiter().current() {
                active.insert((b.0, req.proc.0));
            }
            owners_at_mem += m.explicit_lines().filter(|&(_, _, o)| o).count() as u64;
            recreate_active += m.recreations_active() as u64;
            recreate_done += m.stats.recreations;
            serial_sum += m.serial_sum();
        }
        gauges.insert(keys::PERSISTENT_OCCUPANCY.into(), dist_max + arb);
        gauges.insert(
            keys::PERSISTENT_MAX_AGE_PS.into(),
            self.ages.update(at, &active),
        );
        // Untouched blocks implicitly keep their owner at the home
        // controller; this gauge counts only *touched* blocks whose
        // owner token returned to (or stayed at) memory.
        gauges.insert(keys::TOKEN_OWNER_AT_MEM.into(), owners_at_mem);
        gauges.insert(keys::RECREATE_ACTIVE.into(), recreate_active);
        gauges.insert(keys::RECREATE_COMPLETED.into(), recreate_done);
        gauges.insert(keys::RECREATE_SERIAL_SUM.into(), serial_sum);

        // Windowed rates from monotone counters.
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        let (mut misses, mut retries, mut persistent) = (0u64, 0u64, 0u64);
        for node in self.l1_nodes() {
            let l1 = kernel.component_as::<TokenL1>(node).expect("token L1");
            misses += l1.stats.misses;
            retries += l1.stats.retries;
            persistent += l1.stats.persistent_issued;
        }
        totals.insert("misses", misses);
        totals.insert("retries", retries);
        totals.insert("persistent", persistent);
        if let Some(f) = &self.faults {
            let f = f.borrow();
            totals.insert(
                "faults",
                f.dropped_total() + f.jittered_total() + f.reordered_total(),
            );
        }
        let rates = self.window.rates(at, totals);
        self.series.push(at, gauges, rates);
    }
}

/// The DirectoryCMP sampler: base gauges, L1/L2 occupancy, miss rate.
pub struct DirSampler {
    layout: Layout,
    faults: Option<FaultHandle>,
    series: TimeSeries,
    window: RateWindow,
}

impl DirSampler {
    /// Creates the sampler for a DirectoryCMP run.
    pub fn new(cfg: &SystemConfig, period: Dur, faults: Option<FaultHandle>) -> DirSampler {
        DirSampler {
            layout: cfg.layout(),
            faults,
            series: TimeSeries::new(period),
            window: RateWindow::new(),
        }
    }

    /// The accumulated series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

impl KernelMonitor<DirMsg> for DirSampler {
    fn sample(&mut self, at: Time, kernel: &Kernel<DirMsg>) {
        let mut gauges = BTreeMap::new();
        base_gauges(kernel, Some(&self.layout), &mut gauges);
        let mut l1_lines = 0u64;
        let mut misses = 0u64;
        for p in self.layout.proc_ids() {
            for node in [self.layout.l1d(p), self.layout.l1i(p)] {
                let l1 = kernel.component_as::<DirL1>(node).expect("dir L1");
                l1_lines += l1.lines().len() as u64;
                misses += l1.stats.misses;
            }
        }
        let mut l2_lines = 0u64;
        for c in self.layout.cmp_ids() {
            for b in 0..self.layout.banks_per_cmp {
                let l2 = kernel
                    .component_as::<DirL2>(self.layout.l2(c, b))
                    .expect("dir L2");
                l2_lines += l2.rights().len() as u64;
            }
        }
        gauges.insert(keys::OCC_L1_LINES.into(), l1_lines);
        gauges.insert(keys::OCC_L2_LINES.into(), l2_lines);
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        totals.insert("misses", misses);
        if let Some(f) = &self.faults {
            let f = f.borrow();
            totals.insert(
                "faults",
                f.dropped_total() + f.jittered_total() + f.reordered_total(),
            );
        }
        let rates = self.window.rates(at, totals);
        self.series.push(at, gauges, rates);
    }
}

/// The PerfectL2 sampler: queue depth, in-flight census (all `local` —
/// the magic model has no interconnect), and the miss rate.
pub struct PerfectSampler {
    magic: NodeId,
    series: TimeSeries,
    window: RateWindow,
}

impl PerfectSampler {
    /// Creates the sampler for a PerfectL2 run; `magic` is the node id
    /// of the single [`PerfectL2`] component.
    pub fn new(period: Dur, magic: NodeId) -> PerfectSampler {
        PerfectSampler {
            magic,
            series: TimeSeries::new(period),
            window: RateWindow::new(),
        }
    }

    /// The accumulated series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

impl KernelMonitor<TokenMsg> for PerfectSampler {
    fn sample(&mut self, at: Time, kernel: &Kernel<TokenMsg>) {
        let mut gauges = BTreeMap::new();
        base_gauges(kernel, None, &mut gauges);
        let m = kernel
            .component_as::<PerfectL2<TokenMsg>>(self.magic)
            .expect("perfect L2");
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        totals.insert("misses", m.stats.misses);
        let rates = self.window.rates(at, totals);
        self.series.push(at, gauges, rates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_ns_env_knob_parses() {
        assert_eq!(parse_sample_ns(None), Ok(None));
        assert_eq!(parse_sample_ns(Some("0")), Ok(Some(None)));
        assert_eq!(
            parse_sample_ns(Some(" 250 ")),
            Ok(Some(Some(Dur::from_ns(250))))
        );
        assert!(parse_sample_ns(Some("")).is_err());
        assert!(parse_sample_ns(Some("soon")).is_err());
        assert!(parse_sample_ns(Some("-1")).is_err());
    }

    #[test]
    fn profile_env_knob_parses() {
        assert_eq!(parse_profile(None), Ok(false));
        assert_eq!(parse_profile(Some("0")), Ok(false));
        assert_eq!(parse_profile(Some("false")), Ok(false));
        assert_eq!(parse_profile(Some("1")), Ok(true));
        assert_eq!(parse_profile(Some("true")), Ok(true));
        assert!(parse_profile(Some("yes")).is_err());
    }

    #[test]
    fn telemetry_defaults_are_off() {
        let t = TelemetryOptions::default();
        assert!(!t.enabled());
        assert_eq!(t.profile_stride, tokencmp_sim::HostProfiler::DEFAULT_STRIDE);
    }

    #[test]
    fn rate_window_emits_deltas_per_second() {
        let mut w = RateWindow::new();
        let mut t = BTreeMap::new();
        t.insert("misses", 10u64);
        // First sample: totals are recorded, nothing emitted.
        assert!(w.rates(Time::ZERO, t.clone()).is_empty());
        t.insert("misses", 30);
        // 20 misses over 1 µs of sim time = 2e7 / s.
        let r = w.rates(Time::from_ns(1_000), t);
        assert_eq!(r.len(), 1);
        let v = r["rate.misses"];
        assert!((v - 2.0e7).abs() < 1.0, "rate {v}");
    }

    #[test]
    fn starvation_ages_track_oldest_active() {
        let mut a = StarvationAges::new();
        let mut set = BTreeSet::new();
        set.insert((7u64, 0u16));
        assert_eq!(a.update(Time::from_ns(10), &set), 0);
        set.insert((9, 1));
        // Entry (7,0) has been active 30 ns by now.
        assert_eq!(a.update(Time::from_ns(40), &set), Dur::from_ns(30).as_ps());
        // (7,0) deactivates; the younger entry's age takes over.
        set.remove(&(7, 0));
        assert_eq!(a.update(Time::from_ns(50), &set), Dur::from_ns(10).as_ps());
        // Re-activation restarts the clock.
        set.insert((7, 0));
        assert_eq!(a.update(Time::from_ns(60), &set), Dur::from_ns(20).as_ps());
    }
}
