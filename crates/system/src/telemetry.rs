//! Run telemetry: options and the run's sampler.
//!
//! The sampler side of the two-clock telemetry model (DESIGN.md §16):
//! a [`KernelMonitor`] installed into the kernel snapshots system state
//! on a fixed *simulated-time* period into a [`TimeSeries`] — queue
//! depth, in-flight messages per tier × class, token dispersion,
//! persistent-table pressure and starvation age, cache occupancy,
//! recreation activity, and windowed counter rates. The host-clock side (the
//! [`HostProfiler`](tokencmp_trace::HostProfiler)) is wired directly by
//! the run harness; this module only carries its knobs.
//!
//! Everything here observes the simulation through `&Kernel` and shared
//! read handles — a sampled run is bit-identical to an unsampled one
//! (enforced by `tests/telemetry.rs`).

use std::collections::{BTreeMap, BTreeSet};

use tokencmp_net::{tier_between, FaultHandle, Tier};
use tokencmp_proto::{Layout, NetMsg};
use tokencmp_sim::{Dur, EventKind, Kernel, KernelMonitor, NodeSet, Time};
use tokencmp_trace::timeseries::keys;
use tokencmp_trace::TimeSeries;

use crate::nodes::System;

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
fn base_gauges<M: NetMsg + Clone + 'static, N: NodeSet<M>>(
    kernel: &Kernel<M, N>,
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
#[derive(Default)]
pub(crate) struct StarvationAges {
    first_seen: BTreeMap<(u64, u16), Time>,
}

impl StarvationAges {
    /// Reconciles with the currently active set and returns the age of
    /// the oldest still-active request, in picoseconds.
    pub(crate) fn update(&mut self, at: Time, active: &BTreeSet<(u64, u16)>) -> u64 {
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

/// What the system adds to one sample: gauges, and the monotone counter
/// totals the sampler turns into windowed rates.
#[derive(Default)]
pub(crate) struct Reading {
    pub(crate) gauges: BTreeMap<String, u64>,
    pub(crate) totals: BTreeMap<&'static str, u64>,
}

/// The run's sampler: the gauges every protocol shares, the system's
/// own gauges ([`System::sample`]), and windowed rates of its counter
/// totals and of the fault layer's injections.
pub(crate) struct Sampler {
    /// The layout that maps messages to tiers; `None` without an
    /// interconnect.
    layout: Option<Layout>,
    faults: Option<FaultHandle>,
    series: TimeSeries,
    window: RateWindow,
    ages: StarvationAges,
}

impl Sampler {
    /// Creates a sampler with the given period.
    pub(crate) fn new(period: Dur, layout: Option<Layout>, faults: Option<FaultHandle>) -> Sampler {
        Sampler {
            layout,
            faults,
            series: TimeSeries::new(period),
            window: RateWindow::new(),
            ages: StarvationAges::default(),
        }
    }

    /// The accumulated series.
    pub(crate) fn series(&self) -> &TimeSeries {
        &self.series
    }
}

impl<S: System> KernelMonitor<S::Msg, S> for Sampler {
    fn sample(&mut self, at: Time, kernel: &Kernel<S::Msg, S>) {
        let mut r = Reading::default();
        base_gauges(kernel, self.layout.as_ref(), &mut r.gauges);
        kernel.nodes().sample(at, &mut self.ages, &mut r);
        if let Some(f) = &self.faults {
            let f = f.borrow();
            r.totals.insert(
                "faults",
                f.dropped_total() + f.jittered_total() + f.reordered_total(),
            );
        }
        let rates = self.window.rates(at, r.totals);
        self.series.push(at, r.gauges, rates);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_defaults_are_off() {
        let t = TelemetryOptions::default();
        assert_eq!(t.sample_period, None);
        assert!(!t.profile);
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
        let mut a = StarvationAges::default();
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
