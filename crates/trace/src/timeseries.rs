//! The sim-time telemetry time series: periodic gauge snapshots.
//!
//! The event-level machinery in this crate answers "what happened";
//! the [`TimeSeries`] answers "how did state *evolve*" — queue depth,
//! in-flight traffic, token dispersion, persistent-table pressure —
//! sampled on a fixed simulated-time period by a kernel monitor (see
//! `tokencmp_sim::KernelMonitor`). Each [`Sample`] carries two maps:
//!
//! * `gauges` — instantaneous integer readings (a census at the sample
//!   instant), keyed by dotted names (see [`keys`]);
//! * `rates` — windowed derivatives of monotone `Stats` counters over
//!   the period ending at the sample, in events per simulated second.
//!
//! Sample times are deterministic (an arithmetic sequence of the
//! period), so two replays of the same seed produce `==` series — a
//! property the telemetry test suite enforces.
//!
//! The series is exported two ways: the serde-free JSON schema
//! `tokencmp-timeseries-v2` (`tokencmp_sweep::report`), and Perfetto
//! counter tracks merged into the span export
//! ([`crate::chrome::chrome_trace_with_counters`]).

use std::collections::BTreeMap;

use tokencmp_sim::{Dur, Time};

/// Schema identifier stamped into the JSON export of a [`TimeSeries`].
pub const TIMESERIES_SCHEMA: &str = "tokencmp-timeseries-v2";

/// Well-known gauge/rate key constants and patterns.
///
/// Keys are dotted paths; a segment in `<angle brackets>` below stands
/// for a family (one key per tier, class, ...). The full registry with
/// descriptions lives in the DESIGN.md counter appendix.
pub mod keys {
    /// Pending events in the kernel's event queue.
    pub const QUEUE_DEPTH: &str = "kernel.queue_depth";
    /// Pending wakeups (self-scheduled, not in-flight messages).
    pub const INFLIGHT_WAKES: &str = "inflight.wakes";
    /// In-flight message census per tier × class:
    /// `inflight.<intra|inter|mem>.<class>`.
    pub const INFLIGHT_PREFIX: &str = "inflight.";
    /// Blocks with at least one token held by a cache.
    pub const TOKEN_BLOCKS: &str = "tokens.blocks";
    /// Total cache holders across those blocks (dispersion numerator).
    pub const TOKEN_HOLDERS_SUM: &str = "tokens.holders_sum";
    /// Most caches holding tokens of any one block (dispersion peak).
    pub const TOKEN_HOLDERS_MAX: &str = "tokens.holders_max";
    /// Blocks whose owner token sits in a cache on its home chip.
    pub const TOKEN_OWNER_INTRA: &str = "tokens.owner_intra";
    /// Blocks whose owner token sits in a cache on a remote chip.
    pub const TOKEN_OWNER_INTER: &str = "tokens.owner_inter";
    /// Blocks whose owner token is at a memory controller.
    pub const TOKEN_OWNER_AT_MEM: &str = "tokens.owner_at_mem";
    /// Active persistent-request entries summed over arbiters' tables.
    pub const PERSISTENT_OCCUPANCY: &str = "persistent.occupancy";
    /// Age of the oldest active persistent request, picoseconds.
    pub const PERSISTENT_MAX_AGE_PS: &str = "persistent.max_age_ps";
    /// Valid L1 lines across all L1 caches.
    pub const OCC_L1_LINES: &str = "occ.l1.lines";
    /// Valid L2 lines across all banks.
    pub const OCC_L2_LINES: &str = "occ.l2.lines";
    /// Token recreations currently in progress at memory controllers.
    pub const RECREATE_ACTIVE: &str = "recreate.active";
    /// Token recreations completed so far (monotone).
    pub const RECREATE_COMPLETED: &str = "recreate.completed";
    /// Sum of per-block recreation serials (epoch activity).
    pub const RECREATE_SERIAL_SUM: &str = "recreate.serial_sum";
    /// Windowed counter rates: `rate.<misses|retries|persistent|faults>`
    /// in events per simulated second.
    pub const RATE_PREFIX: &str = "rate.";
}

/// One periodic snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Nominal sample time, picoseconds of simulated time.
    pub at_ps: u64,
    /// Instantaneous gauges (key → reading).
    pub gauges: BTreeMap<String, u64>,
    /// Windowed rates (key → events per simulated second).
    pub rates: BTreeMap<String, f64>,
}

/// An accumulated run telemetry series.
///
/// Bounded: past [`TimeSeries::MAX_SAMPLES`] retained samples the
/// series *decimates* — drops every other retained sample and doubles
/// its effective period — so arbitrarily long runs keep a bounded,
/// evenly spaced summary. Decimation is a pure function of the push
/// sequence, preserving replay determinism.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeries {
    /// Effective sample period, picoseconds (doubles on decimation).
    pub period_ps: u64,
    /// Retained samples, oldest first.
    pub samples: Vec<Sample>,
}

impl TimeSeries {
    /// Retention bound; pushing past it halves the series in place.
    pub const MAX_SAMPLES: usize = 8192;

    /// An empty series with the given nominal period.
    pub fn new(period: Dur) -> TimeSeries {
        TimeSeries {
            period_ps: period.as_ps(),
            samples: Vec::new(),
        }
    }

    /// Appends a sample taken at `at`. Samples whose time is not on the
    /// current effective period grid (possible right after a decimation)
    /// are dropped, keeping retained samples evenly spaced.
    pub fn push(&mut self, at: Time, gauges: BTreeMap<String, u64>, rates: BTreeMap<String, f64>) {
        let at_ps = at.as_ps();
        if self.period_ps > 0 && !at_ps.is_multiple_of(self.period_ps) {
            return;
        }
        self.samples.push(Sample {
            at_ps,
            gauges,
            rates,
        });
        if self.samples.len() > Self::MAX_SAMPLES {
            self.decimate();
        }
    }

    /// Drops every other sample (keeping even indices) and doubles the
    /// effective period.
    fn decimate(&mut self) {
        let mut i = 0;
        self.samples.retain(|_| {
            let keep = i % 2 == 0;
            i += 1;
            keep
        });
        self.period_ps = self.period_ps.saturating_mul(2);
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// A copy decimated down to at most `max` samples (for embedding a
    /// compact series into sweep `PointRecord`s). Deterministic: applies
    /// the same halving rule as retention.
    pub fn downsample(&self, max: usize) -> TimeSeries {
        let mut out = self.clone();
        let max = max.max(1);
        while out.samples.len() > max {
            out.decimate();
        }
        out
    }

    /// Every gauge/rate key appearing anywhere in the series, sorted.
    pub fn key_union(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .samples
            .iter()
            .flat_map(|s| s.gauges.keys().chain(s.rates.keys()).cloned())
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Renders the last `n` samples as a compact table for stall
    /// diagnostics: one row per sample, one column per key that is
    /// nonzero anywhere in the tail — a *trajectory* for the watchdog
    /// dump rather than a single instant.
    pub fn tail_table(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let tail_start = self.samples.len().saturating_sub(n);
        let tail = &self.samples[tail_start..];
        let mut out = String::new();
        if tail.is_empty() {
            return out;
        }
        let mut cols: Vec<String> = tail
            .iter()
            .flat_map(|s| {
                s.gauges
                    .iter()
                    .filter(|&(_, &v)| v != 0)
                    .map(|(k, _)| k.clone())
                    .chain(
                        s.rates
                            .iter()
                            .filter(|&(_, &v)| v != 0.0)
                            .map(|(k, _)| k.clone()),
                    )
            })
            .collect();
        cols.sort();
        cols.dedup();
        let _ = writeln!(
            out,
            "telemetry tail: last {} of {} samples (period {} ps)",
            tail.len(),
            self.samples.len(),
            self.period_ps
        );
        for s in tail {
            let _ = write!(out, "  @{:>12}ps", s.at_ps);
            for k in &cols {
                if let Some(v) = s.gauges.get(k) {
                    let _ = write!(out, "  {k}={v}");
                } else if let Some(v) = s.rates.get(k) {
                    let _ = write!(out, "  {k}={v:.1}/s");
                }
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn push_accumulates_on_the_period_grid() {
        let mut ts = TimeSeries::new(Dur::from_ns(10));
        for i in 0..5u64 {
            ts.push(
                Time::from_ns(10 * i),
                g(&[(keys::QUEUE_DEPTH, i)]),
                BTreeMap::new(),
            );
        }
        assert_eq!(ts.len(), 5);
        assert_eq!(ts.samples[3].at_ps, Dur::from_ns(30).as_ps());
        assert_eq!(ts.samples[3].gauges[keys::QUEUE_DEPTH], 3);
    }

    #[test]
    fn decimation_bounds_retention_and_doubles_period() {
        let mut ts = TimeSeries::new(Dur::from_ns(1));
        let n = TimeSeries::MAX_SAMPLES as u64 + 1;
        for i in 0..n {
            ts.push(Time::from_ns(i), g(&[("x", i)]), BTreeMap::new());
        }
        assert!(ts.len() <= TimeSeries::MAX_SAMPLES);
        assert_eq!(ts.period_ps, Dur::from_ns(2).as_ps());
        // Survivors sit on the new 2 ns grid.
        assert!(ts
            .samples
            .iter()
            .all(|s| s.at_ps.is_multiple_of(ts.period_ps)));
    }

    #[test]
    fn decimation_is_deterministic() {
        let build = || {
            let mut ts = TimeSeries::new(Dur::from_ns(1));
            for i in 0..(TimeSeries::MAX_SAMPLES as u64 * 2 + 7) {
                ts.push(Time::from_ns(i), g(&[("x", i * 3)]), BTreeMap::new());
            }
            ts
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn downsample_halves_to_the_requested_bound() {
        let mut ts = TimeSeries::new(Dur::from_ns(1));
        for i in 0..1000u64 {
            ts.push(Time::from_ns(i), g(&[("x", i)]), BTreeMap::new());
        }
        let small = ts.downsample(64);
        assert!(small.len() <= 64);
        assert!(small.len() > 16);
        assert_eq!(small.period_ps, Dur::from_ns(16).as_ps());
        // The original is untouched.
        assert_eq!(ts.len(), 1000);
    }

    #[test]
    fn tail_table_shows_trajectory_of_nonzero_keys() {
        let mut ts = TimeSeries::new(Dur::from_ns(5));
        for i in 0..4u64 {
            let mut rates = BTreeMap::new();
            rates.insert("rate.misses".to_string(), 2.5 * i as f64);
            ts.push(
                Time::from_ns(5 * i),
                g(&[(keys::QUEUE_DEPTH, 7 + i), ("always_zero", 0)]),
                rates,
            );
        }
        let t = ts.tail_table(2);
        assert!(t.contains("last 2 of 4 samples"));
        assert!(t.contains("kernel.queue_depth=10"));
        assert!(t.contains("rate.misses=7.5/s"));
        assert!(!t.contains("always_zero"));
        assert!(!t.contains("kernel.queue_depth=8")); // outside the tail
    }

    #[test]
    fn key_union_spans_all_samples() {
        let mut ts = TimeSeries::new(Dur::from_ns(1));
        ts.push(Time::ZERO, g(&[("a", 1)]), BTreeMap::new());
        let mut rates = BTreeMap::new();
        rates.insert("b".to_string(), 1.0);
        ts.push(Time::from_ns(1), BTreeMap::new(), rates);
        assert_eq!(ts.key_union(), ["a", "b"]);
    }
}
