//! Per-transaction miss-latency attribution.
//!
//! Every committed miss is decomposed into segments that sum *exactly*
//! (integer picoseconds) to the end-to-end latency, so the per-segment
//! sums explain the runtime decomposition the paper's Figure 6 reports
//! rather than merely correlating with it.

use std::fmt;

use tokencmp_sim::{Histogram, Stats};

/// An attribution segment of one miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Segment {
    /// Time attributed to on-chip transfer (the supplier was on-chip, or
    /// the whole transaction stayed within the CMP).
    Intra,
    /// Time attributed to a chip-to-chip transfer.
    Inter,
    /// Time attributed to a memory-controller round trip.
    Mem,
    /// Time spent in timed-out transient attempts before the attempt
    /// that succeeded (TokenCMP retry path).
    Retry,
    /// Time spent waiting under an active persistent request.
    PersistentWait,
    /// Time spent in token-loss recovery: from the first recreation
    /// request the starving L1 sent until the miss completed (§15).
    /// Zero on every lossless run.
    Recovery,
}

impl Segment {
    /// All segments, in canonical (export and rendering) order.
    pub const ALL: [Segment; 6] = [
        Segment::Intra,
        Segment::Inter,
        Segment::Mem,
        Segment::Retry,
        Segment::PersistentWait,
        Segment::Recovery,
    ];

    /// Stable lowercase key, used in counter names and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Segment::Intra => "intra",
            Segment::Inter => "inter",
            Segment::Mem => "mem",
            Segment::Retry => "retry",
            Segment::PersistentWait => "persistent_wait",
            Segment::Recovery => "recovery",
        }
    }

    /// Dense index into per-segment arrays.
    pub fn index(self) -> usize {
        match self {
            Segment::Intra => 0,
            Segment::Inter => 1,
            Segment::Mem => 2,
            Segment::Retry => 3,
            Segment::PersistentWait => 4,
            Segment::Recovery => 5,
        }
    }
}

/// One miss's segment durations, in picoseconds. The invariant — parts
/// sum to the miss's total latency — is established by the L1 controllers
/// and checked when recording.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SegmentParts {
    /// Intra-CMP transfer picoseconds.
    pub intra: u64,
    /// Inter-CMP transfer picoseconds.
    pub inter: u64,
    /// Memory round-trip picoseconds.
    pub mem: u64,
    /// Retry/timeout picoseconds.
    pub retry: u64,
    /// Persistent-wait picoseconds.
    pub persistent_wait: u64,
    /// Token-loss recovery picoseconds.
    pub recovery: u64,
}

impl SegmentParts {
    /// The segment value for `s`.
    pub fn get(&self, s: Segment) -> u64 {
        match s {
            Segment::Intra => self.intra,
            Segment::Inter => self.inter,
            Segment::Mem => self.mem,
            Segment::Retry => self.retry,
            Segment::PersistentWait => self.persistent_wait,
            Segment::Recovery => self.recovery,
        }
    }

    /// Adds `ps` to segment `s`.
    pub fn add(&mut self, s: Segment, ps: u64) {
        match s {
            Segment::Intra => self.intra += ps,
            Segment::Inter => self.inter += ps,
            Segment::Mem => self.mem += ps,
            Segment::Retry => self.retry += ps,
            Segment::PersistentWait => self.persistent_wait += ps,
            Segment::Recovery => self.recovery += ps,
        }
    }

    /// Sum of all segments.
    pub fn total(&self) -> u64 {
        Segment::ALL.iter().map(|&s| self.get(s)).sum()
    }
}

impl fmt::Display for SegmentParts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in Segment::ALL {
            let v = self.get(s);
            if v == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}={}ps", s.label(), v)?;
            first = false;
        }
        if first {
            write!(f, "zero")?;
        }
        Ok(())
    }
}

/// One total miss-latency histogram plus per-segment sums.
///
/// Lives in each L1 controller's stats (attribution is always on — it is
/// pure arithmetic on MSHR timestamps, so it cannot perturb simulation),
/// merged across controllers at end of run, and exported into the run's
/// counter registry for sweep records and bench tables. Only the total's
/// quantiles and maximum are exported, so a segment keeps just its sum.
#[derive(Clone, Debug, Default)]
pub struct LatencyBreakdown {
    total: Histogram,
    segs: [u128; 6],
}

impl LatencyBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> LatencyBreakdown {
        LatencyBreakdown::default()
    }

    /// Records one committed miss.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `parts` does not sum to `total_ps` —
    /// the attribution invariant every caller must establish.
    pub fn record(&mut self, total_ps: u64, parts: SegmentParts) {
        debug_assert_eq!(
            parts.total(),
            total_ps,
            "attribution segments must sum to the miss latency"
        );
        self.total.record(total_ps);
        for s in Segment::ALL {
            self.segs[s.index()] += parts.get(s) as u128;
        }
    }

    /// Number of recorded misses.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// The total-latency histogram.
    pub fn total(&self) -> &Histogram {
        &self.total
    }

    /// Folds `other` into `self`: merges the totals, adds the segment sums.
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        self.total.merge(&other.total);
        for (sum, o) in self.segs.iter_mut().zip(other.segs) {
            *sum += o;
        }
    }

    /// Exports the breakdown into a counter registry:
    /// `lat.total.{count,ps_sum,p50_ps,p99_ps,max_ps}` plus
    /// `lat.<segment>.ps_sum` for each segment. No keys are written for
    /// an empty breakdown (e.g. a run with zero misses), and the
    /// `lat.recovery.ps_sum` key appears only when recovery time was
    /// actually attributed, so lossless runs keep their historical key
    /// set bit-identically.
    pub fn export_into(&self, stats: &mut Stats) {
        if self.total.count() == 0 {
            return;
        }
        stats.add("lat.total.count", self.total.count());
        stats.add("lat.total.ps_sum", self.total.sum() as u64);
        stats.add(
            "lat.total.p50_ps",
            self.total.quantile_upper_bound(0.50).unwrap_or(0),
        );
        stats.add(
            "lat.total.p99_ps",
            self.total.quantile_upper_bound(0.99).unwrap_or(0),
        );
        stats.add("lat.total.max_ps", self.total.max().unwrap_or(0));
        for s in Segment::ALL {
            let sum = self.segs[s.index()] as u64;
            if s == Segment::Recovery && sum == 0 {
                continue;
            }
            stats.add(&format!("lat.{}.ps_sum", s.label()), sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_sum_and_accessors() {
        let mut p = SegmentParts::default();
        p.add(Segment::Inter, 100);
        p.add(Segment::Retry, 50);
        p.add(Segment::Inter, 10);
        assert_eq!(p.get(Segment::Inter), 110);
        assert_eq!(p.total(), 160);
        assert_eq!(format!("{p}"), "inter=110ps retry=50ps");
        assert_eq!(format!("{}", SegmentParts::default()), "zero");
    }

    #[test]
    fn record_and_export_round_trip() {
        let mut l = LatencyBreakdown::new();
        l.record(
            150,
            SegmentParts {
                inter: 100,
                retry: 50,
                ..SegmentParts::default()
            },
        );
        l.record(
            40,
            SegmentParts {
                intra: 40,
                ..SegmentParts::default()
            },
        );
        assert_eq!(l.count(), 2);
        let mut s = Stats::new();
        l.export_into(&mut s);
        assert_eq!(s.counter("lat.total.count"), 2);
        assert_eq!(s.counter("lat.total.ps_sum"), 190);
        assert_eq!(s.counter("lat.inter.ps_sum"), 100);
        assert_eq!(s.counter("lat.retry.ps_sum"), 50);
        assert_eq!(s.counter("lat.intra.ps_sum"), 40);
        assert_eq!(s.counter("lat.mem.ps_sum"), 0);
        // segment sums account for every picosecond of total
        let seg_sum: u64 = Segment::ALL
            .iter()
            .map(|s2| s.counter(&format!("lat.{}.ps_sum", s2.label())))
            .sum();
        assert_eq!(seg_sum, l.total().sum() as u64);
        assert!(s.counter("lat.total.p99_ps") >= s.counter("lat.total.p50_ps"));
    }

    #[test]
    fn recovery_key_exports_only_when_nonzero() {
        let mut l = LatencyBreakdown::new();
        l.record(
            40,
            SegmentParts {
                intra: 40,
                ..SegmentParts::default()
            },
        );
        let mut s = Stats::new();
        l.export_into(&mut s);
        assert!(!s.counters().any(|(k, _)| k == "lat.recovery.ps_sum"));

        l.record(
            90,
            SegmentParts {
                intra: 30,
                recovery: 60,
                ..SegmentParts::default()
            },
        );
        let mut s = Stats::new();
        l.export_into(&mut s);
        assert_eq!(s.counter("lat.recovery.ps_sum"), 60);
    }

    #[test]
    fn export_of_empty_breakdown_writes_nothing() {
        let mut s = Stats::new();
        LatencyBreakdown::new().export_into(&mut s);
        assert_eq!(s.counters().count(), 0);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = LatencyBreakdown::new();
        let mut b = LatencyBreakdown::new();
        let mut both = LatencyBreakdown::new();
        let p1 = SegmentParts {
            mem: 300,
            retry: 20,
            ..SegmentParts::default()
        };
        let p2 = SegmentParts {
            intra: 75,
            ..SegmentParts::default()
        };
        a.record(320, p1);
        both.record(320, p1);
        b.record(75, p2);
        both.record(75, p2);
        a.merge(&b);
        let (mut sa, mut sb) = (Stats::new(), Stats::new());
        a.export_into(&mut sa);
        both.export_into(&mut sb);
        let dump = |s: &Stats| -> Vec<(String, u64)> {
            s.counters().map(|(k, v)| (k.to_string(), v)).collect()
        };
        assert_eq!(dump(&sa), dump(&sb));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sum to the miss latency")]
    fn record_rejects_inconsistent_parts() {
        LatencyBreakdown::new().record(100, SegmentParts::default());
    }
}
