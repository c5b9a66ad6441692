//! The measurement loop shared by every workload: set-up samples, then
//! passes until the time budget is spent, then medians and checks.

use std::time::{Duration, Instant};

use crate::report::{Metric, Report};
use crate::{host, mc::Mc, reference, sim::Sim, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER};

/// Checks made and checks failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One pass: a fixed unit of a workload's work.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host seconds spent in the system under test.
    pub wall_s: f64,
    /// Simulated kernel events, or model-checker transitions.
    pub events: u64,
    /// FNV-1a digest of every output of the pass.
    pub digest: u64,
    /// Output checks of the pass.
    pub checks: Checks,
    /// Per-layer metrics (traced passes only).
    pub layers: Vec<(&'static str, f64)>,
}

/// A workload's unit of work.
pub trait Bench {
    /// The workload's set-up time in seconds: the median (or sum of
    /// medians) over `reps` repetitions.
    fn setup_s(&self, reps: usize, checks: &mut Checks) -> f64;

    /// Runs one pass. With `read_ns`, the pass is instrumented, and each
    /// clock read of its timing is taken to cost `read_ns`.
    fn pass(&self, read_ns: Option<f64>) -> Pass;
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hash.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (its default `exclusive` method).
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let n = d.len();
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Seed from which every run seed of the workload is derived.
    pub seed: u64,
    /// Time budget for the passes.
    pub seconds: u64,
    /// Report per-layer instead of end-to-end metrics.
    pub trace: bool,
    /// Shrink every workload to test size.
    pub smoke: bool,
    /// Run `mesh-1024` with every core active, as the `scalability` bench
    /// does, instead of one core per CMP. Not a benchmark workload: a pass
    /// takes about a minute.
    pub full_mesh: bool,
    /// The digest every pass must produce, when pinned.
    pub golden: Option<u64>,
}

impl Plan {
    /// A plan with the pinned digest for full-size runs at the default seed.
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool, smoke: bool) -> Plan {
        let golden = (seed == DEFAULT_SEED && !smoke)
            .then(|| golden_digest(workload))
            .flatten();
        Plan {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            full_mesh: false,
            golden,
        }
    }

    /// The same plan with every `mesh-1024` core active. Its digest is not
    /// pinned.
    pub fn with_full_mesh(self) -> Plan {
        Plan {
            full_mesh: true,
            golden: None,
            ..self
        }
    }

    fn bench(&self) -> Box<dyn Bench> {
        match self.workload {
            Workload::Table3Micro => Box::new(Sim::table3(self.seed, self.smoke)),
            Workload::Commercial => Box::new(Sim::commercial(self.seed, self.smoke)),
            Workload::Mesh1024 => Box::new(Sim::mesh(self.seed, self.smoke, self.full_mesh)),
            Workload::McheckRecovery => Box::new(Mc::recovery(self.smoke)),
        }
    }
}

/// The digest a full-size pass produces at [`DEFAULT_SEED`]. Simulated
/// results must not move when only the simulator's speed changes; the
/// model checker's state count may shrink under a sound new reduction,
/// so its digest is not pinned.
pub fn golden_digest(w: Workload) -> Option<u64> {
    match w {
        Workload::Table3Micro => Some(0x2053_0989_ce9e_2538),
        Workload::Commercial => Some(0xf321_2101_ec40_82c8),
        Workload::Mesh1024 => Some(0x673e_9639_c3a1_aef8),
        Workload::McheckRecovery => None,
    }
}

/// Set-up repetitions per run.
const SETUP_REPS: usize = 21;

/// The fewest (plain, traced) pass pairs a traced run measures.
const MIN_PAIRS: usize = 3;

/// A finished run: its report, the digest its passes agreed on (the
/// warm-up pass's), and what the time metrics were scaled from.
#[derive(Clone, Debug)]
pub struct Measured {
    /// The run's result object.
    pub report: Report,
    /// The warm-up pass's output digest.
    pub digest: u64,
    /// Host seconds of each timed pass, in order, before scaling.
    pub pass_walls: Vec<f64>,
    /// Host seconds of the reference run after each pass.
    pub reference_s: Vec<f64>,
    /// Unscaled host times: the end-to-end time metrics, or with
    /// `--trace 1` the traced passes' ns per event, which the per-layer
    /// times divide up.
    pub raw: Vec<Metric>,
}

/// One pass with the scale of the reference run that followed it.
struct Scaled {
    traced: bool,
    pass: Pass,
    reference_s: f64,
}

impl Scaled {
    fn wall(&self) -> f64 {
        self.pass.wall_s * reference::NOMINAL_S / self.reference_s
    }
}

/// Runs the plan and assembles its report.
pub fn run(plan: &Plan) -> Measured {
    let bench = plan.bench();
    let mut checks = Checks::default();
    let setup_s = bench.setup_s(SETUP_REPS, &mut checks);

    // One untimed pass takes the first use's page faults and allocator
    // growth. Peak memory is read after it, before any reference run:
    // later passes can only add the allocator's fragmentation from
    // repeating the work, which varies with how many passes fit.
    let warm = bench.pass(None);
    let peak_rss = host::peak_rss_mib();

    // A traced run alternates plain and traced passes and ends on a
    // whole pair. Each traced pass is preceded by its own clock-read
    // calibration. Smoke runs check what is emitted, not how well it is
    // measured, so one pair does.
    let budget = Duration::from_secs(plan.seconds);
    let (min_passes, step) = match (plan.trace, plan.smoke) {
        (true, false) => (2 * MIN_PAIRS, 2),
        (true, true) => (2, 2),
        (false, _) => (1, 1),
    };
    let start = Instant::now();
    let mut passes: Vec<Scaled> = Vec::new();
    while passes.len() < min_passes
        || start.elapsed() < budget
        || !passes.len().is_multiple_of(step)
    {
        let read_ns = (plan.trace && passes.len() % 2 == 1).then(reference::read_cost_ns);
        let pass = bench.pass(read_ns);
        passes.push(Scaled {
            traced: read_ns.is_some(),
            pass,
            reference_s: reference::reference_s(),
        });
    }

    // Every pass repeats the same inputs, so every digest must agree,
    // traced or not, and match the pinned one where there is one.
    let first = warm.digest;
    checks.merge(warm.checks);
    for p in &passes {
        checks.merge(p.pass.checks);
        checks.check(p.pass.digest == first);
    }
    if let Some(want) = plan.golden {
        checks.check(first == want);
    }

    let medians = |traced: bool, f: &dyn Fn(&Scaled) -> f64| {
        let xs: Vec<f64> = passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(f)
            .collect();
        median(&xs)
    };
    let reference_s: Vec<f64> = passes.iter().map(|p| p.reference_s).collect();
    let setup_scale = reference::NOMINAL_S / median(&reference_s);
    let metric = |name: &str, value: f64, unit: &str| Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    };
    let per_event = |p: &Scaled| 1e9 / p.pass.events.max(1) as f64;
    let metrics: Vec<Metric> = if plan.trace {
        // Adjacent passes share the host's phase, so the overhead is a
        // median over (plain, traced) pairs.
        let pairs: Vec<f64> = passes
            .chunks_exact(2)
            .map(|p| p[1].pass.wall_s / p[0].pass.wall_s)
            .collect();
        let overhead = median(&pairs) - 1.0;
        let layer = |name: &str| {
            medians(true, &|p: &Scaled| {
                p.pass
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v)
            })
        };
        // A layer the workload does not run reads 0.
        PER_LAYER
            .iter()
            .map(|&(name, unit)| match name {
                "trace.overhead_frac" => metric(name, overhead, unit),
                _ => metric(name, layer(name), unit),
            })
            .collect()
    } else {
        checks.check(peak_rss.is_some());
        let values = [
            medians(false, &Scaled::wall),
            medians(false, &|p| p.wall() * per_event(p)),
            setup_s * setup_scale,
            peak_rss.unwrap_or(0.0),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| metric(name, v, unit))
            .collect()
    };
    let raw = if plan.trace {
        vec![metric(
            "ns_per_event",
            medians(true, &|p| p.pass.wall_s * per_event(p)),
            "ns",
        )]
    } else {
        vec![
            metric("wall_s", medians(false, &|p| p.pass.wall_s), "s"),
            metric(
                "ns_per_event",
                medians(false, &|p| p.pass.wall_s * per_event(p)),
                "ns",
            ),
            metric("setup_s", setup_s, "s"),
        ]
    };
    let valid = metrics.iter().all(|m| m.value.is_finite())
        && (plan.trace || metrics.iter().all(|m| m.value > 0.0));
    Measured {
        report: Report {
            correct: checks.failed == 0 && valid,
            attempted: checks.attempted,
            failed: checks.failed,
            metrics,
        },
        digest: first,
        pass_walls: passes.iter().map(|p| p.pass.wall_s).collect(),
        reference_s,
        raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
