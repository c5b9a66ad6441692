//! Shared harness utilities for the paper-reproduction bench targets.
//!
//! Every figure and table of the paper's evaluation has a bench target in
//! `benches/` (built with `harness = false` so `cargo bench` regenerates
//! the rows/series as text tables). Runs are repeated over several seeds
//! and reported as `mean ± 1.96·stderr`, mirroring the paper's
//! pseudo-random perturbation methodology (Alameldeen & Wood).
//!
//! Since the sweep-engine migration, a target no longer runs its
//! `seed × protocol × parameter` loops inline: it queues every cell into
//! one [`BenchGrid`], the grid fans out over the deterministic parallel
//! engine ([`tokencmp::sweep`]), and the target then reads measurements
//! back group by group. Results are bit-identical to the old sequential
//! loops for any worker count, and each grid can export its raw per-point
//! records as JSON under `target/sweep/` via [`BenchResults::export`].

pub mod kernel;
pub mod mcheck;
pub mod scale;
pub mod trajectory;

use std::path::PathBuf;

use tokencmp::sim::stats::{mean_stderr, Stats};
use tokencmp::sweep::{PointResult, Sweep};
use tokencmp::{Protocol, RunOptions, RunResult, SystemConfig, Workload};

/// Seeds used for error bars. Three seeds keeps `cargo bench` minutes-
/// scale; raise via `TOKENCMP_BENCH_SEEDS` (see [`seeds`]) for tighter
/// bars or for exercising the parallel engine harder.
pub const SEEDS: [u64; 3] = [11, 23, 47];

/// The seed set for this invocation: [`SEEDS`] by default, overridable
/// with the `TOKENCMP_BENCH_SEEDS` environment variable — either an
/// explicit comma-separated list (`"11,23,47,59"`) or a count `n`
/// (seeds `1..=n`). A malformed value aborts the target with a clear
/// message rather than panicking mid-harness.
pub fn seeds() -> Vec<u64> {
    match parse_seeds(std::env::var("TOKENCMP_BENCH_SEEDS").ok().as_deref()) {
        Ok(seeds) => seeds,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Parses a `TOKENCMP_BENCH_SEEDS` value (`None` = variable unset, which
/// yields [`SEEDS`]). Separated from [`seeds`] so malformed inputs are
/// unit-testable without exercising a process exit.
pub fn parse_seeds(var: Option<&str>) -> Result<Vec<u64>, String> {
    let Some(raw) = var else {
        return Ok(SEEDS.to_vec());
    };
    let v = raw.trim();
    if v.is_empty() {
        return Err(
            "TOKENCMP_BENCH_SEEDS is set but empty; unset it, or give a seed count \
             (e.g. `4`) or a comma-separated seed list (e.g. `11,23,47`)"
                .into(),
        );
    }
    if v.contains(',') {
        let mut seeds = Vec::new();
        for part in v.split(',') {
            let p = part.trim();
            if p.is_empty() {
                return Err(format!(
                    "TOKENCMP_BENCH_SEEDS: empty entry in seed list `{raw}`"
                ));
            }
            seeds.push(p.parse::<u64>().map_err(|_| {
                format!("TOKENCMP_BENCH_SEEDS: `{p}` in `{raw}` is not a seed (want a u64)")
            })?);
        }
        Ok(seeds)
    } else {
        match v.parse::<u64>() {
            Ok(0) => Err("TOKENCMP_BENCH_SEEDS: a count of 0 would measure nothing; \
                 give at least one seed"
                .into()),
            Ok(n) => Ok((1..=n).collect()),
            Err(_) => Err(format!(
                "TOKENCMP_BENCH_SEEDS: `{raw}` is neither a seed count nor a \
                 comma-separated seed list"
            )),
        }
    }
}

/// A `mean ± half-width` measurement.
#[derive(Clone, Copy, Debug)]
pub struct Measure {
    /// Sample mean.
    pub mean: f64,
    /// 95 % half-width (1.96 × stderr).
    pub half: f64,
}

impl Measure {
    /// Formats as `mean±half` with the given precision.
    pub fn fmt(&self, decimals: usize) -> String {
        format!("{:.d$}±{:.d$}", self.mean, self.half, d = decimals)
    }
}

/// Identifies one group of seed-replicated runs queued on a
/// [`BenchGrid`]; redeem it against the [`BenchResults`] after the grid
/// runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupId(usize);

/// A bench target's whole experiment as one declarative grid.
///
/// Each [`push`](BenchGrid::push) queues one *group*: the same
/// (config, protocol, workload factory) replicated over every seed of
/// [`seeds`]. `run` executes all groups' points through the parallel
/// sweep engine and returns a [`BenchResults`] that maps group ids back
/// to aggregated measurements, in a layout bit-identical to running the
/// old per-group sequential loops.
#[derive(Default)]
pub struct BenchGrid {
    sweep: Sweep,
    groups: Vec<(usize, usize)>,
    seeds: Vec<u64>,
}

impl BenchGrid {
    /// Creates an empty grid using this invocation's [`seeds`].
    pub fn new() -> BenchGrid {
        BenchGrid {
            sweep: Sweep::new(),
            groups: Vec::new(),
            seeds: seeds(),
        }
    }

    /// Queues one seed-replicated group under default run options (the
    /// per-point option seed is set to the point's seed, as the old
    /// sequential harness did).
    pub fn push<W, F>(&mut self, cfg: &SystemConfig, protocol: Protocol, mk: F) -> GroupId
    where
        W: Workload + 'static,
        F: Fn(u64) -> W + Send + Sync + 'static,
    {
        self.push_with(cfg, protocol, RunOptions::default(), mk)
    }

    /// [`push`](BenchGrid::push) with explicit base run options
    /// (`opts.seed` is still overridden per point).
    pub fn push_with<W, F>(
        &mut self,
        cfg: &SystemConfig,
        protocol: Protocol,
        opts: RunOptions,
        mk: F,
    ) -> GroupId
    where
        W: Workload + 'static,
        F: Fn(u64) -> W + Send + Sync + 'static,
    {
        let start = self.sweep.len();
        let mk = std::sync::Arc::new(mk);
        for &seed in &self.seeds {
            let mk = std::sync::Arc::clone(&mk);
            let opts = RunOptions { seed, ..opts };
            self.sweep
                .push(protocol.name(), cfg, protocol, seed, opts, move |s| mk(s));
        }
        self.groups.push((start, self.sweep.len()));
        GroupId(self.groups.len() - 1)
    }

    /// Queues a single run (one seed, no replication) — for cells whose
    /// figure needs raw counters or traffic rather than error bars.
    pub fn push_single<W, F>(
        &mut self,
        cfg: &SystemConfig,
        protocol: Protocol,
        seed: u64,
        mk: F,
    ) -> GroupId
    where
        W: Workload + 'static,
        F: FnOnce(u64) -> W + Send + 'static,
    {
        let start = self.sweep.len();
        self.sweep.push(
            protocol.name(),
            cfg,
            protocol,
            seed,
            RunOptions::default(),
            mk,
        );
        self.groups.push((start, self.sweep.len()));
        GroupId(self.groups.len() - 1)
    }

    /// Number of queued points (across all groups).
    pub fn len(&self) -> usize {
        self.sweep.len()
    }

    /// Whether no points are queued.
    pub fn is_empty(&self) -> bool {
        self.sweep.is_empty()
    }

    /// Runs every queued point through the parallel sweep engine.
    pub fn run(self) -> BenchResults {
        BenchResults {
            points: self.sweep.run(),
            groups: self.groups,
        }
    }
}

/// Completed [`BenchGrid`] results, addressed by [`GroupId`].
pub struct BenchResults {
    points: Vec<PointResult>,
    groups: Vec<(usize, usize)>,
}

impl BenchResults {
    /// All per-point results, in submission order.
    pub fn points(&self) -> &[PointResult] {
        &self.points
    }

    fn group(&self, g: GroupId) -> &[PointResult] {
        let (start, end) = self.groups[g.0];
        &self.points[start..end]
    }

    /// Mean runtime (ns) with 95 % error bars over the group's seeds.
    ///
    /// # Panics
    ///
    /// Panics if any run in the group did not complete ([`RunOutcome::Idle`]),
    /// which always indicates a protocol bug.
    ///
    /// [`RunOutcome::Idle`]: tokencmp::RunOutcome::Idle
    pub fn measure(&self, g: GroupId) -> Measure {
        let runtimes: Vec<f64> = self
            .group(g)
            .iter()
            .map(|p| {
                assert_eq!(
                    p.result.outcome,
                    tokencmp::RunOutcome::Idle,
                    "{} (seed {}) did not complete\n{}",
                    p.point.protocol,
                    p.point.seed,
                    p.result
                        .diagnostic
                        .as_deref()
                        .unwrap_or("(no watchdog diagnostic captured)")
                );
                p.result.runtime_ns()
            })
            .collect();
        let (mean, se) = mean_stderr(&runtimes);
        Measure {
            mean,
            half: 1.96 * se,
        }
    }

    /// The group's last run (by seed order) — counters and traffic for
    /// figure annotations, matching the value the old sequential
    /// `measure_runtime` returned.
    pub fn last(&self, g: GroupId) -> &RunResult {
        &self.group(g).last().expect("empty group").result
    }

    /// Folds the group's per-seed counter snapshots into one registry
    /// via [`Stats::merge`], summing each counter across seeds. Use this
    /// when a figure annotation wants totals over the whole replication
    /// (e.g. aggregate persistent-request counts) rather than
    /// [`last`](Self::last)'s single-run view.
    pub fn merged_counters(&self, g: GroupId) -> Stats {
        let mut folded = Stats::new();
        for p in self.group(g) {
            folded.merge(&p.result.counters);
        }
        folded
    }

    /// Writes every per-point record to `target/sweep/<name>.json` (see
    /// [`tokencmp::sweep::write_json`]) and returns the path.
    pub fn export(&self, name: &str) -> std::io::Result<PathBuf> {
        tokencmp::sweep::write_json(name, &self.points)
    }

    /// [`export`](BenchResults::export), logging the outcome instead of
    /// returning it (bench targets treat export as best-effort).
    pub fn export_logged(&self, name: &str) {
        match self.export(name) {
            Ok(path) => println!("[sweep] wrote {}", path.display()),
            Err(e) => eprintln!("[sweep] export {name} failed: {e}"),
        }
    }
}

/// Runs `mk(seed)` under `protocol` for every seed (in parallel, through
/// the sweep engine) and returns the mean runtime in nanoseconds plus
/// the last run's full result for counters.
pub fn measure_runtime<W, F>(cfg: &SystemConfig, protocol: Protocol, mk: F) -> (Measure, RunResult)
where
    W: Workload + 'static,
    F: Fn(u64) -> W + Send + Sync + 'static,
{
    let mut grid = BenchGrid::new();
    let g = grid.push(cfg, protocol, mk);
    let results = grid.run();
    (results.measure(g), results.last(g).clone())
}

/// Prints a header banner for a bench target.
pub fn banner(title: &str, paper_ref: &str) {
    println!();
    println!("==================================================================");
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("==================================================================");
}

/// All TokenCMP macro-benchmark variants of Figures 6/7, in paper order.
pub fn macro_protocols() -> [Protocol; 5] {
    use tokencmp::Variant;
    [
        Protocol::Directory,
        Protocol::Token(Variant::Dst4),
        Protocol::Token(Variant::Dst1),
        Protocol::Token(Variant::Dst1Pred),
        Protocol::Token(Variant::Dst1Filt),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tokencmp::system::ScriptedWorkload;
    use tokencmp::{AccessKind, Block, Variant};

    fn script() -> Vec<Vec<(AccessKind, Block)>> {
        vec![vec![(AccessKind::Load, Block(1))], vec![], vec![], vec![]]
    }

    #[test]
    fn parse_seeds_accepts_counts_lists_and_unset() {
        assert_eq!(parse_seeds(None).unwrap(), SEEDS.to_vec());
        assert_eq!(parse_seeds(Some("4")).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(parse_seeds(Some(" 11, 23 ,47 ")).unwrap(), vec![11, 23, 47]);
    }

    #[test]
    fn parse_seeds_rejects_malformed_values_with_clear_messages() {
        for (input, expect) in [
            ("", "set but empty"),
            ("   ", "set but empty"),
            ("0", "count of 0"),
            ("junk", "neither a seed count nor"),
            ("-3", "neither a seed count nor"),
            ("11,,47", "empty entry"),
            ("11,abc", "not a seed"),
            (",", "empty entry"),
        ] {
            let err = parse_seeds(Some(input)).expect_err(&format!("`{input}` must be rejected"));
            assert!(
                err.contains("TOKENCMP_BENCH_SEEDS") && err.contains(expect),
                "`{input}` -> `{err}` (expected to mention `{expect}`)"
            );
        }
    }

    #[test]
    fn measure_runtime_aggregates_seeds() {
        let cfg = SystemConfig::small_test();
        let (m, res) = measure_runtime(&cfg, Protocol::Token(Variant::Dst1), |_| {
            ScriptedWorkload::new(script())
        });
        assert!(m.mean > 0.0);
        assert!(m.half >= 0.0);
        assert!(res.counters.counter("l1.misses") >= 1);
        assert!(m.fmt(1).contains('±'));
    }

    #[test]
    fn grid_groups_map_back_to_their_runs() {
        let cfg = SystemConfig::small_test();
        let mut grid = BenchGrid::new();
        let a = grid.push(&cfg, Protocol::Token(Variant::Dst1), |_| {
            ScriptedWorkload::new(script())
        });
        let b = grid.push(&cfg, Protocol::Directory, |_| {
            ScriptedWorkload::new(script())
        });
        let single = grid.push_single(&cfg, Protocol::Directory, 99, |_| {
            ScriptedWorkload::new(script())
        });
        assert_eq!(grid.len(), 2 * seeds().len() + 1);
        let results = grid.run();
        assert!(results.measure(a).mean > 0.0);
        assert!(results.measure(b).mean > 0.0);
        let pts = results.points();
        assert_eq!(pts.last().unwrap().point.seed, 99);
        assert_eq!(results.measure(single).half, 0.0);
    }

    #[test]
    fn merged_counters_sum_across_seeds() {
        let cfg = SystemConfig::small_test();
        let mut grid = BenchGrid::new();
        let g = grid.push(&cfg, Protocol::Token(Variant::Dst1), |_| {
            ScriptedWorkload::new(script())
        });
        let results = grid.run();
        let folded = results.merged_counters(g);
        let by_hand: u64 = results
            .points()
            .iter()
            .map(|p| p.result.counters.counter("l1.misses"))
            .sum();
        assert_eq!(folded.counter("l1.misses"), by_hand);
        assert!(folded.counter("l1.misses") >= seeds().len() as u64);
    }

    #[test]
    fn merged_counters_single_point_group_is_that_run() {
        let cfg = SystemConfig::small_test();
        let mut grid = BenchGrid::new();
        let g = grid.push_single(&cfg, Protocol::Token(Variant::Dst1), 5, |_| {
            ScriptedWorkload::new(script())
        });
        let results = grid.run();
        let folded = results.merged_counters(g);
        let raw = &results.points().last().unwrap().result.counters;
        assert_eq!(
            folded.counters().collect::<Vec<_>>(),
            raw.counters().collect::<Vec<_>>()
        );
    }

    #[test]
    fn merged_counters_across_protocols_union_disjoint_keys() {
        // Token and directory runs produce (partly) disjoint counter
        // families; folding their merged registries must union the keys
        // without cross-talk.
        let cfg = SystemConfig::small_test();
        let mut grid = BenchGrid::new();
        let t = grid.push_single(&cfg, Protocol::Token(Variant::Dst1), 1, |_| {
            ScriptedWorkload::new(script())
        });
        let d = grid.push_single(&cfg, Protocol::Directory, 1, |_| {
            ScriptedWorkload::new(script())
        });
        let results = grid.run();
        let token = results.merged_counters(t);
        let dir = results.merged_counters(d);
        let mut union = token.clone();
        union.merge(&dir);
        for (k, v) in token.counters() {
            assert_eq!(union.counter(k), v + dir.counter(k), "key {k}");
        }
        for (k, v) in dir.counters() {
            assert_eq!(union.counter(k), v + token.counter(k), "key {k}");
        }
        assert!(union.counters().count() >= token.counters().count().max(dir.counters().count()));
    }

    #[test]
    fn grid_matches_sequential_measure_runtime() {
        // The engine must reproduce the old sequential harness exactly.
        let cfg = SystemConfig::small_test();
        let (m, res) = measure_runtime(&cfg, Protocol::Directory, |_| {
            ScriptedWorkload::new(script())
        });
        let mut runtimes = Vec::new();
        let mut last = None;
        for &seed in &SEEDS {
            let opts = RunOptions {
                seed,
                ..RunOptions::default()
            };
            let (r, _) = tokencmp::run_workload(
                &cfg,
                Protocol::Directory,
                ScriptedWorkload::new(script()),
                &opts,
            );
            runtimes.push(r.runtime_ns());
            last = Some(r);
        }
        let (mean, se) = mean_stderr(&runtimes);
        assert_eq!(m.mean, mean);
        assert_eq!(m.half, 1.96 * se);
        let last = last.unwrap();
        assert_eq!(res.runtime, last.runtime);
        assert_eq!(res.events, last.events);
    }
}
