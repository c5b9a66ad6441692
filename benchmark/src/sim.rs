//! The three simulation workloads: what a pass runs, how its outputs are
//! checked and digested, and how a traced pass attributes host time to
//! the crates.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tokencmp::system::{Completed, ScriptedWorkload};
use tokencmp::{
    run_workload, BarrierWorkload, CommercialParams, CommercialWorkload, Dur, Fabric,
    LockingWorkload, MsgClass, ProcId, Protocol, RunOptions, RunOutcome, RunResult, Step,
    SystemConfig, Tier, Time, Variant, Workload,
};

use crate::measure::{median, Bench, Checks, Fnv, Pass};

/// A workload generator and the completion count it must reach.
#[derive(Clone, Copy, Debug)]
enum Gen {
    Locking {
        locks: u32,
        acquires: u32,
    },
    Barrier {
        rounds: u32,
    },
    Commercial(CommercialParams),
    /// Locking among one core in every `stride`; the others stay idle.
    Sparse {
        stride: u16,
        locks: u32,
        acquires: u32,
    },
}

#[derive(Clone, Copy, Debug)]
struct RunSpec {
    /// Index into [`Sim::configs`].
    cfg: usize,
    protocol: Protocol,
    gen: Gen,
    seed: u64,
}

/// A simulation workload: a fixed list of runs that makes up one pass.
pub struct Sim {
    configs: Vec<SystemConfig>,
    runs: Vec<RunSpec>,
}

/// The run seeds a workload derives from the benchmark seed
/// (splitmix64 over `seed + i`).
fn derive_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

impl Sim {
    /// The Table 3 system (4 × 4, flat) under all nine protocols: locking
    /// with 2 and with 64 locks, and the barrier, over two seeds.
    pub fn table3(seed: u64, smoke: bool) -> Sim {
        let (seeds, acquires, rounds) = if smoke { (1, 5, 5) } else { (2, 60, 20) };
        let gens = [
            Gen::Locking { locks: 2, acquires },
            Gen::Locking {
                locks: 64,
                acquires,
            },
            Gen::Barrier { rounds },
        ];
        let mut runs = Vec::new();
        for s in derive_seeds(seed, seeds) {
            for protocol in Protocol::ALL {
                for gen in gens {
                    runs.push(RunSpec {
                        cfg: 0,
                        protocol,
                        gen,
                        seed: s,
                    });
                }
            }
        }
        Sim {
            configs: vec![SystemConfig::default()],
            runs,
        }
    }

    /// OLTP, Apache and SPECjbb on the scaled commercial system under the
    /// Figure 6/7 protocols, 40 transactions per processor.
    pub fn commercial(seed: u64, smoke: bool) -> Sim {
        let txns = if smoke { 5 } else { 40 };
        let s = derive_seeds(seed, 1)[0];
        let protocols = [
            Protocol::Directory,
            Protocol::Token(Variant::Dst4),
            Protocol::Token(Variant::Dst1),
            Protocol::Token(Variant::Dst1Pred),
            Protocol::Token(Variant::Dst1Filt),
        ];
        let mut runs = Vec::new();
        for params in CommercialParams::all() {
            let params = CommercialParams {
                txns_per_proc: txns,
                ..params
            };
            for protocol in protocols {
                runs.push(RunSpec {
                    cfg: 0,
                    protocol,
                    gen: Gen::Commercial(params),
                    seed: s,
                });
            }
        }
        Sim {
            configs: vec![CommercialParams::scaled_config(&SystemConfig::default())],
            runs,
        }
    }

    /// 64 CMPs × 16 cores on the 8 × 8 mesh under TokenCMP-dst1. One core
    /// per CMP runs the locking benchmark (one lock per four active cores,
    /// one acquire each) and the other cores finish at once. With `full`,
    /// every core runs it: the 1024-core point of the `scalability` bench,
    /// which takes 16 times the events. Smoke size is 64 × 4.
    pub fn mesh(seed: u64, smoke: bool, full: bool) -> Sim {
        let cores: u16 = if smoke { 4 } else { 16 };
        let mut cfg = SystemConfig {
            cmps: 64,
            procs_per_cmp: cores,
            banks_per_cmp: cores,
            fabric: Fabric::Mesh { cols: 8 },
            ..SystemConfig::default()
        };
        cfg.tokens_per_block = (cfg.layout().caches() + 1).next_power_of_two();
        let stride = if full { 1 } else { cores };
        let run = RunSpec {
            cfg: 0,
            protocol: Protocol::Token(Variant::Dst1),
            gen: Gen::Sparse {
                stride,
                locks: cfg.layout().procs() / stride as u32 / 4,
                acquires: 1,
            },
            seed: derive_seeds(seed, 1)[0],
        };
        Sim {
            configs: vec![cfg],
            runs: vec![run],
        }
    }

    fn run(&self, spec: &RunSpec, opts: &RunOptions, traced: bool) -> Outcome {
        let cfg = &self.configs[spec.cfg];
        let procs = cfg.layout().procs();
        let (p, s) = (spec.protocol, spec.seed);
        match spec.gen {
            Gen::Locking { locks, acquires } => drive(
                cfg,
                p,
                LockingWorkload::new(procs, locks, acquires, s),
                opts,
                traced,
                |w| w.total_acquires == procs as u64 * acquires as u64,
            ),
            Gen::Barrier { rounds } => {
                let w =
                    BarrierWorkload::new(procs, rounds, Dur::from_ns(3000), Dur::from_ns(1000), s);
                drive(cfg, p, w, opts, traced, |w| {
                    w.passes == procs as u64 * rounds as u64
                })
            }
            Gen::Commercial(params) => {
                let w = CommercialWorkload::new(procs, params, s);
                drive(cfg, p, w, opts, traced, |w| {
                    w.transactions == procs as u64 * params.txns_per_proc as u64
                })
            }
            Gen::Sparse {
                stride,
                locks,
                acquires,
            } => {
                let active = procs / stride as u32;
                let w = Sparse {
                    stride,
                    inner: LockingWorkload::new(active, locks, acquires, s),
                };
                drive(cfg, p, w, opts, traced, |w| {
                    w.inner.total_acquires == active as u64 * acquires as u64
                })
            }
        }
    }
}

impl Bench for Sim {
    /// The sum over distinct (system, protocol) pairs of the median time
    /// of `reps` runs with an all-empty workload: building the system,
    /// starting every processor, auditing and harvesting counters.
    fn setup_s(&self, reps: usize, checks: &mut Checks) -> f64 {
        let mut pairs: Vec<(usize, Protocol)> = Vec::new();
        for r in &self.runs {
            if !pairs.contains(&(r.cfg, r.protocol)) {
                pairs.push((r.cfg, r.protocol));
            }
        }
        let opts = RunOptions::default();
        pairs
            .iter()
            .map(|&(c, protocol)| {
                let cfg = &self.configs[c];
                let empty = vec![Vec::new(); cfg.layout().procs() as usize];
                let times: Vec<f64> = (0..reps)
                    .map(|_| {
                        let w = ScriptedWorkload::new(empty.clone());
                        let t = Instant::now();
                        let out = catch_unwind(AssertUnwindSafe(|| {
                            run_workload(cfg, protocol, w, &opts)
                        }));
                        let s = t.elapsed().as_secs_f64();
                        checks.check(matches!(&out, Ok((r, _)) if r.outcome == RunOutcome::Idle));
                        s
                    })
                    .collect();
                median(&times)
            })
            .sum()
    }

    fn pass(&self, read_ns: Option<f64>) -> Pass {
        let traced = read_ns.is_some();
        let base = if traced {
            RunOptions::default().with_profiling()
        } else {
            RunOptions::default()
        };
        let mut pass = Pass::default();
        let mut digest = Fnv::new();
        let mut tally = Tally::default();
        for spec in &self.runs {
            let opts = RunOptions {
                seed: spec.seed,
                ..base
            };
            let out = self.run(spec, &opts, traced);
            pass.wall_s += out.wall_s;
            match out.run {
                Some((result, complete, next)) => {
                    pass.checks
                        .check(result.outcome == RunOutcome::Idle && complete);
                    pass.events += result.events;
                    digest.write(fingerprint_text(&result).as_bytes());
                    if traced {
                        tally.add(spec.protocol, &result, next);
                    }
                }
                None => {
                    pass.checks.check(false);
                    digest.write(b"panicked\n");
                }
            }
        }
        pass.digest = digest.finish();
        if let Some(read_ns) = read_ns {
            pass.layers = tally.metrics(pass.wall_s, pass.events, read_ns);
        }
        pass
    }
}

/// One run's timing and, unless it panicked, its result, whether the
/// workload completed, and the sampled `Workload::next` cost.
struct Outcome {
    wall_s: f64,
    run: Option<(RunResult, bool, NextCost)>,
}

fn drive<W: Workload + 'static>(
    cfg: &SystemConfig,
    protocol: Protocol,
    w: W,
    opts: &RunOptions,
    traced: bool,
    complete: impl Fn(&W) -> bool,
) -> Outcome {
    let t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            let (r, w) = run_workload(cfg, protocol, TimedNext::new(w), opts);
            (r, complete(&w.inner), w.cost())
        } else {
            let (r, w) = run_workload(cfg, protocol, w, opts);
            (r, complete(&w), NextCost::default())
        }
    }));
    Outcome {
        wall_s: t.elapsed().as_secs_f64(),
        run: run.ok(),
    }
}

/// The run's observable results: outcome, simulated runtime, event count,
/// per-tier and per-class traffic, and the full counter registry — the
/// recipe of the pinned Table 3 fingerprints in `tests/topology_prop.rs`.
fn fingerprint_text(res: &RunResult) -> String {
    let mut s = format!(
        "outcome={:?} runtime_ps={} events={}\n",
        res.outcome,
        res.runtime.as_ps(),
        res.events
    );
    for tier in Tier::ALL {
        for class in MsgClass::ALL {
            s.push_str(&format!(
                "traffic {tier:?} {class:?} bytes={} msgs={}\n",
                res.traffic.bytes(tier, class),
                res.traffic.msgs(tier, class)
            ));
        }
    }
    s.push_str(&format!("{}", res.counters));
    s
}

/// Locking among one core in every `stride`; the other cores finish at
/// once. Every 1024-core structure (persistent tables, cache arrays, mesh
/// links) is built, but the load, and so the queue depth and table
/// occupancy, is that of the active cores.
struct Sparse {
    stride: u16,
    inner: LockingWorkload,
}

impl Workload for Sparse {
    fn next(&mut self, p: ProcId, now: Time, completed: Option<Completed>) -> Step {
        if p.0.is_multiple_of(self.stride) {
            self.inner.next(ProcId(p.0 / self.stride), now, completed)
        } else {
            Step::Done
        }
    }
}

/// Times one `Workload::next` call in every [`TimedNext::STRIDE`].
struct TimedNext<W> {
    inner: W,
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

/// Estimated host time in `Workload::next`, and the calls made.
#[derive(Clone, Copy, Debug, Default)]
struct NextCost {
    ns: f64,
    calls: u64,
}

impl<W> TimedNext<W> {
    const STRIDE: u64 = 16;

    fn new(inner: W) -> Self {
        TimedNext {
            inner,
            calls: 0,
            sampled: 0,
            sampled_ns: 0,
        }
    }

    fn cost(&self) -> NextCost {
        let scale = if self.sampled == 0 {
            0.0
        } else {
            self.calls as f64 / self.sampled as f64
        };
        NextCost {
            ns: self.sampled_ns as f64 * scale,
            calls: self.calls,
        }
    }
}

impl<W: Workload> Workload for TimedNext<W> {
    fn next(&mut self, p: ProcId, now: Time, completed: Option<Completed>) -> Step {
        self.calls += 1;
        if !self.calls.is_multiple_of(Self::STRIDE) {
            return self.inner.next(p, now, completed);
        }
        let t = Instant::now();
        let step = self.inner.next(p, now, completed);
        self.sampled_ns += t.elapsed().as_nanos() as u64;
        self.sampled += 1;
        step
    }
}

/// A traced pass's totals, turned into per-layer metrics at its end.
///
/// The profiler times one event in `stride` and scales up, and every
/// clock read inside a timed scope is scaled up with it. On a host where
/// a read costs tens of ns, that inflates the layer times to more than
/// twice the pass's real time. Each timed scope (pop, dispatch, push,
/// handler) carries one read of its own, which is taken off at the read
/// cost calibrated apart from the pass ([`crate::reference::read_cost_ns`]).
/// A handler scope also carries one read per send or wakeup it made. The
/// profile counts those per pass, not per handler kind, so they stay in
/// the handler layers and are reported as `trace.handler_reads_ns`.
/// Whatever the corrected layers do not explain of the pass's time is
/// `sim.unattributed_ns`: set-up, the kernel outside its scopes, and any
/// error of the correction.
#[derive(Default)]
struct Tally {
    /// Profiler estimate, host ns, per time metric.
    est: BTreeMap<&'static str, f64>,
    /// Timed scopes behind each estimate, scaled like it.
    scopes: BTreeMap<&'static str, f64>,
    /// Sends and wakeups timed inside handler scopes, scaled.
    handler_reads: f64,
    next_ns: f64,
    next_calls: u64,
    runtime_ps: u64,
    intra_bytes: u64,
    inter_bytes: u64,
    inter_msgs: u64,
    token_misses: u64,
    persistent: u64,
    transient: u64,
    retries: u64,
    external_requests: u64,
    filtered: u64,
    dir_local_requests: u64,
    dir_local_satisfied: u64,
    hits: u64,
    misses: u64,
}

impl Tally {
    fn add(&mut self, protocol: Protocol, r: &RunResult, next: NextCost) {
        let token = matches!(protocol, Protocol::Token(_));
        if let Some(profile) = &r.profile {
            let scale = profile.events as f64 / profile.sampled_events.max(1) as f64;
            for e in &profile.entries {
                let metric = match (e.category.as_str(), token) {
                    ("sched.pop", _) => "sim.sched_pop_ns",
                    ("sched.push", _) => "sim.sched_push_ns",
                    ("net.dispatch", _) => "net.dispatch_ns",
                    ("handler.seq", _) => "system.seq_ns",
                    ("handler.perfect_l2", _) => "system.perfect_l2_ns",
                    ("handler.l1", true) => "core.l1_ns",
                    ("handler.l2", true) => "core.l2_ns",
                    ("handler.mem", true) => "core.mem_ns",
                    ("handler.l1", false) => "directory.l1_ns",
                    ("handler.l2", false) => "directory.l2_ns",
                    ("handler.home", false) => "directory.home_ns",
                    // Anything else stays in the unattributed remainder.
                    _ => continue,
                };
                *self.est.entry(metric).or_default() += e.est_ns as f64;
                *self.scopes.entry(metric).or_default() += scale * e.calls as f64;
                // Every push scope is a send or wakeup made by a handler.
                if e.category == "sched.push" {
                    self.handler_reads += scale * e.calls as f64;
                }
            }
        }
        self.next_ns += next.ns;
        self.next_calls += next.calls;
        self.runtime_ps += r.runtime.as_ps();
        self.intra_bytes += r.traffic.total_bytes(Tier::Intra);
        self.inter_bytes += r.traffic.total_bytes(Tier::Inter);
        self.inter_msgs += r.traffic.total_msgs(Tier::Inter);
        let c = |k: &str| r.counters.counter(k);
        if token {
            self.token_misses += c("l1.misses");
            self.persistent += c("l1.persistent");
            self.transient += c("l1.transient");
            self.retries += c("l1.retries");
            self.external_requests += c("l2.external_requests");
            self.filtered += c("l2.filtered");
        } else if matches!(protocol, Protocol::Directory | Protocol::DirectoryZero) {
            self.dir_local_requests += c("l2.local_requests");
            self.dir_local_satisfied += c("l2.local_satisfied");
        }
        self.hits += c("l1.hits");
        self.misses += c("l1.misses");
    }

    /// The per-layer metrics of a pass of `wall_s` seconds and `events`
    /// events, with clock reads taken off at `read_ns` each.
    fn metrics(&self, wall_s: f64, events: u64, read_ns: f64) -> Vec<(&'static str, f64)> {
        let frac = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let ev = events.max(1) as f64;
        let raw: f64 = self.est.values().sum();
        let mut ns: BTreeMap<&'static str, f64> = self
            .est
            .iter()
            .map(|(&k, &est)| (k, est - read_ns * self.scopes[k]))
            .collect();
        // `Workload::next` runs inside the sequencer's handler scope, and
        // each sampled call carries one read, scaled to all calls.
        let next_ns = self.next_ns - read_ns * self.next_calls as f64;
        *ns.entry("system.seq_ns").or_default() -= next_ns;
        ns.insert("workloads.next_ns", next_ns);
        let handler_reads = read_ns * self.handler_reads;
        let explained = ns.values().sum::<f64>() - handler_reads;
        let mut out: Vec<(&'static str, f64)> = ns.into_iter().map(|(k, v)| (k, v / ev)).collect();
        out.extend([
            ("sim.unattributed_ns", (wall_s * 1e9 - explained) / ev),
            ("trace.read_ns", read_ns),
            ("trace.raw_sum_ns", raw / ev),
            ("trace.handler_reads_ns", handler_reads / ev),
            ("sim.events", events as f64),
            ("sim.runtime_us", self.runtime_ps as f64 / 1e6),
            ("net.intra_bytes", self.intra_bytes as f64),
            ("net.inter_bytes", self.inter_bytes as f64),
            ("net.inter_msgs", self.inter_msgs as f64),
            (
                "core.persistent_frac",
                frac(self.persistent, self.token_misses),
            ),
            ("core.retry_frac", frac(self.retries, self.transient)),
            (
                "core.l2_filter_frac",
                frac(self.filtered, self.external_requests),
            ),
            (
                "directory.local_frac",
                frac(self.dir_local_satisfied, self.dir_local_requests),
            ),
            ("workloads.calls", self.next_calls as f64),
            (
                "cache.l1_hit_frac",
                frac(self.hits, self.hits + self.misses),
            ),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_and_reproducible() {
        let a = derive_seeds(7, 4);
        assert_eq!(a, derive_seeds(7, 4));
        assert_ne!(a, derive_seeds(8, 4));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn sparse_idles_all_but_one_core_per_stride() {
        let mut w = Sparse {
            stride: 4,
            inner: LockingWorkload::new(2, 2, 1, 1),
        };
        assert_eq!(w.next(ProcId(1), Time::ZERO, None), Step::Done);
        assert_ne!(w.next(ProcId(4), Time::ZERO, None), Step::Done);
    }
}
