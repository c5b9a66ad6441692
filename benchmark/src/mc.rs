//! The model-checking workload: explicit-state search of the token
//! substrate by `check_parallel`, with symmetry and partial-order
//! reduction on, as CI runs the flagship.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tokencmp::mcheck::{
    check_parallel, ActionMeta, CheckOptions, Model, SubstrateMode, TokenModel, TokenModelParams,
};

use crate::measure::{median, Bench, Checks, Fnv, Pass};

/// Explorer workers. On a 2-core host a second worker makes each pass
/// wait at every level barrier for whichever core a neighbour slows
/// down, which doubled the run-to-run spread. One worker still runs the
/// whole parallel explorer (frontier batches, sharded store, merge), and
/// its overhead over a sequential search is what ROADMAP item 5 targets.
pub const WORKERS: usize = 1;

/// A model-checking workload: one pass checks one model to a verdict.
pub struct Mc {
    params: TokenModelParams,
    opts: CheckOptions,
}

impl Mc {
    /// The token-loss recovery model under arbiter activation (310,082
    /// states), the largest recovery configuration that checks in a few
    /// seconds; smoke size is `small/Distributed`.
    pub fn recovery(smoke: bool) -> Mc {
        let params = if smoke {
            TokenModelParams::small(SubstrateMode::Distributed)
        } else {
            TokenModelParams::small_recovery(SubstrateMode::Arbiter)
        };
        Mc {
            params,
            opts: CheckOptions {
                workers: WORKERS,
                symmetry: true,
                por: true,
                ..CheckOptions::default()
            },
        }
    }
}

impl Bench for Mc {
    /// The median over `reps` samples of the mean cost of building the
    /// model and its initial states (a sample averages 256 builds, far
    /// above the clock's resolution).
    fn setup_s(&self, reps: usize, _checks: &mut Checks) -> f64 {
        const BATCH: u32 = 256;
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..BATCH {
                    let m = TokenModel::new(std::hint::black_box(self.params));
                    std::hint::black_box(m.initial());
                }
                t.elapsed().as_secs_f64() / BATCH as f64
            })
            .collect();
        median(&samples)
    }

    fn pass(&self, read_ns: Option<f64>) -> Pass {
        let model = TokenModel::new(self.params);
        let initial = model.initial().len();
        let timed = TimedModel::new(&model);
        let t = Instant::now();
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            if read_ns.is_some() {
                check_parallel(&timed, &self.opts)
            } else {
                check_parallel(&model, &self.opts)
            }
        }));
        let wall_s = t.elapsed().as_secs_f64();
        let mut pass = Pass {
            wall_s,
            ..Pass::default()
        };
        let mut digest = Fnv::new();
        let report = match verdict {
            Ok(Ok(r)) if r.progress_checked => r,
            Ok(Ok(_)) | Ok(Err(_)) | Err(_) => {
                pass.checks.check(false);
                digest.write(b"no verdict");
                pass.digest = digest.finish();
                return pass;
            }
        };
        pass.checks.check(true);
        pass.events = report.transitions;
        digest.write(
            format!(
                "states={} transitions={} depth={} kinds={:?}",
                report.states, report.transitions, report.depth, report.kinds
            )
            .as_bytes(),
        );
        pass.digest = digest.finish();
        if let Some(read_ns) = read_ns {
            let [successors, invariant, canonicalize, quiescent, meta] = timed.thread_s(read_ns);
            let model_s = successors + invariant + canonicalize + quiescent + meta;
            let new_states = report.states.saturating_sub(initial) as f64;
            pass.layers = vec![
                ("mcheck.states", report.states as f64),
                ("mcheck.transitions", report.transitions as f64),
                ("mcheck.depth", report.depth as f64),
                ("mcheck.states_per_s", report.states as f64 / wall_s),
                ("mcheck.successors_s", successors),
                ("mcheck.invariant_s", invariant),
                ("mcheck.canonicalize_s", canonicalize),
                (
                    "mcheck.model_frac",
                    model_s / (wall_s * report.workers as f64),
                ),
                (
                    "mcheck.dedup_hit_frac",
                    1.0 - new_states / report.transitions.max(1) as f64,
                ),
                ("trace.read_ns", read_ns),
            ];
        }
        pass
    }
}

/// Time-sampling wrapper around a model's methods: one call in every
/// [`STRIDE`] per method and thread is timed, and its time, less one
/// clock read, is scaled by the stride. Totals are thread-seconds across
/// all workers.
struct TimedModel<'a, M> {
    inner: &'a M,
    /// Sampled ns and sampled calls per method: successors, invariant,
    /// canonicalize, is_quiescent, action_meta.
    ns: [AtomicU64; 5],
    sampled: [AtomicU64; 5],
}

const STRIDE: u32 = 8;

thread_local! {
    static TICKS: [Cell<u32>; 5] = const { [const { Cell::new(0) }; 5] };
}

impl<'a, M: Model> TimedModel<'a, M> {
    fn new(inner: &'a M) -> Self {
        TimedModel {
            inner,
            ns: Default::default(),
            sampled: Default::default(),
        }
    }

    fn timed<R>(&self, method: usize, f: impl FnOnce() -> R) -> R {
        let sample = TICKS.with(|t| {
            let n = t[method].get() + 1;
            t[method].set(n % STRIDE);
            n == STRIDE
        });
        if !sample {
            return f();
        }
        let t = Instant::now();
        let r = f();
        // Statistics that publish no other data.
        self.ns[method].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.sampled[method].fetch_add(1, Ordering::Relaxed);
        r
    }

    fn thread_s(&self, read_ns: f64) -> [f64; 5] {
        std::array::from_fn(|i| {
            let ns = self.ns[i].load(Ordering::Relaxed) as f64;
            let sampled = self.sampled[i].load(Ordering::Relaxed) as f64;
            (ns - read_ns * sampled).max(0.0) * STRIDE as f64 / 1e9
        })
    }
}

impl<M: Model> Model for TimedModel<'_, M> {
    type State = M::State;

    fn initial(&self) -> Vec<M::State> {
        self.inner.initial()
    }

    fn successors(&self, s: &M::State, out: &mut Vec<(String, M::State)>) {
        self.timed(0, || self.inner.successors(s, out))
    }

    fn invariant(&self, s: &M::State) -> Result<(), String> {
        self.timed(1, || self.inner.invariant(s))
    }

    fn canonicalize(&self, s: &M::State) -> M::State {
        self.timed(2, || self.inner.canonicalize(s))
    }

    fn is_quiescent(&self, s: &M::State) -> bool {
        self.timed(3, || self.inner.is_quiescent(s))
    }

    fn action_meta(&self, s: &M::State, label: &str) -> ActionMeta {
        self.timed(4, || self.inner.action_meta(s, label))
    }
}
