//! Telemetry overhead methodology (DESIGN.md §16): wall-clock the
//! paper's Table 3 system running the barrier micro-benchmark with
//! telemetry fully off, then again with the sim-time sampler *and* the
//! host-time profiler on. The enabled run must stay within 5% of the
//! bare run — telemetry that distorts what it observes is not
//! observability — and the profiler's own attribution table shows where
//! the host time actually goes.
//!
//! ```sh
//! cargo run --release --example telemetry_overhead
//! ```
//!
//! `TOKENCMP_OVERHEAD_REPS` (default 15) paired reps: every rep times
//! all four configurations back to back and the reported overhead is
//! the *median* of the per-rep ratios, so host-load drift and OS
//! scheduler hiccups cancel instead of biasing one configuration.
//! The measured ratios are recorded in EXPERIMENTS.md.

use std::time::{Duration, Instant};

use tokencmp::{
    run_workload, BarrierWorkload, Dur, Protocol, RunOptions, RunOutcome, RunResult, SystemConfig,
    Variant,
};

const PROTOCOL: Protocol = Protocol::Token(Variant::Dst1);

fn workload() -> BarrierWorkload {
    BarrierWorkload::new(16, 12, Dur::from_ns(1000), Dur::from_ns(300), 11)
}

fn timed_run(cfg: &SystemConfig, opts: &RunOptions) -> (Duration, RunResult) {
    let start = Instant::now();
    let (res, _) = run_workload(cfg, PROTOCOL, workload(), opts);
    let elapsed = start.elapsed();
    assert_eq!(res.outcome, RunOutcome::Idle);
    (elapsed, res)
}

/// Paired measurement: each rep times every option set back to back,
/// yielding one wall-time ratio per enabled configuration *within* that
/// rep — host-load drift cancels because both ends of each ratio ran
/// adjacently. Returns the median baseline time, the median ratio per
/// non-baseline configuration (the median discards reps a scheduler
/// hiccup inflated), and each configuration's last result (results are
/// bit-identical across reps).
fn measure(
    cfg: &SystemConfig,
    opts: &[RunOptions],
    reps: u32,
) -> (Duration, Vec<f64>, Vec<RunResult>) {
    let mut offs: Vec<Duration> = Vec::new();
    let mut ratios: Vec<Vec<f64>> = opts[1..].iter().map(|_| Vec::new()).collect();
    let mut last: Vec<Option<RunResult>> = opts.iter().map(|_| None).collect();
    for _ in 0..reps {
        let mut times = Vec::with_capacity(opts.len());
        for (slot, o) in last.iter_mut().zip(opts) {
            let (t, r) = timed_run(cfg, o);
            times.push(t);
            *slot = Some(r);
        }
        offs.push(times[0]);
        for (rs, t) in ratios.iter_mut().zip(&times[1..]) {
            rs.push(t.as_secs_f64() / times[0].as_secs_f64());
        }
    }
    let med_off = median_dur(&mut offs);
    let med_ratios = ratios.iter_mut().map(|rs| median_f64(rs)).collect();
    let results = last.into_iter().map(|s| s.expect("reps >= 1")).collect();
    (med_off, med_ratios, results)
}

fn median_dur(xs: &mut [Duration]) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn median_f64(xs: &mut [f64]) -> f64 {
    xs.sort_unstable_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let cfg = SystemConfig::default();
    let reps: u32 = std::env::var("TOKENCMP_OVERHEAD_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15);
    println!("telemetry overhead on Table 3 barrier ({PROTOCOL}, median of {reps} paired reps):\n");

    let base = RunOptions {
        seed: 11,
        ..RunOptions::default()
    };
    // 1 µs sampling: the cadence DESIGN.md §16 recommends for production
    // sweeps (100 ns is for zooming into a stall window, not for
    // always-on monitoring). Sampler-only and profiler-only rows isolate
    // each observer's share.
    let sampling = base.with_sampling(Dur::from_ns(1000));
    let profiling = base.with_profiling();
    let both = sampling.with_profiling();
    let (off, ratios, results) = measure(&cfg, &[base, sampling, profiling, both], reps);
    let res_off = &results[0];
    let res_on = &results[3];

    // The observer discipline, re-checked here where the overhead is
    // measured: identical simulations, samples actually taken.
    assert_eq!(res_off.runtime, res_on.runtime, "sim perturbed");
    assert_eq!(res_off.events, res_on.events, "sim perturbed");
    let series = res_on.series.as_ref().expect("sampling was on");
    assert!(!series.is_empty());

    println!(
        "off {:>8.3} ms   sampler {:+.2}%   profiler {:+.2}%   both {:+.2}%   ({} samples)",
        off.as_secs_f64() * 1e3,
        (ratios[0] - 1.0) * 100.0,
        (ratios[1] - 1.0) * 100.0,
        (ratios[2] - 1.0) * 100.0,
        series.len()
    );
    let profile = res_on.profile.as_ref().expect("profiling was on");
    println!("{}", profile.table());

    let overhead = ratios[2];
    assert!(
        overhead <= 1.05,
        "telemetry overhead {:.2}% exceeds the 5% budget",
        (overhead - 1.0) * 100.0
    );
    println!(
        "overhead {:+.2}% — within the 5% budget",
        (overhead - 1.0) * 100.0
    );
}
