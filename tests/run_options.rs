//! `RunOptions::default()` is a constant: the simulator reads no
//! environment, so variables named like run options change neither the
//! default options nor what a run produces. The one way to set a run
//! option is the `RunOptions` API (`with_stall_window`, `with_sampling`,
//! `with_profiling`, ...).
//!
//! The test sets process environment, which every thread of a test
//! binary shares, so this binary holds a single test.

use tokencmp::{
    run_workload, Dur, LockingWorkload, MsgClass, Protocol, RunOptions, RunOutcome, RunResult,
    SystemConfig, Tier, Variant,
};

/// Everything a run reports that a run option could change: outcome,
/// runtime, events, per-tier × per-class traffic, every counter, and the
/// watchdog diagnostic.
fn observed(res: &RunResult) -> String {
    let mut s = format!(
        "outcome={:?} runtime_ps={} events={} diagnostic={:?}\n",
        res.outcome,
        res.runtime.as_ps(),
        res.events,
        res.diagnostic
    );
    for tier in Tier::ALL {
        for class in MsgClass::ALL {
            s += &format!(
                "traffic {tier:?} {class:?} bytes={} msgs={}\n",
                res.traffic.bytes(tier, class),
                res.traffic.msgs(tier, class)
            );
        }
    }
    s + &res.counters.to_string()
}

/// DirectoryCMP and TokenCMP-dst1 running locking on `cfg` with the
/// default options.
fn run_both(cfg: &SystemConfig) -> Vec<(Protocol, RunResult)> {
    [Protocol::Directory, Protocol::Token(Variant::Dst1)]
        .into_iter()
        .map(|protocol| {
            let wl = LockingWorkload::new(cfg.layout().procs(), 2, 4, 7);
            let (res, _) = run_workload(cfg, protocol, wl, &RunOptions::default());
            (protocol, res)
        })
        .collect()
}

#[test]
fn default_options_and_results_ignore_the_environment() {
    let cfg = SystemConfig::small_test();
    let before = run_both(&cfg);

    for (var, value) in [
        ("TOKENCMP_STALL_NS", "fast"),
        ("TOKENCMP_SAMPLE_NS", "100"),
        ("TOKENCMP_PROFILE", "yes"),
        ("TOKENCMP_TRACE_BLOCK", "0xZZ"),
    ] {
        std::env::set_var(var, value);
    }
    let opts = RunOptions::default();
    assert_eq!(opts.stall_window, Some(Dur::from_ns(1_000_000)));
    assert_eq!(opts.telemetry.sample_period, None);
    assert!(!opts.telemetry.profile);

    let after = run_both(&cfg);
    for ((protocol, a), (_, b)) in before.iter().zip(&after) {
        assert_eq!(a.outcome, RunOutcome::Idle, "{protocol}");
        assert_eq!(observed(a), observed(b), "{protocol}");
        assert!(b.series.is_none(), "{protocol}: sampled a run");
        assert!(b.profile.is_none(), "{protocol}: profiled a run");
    }
}
