//! Telemetry is an *observer* (DESIGN.md §16): the sim-time sampler and
//! the host-time profiler must never perturb the simulation they watch.
//!
//! The gate is bit-identity, not "close enough": every protocol runs
//! with telemetry off and again with sampler + profiler on, and the
//! runs must agree on runtime, event count, per-tier traffic, and every
//! Stats counter — including under message faults and token loss, where
//! an accidental extra event would change recovery timing. The sampled
//! series itself must also replay bit-identically.

#[path = "common/mod.rs"]
mod common;

use common::{all_protocols, table3_system, token_variants};
use tokencmp::trace::TIMESERIES_SCHEMA;
use tokencmp::{
    run_workload, BarrierWorkload, Dur, FaultPlan, LockingWorkload, MsgClass, Protocol, RunOptions,
    RunOutcome, RunResult, Tier, Variant,
};

/// Everything the simulation itself produced, in comparable form.
/// Telemetry fields (`series`, `profile`) are deliberately excluded —
/// they are *about* the run, not *of* it.
fn fingerprint(res: &RunResult) -> (u64, u64, Vec<u64>, Vec<(String, u64)>) {
    let mut traffic = Vec::new();
    for tier in [Tier::Intra, Tier::Inter, Tier::Mem] {
        for class in MsgClass::ALL {
            traffic.push(res.traffic.bytes(tier, class));
        }
    }
    let counters = res
        .counters
        .counters()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    (res.runtime.as_ps(), res.events, traffic, counters)
}

fn base_opts(seed: u64) -> RunOptions {
    RunOptions {
        seed,
        ..RunOptions::default()
    }
}

#[test]
fn telemetry_is_invisible_on_every_protocol() {
    let cfg = table3_system();
    for protocol in all_protocols() {
        let run = |opts: &RunOptions| {
            let w = LockingWorkload::new(16, 8, 5, 77);
            run_workload(&cfg, protocol, w, opts).0
        };
        let plain = run(&base_opts(123));
        let watched = run(&base_opts(123)
            .with_sampling(Dur::from_ns(100))
            .with_profiling());
        assert_eq!(plain.outcome, RunOutcome::Idle, "{protocol}");
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&watched),
            "{protocol}: telemetry perturbed the simulation"
        );
        // The observer side must actually have observed something.
        assert!(
            plain.series.is_none() && plain.profile.is_none(),
            "{protocol}"
        );
        let series = watched.series.as_ref().expect("sampling was on");
        assert!(!series.is_empty(), "{protocol}: no samples taken");
        let profile = watched.profile.as_ref().expect("profiling was on");
        assert!(
            profile.attributed_ns() > 0,
            "{protocol}: profiler attributed no host time"
        );
        // The handler categories are part of the profile's contract:
        // consumers map these exact names to controller kinds. Timing
        // every event makes every kind show up.
        let mut every = base_opts(123).with_profiling();
        every.telemetry.profile_stride = 1;
        let profile = run(&every).profile.expect("profiling was on");
        let mut handlers: Vec<&str> = profile
            .entries
            .iter()
            .map(|e| e.category.as_str())
            .filter(|c| c.starts_with("handler."))
            .collect();
        handlers.sort_unstable();
        let want: &[&str] = match protocol {
            Protocol::Token(_) => &["handler.l1", "handler.l2", "handler.mem", "handler.seq"],
            Protocol::Directory | Protocol::DirectoryZero => {
                &["handler.home", "handler.l1", "handler.l2", "handler.seq"]
            }
            Protocol::PerfectL2 => &["handler.perfect_l2", "handler.seq"],
        };
        assert_eq!(handlers, want, "{protocol}: handler categories");
    }
}

#[test]
fn telemetry_is_invisible_under_message_faults() {
    let cfg = table3_system();
    // DirectoryCMP has no loss-recovery path, so it only takes the
    // drop-free tier; Dst1 gets the full hostile plan.
    let hostile = FaultPlan::none()
        .dropping(0.05)
        .jittering(0.2, Dur::from_ns(20))
        .reordering(0.1, Dur::from_ns(40));
    let benign = FaultPlan::none()
        .jittering(0.2, Dur::from_ns(20))
        .reordering(0.1, Dur::from_ns(40));
    for (protocol, plan) in [
        (Protocol::Token(Variant::Dst1), hostile),
        (Protocol::Directory, benign),
    ] {
        let run = |opts: RunOptions| {
            let w = LockingWorkload::new(16, 8, 5, 31);
            run_workload(&cfg, protocol, w, &opts.with_faults(plan)).0
        };
        let plain = run(base_opts(9));
        let watched = run(base_opts(9)
            .with_sampling(Dur::from_ns(100))
            .with_profiling());
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&watched),
            "{protocol}: telemetry perturbed a faulty run"
        );
    }
}

#[test]
fn telemetry_is_invisible_under_token_loss() {
    let cfg = table3_system();
    let plan = FaultPlan::none().dropping_tokens(0.15);
    for protocol in [token_variants()[0], Protocol::Token(Variant::Dst1)] {
        let run = |opts: RunOptions| {
            let w = BarrierWorkload::new(16, 4, Dur::from_ns(400), Dur::from_ns(100), 7);
            run_workload(&cfg, protocol, w, &opts.with_faults(plan)).0
        };
        let plain = run(base_opts(5));
        let watched = run(base_opts(5)
            .with_sampling(Dur::from_ns(50))
            .with_profiling());
        assert!(
            plain.counters.counter("net.fault.lost_tokens") > 0,
            "{protocol}: the lossy plan never bit, so the test proves nothing"
        );
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&watched),
            "{protocol}: telemetry perturbed a token-lossy run"
        );
    }
}

#[test]
fn time_series_replays_bit_identically() {
    let cfg = table3_system();
    // Clean, message-faulty, and token-lossy runs all replay exactly.
    let plans = [
        ("clean", FaultPlan::none()),
        (
            "faulty",
            FaultPlan::none()
                .dropping(0.05)
                .reordering(0.1, Dur::from_ns(40)),
        ),
        ("lossy", FaultPlan::none().dropping_tokens(0.10)),
    ];
    for (name, plan) in plans {
        let run = || {
            let w = LockingWorkload::new(16, 8, 5, 13);
            let opts = base_opts(42)
                .with_sampling(Dur::from_ns(100))
                .with_faults(plan);
            run_workload(&cfg, Protocol::Token(Variant::Dst1), w, &opts).0
        };
        let a = run().series.expect("sampling was on");
        let b = run().series.expect("sampling was on");
        assert_eq!(a, b, "{name}: series did not replay bit-identically");
        assert!(!a.is_empty(), "{name}: no samples taken");
    }
}

/// FNV-1a over every gauge and every rate (as IEEE bits) of every
/// sample of a series.
fn series_digest(series: &tokencmp::TimeSeries) -> u64 {
    let mut s = String::new();
    for sample in &series.samples {
        s.push_str(&format!("at={}", sample.at_ps));
        for (k, v) in &sample.gauges {
            s.push_str(&format!(" {k}={v}"));
        }
        for (k, v) in &sample.rates {
            s.push_str(&format!(" {k}={:016x}", v.to_bits()));
        }
        s.push('\n');
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every gauge and rate each protocol's sampler emits is pinned, on a
/// token-lossy TokenCMP-dst1 run (which drives the recreation gauges
/// and the fault rate), a DirectoryCMP run and a PerfectL2 run. Unlike
/// the replay test above, this catches a change that alters what a
/// sampler reports, not only one that makes it nondeterministic.
#[test]
fn sampled_series_are_pinned_on_every_harness() {
    let cfg = table3_system();
    let cases = [
        (
            Protocol::Token(Variant::Dst1),
            FaultPlan::none().dropping_tokens(0.10),
            (3491usize, 0x0f08_0ac1_9546_6144u64),
        ),
        (
            Protocol::Directory,
            FaultPlan::none(),
            (110, 0xc11b_f568_830c_a369),
        ),
        (
            Protocol::PerfectL2,
            FaultPlan::none(),
            (25, 0xe078_c288_2000_ecad),
        ),
    ];
    for (protocol, plan, want) in cases {
        let w = LockingWorkload::new(16, 8, 5, 13);
        let opts = base_opts(42)
            .with_sampling(Dur::from_ns(20))
            .with_faults(plan);
        let series = run_workload(&cfg, protocol, w, &opts)
            .0
            .series
            .expect("sampling was on");
        if plan.drops_tokens() {
            let recreated = series.samples.last().unwrap().gauges["recreate.completed"];
            assert!(recreated > 0, "{protocol}: the lossy run never recreated");
        }
        let got = (series.samples.len(), series_digest(&series));
        assert_eq!(
            got, want,
            "{protocol}: series (samples, digest) ({}, 0x{:016x}) != golden",
            got.0, got.1
        );
    }
}

#[test]
fn stalled_runs_append_the_sampler_tail() {
    // Same stall recipe as the watchdog suite: think time far beyond the
    // stall window forces a Stalled outcome. With sampling on, the
    // diagnostic must carry the telemetry tail alongside the snapshot.
    let cfg = table3_system();
    let w = BarrierWorkload::new(16, 4, Dur::from_ns(3000), Dur::from_ns(1000), 3);
    let opts = RunOptions {
        audit: false,
        ..base_opts(3)
    }
    .with_stall_window(Some(Dur::from_ns(50)))
    .with_sampling(Dur::from_ns(20));
    let (res, _) = run_workload(&cfg, Protocol::Token(Variant::Dst1), w, &opts);
    assert_eq!(res.outcome, RunOutcome::Stalled);
    let diag = res.diagnostic.expect("stalled runs carry a snapshot");
    assert!(
        diag.contains("telemetry tail:"),
        "sampler tail missing from diagnostic: {diag}"
    );
    assert!(
        diag.contains("watchdog diagnostic"),
        "sampler tail must ride along, not replace the snapshot: {diag}"
    );
}

#[test]
fn series_schema_constant_matches_export() {
    // The schema string is part of the on-disk contract (sweep embeds
    // it); a silent rename would orphan committed artifacts.
    assert_eq!(TIMESERIES_SCHEMA, "tokencmp-timeseries-v2");
}
