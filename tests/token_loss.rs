//! Token-loss recovery, end to end (DESIGN.md §15): the opt-in
//! token-lossy fault tier destroys token bundles in flight, and the
//! epoch-based recreation protocol — timeout at a starving requester,
//! serial bump and invalidation round at the home memory, remint after
//! the drain — must restore every run to completion with sequential
//! consistency, refinement conformance, and per-epoch conservation
//! intact. With the tier disabled, every protocol must remain
//! bit-identical to a build that never heard of recovery.

use std::cell::RefCell;
use std::rc::Rc;

use tokencmp::conform::{run_conform, token_lossy_plan, ConformWork, FaultTier, Mutation};
use tokencmp::litmus::{classic_shapes, differential_check, shapes, DiffOptions};
use tokencmp::proto::Unit;
use tokencmp::{
    run_workload, run_workload_traced, BarrierWorkload, CommercialParams, CommercialWorkload, Dur,
    FaultPlan, Layout, LockingWorkload, Protocol, RunOptions, RunOutcome, RunResult, SystemConfig,
    Time, TraceEvent, TraceSink, Variant,
};

#[path = "common/mod.rs"]
mod common;
use common::{table3_system, token_variants};

/// Token-lossy adversaries: the recreation protocol's whole reason to
/// exist. Rates are chosen so multi-token blocks actually lose bundles
/// within a short litmus run.
fn lossy_plans() -> Vec<(String, FaultPlan)> {
    vec![
        ("lossy".into(), FaultPlan::none().dropping_tokens(0.05)),
        (
            "lossy-hostile".into(),
            FaultPlan::none()
                .dropping_tokens(0.05)
                .jittering(0.25, Dur::from_ns(20))
                .reordering(0.10, Dur::from_ns(15)),
        ),
    ]
}

fn run_locking(
    cfg: &SystemConfig,
    protocol: Protocol,
    plan: FaultPlan,
    seed: u64,
) -> (RunResult, LockingWorkload) {
    let w = LockingWorkload::new(4, 2, 4, seed);
    let opts = RunOptions {
        seed,
        max_events: 80_000_000,
        ..RunOptions::default()
    }
    .with_faults(plan);
    run_workload(cfg, protocol, w, &opts)
}

#[test]
fn every_token_variant_survives_token_loss() {
    // The conservation audit runs at quiescence inside run_workload
    // (census + lost ledger == T per block, unique owner, no recreation
    // in progress), so completion here is a far stronger statement than
    // "didn't hang". Two workload characters: lock handoff (dirty-owner
    // migration — its bundles are mostly undroppable, so drops hit the
    // clean stragglers) and barrier spinning (shared copies everywhere,
    // so invalidation-collected clean bundles are prime drop targets —
    // every variant reliably loses tokens here).
    let cfg = SystemConfig::small_test();
    for v in Variant::ALL {
        let mut lost = 0;
        for seed in 1..=4 {
            let (res, w) = run_locking(
                &cfg,
                Protocol::Token(v),
                FaultPlan::none().dropping_tokens(0.15),
                seed,
            );
            assert_eq!(res.outcome, RunOutcome::Idle, "{v:?} locking seed {seed}");
            assert_eq!(w.total_acquires, 4 * 4, "{v:?} seed {seed} lost acquires");
            lost += res.counters.counter("net.fault.lost_tokens");

            let w = BarrierWorkload::new(4, 3, Dur::from_ns(200), Dur::from_ns(100), seed);
            let opts = RunOptions {
                seed,
                max_events: 80_000_000,
                ..RunOptions::default()
            }
            .with_faults(FaultPlan::none().dropping_tokens(0.15));
            let (res, w) = run_workload(&cfg, Protocol::Token(v), w, &opts);
            assert_eq!(res.outcome, RunOutcome::Idle, "{v:?} barrier seed {seed}");
            assert_eq!(w.passes, 4 * 3, "{v:?} seed {seed} lost barrier passes");
            lost += res.counters.counter("net.fault.lost_tokens");
        }
        assert!(
            lost > 0,
            "{v:?}: a 15 % token-lossy plan never lost a token"
        );
    }
}

#[test]
fn recreation_fires_and_is_counted() {
    // Recovery must leave fingerprints: the lost ledger, memory-side
    // recreations, and L1 recreation requests all nonzero somewhere in
    // the sweep; every recreation implies a preceding loss.
    let cfg = SystemConfig::small_test();
    let mut recreations = 0;
    let mut requests = 0;
    let mut lost = 0;
    for seed in 1..=8 {
        let (res, _) = run_locking(
            &cfg,
            Protocol::Token(Variant::Dst1),
            FaultPlan::none().dropping_tokens(0.10),
            seed,
        );
        assert_eq!(res.outcome, RunOutcome::Idle, "seed {seed}");
        recreations += res.counters.counter("mem.recreations");
        requests += res.counters.counter("l1.recreation_requests");
        lost += res.counters.counter("net.fault.lost_tokens");
    }
    assert!(lost > 0, "plan never lost a token");
    assert!(
        recreations > 0,
        "{lost} tokens lost but memory never recreated"
    );
    assert!(
        requests >= recreations,
        "{recreations} recreations from {requests} requests"
    );
}

#[test]
fn litmus_stays_sc_under_token_loss_on_every_variant() {
    // 8 classic shapes × 6 variants × 2 plans × 2 seeds: the §3 claim
    // extended to token loss — recovery may change *when*, never *what*.
    let cfg = SystemConfig::small_test();
    let opts = DiffOptions::default()
        .with_seeds(1..=2)
        .with_plans(lossy_plans());
    for shape in classic_shapes() {
        let report = differential_check(&cfg, &shape, &token_variants(), &opts)
            .unwrap_or_else(|v| panic!("{v}"));
        assert_eq!(report.runs, 6 * 2 * 2, "{}", shape.name);
    }
}

#[test]
fn iriw_under_token_loss_on_the_table3_system() {
    // Multi-copy atomicity on the full four-chip machine while the
    // fabric eats token bundles.
    let cfg = table3_system();
    let opts = DiffOptions::default()
        .with_seeds(1..=2)
        .with_plans(lossy_plans());
    differential_check(&cfg, &shapes::iriw(), &token_variants(), &opts)
        .unwrap_or_else(|v| panic!("{v}"));
}

#[test]
fn conformance_holds_under_token_loss() {
    // The epoch-aware refinement checker replays the full trace — token
    // moves, losses, stale discards, invalidation rounds, remints — and
    // its verdict covers in-flight accounting and per-epoch conservation
    // at quiescence. Zero violations across all six variants on the
    // contended micro-benchmark, plus the recovery-specific transition
    // kinds actually exercised somewhere in the sweep.
    let mut covered = std::collections::BTreeSet::new();
    for &protocol in &token_variants() {
        for seed in [3, 11] {
            let pt = run_conform(
                &ConformWork::Locking,
                protocol,
                seed,
                FaultTier::TokenLossy,
                Mutation::None,
            );
            assert!(
                pt.violation.is_none(),
                "{}: refinement violation\n{}",
                pt.coordinates(),
                pt.violation.unwrap()
            );
            covered.extend(pt.covered.iter().cloned());
        }
    }
    for kind in ["lose", "recreate-start", "deliver-inval", "recreate-done"] {
        assert!(
            covered.contains(kind),
            "sweep never exercised recovery transition `{kind}` (covered: {covered:?})"
        );
    }
}

#[test]
fn token_loss_replays_bit_identically() {
    let cfg = SystemConfig::small_test();
    let run = || {
        let w = BarrierWorkload::new(4, 3, Dur::from_ns(200), Dur::from_ns(100), 41);
        let opts = RunOptions {
            seed: 41,
            ..RunOptions::default()
        }
        .with_faults(FaultPlan::none().dropping_tokens(0.15));
        run_workload(&cfg, Protocol::Token(Variant::Dst4), w, &opts).0
    };
    let (a, b) = (run(), run());
    assert_eq!(a.runtime, b.runtime);
    assert_eq!(a.events, b.events);
    let counters = |r: &RunResult| -> Vec<(String, u64)> {
        r.counters
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    };
    assert_eq!(counters(&a), counters(&b), "counters diverged");
    assert!(
        a.counters.counter("net.fault.lost_tokens") > 0,
        "plan inert"
    );
}

#[test]
fn disabled_tier_is_bit_identical_across_all_protocols() {
    // The acceptance gate: with lossy_tokens off, every protocol — all
    // six TokenCMP variants and the directory/perfect baselines — must
    // produce runs indistinguishable from a fault-free build: same
    // runtime, same events, same counter *keys and values* (no
    // recreation or recovery keys may even appear).
    let cfg = SystemConfig::small_test();
    for protocol in common::all_protocols() {
        let run = |opts: RunOptions| {
            let w = LockingWorkload::new(4, 2, 3, 7);
            run_workload(&cfg, protocol, w, &opts).0
        };
        let base = run(RunOptions {
            seed: 7,
            ..RunOptions::default()
        });
        let gated = run(RunOptions {
            seed: 7,
            ..RunOptions::default()
        }
        .with_faults(FaultPlan::none()));
        assert_eq!(base.runtime, gated.runtime, "{protocol}: runtime diverged");
        assert_eq!(base.events, gated.events, "{protocol}: events diverged");
        let counters = |r: &RunResult| -> Vec<(String, u64)> {
            r.counters
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        };
        assert_eq!(counters(&base), counters(&gated), "{protocol}");
        for (k, _) in base.counters.counters() {
            assert!(
                !k.starts_with("net.fault.") && !k.contains("recreation"),
                "{protocol}: lossless run leaked recovery counter {k}"
            );
            assert_ne!(k, "mem.recreations", "{protocol}");
        }
    }
}

#[test]
#[should_panic(expected = "no message-loss recovery path")]
fn directory_rejects_token_lossy_plans() {
    // lossy_tokens is a drop plan like any other: the directory
    // baselines reject it at configuration time, fail-closed.
    let cfg = SystemConfig::small_test();
    let w = LockingWorkload::new(4, 2, 1, 1);
    let opts = RunOptions::default().with_faults(FaultPlan::none().dropping_tokens(0.01));
    let _ = run_workload(&cfg, Protocol::Directory, w, &opts);
}

#[test]
fn per_class_fault_counters_break_out_the_aggregate() {
    // Satellite: net.fault.dropped.<class> keys must sum to the
    // aggregate, and only token-bearing classes can lose bundles under
    // a pure token-lossy plan (transients stay droppable too — their
    // class is `request`).
    let cfg = SystemConfig::small_test();
    let (res, _) = run_locking(
        &cfg,
        Protocol::Token(Variant::Dst4),
        FaultPlan::none().dropping_tokens(0.10),
        19,
    );
    let total = res.counters.counter("net.fault.dropped");
    assert!(total > 0, "plan inert");
    let classes = [
        "response_data",
        "writeback_data",
        "writeback_control",
        "request",
        "inv_fwd_ack_tokens",
        "unblock",
        "persistent",
    ];
    let sum: u64 = classes
        .iter()
        .map(|c| res.counters.counter(&format!("net.fault.dropped.{c}")))
        .sum();
    assert_eq!(sum, total, "per-class drop counters must sum to aggregate");
    // Recreation handshake and dirty-owner traffic is never droppable.
    assert_eq!(res.counters.counter("net.fault.dropped.persistent"), 0);
    assert_eq!(res.counters.counter("net.fault.dropped.unblock"), 0);
}

/// A trace sink that keeps an FNV-1a digest over every record's time and
/// event (in `Debug` form) instead of the records, plus counts of the
/// recovery events the pins below must reach.
struct StreamDigest {
    layout: Layout,
    hash: u64,
    records: u64,
    /// `EpochInval` records that destroyed held tokens at an L1.
    held_invals_l1: u64,
    /// `EpochInval` records that destroyed held tokens at an L2 bank.
    held_invals_l2: u64,
    /// `StaleDiscard` records.
    stale_discards: u64,
}

impl TraceSink for StreamDigest {
    fn record(&mut self, at: Time, ev: TraceEvent) {
        for b in format!("{} {ev:?}\n", at.as_ps()).bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.records += 1;
        match ev {
            TraceEvent::EpochInval {
                node, discarded, ..
            } if discarded > 0 => match self.layout.unit(node) {
                Unit::L1D(_) | Unit::L1I(_) => self.held_invals_l1 += 1,
                Unit::L2Bank(..) => self.held_invals_l2 += 1,
                _ => {}
            },
            TraceEvent::StaleDiscard { .. } => self.stale_discards += 1,
            _ => {}
        }
    }
}

/// The full trace stream of OLTP (5 transactions per processor) on the
/// small test system under the conformance sweep's token-lossy plan.
fn lossy_oltp_stream(variant: Variant, seed: u64) -> StreamDigest {
    let cfg = SystemConfig::small_test();
    let mut params = CommercialParams::oltp();
    params.txns_per_proc = 5;
    let w = CommercialWorkload::new(cfg.layout().procs(), params, seed);
    let opts = RunOptions {
        seed,
        ..RunOptions::default()
    }
    .with_faults(token_lossy_plan());
    let sink = Rc::new(RefCell::new(StreamDigest {
        layout: cfg.layout(),
        hash: 0xcbf2_9ce4_8422_2325,
        records: 0,
        held_invals_l1: 0,
        held_invals_l2: 0,
        stale_discards: 0,
    }));
    let protocol = Protocol::Token(variant);
    let (res, _) = run_workload_traced(&cfg, protocol, w, &opts, Some(sink.clone()));
    assert_eq!(res.outcome, RunOutcome::Idle, "{variant:?} seed {seed}");
    Rc::try_unwrap(sink)
        .ok()
        .expect("the run released its sink")
        .into_inner()
}

/// The order of every trace record of a token-lossy run, pinned: the
/// counter fingerprints see totals, not the order in which controllers
/// move, discard and invalidate tokens. The arb0 run reaches the
/// invalidate of held tokens at L1s and at L2 banks; the dst1 run
/// destroys a stale bundle.
#[test]
fn token_lossy_trace_streams_are_pinned() {
    let arb0 = lossy_oltp_stream(Variant::Arb0, 1);
    assert!(arb0.held_invals_l1 > 0 && arb0.held_invals_l2 > 0);
    let dst1 = lossy_oltp_stream(Variant::Dst1, 2);
    assert!(dst1.stale_discards > 0);
    for (name, got, want) in [
        ("arb0 seed 1", &arb0, (129_371, 0x78df_405b_e2d6_5469)),
        ("dst1 seed 2", &dst1, (51_825, 0x047f_d5da_6fbc_1a5b)),
    ] {
        assert!(
            (got.records, got.hash) == want,
            "{name}: {} records, digest 0x{:016x}; pinned {} records, 0x{:016x}",
            got.records,
            got.hash,
            want.0,
            want.1
        );
    }
}
