//! Model-checking state throughput of `check_parallel` across worker
//! counts and reduction knobs.
//!
//! Measures states/sec for each model configuration and records the
//! results into the committed trajectory `BENCH_mcheck.json` (see
//! `tokencmp_bench::mcheck`).
//!
//! The `seq` row of each configuration is `check_parallel` on one worker
//! with both reductions off: the pool runs every batch inline at one
//! worker, so that is a sequential search (see `tokencmp_bench::mcheck`
//! for what the row meant in older runs). A `par/w1` row would measure
//! the same run twice, so it is not recorded.
//!
//! Modes (`tokencmp_bench::trajectory::Invocation`):
//! * default — all five fast configurations plus the flagship
//!   `small_recovery/Distributed` (~1.4M states, a ~12s `seq` check and
//!   a ~7s reduced one);
//!   merges into `BENCH_mcheck.json` under `TOKENCMP_BENCH_RUN`
//!   (default `dev`) and runs the speedup gate on the fresh run.
//! * `TOKENCMP_BENCH_SMOKE=1` — two small configurations, two worker
//!   counts, results merged into `target/sweep/BENCH_mcheck.smoke.json`
//!   (the CI artifact) so CI exercises the measure→merge→gate path
//!   without touching the committed trajectory.
//! * `--validate [path]` — no measurement: schema-validate the file
//!   (default: the committed trajectory) and re-run the gate on every
//!   recorded run.
//!
//! Every reductions-off multi-worker run is also asserted
//! state-for-state identical to the one-worker `seq` row — the bench
//! doubles as a determinism check on whatever host it runs on.

use tokencmp::mcheck::{
    check_parallel, CheckOptions, DirModel, DirModelParams, Model, SubstrateMode, TokenModel,
    TokenModelParams,
};
use tokencmp_bench::banner;
use tokencmp_bench::mcheck::{check_speedup, McheckBenchEntry};
use tokencmp_bench::trajectory::Invocation;

/// The `seq` row: one worker, reductions off.
fn seq_entry<M>(run: &str, config: &str, model: &M) -> McheckBenchEntry
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    let mut row = par_entry(run, config, model, 1, false, false);
    row.bench = "seq".into();
    row
}

fn par_entry<M>(
    run: &str,
    config: &str,
    model: &M,
    workers: usize,
    symmetry: bool,
    por: bool,
) -> McheckBenchEntry
where
    M: Model + Sync,
    M::State: Send + Sync,
{
    let opts = CheckOptions {
        workers,
        symmetry,
        por,
        ..CheckOptions::default()
    };
    let r = check_parallel(model, &opts).unwrap_or_else(|v| {
        panic!("{config}: parallel check must pass: {v}");
    });
    McheckBenchEntry::measured(
        run,
        config,
        McheckBenchEntry::par_bench_name(workers, symmetry, por),
        &r,
    )
}

/// Measures one configuration: the one-worker `seq` row, a
/// reductions-off run per wider worker count (determinism + scaling),
/// and a fully reduced run per worker count (the production shape).
fn measure_config<M>(
    run: &str,
    config: &str,
    model: &M,
    workers: &[usize],
    rows: &mut Vec<McheckBenchEntry>,
) where
    M: Model + Sync,
    M::State: Send + Sync,
{
    eprintln!("  measuring {config} ...");
    let seq = seq_entry(run, config, model);
    let seq_states = seq.states;
    rows.push(seq);
    for &w in workers {
        if w > 1 {
            let row = par_entry(run, config, model, w, false, false);
            assert_eq!(
                row.states, seq_states,
                "{config}: reductions-off {w}-worker run diverged from the one-worker run"
            );
            rows.push(row);
        }
        rows.push(par_entry(run, config, model, w, true, true));
    }
}

fn print_table(rows: &[McheckBenchEntry]) {
    println!(
        "{:<28} {:<16} {:>10} {:>12} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "config",
        "bench",
        "states",
        "transitions",
        "states/sec",
        "vs seq",
        "expand s",
        "merge s",
        "progr. s"
    );
    let mut seq_rate = 0.0;
    for e in rows {
        if e.bench == "seq" {
            seq_rate = e.states_per_sec;
        }
        let [expand, merge, progress] = e.phases().map(|(_, ns)| ns.unwrap_or(0) as f64 / 1e9);
        println!(
            "{:<28} {:<16} {:>10} {:>12} {:>12.3e} {:>8.2}x {expand:>9.3} {merge:>9.3} {progress:>9.3}",
            e.config,
            e.bench,
            e.states,
            e.transitions,
            e.states_per_sec,
            e.states_per_sec / seq_rate
        );
    }
}

fn main() {
    let inv = Invocation::<McheckBenchEntry>::start();
    banner(
        "mcheck_scale",
        "parallel explorer states/sec trajectory (infrastructure, not a paper figure)",
    );
    let (run, smoke) = (&inv.run, inv.smoke);
    let workers: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };

    let mut rows = Vec::new();
    measure_config(
        run,
        "small/SafetyOnly",
        &TokenModel::new(TokenModelParams::small(SubstrateMode::SafetyOnly)),
        workers,
        &mut rows,
    );
    measure_config(
        run,
        "dir/small",
        &DirModel::new(DirModelParams::small()),
        workers,
        &mut rows,
    );
    if !smoke {
        measure_config(
            run,
            "small/Distributed",
            &TokenModel::new(TokenModelParams::small(SubstrateMode::Distributed)),
            workers,
            &mut rows,
        );
        measure_config(
            run,
            "small/Arbiter",
            &TokenModel::new(TokenModelParams::small(SubstrateMode::Arbiter)),
            workers,
            &mut rows,
        );
        measure_config(
            run,
            "small_recovery/SafetyOnly",
            &TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::SafetyOnly)),
            workers,
            &mut rows,
        );
        // The flagship ~1.4M-state configuration: the `seq` row plus
        // one fully reduced run at the widest measured worker count
        // (the bulk of this target's wall time).
        let flagship =
            TokenModel::new(TokenModelParams::small_recovery(SubstrateMode::Distributed));
        let config = "small_recovery/Distributed";
        eprintln!("  measuring {config} (flagship, ~20s) ...");
        rows.push(seq_entry(run, config, &flagship));
        let w = *workers.last().expect("worker list is never empty");
        rows.push(par_entry(run, config, &flagship, w, true, true));
    }

    print_table(&rows);
    inv.record(rows.clone());
    match check_speedup(&rows, run) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
