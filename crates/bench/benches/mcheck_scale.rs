//! Model-checking state throughput of `check_parallel` across worker
//! counts and reduction knobs.
//!
//! Measures states/sec for each model configuration, records the
//! results into the committed trajectory `BENCH_mcheck.json` (see
//! `tokencmp_bench::mcheck`), and exports the per-configuration scaling
//! table to `target/sweep/mcheck_scaling.json` for the CI artifact.
//!
//! The `seq` row of each configuration is `check_parallel` on one worker
//! with both reductions off: the pool runs every batch inline at one
//! worker, so that is a sequential search (see `tokencmp_bench::mcheck`
//! for what the row meant in older runs). A `par/w1` row would measure
//! the same run twice, so it is not recorded.
//!
//! Modes:
//! * default — all five fast configurations plus the flagship
//!   `small_recovery/Distributed` (~1.4M states, a ~12s `seq` check and
//!   a ~7s reduced one);
//!   merges into `BENCH_mcheck.json` under `TOKENCMP_BENCH_RUN`
//!   (default `dev`) and runs the speedup gate on the fresh run.
//! * `TOKENCMP_BENCH_SMOKE=1` — two small configurations, two worker
//!   counts, results to a scratch file in the temp dir so CI exercises
//!   the measure→merge→validate path without touching the committed
//!   trajectory.
//! * `--validate [path]` — no measurement: schema-validate the file
//!   (default: the committed trajectory) and re-run the gate on every
//!   recorded run.
//!
//! Every reductions-off multi-worker run is also asserted
//! state-for-state identical to the one-worker `seq` row — the bench
//! doubles as a determinism check on whatever host it runs on.

use std::path::PathBuf;

use tokencmp::mcheck::{
    check_parallel, CheckOptions, DirModel, DirModelParams, Model, SubstrateMode, TokenModel,
    TokenModelParams,
};
use tokencmp::sweep::json::Value;
use tokencmp_bench::banner;
use tokencmp_bench::mcheck::{
    append, check_speedup, trajectory_path, validate_file, McheckBenchEntry,
};

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

/// The scaling-table artifact CI uploads: one object per measured row,
/// with its wall-time split and the speedup against the same
/// configuration's `seq` rate.
fn export_scaling_table(rows: &[McheckBenchEntry]) {
    let mut arr = Vec::new();
    let seq_rate = |config: &str| {
        rows.iter()
            .find(|e| e.config == config && e.bench == "seq")
            .map(|e| e.states_per_sec)
    };
    for e in rows {
        let mut obj = std::collections::BTreeMap::from([
            ("config".to_string(), Value::Str(e.config.clone())),
            ("bench".to_string(), Value::Str(e.bench.clone())),
            ("states".to_string(), Value::Int(e.states)),
            ("transitions".to_string(), Value::Int(e.transitions)),
            ("states_per_sec".to_string(), Value::Float(e.states_per_sec)),
            ("workers".to_string(), Value::Int(e.workers)),
            ("host_cores".to_string(), Value::Int(e.host_cores)),
        ]);
        for (k, ns) in e.phases() {
            if let Some(ns) = ns {
                obj.insert(k.to_string(), Value::Int(ns));
            }
        }
        if let Some(base) = seq_rate(&e.config) {
            obj.insert(
                "speedup_vs_seq".to_string(),
                Value::Float(e.states_per_sec / base),
            );
        }
        arr.push(Value::Obj(obj));
    }
    match tokencmp::sweep::write_value("mcheck_scaling", &Value::Arr(arr)) {
        Ok(path) => println!("[sweep] wrote {}", path.display()),
        Err(e) => eprintln!("[sweep] export mcheck_scaling failed: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if args.first().map(String::as_str) == Some("--validate") {
        let path = args
            .get(1)
            .map(PathBuf::from)
            .unwrap_or_else(trajectory_path);
        match validate_file(&path) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("BENCH_mcheck.json validation failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    banner(
        "mcheck_scale",
        "parallel explorer states/sec trajectory (infrastructure, not a paper figure)",
    );
    let smoke = std::env::var("TOKENCMP_BENCH_SMOKE").is_ok();
    let run = std::env::var("TOKENCMP_BENCH_RUN")
        .unwrap_or_else(|_| if smoke { "smoke" } else { "dev" }.into());
    let path = if smoke {
        let p =
            std::env::temp_dir().join(format!("BENCH_mcheck.smoke.{}.json", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    } else {
        trajectory_path()
    };
    let workers: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };

    let mut rows = Vec::new();
    measure_config(
        &run,
        "small/SafetyOnly",
        &TokenModel::new(TokenModelParams::small(SubstrateMode::SafetyOnly)),
        workers,
        &mut rows,
    );
    measure_config(
        &run,
        "dir/small",
        &DirModel::new(DirModelParams::small()),
        workers,
        &mut rows,
    );
    if !smoke {
        measure_config(
            &run,
            "small/Distributed",
            &TokenModel::new(TokenModelParams::small(SubstrateMode::Distributed)),
            workers,
            &mut rows,
        );
        measure_config(
            &run,
            "small/Arbiter",
            &TokenModel::new(TokenModelParams::small(SubstrateMode::Arbiter)),
            workers,
            &mut rows,
        );
        measure_config(
            &run,
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
        rows.push(seq_entry(&run, config, &flagship));
        let w = *workers.last().expect("worker list is never empty");
        rows.push(par_entry(&run, config, &flagship, w, true, true));
    }

    print_table(&rows);
    export_scaling_table(&rows);

    match append(&path, rows.clone()) {
        Ok(all) => println!(
            "\nwrote {} ({} entries, run `{run}`)",
            path.display(),
            all.len()
        ),
        Err(e) => {
            eprintln!("failed to write trajectory: {e}");
            std::process::exit(1);
        }
    }
    match check_speedup(&rows, &run) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
