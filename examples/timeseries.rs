//! Time-series telemetry end to end: run a sampled + traced TokenCMP
//! workload, export the gauge series as schema-stamped JSON, merge the
//! same series into the Perfetto span export as counter tracks, and
//! self-validate every artifact on the way out (the CI observability
//! job runs this example and trusts its assertions).
//!
//! ```sh
//! cargo run --release --example timeseries
//! # open target/sweep/timeseries_perfetto.json in ui.perfetto.dev
//! ```

use tokencmp::sweep::json::{parse, Value};
use tokencmp::sweep::{series_from_value, series_to_value, write_value};
use tokencmp::{
    chrome_trace_with_counters, run_workload_traced, Dur, LockingWorkload, Protocol, RingRecorder,
    RunOptions, RunOutcome, SystemConfig, TraceHandle, Variant, TIMESERIES_SCHEMA,
};

fn main() {
    let cfg = SystemConfig::default();
    let workload = LockingWorkload::new(cfg.layout().procs(), 8, 6, 42);

    let rec = RingRecorder::new(1 << 20).into_handle();
    let handle: TraceHandle = rec.clone();
    let opts = RunOptions::default().with_sampling(Dur::from_ns(50));
    let (mut res, w) = run_workload_traced(
        &cfg,
        Protocol::Token(Variant::Dst1),
        workload,
        &opts,
        Some(handle),
    );
    assert_eq!(res.outcome, RunOutcome::Idle);
    assert_eq!(w.total_acquires, 16 * 6);

    let series = res.series.take().expect("sampling was on");
    assert!(!series.is_empty(), "the run must produce samples");
    println!(
        "sampled {} snapshots every {} ps over {:.1} ns of simulated time",
        series.len(),
        series.period_ps,
        res.runtime_ns()
    );
    println!("gauge/rate keys: {}", series.key_union().join(", "));
    print!("{}", series.tail_table(4));

    // Artifact 1: the standalone schema-stamped series export.
    let value = series_to_value(&series);
    assert_eq!(
        value.get("schema").and_then(Value::as_str),
        Some(TIMESERIES_SCHEMA)
    );
    let path = write_value("timeseries", &value).expect("write series JSON");
    println!("wrote {}", path.display());

    // Self-validation: the exported text parses back to the exact
    // series we measured — schema, period, every sample.
    let text = std::fs::read_to_string(&path).expect("read back");
    let round = series_from_value(&parse(&text).expect("valid JSON")).expect("valid schema");
    assert_eq!(round, series, "JSON round-trip must be lossless");

    // Artifact 2: Perfetto spans + counter tracks on one sim-time axis.
    let records = rec.borrow().to_vec();
    let perfetto = chrome_trace_with_counters(&records, Some(&series));
    let parsed = parse(&perfetto).expect("Perfetto export must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let counters = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
        .count();
    assert!(
        counters > 0,
        "counter tracks missing from the merged export"
    );
    let dir = path.parent().expect("export dir");
    let pf_path = dir.join("timeseries_perfetto.json");
    std::fs::write(&pf_path, &perfetto).expect("write Perfetto export");
    println!(
        "wrote {} ({} events, {} counter samples)",
        pf_path.display(),
        events.len(),
        counters
    );
    println!("timeseries example OK");
}
