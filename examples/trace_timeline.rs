//! Record a traced TokenCMP run, print a per-block timeline, and export
//! the whole event stream as Chrome `trace_event` JSON loadable in
//! Perfetto (ui.perfetto.dev) or `chrome://tracing`.
//!
//! ```sh
//! cargo run --release --example trace_timeline
//! # open target/sweep/trace_timeline.json in Perfetto
//! ```
//!
//! To follow a single cache line, build the recorder with
//! `RingRecorder::with_block_filter(Block(..))`; the timeline printed
//! below comes from `block_timeline`.

use tokencmp::{
    block_timeline, chrome_trace_json, run_workload_traced, Block, LockingWorkload, Protocol,
    RingRecorder, RunOptions, RunOutcome, SystemConfig, TraceEvent, TraceHandle, Variant,
};

fn main() {
    let cfg = SystemConfig::default();
    let workload = LockingWorkload::new(cfg.layout().procs(), 4, 5, 42);

    // A capacity large enough that nothing is evicted: the example
    // cross-checks the full stream against the run's counters.
    let rec = RingRecorder::new(1 << 20).into_handle();
    let handle: TraceHandle = rec.clone();
    let (res, w) = run_workload_traced(
        &cfg,
        Protocol::Token(Variant::Dst1),
        workload,
        &RunOptions::default(),
        Some(handle),
    );
    assert_eq!(res.outcome, RunOutcome::Idle);
    assert_eq!(w.total_acquires, 16 * 5);

    let rec = rec.borrow();
    let records = rec.to_vec();
    println!(
        "traced {} events in {:.1} ns of simulated time",
        rec.recorded(),
        res.runtime_ns(),
    );

    // Per-transaction invariant: every committed miss's attribution
    // segments sum exactly to its reported latency, and the stream's
    // total matches the run's exported counter.
    let mut commits = 0u64;
    let mut span_ps = 0u64;
    for r in &records {
        if let TraceEvent::MissCommit { total, parts, .. } = r.ev {
            assert_eq!(parts.total(), total.as_ps(), "segments must tile the miss");
            commits += 1;
            span_ps += total.as_ps();
        }
    }
    assert_eq!(commits, res.counters.counter("lat.total.count"));
    assert_eq!(span_ps, res.counters.counter("lat.total.ps_sum"));
    println!(
        "attribution: {commits} committed misses, spans sum to {:.1} ns \
         (mean {:.1} ns, p50 {:.1} ns, p99 {:.1} ns)",
        span_ps as f64 / 1e3,
        span_ps as f64 / 1e3 / commits.max(1) as f64,
        res.counters.counter("lat.total.p50_ps") as f64 / 1e3,
        res.counters.counter("lat.total.p99_ps") as f64 / 1e3,
    );

    // Human-readable timeline of the busiest block.
    let hot = records
        .iter()
        .filter_map(|r| r.ev.block())
        .fold(
            std::collections::BTreeMap::<Block, u64>::new(),
            |mut m, b| {
                *m.entry(b).or_default() += 1;
                m
            },
        )
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .map(|(b, _)| b);
    if let Some(b) = hot {
        let timeline = block_timeline(&records, Some(b));
        println!("\ntimeline of hottest block {b:?} (first 12 lines):");
        for line in timeline.lines().take(12) {
            println!("{line}");
        }
    }

    // Export Chrome trace_event JSON and prove it parses with the
    // repo's own dependency-free JSON parser.
    let json = chrome_trace_json(&records);
    let doc = tokencmp::sweep::json::parse(&json).expect("chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let dir = tokencmp::sweep::report::sweep_dir();
    std::fs::create_dir_all(&dir).expect("create export dir");
    let path = dir.join("trace_timeline.json");
    std::fs::write(&path, &json).expect("write trace");
    println!(
        "\nwrote {} Chrome trace events to {} — load it at ui.perfetto.dev",
        events.len(),
        path.display()
    );
}
