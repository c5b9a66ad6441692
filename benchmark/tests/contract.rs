//! The benchmark keeps the contract `BENCHMARK.json` declares: names,
//! units and bounds agree with the code, every run emits exactly the
//! declared metrics, results round-trip, and a wrong output fails.

use std::collections::BTreeSet;
use std::time::Instant;

use tokencmp::sweep::json::{self, Value};
use tokencmp_benchmark::measure::{self, golden_digest, Plan};
use tokencmp_benchmark::report::Report;
use tokencmp_benchmark::{Workload, END_TO_END, PER_LAYER};

fn load(file: &str) -> Value {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn spec() -> Value {
    load("../BENCHMARK.json")
}

fn entries<'a>(spec: &'a Value, key: &str) -> &'a [Value] {
    spec.get(key).and_then(Value::as_arr).expect(key)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect(key)
}

fn declared(spec: &Value, key: &str) -> BTreeSet<(String, String)> {
    entries(spec, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_name_is_valid_and_used_once() {
    let spec = spec();
    let mut seen = BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for e in entries(&spec, key) {
            let name = field(e, "name");
            assert!(valid_name(name), "invalid name `{name}`");
            assert!(seen.insert(name.to_string()), "`{name}` used twice");
        }
    }
    for w in entries(&spec, "workloads") {
        let why = field(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {w}");
    }
}

#[test]
fn declarations_match_the_code() {
    let spec = spec();
    let names: Vec<&str> = entries(&spec, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, Workload::ALL.map(Workload::name));
    for (e, (name, unit, bound)) in entries(&spec, "end_to_end").iter().zip(END_TO_END) {
        assert_eq!((field(e, "name"), field(e, "unit")), (name, unit));
        assert_eq!(field(e, "better"), "lower", "{name}");
        assert_eq!(
            e.get("bound").and_then(Value::as_f64),
            Some(bound),
            "{name}"
        );
    }
    let e2e = declared(&spec, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    let layers = declared(&spec, "per_layer");
    let code: BTreeSet<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(layers, code);
}

#[test]
fn layer_map_names_declared_metrics_and_workloads() {
    let spec = spec();
    let layers: BTreeSet<String> = declared(&spec, "per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let e2e: BTreeSet<String> = declared(&spec, "end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let map = load("layers.json");
    let map = map.as_obj().expect("layers.json is an object");
    assert_eq!(map.keys().cloned().collect::<BTreeSet<_>>(), layers);
    for (metric, entry) in map {
        let layer = field(entry, "layer");
        assert!(
            metric.starts_with(&format!("{layer}.")),
            "{metric} in {layer}"
        );
        for m in entry.get("moves").and_then(Value::as_arr).expect("moves") {
            let m = m.as_str().expect("metric name");
            assert!(e2e.contains(m), "{metric} moves undeclared {m}");
        }
        for w in entry.get("on").and_then(Value::as_arr).expect("on") {
            let w = w.as_str().expect("workload name");
            assert!(Workload::parse(w).is_some(), "{metric} on unknown {w}");
        }
    }
}

#[test]
fn result_json_round_trips() {
    let plan = Plan::new(Workload::McheckRecovery, 3, 0, false, true);
    let report = measure::run(&plan).report;
    let text = report.to_json().to_string();
    let back = Report::from_json(&json::parse(&text).unwrap()).unwrap();
    let mut sorted = report.clone();
    sorted.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(back, sorted);
}

#[test]
fn smoke_runs_emit_every_declared_metric() {
    let spec = spec();
    let start = Instant::now();
    // Smoke runs check what is emitted, not how fast, so the workloads
    // share the host's cores.
    std::thread::scope(|s| {
        for w in Workload::ALL {
            let spec = &spec;
            s.spawn(move || {
                for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                    let report = measure::run(&Plan::new(w, 11, 0, trace, true)).report;
                    assert!(report.correct, "{} trace={trace}: {report:?}", w.name());
                    let emitted: BTreeSet<(String, String)> = report
                        .metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.unit.clone()))
                        .collect();
                    assert_eq!(emitted, declared(spec, key), "{} trace={trace}", w.name());
                    assert_eq!(emitted.len(), report.metrics.len(), "duplicate metric");
                }
            });
        }
    });
    let took = start.elapsed().as_secs_f64();
    assert!(took < 30.0, "smoke runs took {took:.1} s");
}

#[test]
fn a_wrong_golden_digest_fails_the_run() {
    let mut plan = Plan::new(Workload::Table3Micro, 7, 0, false, true);
    assert_eq!(plan.golden, None, "smoke sizes are not pinned");
    plan.golden = golden_digest(Workload::Table3Micro);
    let report = measure::run(&plan).report;
    assert!(!report.correct);
    assert_eq!(report.failed, 1);
}
