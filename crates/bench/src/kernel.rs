//! The kernel events/sec trajectory (`BENCH_kernel.json`).
//!
//! Unlike the `target/sweep/` exports — regenerated scratch output — the
//! kernel bench writes to a *committed* file at the repository root so
//! successive PRs append comparable `(run, backend, bench)` records and
//! the kernel's throughput history stays reviewable in diffs. This
//! module owns the record model, the merge-with-replacement semantics
//! and the schema validation CI runs.
//!
//! Schema (`tokencmp-kernel-bench-v1`):
//!
//! ```json
//! {
//!   "schema": "tokencmp-kernel-bench-v1",
//!   "entries": [
//!     {"run": "dev", "backend": "heap", "bench": "churn/d4096",
//!      "events": 2000000, "elapsed_ns": 91000000,
//!      "events_per_sec": 21978021.9, "ns_per_event": 45.5}
//!   ]
//! }
//! ```
//!
//! `bench` names are namespaced: `churn/d<depth>` is the pure-kernel
//! hold-model microbench (pop one, push one at a random future offset,
//! steady-state depth `<depth>`), `table3/<protocol>` is a full
//! protocol run on the paper's Table 3 system.
//!
//! `backend` names the event-queue implementation a row was measured
//! on. New rows are always `heap`, the kernel's binary heap; `wheel`
//! rows are historical, measured on the calendar timing wheel the
//! kernel carried until it was retired (DESIGN.md §14).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tokencmp::sweep::json::{parse, Value};

/// Schema tag every trajectory file must carry.
pub const SCHEMA: &str = "tokencmp-kernel-bench-v1";

/// The backend name new rows are written with.
pub const BACKEND: &str = "heap";

/// Every backend name a row may carry: the current one, then the
/// retired timing wheel of the historical rows.
pub const BACKENDS: [&str; 2] = [BACKEND, "wheel"];

/// One measurement: a named bench, on one event-queue backend, in one
/// bench invocation (`run` labels the invocation, e.g. a PR number).
#[derive(Clone, Debug, PartialEq)]
pub struct KernelBenchEntry {
    /// Trajectory label for the invocation (`TOKENCMP_BENCH_RUN`).
    pub run: String,
    /// Event-queue backend name, one of [`BACKENDS`].
    pub backend: String,
    /// Bench name (`churn/d4096`, `table3/token-dst1`, ...).
    pub bench: String,
    /// Events processed during the timed section.
    pub events: u64,
    /// Wall time of the timed section.
    pub elapsed_ns: u64,
    /// `events / elapsed` in events per second.
    pub events_per_sec: f64,
    /// `elapsed / events` in nanoseconds.
    pub ns_per_event: f64,
    /// Host-time attribution (`category → estimated ns`) from a
    /// *separate* profiled companion run — the timed section itself is
    /// never profiled, so rate fields stay comparable across PRs. Empty
    /// when no profile was taken (churn benches, historical entries);
    /// empty maps are omitted from the JSON.
    pub profile: BTreeMap<String, u64>,
}

impl KernelBenchEntry {
    /// An entry from a raw measurement; derives both rate fields.
    pub fn measured(run: &str, bench: String, events: u64, elapsed: Duration) -> KernelBenchEntry {
        let ns = elapsed.as_nanos() as u64;
        KernelBenchEntry {
            run: run.to_string(),
            backend: BACKEND.to_string(),
            bench,
            events,
            elapsed_ns: ns,
            events_per_sec: events as f64 / elapsed.as_secs_f64(),
            ns_per_event: ns as f64 / events as f64,
            profile: BTreeMap::new(),
        }
    }

    /// This entry with a host-time attribution map attached.
    pub fn with_profile(mut self, profile: BTreeMap<String, u64>) -> KernelBenchEntry {
        self.profile = profile;
        self
    }

    /// The replacement key: re-running a bench overwrites the same cell.
    fn key(&self) -> (&str, &str, &str) {
        (&self.run, &self.backend, &self.bench)
    }

    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::from([
            ("run".into(), Value::Str(self.run.clone())),
            ("backend".into(), Value::Str(self.backend.clone())),
            ("bench".into(), Value::Str(self.bench.clone())),
            ("events".into(), Value::Int(self.events)),
            ("elapsed_ns".into(), Value::Int(self.elapsed_ns)),
            ("events_per_sec".into(), Value::Float(self.events_per_sec)),
            ("ns_per_event".into(), Value::Float(self.ns_per_event)),
        ]);
        if !self.profile.is_empty() {
            obj.insert(
                "profile".into(),
                Value::Obj(
                    self.profile
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::Int(v)))
                        .collect(),
                ),
            );
        }
        Value::Obj(obj)
    }

    fn from_value(v: &Value, idx: usize) -> Result<KernelBenchEntry, String> {
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry {idx}: `{k}` missing or not a string"))
        };
        let int_field = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("entry {idx}: `{k}` missing or not an integer"))
        };
        let rate_field = |k: &str| {
            let x = v
                .get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("entry {idx}: `{k}` missing or not a number"))?;
            if x.is_finite() && x > 0.0 {
                Ok(x)
            } else {
                Err(format!("entry {idx}: `{k}` = {x} is not a positive rate"))
            }
        };
        let backend = str_field("backend")?;
        if !BACKENDS.contains(&backend.as_str()) {
            return Err(format!("entry {idx}: unknown backend `{backend}`"));
        }
        let mut profile = BTreeMap::new();
        match v.get("profile") {
            None => {}
            Some(p) => {
                let obj = p
                    .as_obj()
                    .ok_or_else(|| format!("entry {idx}: `profile` is not an object"))?;
                if obj.is_empty() {
                    return Err(format!(
                        "entry {idx}: empty `profile` object (omit the field instead)"
                    ));
                }
                for (k, v) in obj {
                    let ns = v.as_u64().ok_or_else(|| {
                        format!("entry {idx}: profile `{k}` is not an integer ns count")
                    })?;
                    profile.insert(k.clone(), ns);
                }
            }
        }
        Ok(KernelBenchEntry {
            run: str_field("run")?,
            backend,
            bench: str_field("bench")?,
            events: int_field("events")?,
            elapsed_ns: int_field("elapsed_ns")?,
            events_per_sec: rate_field("events_per_sec")?,
            ns_per_event: rate_field("ns_per_event")?,
            profile,
        })
    }
}

/// The committed trajectory file: `<repo root>/BENCH_kernel.json`.
pub fn trajectory_path() -> PathBuf {
    // bench crate manifest dir is `<repo>/crates/bench`.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join("BENCH_kernel.json")
}

/// Parses and schema-validates a trajectory file's text.
pub fn parse_trajectory(text: &str) -> Result<Vec<KernelBenchEntry>, String> {
    let root = parse(text).map_err(|e| format!("not JSON: {e}"))?;
    match root.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("schema `{s}` != expected `{SCHEMA}`")),
        None => return Err("missing `schema` tag".into()),
    }
    let entries = root
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or("missing `entries` array")?;
    entries
        .iter()
        .enumerate()
        .map(|(i, v)| KernelBenchEntry::from_value(v, i))
        .collect()
}

/// Loads a trajectory file; a missing file is an empty trajectory.
pub fn load(path: &Path) -> Result<Vec<KernelBenchEntry>, String> {
    match fs::read_to_string(path) {
        Ok(text) => parse_trajectory(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Merges fresh measurements into an existing trajectory: an entry with
/// the same `(run, backend, bench)` replaces the old record in place
/// (re-running a bench updates its cell); new keys append in
/// measurement order, so the file reads chronologically run by run.
pub fn merge(
    mut existing: Vec<KernelBenchEntry>,
    fresh: Vec<KernelBenchEntry>,
) -> Vec<KernelBenchEntry> {
    for entry in fresh {
        match existing.iter_mut().find(|e| e.key() == entry.key()) {
            Some(slot) => *slot = entry,
            None => existing.push(entry),
        }
    }
    existing
}

/// Renders a trajectory: valid JSON, one entry per line so appending a
/// run produces a line-per-record diff.
pub fn render(entries: &[KernelBenchEntry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "\"schema\": {},", Value::Str(SCHEMA.into()));
    out.push_str("\"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(out, "{}{sep}", e.to_value());
    }
    out.push_str("]\n}\n");
    out
}

/// Loads, merges, and writes back the trajectory at `path`.
pub fn append(path: &Path, fresh: Vec<KernelBenchEntry>) -> Result<Vec<KernelBenchEntry>, String> {
    let merged = merge(load(path)?, fresh);
    fs::write(path, render(&merged)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(merged)
}

/// CI entry point: schema-validate `path`, which must hold at least one
/// entry.
pub fn validate_file(path: &Path) -> Result<String, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = parse_trajectory(&text)?;
    if entries.is_empty() {
        return Err("trajectory is empty".into());
    }
    Ok(format!(
        "{}: {} entries, schema ok\n",
        path.display(),
        entries.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(run: &str, backend: &str, bench: &str, eps: f64) -> KernelBenchEntry {
        KernelBenchEntry {
            run: run.into(),
            backend: backend.into(),
            bench: bench.into(),
            events: 1_000_000,
            elapsed_ns: (1e15 / eps) as u64,
            events_per_sec: eps,
            ns_per_event: 1e9 / eps,
            profile: BTreeMap::new(),
        }
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        // Historical `wheel` rows still load; new rows are written `heap`.
        let fresh =
            KernelBenchEntry::measured("new", "churn/d8".into(), 10, Duration::from_micros(1));
        assert_eq!(fresh.backend, BACKEND);
        let entries = vec![
            entry("pr6", "heap", "churn/d4096", 1.25e7),
            entry("pr6", "wheel", "table3/token-dst1", 3.5e6).with_profile(BTreeMap::from([
                ("sched.pop".to_string(), 120_000u64),
                ("handler.l1".to_string(), 450_000),
            ])),
            fresh,
        ];
        let text = render(&entries);
        // Profile-free entries omit the field entirely.
        assert_eq!(text.matches("profile").count(), 1);
        let parsed = parse_trajectory(&text).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn profile_fields_are_schema_gated() {
        // A non-object profile is rejected.
        let bad = r#"{"schema":"tokencmp-kernel-bench-v1","entries":[
            {"run":"a","backend":"heap","bench":"table3/x","events":1,
             "elapsed_ns":1,"events_per_sec":1.0,"ns_per_event":1.0,
             "profile":[1,2]}]}"#;
        assert!(parse_trajectory(bad).unwrap_err().contains("profile"));
        // Non-integer category values are rejected.
        let bad = r#"{"schema":"tokencmp-kernel-bench-v1","entries":[
            {"run":"a","backend":"heap","bench":"table3/x","events":1,
             "elapsed_ns":1,"events_per_sec":1.0,"ns_per_event":1.0,
             "profile":{"sched.pop":"fast"}}]}"#;
        assert!(parse_trajectory(bad).unwrap_err().contains("sched.pop"));
        // An empty profile object should have been omitted.
        let bad = r#"{"schema":"tokencmp-kernel-bench-v1","entries":[
            {"run":"a","backend":"heap","bench":"table3/x","events":1,
             "elapsed_ns":1,"events_per_sec":1.0,"ns_per_event":1.0,
             "profile":{}}]}"#;
        assert!(parse_trajectory(bad).unwrap_err().contains("empty"));
    }

    #[test]
    fn schema_violations_are_rejected_with_a_reason() {
        for (text, needle) in [
            ("[]", "schema"),
            (
                r#"{"schema":"tokencmp-kernel-bench-v0","entries":[]}"#,
                "v0",
            ),
            (r#"{"schema":"tokencmp-kernel-bench-v1"}"#, "entries"),
            (
                r#"{"schema":"tokencmp-kernel-bench-v1","entries":[{"run":"a"}]}"#,
                "backend",
            ),
        ] {
            let err = parse_trajectory(text).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        // Unknown backend and non-positive rates are schema errors too.
        let mut bogus = entry("a", "heap", "churn/d8", 1e6);
        bogus.backend = "splay".into();
        let err = parse_trajectory(&render(&[bogus])).unwrap_err();
        assert!(err.contains("splay"), "{err}");
        let mut zero = entry("a", "heap", "churn/d8", 1e6);
        zero.events_per_sec = 0.0;
        let err = parse_trajectory(&render(&[zero])).unwrap_err();
        assert!(err.contains("events_per_sec"), "{err}");
    }

    #[test]
    fn merge_replaces_same_key_and_appends_new_runs() {
        let old = vec![
            entry("pr5", "heap", "churn/d8", 1e6),
            entry("pr5", "wheel", "churn/d8", 2e6),
        ];
        let fresh = vec![
            entry("pr5", "wheel", "churn/d8", 3e6), // re-measured: replaces
            entry("pr6", "wheel", "churn/d8", 4e6), // new run: appends
        ];
        let merged = merge(old, fresh);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[1].events_per_sec, 3e6, "replacement kept its slot");
        assert_eq!(merged[2].run, "pr6");
    }
}
