//! The host micro-benchmark trajectory (`BENCH_kernel.json`): its entry
//! type and field checks. The file format, shared with the scale and
//! model-checker trajectories, is [`crate::trajectory`]'s.
//!
//! Schema (`tokencmp-kernel-bench-v1`), one entry:
//!
//! ```json
//! {"backend": "heap", "bench": "churn/d4096", "events": 2000000,
//!  "elapsed_ns": 91000000, "events_per_sec": 21978021.9,
//!  "ns_per_event": 45.5, "host_cores": 2, "run": "pr20"}
//! ```
//!
//! `churn/d<depth>` is the pure-kernel hold-model microbench (pop one,
//! push one at a random future offset, steady-state depth `<depth>`);
//! it isolates the event queue. From run `pr27` on, `fan/d<depth>` rows
//! hold the same depth in fan-outs (broadcasts of 16 copies, four to an
//! arrival tick, each re-sent when its last copy pops), so the queue's
//! fan-out path is measured too. From run `pr28` on, `cache/*` and
//! `book/*` rows time the cache array and the persistent-request book
//! (`cache/insert_get`, `cache/probe_miss`, `book/p16`, `book/p1024`);
//! their `events` count operations, so `ns_per_event` reads as ns per
//! operation. From run `pr31` on, a `bcast/c3135` row times
//! machine-wide broadcasts (fan-outs of 3,135 copies, the queue's radix
//! path) and counts copies as events. Runs up to `pr15` also carry
//! `table3/<protocol>` rows: single best-of-3 full protocol runs on the
//! paper's Table 3 system, with a `profile`. Those rows still load, but
//! new runs no longer measure them: they moved by ±20% between
//! invocations, and the repository benchmark's paired `table3-micro`
//! runs measure the same systems. Per-layer profiles now come with each
//! `BENCH_scale.json` point.
//!
//! `backend` names the event-queue implementation a row was measured
//! on. New rows are always `heap`, the kernel's heap of event heads (a
//! binary heap up to run `pr15`, a 4-ary heap from `pr27` on); `wheel`
//! rows are historical, measured on the calendar timing wheel the
//! kernel carried until it was retired (DESIGN.md §14). The `cache/*`
//! and `book/*` rows use no event queue and carry `heap` like every new
//! row.

use std::time::Duration;

use tokencmp::sweep::json::Value;

use crate::trajectory::{Entry, Fields, Obj, Shared};

/// The backend name new rows are written with.
pub const BACKEND: &str = "heap";

/// Every backend name a row may carry: the current one, then the
/// retired timing wheel of the historical rows.
pub const BACKENDS: [&str; 2] = [BACKEND, "wheel"];

/// One measurement: a named bench, on one event-queue backend, in one
/// bench invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelBenchEntry {
    /// Run label, host core count and profile.
    pub shared: Shared,
    /// Event-queue backend name, one of [`BACKENDS`].
    pub backend: String,
    /// Bench name (`churn/d4096`, `fan/d4096`, `bcast/c3135`,
    /// `cache/probe_miss`, `book/p16`, or a historical
    /// `table3/token-dst1`).
    pub bench: String,
    /// Events (operations, in `cache/*` and `book/*` rows) processed
    /// during the timed section.
    pub events: u64,
    /// Wall time of the timed section.
    pub elapsed_ns: u64,
    /// `events / elapsed` in events per second.
    pub events_per_sec: f64,
    /// `elapsed / events` in nanoseconds.
    pub ns_per_event: f64,
}

impl KernelBenchEntry {
    /// An entry from a raw measurement; derives both rate fields.
    pub fn measured(run: &str, bench: String, events: u64, elapsed: Duration) -> KernelBenchEntry {
        let ns = elapsed.as_nanos() as u64;
        KernelBenchEntry {
            shared: Shared::measured(run),
            backend: BACKEND.to_string(),
            bench,
            events,
            elapsed_ns: ns,
            events_per_sec: events as f64 / elapsed.as_secs_f64(),
            ns_per_event: ns as f64 / events as f64,
        }
    }
}

impl Entry for KernelBenchEntry {
    const SCHEMA: &'static str = "tokencmp-kernel-bench-v1";
    const NAME: &'static str = "BENCH_kernel";

    fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Re-running a bench overwrites the same cell.
    fn key(&self) -> impl PartialEq + '_ {
        (self.backend.as_str(), self.bench.as_str())
    }

    fn write(&self, obj: &mut Obj) {
        obj.extend([
            ("backend".into(), Value::Str(self.backend.clone())),
            ("bench".into(), Value::Str(self.bench.clone())),
            ("events".into(), Value::Int(self.events)),
            ("elapsed_ns".into(), Value::Int(self.elapsed_ns)),
            ("events_per_sec".into(), Value::Float(self.events_per_sec)),
            ("ns_per_event".into(), Value::Float(self.ns_per_event)),
        ]);
    }

    fn read(shared: Shared, f: &Fields<'_>) -> Result<KernelBenchEntry, String> {
        let backend = f.str("backend")?;
        if !BACKENDS.contains(&backend.as_str()) {
            return Err(f.err(format!("unknown backend `{backend}`")));
        }
        Ok(KernelBenchEntry {
            shared,
            backend,
            bench: f.str("bench")?,
            events: f.int("events")?,
            elapsed_ns: f.int("elapsed_ns")?,
            events_per_sec: f.rate("events_per_sec")?,
            ns_per_event: f.rate("ns_per_event")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::trajectory::{merge, render};

    fn parse_trajectory(text: &str) -> Result<Vec<KernelBenchEntry>, String> {
        crate::trajectory::parse_trajectory(text)
    }

    fn entry(run: &str, backend: &str, bench: &str, eps: f64) -> KernelBenchEntry {
        KernelBenchEntry {
            shared: Shared {
                run: run.into(),
                ..Shared::default()
            },
            backend: backend.into(),
            bench: bench.into(),
            events: 1_000_000,
            elapsed_ns: (1e15 / eps) as u64,
            events_per_sec: eps,
            ns_per_event: 1e9 / eps,
        }
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        // Historical `wheel` rows still load; new rows are written `heap`.
        let fresh =
            KernelBenchEntry::measured("new", "churn/d8".into(), 10, Duration::from_micros(1));
        assert_eq!(fresh.backend, BACKEND);
        let mut profiled = entry("pr6", "wheel", "table3/token-dst1", 3.5e6);
        profiled.shared.profile = BTreeMap::from([
            ("sched.pop".to_string(), 120_000u64),
            ("handler.l1".to_string(), 450_000),
        ]);
        let entries = vec![entry("pr6", "heap", "churn/d4096", 1.25e7), profiled, fresh];
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
        assert_eq!(merged[2].shared.run, "pr6");
    }
}
