//! The scale-out trajectory (`BENCH_scale.json`): its entry type, field
//! checks and gate. The file format, shared with the kernel and
//! model-checker trajectories, is [`crate::trajectory`]'s.
//!
//! Each entry records one full protocol run at a
//! `(fabric, cmps, cores_per_cmp)` point of the scale-out grid —
//! simulated runtime, events processed and host events/sec — so the cost
//! of growing the system from the paper's 4-CMP × 4-core Table 3 machine
//! to 64 CMPs × 16 cores stays reviewable in diffs as the simulator
//! evolves. From run `pr20` on, each entry also records the host's core
//! count and the per-layer `profile` of a profiled companion run of the
//! same point, so a ratio between two points can be explained from the
//! file. Newer entries also record that companion run's own wall time
//! (`profiled_wall_ns`), so a profile that sums past the timed run can be
//! told apart from a profiled run that ran longer. From run `pr27` on,
//! a point's timed run repeats until at least a second has passed:
//! `elapsed_ns` is then the median of `reps` runs, between the quartiles
//! `elapsed_q1_ns` and `elapsed_q3_ns`, so a small point is no longer one
//! run of a few milliseconds.
//!
//! Schema (`tokencmp-scale-bench-v1`), one entry:
//!
//! ```json
//! {"run": "pr27", "fabric": "mesh", "cmps": 64, "cores_per_cmp": 4,
//!  "cores": 256, "events": 1092983, "runtime_ps": 22444625,
//!  "elapsed_ns": 280000000, "events_per_sec": 3903510.7,
//!  "ns_per_event": 256.2, "host_cores": 2, "reps": 4,
//!  "elapsed_q1_ns": 276000000, "elapsed_q3_ns": 291000000,
//!  "profile": {"handler.l1": 150000000, "sched.pop": 120000000},
//!  "profiled_wall_ns": 350000000}
//! ```
//!
//! The gate (run by the CI `scale` job) requires the trajectory to
//! contain at least one completed 1024-core-or-larger mesh point: the
//! file must keep proving that the multi-hop fabric actually carries a
//! 64-CMP × 16-core workload.

use std::time::Duration;

use tokencmp::sweep::json::Value;

use crate::trajectory::{Entry, Fields, Obj, Shared};

/// Fabric names a trajectory entry may carry ([`tokencmp::Fabric`]
/// `name()` values).
pub const FABRICS: [&str; 3] = ["flat", "ring", "mesh"];

/// The acceptance point the committed trajectory must retain: a
/// completed mesh run of at least this many cores.
pub const GATE_CORES: u64 = 1024;

/// One measurement: a full protocol run at one scale-out grid point in
/// one bench invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleBenchEntry {
    /// Run label, host core count and profile.
    pub shared: Shared,
    /// Inter-CMP fabric name (`flat` / `ring` / `mesh`).
    pub fabric: String,
    /// Chip count.
    pub cmps: u64,
    /// Processors per chip.
    pub cores_per_cmp: u64,
    /// Total cores (`cmps × cores_per_cmp`, stored for grep-ability and
    /// cross-checked on parse).
    pub cores: u64,
    /// Events processed by the run.
    pub events: u64,
    /// Simulated runtime of the run in picoseconds.
    pub runtime_ps: u64,
    /// Wall time of the run.
    pub elapsed_ns: u64,
    /// `events / elapsed` in events per second.
    pub events_per_sec: f64,
    /// `elapsed / events` in nanoseconds.
    pub ns_per_event: f64,
    /// Wall time of the profiled companion run whose attribution is
    /// `shared.profile`. Optional on parse (older rows lack it) and
    /// omitted when absent.
    pub profiled_wall_ns: Option<u64>,
    /// How often the timed run was repeated, when it was: `elapsed_ns`
    /// is then the median. Optional on parse (older rows are one run)
    /// and omitted when absent.
    pub repeats: Option<Repeats>,
}

/// A repeated timed run: how many runs, and the quartiles of their wall
/// times (written as `reps`, `elapsed_q1_ns` and `elapsed_q3_ns`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Repeats {
    /// Timed runs of the point.
    pub reps: u64,
    /// First quartile of their wall times.
    pub q1_ns: u64,
    /// Third quartile of their wall times.
    pub q3_ns: u64,
}

impl Repeats {
    /// The median and quartiles of `times` (at least one run), nearest
    /// rank: the median of an even count is the upper middle run.
    pub fn of(times: &[Duration]) -> (Duration, Repeats) {
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        assert!(n > 0, "no timed run");
        let at = |q: usize| sorted[(n * q / 4).min(n - 1)];
        let ns = |d: Duration| d.as_nanos() as u64;
        let repeats = Repeats {
            reps: n as u64,
            q1_ns: ns(at(1)),
            q3_ns: ns(at(3)),
        };
        (at(2), repeats)
    }
}

impl ScaleBenchEntry {
    /// An entry from a raw measurement; derives the rate fields.
    pub fn measured(
        run: &str,
        fabric: &str,
        cmps: u64,
        cores_per_cmp: u64,
        events: u64,
        runtime_ps: u64,
        elapsed: Duration,
    ) -> ScaleBenchEntry {
        let ns = elapsed.as_nanos() as u64;
        ScaleBenchEntry {
            shared: Shared::measured(run),
            fabric: fabric.to_string(),
            cmps,
            cores_per_cmp,
            cores: cmps * cores_per_cmp,
            events,
            runtime_ps,
            elapsed_ns: ns,
            events_per_sec: events as f64 / elapsed.as_secs_f64(),
            ns_per_event: ns as f64 / events as f64,
            profiled_wall_ns: None,
            repeats: None,
        }
    }
}

impl Entry for ScaleBenchEntry {
    const SCHEMA: &'static str = "tokencmp-scale-bench-v1";
    const NAME: &'static str = "BENCH_scale";

    fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Re-running a grid point overwrites its cell.
    fn key(&self) -> impl PartialEq + '_ {
        (self.fabric.as_str(), self.cmps, self.cores_per_cmp)
    }

    fn write(&self, obj: &mut Obj) {
        obj.extend([
            ("fabric".into(), Value::Str(self.fabric.clone())),
            ("cmps".into(), Value::Int(self.cmps)),
            ("cores_per_cmp".into(), Value::Int(self.cores_per_cmp)),
            ("cores".into(), Value::Int(self.cores)),
            ("events".into(), Value::Int(self.events)),
            ("runtime_ps".into(), Value::Int(self.runtime_ps)),
            ("elapsed_ns".into(), Value::Int(self.elapsed_ns)),
            ("events_per_sec".into(), Value::Float(self.events_per_sec)),
            ("ns_per_event".into(), Value::Float(self.ns_per_event)),
        ]);
        if let Some(ns) = self.profiled_wall_ns {
            obj.insert("profiled_wall_ns".into(), Value::Int(ns));
        }
        if let Some(r) = self.repeats {
            obj.extend([
                ("reps".into(), Value::Int(r.reps)),
                ("elapsed_q1_ns".into(), Value::Int(r.q1_ns)),
                ("elapsed_q3_ns".into(), Value::Int(r.q3_ns)),
            ]);
        }
    }

    fn read(shared: Shared, f: &Fields<'_>) -> Result<ScaleBenchEntry, String> {
        let fabric = f.str("fabric")?;
        if !FABRICS.contains(&fabric.as_str()) {
            return Err(f.err(format!("unknown fabric `{fabric}`")));
        }
        let entry =
            ScaleBenchEntry {
                shared,
                fabric,
                cmps: f.int("cmps")?,
                cores_per_cmp: f.int("cores_per_cmp")?,
                cores: f.int("cores")?,
                events: f.int("events")?,
                runtime_ps: f.int("runtime_ps")?,
                elapsed_ns: f.int("elapsed_ns")?,
                events_per_sec: f.rate("events_per_sec")?,
                ns_per_event: f.rate("ns_per_event")?,
                profiled_wall_ns: f.opt_int("profiled_wall_ns")?,
                repeats: match (
                    f.opt_int("reps")?,
                    f.opt_int("elapsed_q1_ns")?,
                    f.opt_int("elapsed_q3_ns")?,
                ) {
                    (None, None, None) => None,
                    (Some(reps), Some(q1_ns), Some(q3_ns)) => Some(Repeats { reps, q1_ns, q3_ns }),
                    _ => return Err(f.err(
                        "`reps`, `elapsed_q1_ns` and `elapsed_q3_ns` come together or not at all",
                    )),
                },
            };
        if entry.cores != entry.cmps * entry.cores_per_cmp {
            return Err(f.err(format!(
                "cores ({}) != cmps ({}) × cores_per_cmp ({})",
                entry.cores, entry.cmps, entry.cores_per_cmp
            )));
        }
        if entry.runtime_ps == 0 || entry.events == 0 {
            return Err(f.err("a completed run has nonzero events and runtime"));
        }
        if entry.profiled_wall_ns == Some(0) {
            return Err(f.err("`profiled_wall_ns` must be >= 1"));
        }
        if entry.profiled_wall_ns.is_some() && entry.shared.profile.is_empty() {
            return Err(f.err("`profiled_wall_ns` without a `profile`"));
        }
        if let Some(r) = entry.repeats {
            if r.reps == 0 || !(r.q1_ns <= entry.elapsed_ns && entry.elapsed_ns <= r.q3_ns) {
                return Err(f.err(format!(
                    "`reps` ({}) must be >= 1 and `elapsed_q1_ns` <= `elapsed_ns` <= `elapsed_q3_ns` ({} <= {} <= {})",
                    r.reps, r.q1_ns, entry.elapsed_ns, r.q3_ns
                )));
            }
        }
        Ok(entry)
    }

    fn gate(entries: &[Self]) -> Result<String, String> {
        check_gate(entries)
    }
}

/// The scale-out gate: the trajectory must contain at least one
/// completed mesh point of [`GATE_CORES`] cores or more (the
/// per-entry parse already rejected zero-event/zero-runtime rows).
pub fn check_gate(entries: &[ScaleBenchEntry]) -> Result<String, String> {
    let best = entries
        .iter()
        .filter(|e| e.fabric == "mesh" && e.cores >= GATE_CORES)
        .max_by_key(|e| e.cores)
        .ok_or_else(|| {
            format!("no completed mesh point with >= {GATE_CORES} cores in the trajectory")
        })?;
    Ok(format!(
        "gate: run `{}` mesh {}x{} = {} cores, {} events in {} ps sim time ({:.2e} ev/s host) — ok\n",
        best.shared.run,
        best.cmps,
        best.cores_per_cmp,
        best.cores,
        best.events,
        best.runtime_ps,
        best.events_per_sec
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{merge, render};

    fn parse_trajectory(text: &str) -> Result<Vec<ScaleBenchEntry>, String> {
        crate::trajectory::parse_trajectory(text)
    }

    fn entry(run: &str, fabric: &str, cmps: u64, cpc: u64) -> ScaleBenchEntry {
        ScaleBenchEntry::measured(
            run,
            fabric,
            cmps,
            cpc,
            1_000_000,
            5_000_000,
            Duration::from_millis(800),
        )
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let mut profiled = entry("pr11", "mesh", 8, 2);
        profiled.shared.profile.insert("handler.l1".into(), 400_000);
        profiled.profiled_wall_ns = Some(900_000_000);
        let mut repeated = entry("pr27", "flat", 4, 4);
        repeated.repeats = Some(Repeats {
            reps: 5,
            q1_ns: 790_000_000,
            q3_ns: 830_000_000,
        });
        let entries = vec![
            entry("pr10", "flat", 4, 4),
            entry("pr10", "mesh", 64, 16),
            entry("pr10", "ring", 16, 4),
            profiled,
            repeated,
        ];
        let text = render(&entries);
        let parsed = parse_trajectory(&text).unwrap();
        assert_eq!(parsed, entries);
        // An entry without the profiled run's wall time, or run once,
        // writes no field for it.
        assert_eq!(text.matches("profiled_wall_ns").count(), 1, "{text}");
        assert_eq!(text.matches("\"reps\"").count(), 1, "{text}");
    }

    #[test]
    fn repeats_take_the_median_and_quartiles() {
        let ms = |v: &[u64]| {
            v.iter()
                .map(|&m| Duration::from_millis(m))
                .collect::<Vec<_>>()
        };
        let (median, r) = Repeats::of(&ms(&[40, 10, 30, 20, 50]));
        assert_eq!(median, Duration::from_millis(30));
        assert_eq!((r.reps, r.q1_ns, r.q3_ns), (5, 20_000_000, 40_000_000));
        let (median, r) = Repeats::of(&ms(&[7]));
        assert_eq!(median, Duration::from_millis(7));
        assert_eq!((r.q1_ns, r.q3_ns), (7_000_000, 7_000_000));
    }

    #[test]
    fn schema_violations_are_rejected_with_a_reason() {
        for (text, needle) in [
            ("[]", "schema"),
            (r#"{"schema":"tokencmp-scale-bench-v0","entries":[]}"#, "v0"),
            (r#"{"schema":"tokencmp-scale-bench-v1"}"#, "entries"),
            (
                r#"{"schema":"tokencmp-scale-bench-v1","entries":[{"run":"a"}]}"#,
                "fabric",
            ),
        ] {
            let err = parse_trajectory(text).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        // Unknown fabrics, inconsistent core products, and empty runs
        // are schema errors too.
        let mut bogus = entry("a", "mesh", 8, 2);
        bogus.fabric = "torus".into();
        let err = parse_trajectory(&render(&[bogus])).unwrap_err();
        assert!(err.contains("torus"), "{err}");
        let mut skewed = entry("a", "mesh", 8, 2);
        skewed.cores = 17;
        let err = parse_trajectory(&render(&[skewed])).unwrap_err();
        assert!(err.contains("cores"), "{err}");
        let mut hollow = entry("a", "mesh", 8, 2);
        hollow.events = 0;
        let err = parse_trajectory(&render(&[hollow])).unwrap_err();
        assert!(err.contains("completed"), "{err}");
        // A profiled run's wall time is positive and comes with its
        // profile.
        let mut instant = entry("a", "mesh", 8, 2);
        instant.shared.profile.insert("handler.l1".into(), 1);
        instant.profiled_wall_ns = Some(0);
        let err = parse_trajectory(&render(&[instant])).unwrap_err();
        assert!(err.contains("profiled_wall_ns"), "{err}");
        let mut orphan = entry("a", "mesh", 8, 2);
        orphan.profiled_wall_ns = Some(5);
        let err = parse_trajectory(&render(&[orphan])).unwrap_err();
        assert!(err.contains("without a `profile`"), "{err}");
        // Repeats carry the median between their quartiles, all three
        // fields or none.
        let mut outside = entry("a", "mesh", 8, 2);
        outside.repeats = Some(Repeats {
            reps: 3,
            q1_ns: 1,
            q3_ns: 2,
        });
        let err = parse_trajectory(&render(&[outside])).unwrap_err();
        assert!(err.contains("elapsed_q1_ns"), "{err}");
        let text = render(&[entry("a", "mesh", 8, 2)])
            .replace("\"elapsed_ns\"", "\"reps\":2,\"elapsed_ns\"");
        let err = parse_trajectory(&text).unwrap_err();
        assert!(err.contains("together"), "{err}");
    }

    #[test]
    fn merge_replaces_same_key_and_appends_new_points() {
        let old = vec![entry("pr10", "flat", 4, 4), entry("pr10", "mesh", 64, 16)];
        let mut remeasured = entry("pr10", "mesh", 64, 16);
        remeasured.events = 2_000_000;
        let fresh = vec![remeasured, entry("pr11", "mesh", 64, 16)];
        let merged = merge(old, fresh);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[1].events, 2_000_000, "replacement kept its slot");
        assert_eq!(merged[2].shared.run, "pr11");
    }

    #[test]
    fn the_gate_requires_a_large_mesh_point() {
        // Flat-only trajectories prove nothing about the fabric.
        let err = check_gate(&[entry("a", "flat", 64, 16)]).unwrap_err();
        assert!(err.contains("mesh"), "{err}");
        // A small mesh point is not the acceptance point.
        let err = check_gate(&[entry("a", "mesh", 8, 4)]).unwrap_err();
        assert!(err.contains("1024"), "{err}");
        // The 64 × 16 mesh point satisfies the gate and is named.
        let verdict = check_gate(&[entry("a", "flat", 4, 4), entry("a", "mesh", 64, 16)]).unwrap();
        assert!(verdict.contains("64x16"), "{verdict}");
    }
}
