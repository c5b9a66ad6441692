//! The model-checking states/sec trajectory (`BENCH_mcheck.json`).
//!
//! Companion to [`crate::kernel`]: a *committed* trajectory file at the
//! repository root recording what the parallel explorer is worth on
//! each model configuration, run over run. Each record is one checker
//! invocation on one configuration — the sequential baseline (`seq`) or
//! a parallel run named by its knobs (`par/w4`, `par/w4+sym+por`) — so
//! diffs show the state-throughput history next to the kernel one.
//!
//! `seq` is `check_parallel` on one worker with both reductions off (the
//! worker pool runs inline at one worker, so this is a sequential
//! search), and such runs record no `par/w1` row. Runs that do carry a
//! `par/w1` row measured `seq` with a separate sequential BFS, since
//! deleted, which one explorer worker beat by 1.15–1.34× on every
//! Section 5 configuration (EXPERIMENTS.md, "One model-checker
//! search"). The gate's denominator is therefore faster in runs without
//! a `par/w1` row, so the gate is stricter there, not looser.
//!
//! Schema (`tokencmp-mcheck-bench-v1`):
//!
//! ```json
//! {
//!   "schema": "tokencmp-mcheck-bench-v1",
//!   "entries": [
//!     {"run": "pr9", "config": "small_recovery/Distributed",
//!      "bench": "par/w4+sym+por", "states": 1437255,
//!      "transitions": 7222739, "elapsed_ns": 35630000000,
//!      "states_per_sec": 40338.6, "workers": 4, "host_cores": 4,
//!      "expand_ns": 30210000000, "merge_ns": 4120000000,
//!      "progress_ns": 1180000000}
//!   ]
//! }
//! ```
//!
//! `expand_ns`, `merge_ns` and `progress_ns` split the wall time into
//! the explorer's frontier expansion, its sequential merges and the
//! progress check (`ExploreReport::{expand_s, merge_s, progress_s}`).
//! Entries from runs before `pr18` lack them; they are optional, but the
//! phases an entry records may not sum to more than its `elapsed_ns`.
//!
//! The speedup gate is honest about hardware: `check_parallel` must hit
//! ≥2x the same run's sequential states/sec **only** for entries
//! measured with ≥4 workers on a host with ≥4 cores. Entries from
//! smaller hosts (the 1-core CI runner included) are validated for
//! schema and determinism elsewhere but never gated on speed — a
//! level-synchronous explorer cannot beat its own one-worker run without
//! real parallelism under it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tokencmp::mcheck::ExploreReport;
use tokencmp::sweep::json::{parse, Value};

/// Schema tag every trajectory file must carry.
pub const SCHEMA: &str = "tokencmp-mcheck-bench-v1";

/// Workers/cores floor above which the 2x speedup gate applies.
pub const GATE_MIN_CORES: u64 = 4;

/// One checker invocation on one model configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct McheckBenchEntry {
    /// Trajectory label for the invocation (`TOKENCMP_BENCH_RUN`).
    pub run: String,
    /// Model configuration (`small/SafetyOnly`, `small_recovery/Distributed`,
    /// `dir/small`, ...).
    pub config: String,
    /// Checker shape: `seq` (one worker, no reductions), or
    /// `par/w<workers>[+sym][+por]`.
    pub bench: String,
    /// Distinct states stored.
    pub states: u64,
    /// Transitions taken.
    pub transitions: u64,
    /// Wall time of the check.
    pub elapsed_ns: u64,
    /// `states / elapsed` in states per second.
    pub states_per_sec: f64,
    /// Worker threads used (1 for `seq`).
    pub workers: u64,
    /// `available_parallelism` on the measuring host — the gate reads
    /// this, so 1-core CI entries are self-describing.
    pub host_cores: u64,
    /// Wall time in frontier expansion (absent before run `pr18`).
    pub expand_ns: Option<u64>,
    /// Wall time in the sequential merges (absent before run `pr18`).
    pub merge_ns: Option<u64>,
    /// Wall time in the progress check (absent before run `pr18`).
    pub progress_ns: Option<u64>,
}

impl McheckBenchEntry {
    /// An entry from one explorer run; derives the rate field, records
    /// the wall-time split and stamps the host's core count.
    pub fn measured(run: &str, config: &str, bench: String, r: &ExploreReport) -> McheckBenchEntry {
        let ns = |s: f64| Duration::from_secs_f64(s).as_nanos() as u64;
        let elapsed = r.seconds.max(1e-9);
        McheckBenchEntry {
            run: run.to_string(),
            config: config.to_string(),
            bench,
            states: r.states as u64,
            transitions: r.transitions,
            elapsed_ns: ns(elapsed),
            states_per_sec: r.states as f64 / elapsed,
            workers: r.workers as u64,
            host_cores: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            expand_ns: Some(ns(r.expand_s)),
            merge_ns: Some(ns(r.merge_s)),
            progress_ns: Some(ns(r.progress_s)),
        }
    }

    /// The phase fields by name: expansion, merge, progress.
    pub fn phases(&self) -> [(&'static str, Option<u64>); 3] {
        [
            ("expand_ns", self.expand_ns),
            ("merge_ns", self.merge_ns),
            ("progress_ns", self.progress_ns),
        ]
    }

    /// The canonical `par/...` bench name for a knob combination.
    pub fn par_bench_name(workers: usize, symmetry: bool, por: bool) -> String {
        let mut name = format!("par/w{workers}");
        if symmetry {
            name.push_str("+sym");
        }
        if por {
            name.push_str("+por");
        }
        name
    }

    /// The replacement key: re-running a bench overwrites the same cell.
    fn key(&self) -> (&str, &str, &str) {
        (&self.run, &self.config, &self.bench)
    }

    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::from([
            ("run".into(), Value::Str(self.run.clone())),
            ("config".into(), Value::Str(self.config.clone())),
            ("bench".into(), Value::Str(self.bench.clone())),
            ("states".into(), Value::Int(self.states)),
            ("transitions".into(), Value::Int(self.transitions)),
            ("elapsed_ns".into(), Value::Int(self.elapsed_ns)),
            ("states_per_sec".into(), Value::Float(self.states_per_sec)),
            ("workers".into(), Value::Int(self.workers)),
            ("host_cores".into(), Value::Int(self.host_cores)),
        ]);
        for (k, ns) in self.phases() {
            if let Some(ns) = ns {
                obj.insert(k.into(), Value::Int(ns));
            }
        }
        Value::Obj(obj)
    }

    fn from_value(v: &Value, idx: usize) -> Result<McheckBenchEntry, String> {
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
        let bench = str_field("bench")?;
        if bench != "seq" && !bench.starts_with("par/w") {
            return Err(format!(
                "entry {idx}: bench `{bench}` is neither `seq` nor `par/w...`"
            ));
        }
        let rate = v
            .get("states_per_sec")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("entry {idx}: `states_per_sec` missing or not a number"))?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(format!(
                "entry {idx}: `states_per_sec` = {rate} is not a positive rate"
            ));
        }
        let workers = int_field("workers")?;
        if workers == 0 {
            return Err(format!("entry {idx}: `workers` must be >= 1"));
        }
        let host_cores = int_field("host_cores")?;
        if host_cores == 0 {
            return Err(format!("entry {idx}: `host_cores` must be >= 1"));
        }
        let phase = |k: &str| match v.get(k) {
            None => Ok(None),
            Some(_) => int_field(k).map(Some),
        };
        let entry = McheckBenchEntry {
            run: str_field("run")?,
            config: str_field("config")?,
            bench,
            states: int_field("states")?,
            transitions: int_field("transitions")?,
            elapsed_ns: int_field("elapsed_ns")?,
            states_per_sec: rate,
            workers,
            host_cores,
            expand_ns: phase("expand_ns")?,
            merge_ns: phase("merge_ns")?,
            progress_ns: phase("progress_ns")?,
        };
        let phases: u64 = entry.phases().iter().filter_map(|&(_, ns)| ns).sum();
        if phases > entry.elapsed_ns {
            return Err(format!(
                "entry {idx}: phases sum to {phases} ns, more than `elapsed_ns` = {}",
                entry.elapsed_ns
            ));
        }
        Ok(entry)
    }
}

/// The committed trajectory file: `<repo root>/BENCH_mcheck.json`.
pub fn trajectory_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
        .join("BENCH_mcheck.json")
}

/// Parses and schema-validates a trajectory file's text.
pub fn parse_trajectory(text: &str) -> Result<Vec<McheckBenchEntry>, String> {
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
        .map(|(i, v)| McheckBenchEntry::from_value(v, i))
        .collect()
}

/// Loads a trajectory file; a missing file is an empty trajectory.
pub fn load(path: &Path) -> Result<Vec<McheckBenchEntry>, String> {
    match fs::read_to_string(path) {
        Ok(text) => parse_trajectory(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Merges fresh measurements into an existing trajectory with the same
/// replace-in-place / append semantics as the kernel trajectory.
pub fn merge(
    mut existing: Vec<McheckBenchEntry>,
    fresh: Vec<McheckBenchEntry>,
) -> Vec<McheckBenchEntry> {
    for entry in fresh {
        match existing.iter_mut().find(|e| e.key() == entry.key()) {
            Some(slot) => *slot = entry,
            None => existing.push(entry),
        }
    }
    existing
}

/// Renders a trajectory: valid JSON, one entry per line.
pub fn render(entries: &[McheckBenchEntry]) -> String {
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
pub fn append(path: &Path, fresh: Vec<McheckBenchEntry>) -> Result<Vec<McheckBenchEntry>, String> {
    let merged = merge(load(path)?, fresh);
    fs::write(path, render(&merged)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(merged)
}

/// The speedup gate for one run: for every config measured both
/// sequentially and with a gate-eligible parallel entry (`workers` and
/// `host_cores` both ≥ [`GATE_MIN_CORES`]), the best eligible parallel
/// rate must be ≥2x the sequential one. Configs without an eligible
/// pair are reported as determinism-only, never failed — 1-core CI
/// entries land here by construction.
pub fn check_speedup(entries: &[McheckBenchEntry], run: &str) -> Result<String, String> {
    let mut report = String::new();
    let mut configs: Vec<&str> = entries
        .iter()
        .filter(|e| e.run == run)
        .map(|e| e.config.as_str())
        .collect();
    configs.sort_unstable();
    configs.dedup();
    if configs.is_empty() {
        return Err(format!("run `{run}`: no entries"));
    }
    for config in configs {
        let of_config = || {
            entries
                .iter()
                .filter(|e| e.run == run && e.config == config)
        };
        let Some(seq) = of_config().find(|e| e.bench == "seq") else {
            let _ = writeln!(report, "{config}: no sequential baseline — skipped");
            continue;
        };
        let eligible = of_config()
            .filter(|e| {
                e.bench.starts_with("par/")
                    && e.workers >= GATE_MIN_CORES
                    && e.host_cores >= GATE_MIN_CORES
            })
            .max_by(|a, b| a.states_per_sec.total_cmp(&b.states_per_sec));
        match eligible {
            Some(par) => {
                let ratio = par.states_per_sec / seq.states_per_sec;
                if ratio >= 2.0 {
                    let _ = writeln!(
                        report,
                        "{config}: {} {:.2e} st/s vs seq {:.2e} st/s ({ratio:.2}x) — ok",
                        par.bench, par.states_per_sec, seq.states_per_sec
                    );
                } else {
                    return Err(format!(
                        "run `{run}` {config}: {} {:.2e} st/s is below 2x seq \
                         {:.2e} st/s ({ratio:.2}x) on a {}-core host",
                        par.bench, par.states_per_sec, seq.states_per_sec, par.host_cores
                    ));
                }
            }
            None => {
                let _ = writeln!(
                    report,
                    "{config}: no >= {GATE_MIN_CORES}-worker entry on a >= \
                     {GATE_MIN_CORES}-core host — determinism-only"
                );
            }
        }
    }
    Ok(report)
}

/// CI entry point: schema-validate `path` and run the speedup gate on
/// every recorded run label.
pub fn validate_file(path: &Path) -> Result<String, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = parse_trajectory(&text)?;
    if entries.is_empty() {
        return Err("trajectory is empty".into());
    }
    let mut runs: Vec<&str> = entries.iter().map(|e| e.run.as_str()).collect();
    runs.sort_unstable();
    runs.dedup();
    let mut report = format!("{}: {} entries, schema ok\n", path.display(), entries.len());
    for run in runs {
        report.push_str(&check_speedup(&entries, run)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        config: &str,
        bench: &str,
        sps: f64,
        workers: u64,
        host_cores: u64,
    ) -> McheckBenchEntry {
        McheckBenchEntry {
            run: "pr9".into(),
            config: config.into(),
            bench: bench.into(),
            states: 100_000,
            transitions: 400_000,
            elapsed_ns: (1e14 / sps) as u64,
            states_per_sec: sps,
            workers,
            host_cores,
            expand_ns: None,
            merge_ns: None,
            progress_ns: None,
        }
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let entries = vec![
            entry("small/SafetyOnly", "seq", 5e4, 1, 1),
            entry("small/SafetyOnly", "par/w4+sym+por", 1.2e5, 4, 8),
        ];
        let parsed = parse_trajectory(&render(&entries)).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn schema_violations_are_rejected_with_a_reason() {
        for (text, needle) in [
            ("[]", "schema"),
            (
                r#"{"schema":"tokencmp-mcheck-bench-v0","entries":[]}"#,
                "v0",
            ),
            (r#"{"schema":"tokencmp-mcheck-bench-v1"}"#, "entries"),
            (
                r#"{"schema":"tokencmp-mcheck-bench-v1","entries":[{"run":"a"}]}"#,
                "bench",
            ),
        ] {
            let err = parse_trajectory(text).unwrap_err();
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
        let mut bogus = entry("c", "seq", 1e5, 1, 1);
        bogus.bench = "parallel".into();
        let err = parse_trajectory(&render(&[bogus])).unwrap_err();
        assert!(err.contains("parallel"), "{err}");
        let mut zero = entry("c", "seq", 1e5, 1, 1);
        zero.workers = 0;
        let err = parse_trajectory(&render(&[zero])).unwrap_err();
        assert!(err.contains("workers"), "{err}");
    }

    #[test]
    fn phases_are_optional_but_may_not_exceed_the_wall_time() {
        let old = entry("dir/small", "seq", 1e5, 1, 1);
        let mut split = old.clone();
        let (expand, merge) = (old.elapsed_ns / 2, old.elapsed_ns / 4);
        split.expand_ns = Some(expand);
        split.merge_ns = Some(merge);
        split.progress_ns = Some(old.elapsed_ns - expand - merge);
        let text = render(&[old.clone(), split.clone()]);
        assert!(!text.lines().nth(3).unwrap().contains("merge_ns"), "{text}");
        assert_eq!(parse_trajectory(&text).unwrap(), [old, split.clone()]);

        split.progress_ns = Some(split.progress_ns.unwrap() + 1);
        let err = parse_trajectory(&render(&[split])).unwrap_err();
        assert!(err.contains("more than `elapsed_ns`"), "{err}");
    }

    #[test]
    fn bench_names_encode_the_knobs() {
        assert_eq!(McheckBenchEntry::par_bench_name(4, false, false), "par/w4");
        assert_eq!(
            McheckBenchEntry::par_bench_name(8, true, true),
            "par/w8+sym+por"
        );
    }

    #[test]
    fn the_gate_skips_small_hosts_and_gates_big_ones() {
        // 1-core host: determinism-only, never failed on speed.
        let small_host = vec![
            entry("dir/small", "seq", 1e5, 1, 1),
            entry("dir/small", "par/w4", 5e4, 4, 1),
        ];
        let report = check_speedup(&small_host, "pr9").unwrap();
        assert!(report.contains("determinism-only"), "{report}");

        // 8-core host hitting 2.4x: gated and passing.
        let big_ok = vec![
            entry("dir/small", "seq", 1e5, 1, 8),
            entry("dir/small", "par/w4+sym+por", 2.4e5, 4, 8),
        ];
        let report = check_speedup(&big_ok, "pr9").unwrap();
        assert!(report.contains("2.40x"), "{report}");

        // 8-core host below 2x: the gate fails with the ratio.
        let big_slow = vec![
            entry("dir/small", "seq", 1e5, 1, 8),
            entry("dir/small", "par/w4", 1.5e5, 4, 8),
        ];
        let err = check_speedup(&big_slow, "pr9").unwrap_err();
        assert!(err.contains("below 2x"), "{err}");

        // A 2-worker entry on a big host is not gate-eligible.
        let few_workers = vec![
            entry("dir/small", "seq", 1e5, 1, 8),
            entry("dir/small", "par/w2", 1.2e5, 2, 8),
        ];
        let report = check_speedup(&few_workers, "pr9").unwrap();
        assert!(report.contains("determinism-only"), "{report}");
    }

    #[test]
    fn merge_replaces_same_key_and_appends_new_entries() {
        let old = vec![entry("dir/small", "seq", 1e5, 1, 1)];
        let fresh = vec![
            entry("dir/small", "seq", 2e5, 1, 1),
            entry("dir/small", "par/w2", 3e5, 2, 1),
        ];
        let merged = merge(old, fresh);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].states_per_sec, 2e5, "replacement kept its slot");
    }
}
