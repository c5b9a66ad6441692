//! The committed benchmark trajectories: one file format for
//! `BENCH_kernel.json`, `BENCH_scale.json` and `BENCH_mcheck.json`.
//!
//! Unlike the `target/sweep/` exports — regenerated scratch output — a
//! trajectory is a *committed* file at the repository root, so
//! successive runs append comparable records and a bench's cost history
//! stays reviewable in diffs. A file is a schema tag and an `entries`
//! array, one entry per line so appending a run is a line-per-record
//! diff:
//!
//! ```json
//! {
//! "schema": "tokencmp-kernel-bench-v1",
//! "entries": [
//! {"backend":"heap","bench":"churn/d512",...,"host_cores":2,"run":"pr20"}
//! ]
//! }
//! ```
//!
//! Every entry carries the [`Shared`] fields (run label, host core count,
//! per-layer profile); an entry type ([`Entry`]) adds its own fields,
//! their checks, a merge key and an optional gate. This module holds the
//! rest once: path, parse, load, merge, render, append and validate, the
//! field readers ([`Fields`]), and the command line and environment the
//! three trajectory benches share ([`Invocation`]).

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::fs;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use tokencmp::sweep::json::{parse, Value};
use tokencmp::sweep::report::sweep_dir;

/// A trajectory entry's JSON object.
pub type Obj = BTreeMap<String, Value>;

/// The fields every entry carries, whatever its type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Shared {
    /// Trajectory label for the invocation (`TOKENCMP_BENCH_RUN`, e.g. a
    /// PR number).
    pub run: String,
    /// `available_parallelism` on the measuring host. Optional on parse:
    /// kernel and scale rows before run `pr20` lack it.
    pub host_cores: Option<u64>,
    /// Host-time attribution (`category → estimated ns`) from a
    /// *separate* profiled companion run — the timed run itself is never
    /// profiled, so rates stay comparable across runs. Empty when no
    /// profile was taken; an empty map is omitted from the JSON.
    pub profile: BTreeMap<String, u64>,
}

impl Shared {
    /// The shared fields of a fresh measurement: the run label and this
    /// host's core count, no profile yet.
    pub fn measured(run: &str) -> Shared {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Shared {
            run: run.to_string(),
            host_cores: Some(cores as u64),
            profile: BTreeMap::new(),
        }
    }

    fn write(&self, obj: &mut Obj) {
        obj.insert("run".into(), Value::Str(self.run.clone()));
        if let Some(cores) = self.host_cores {
            obj.insert("host_cores".into(), Value::Int(cores));
        }
        if !self.profile.is_empty() {
            let profile = self
                .profile
                .iter()
                .map(|(k, &ns)| (k.clone(), Value::Int(ns)));
            obj.insert("profile".into(), Value::Obj(profile.collect()));
        }
    }

    fn read(f: &Fields<'_>) -> Result<Shared, String> {
        let host_cores = f.opt_int("host_cores")?;
        if host_cores == Some(0) {
            return Err(f.err("`host_cores` must be >= 1"));
        }
        let mut profile = BTreeMap::new();
        if let Some(p) = f.v.get("profile") {
            let obj = p
                .as_obj()
                .ok_or_else(|| f.err("`profile` is not an object"))?;
            if obj.is_empty() {
                return Err(f.err("empty `profile` object (omit the field instead)"));
            }
            for (k, v) in obj {
                let ns = v
                    .as_u64()
                    .ok_or_else(|| f.err(format!("profile `{k}` is not an integer ns count")))?;
                profile.insert(k.clone(), ns);
            }
        }
        Ok(Shared {
            run: f.str("run")?,
            host_cores,
            profile,
        })
    }
}

/// One entry type of a committed trajectory.
pub trait Entry: Sized {
    /// The schema tag its file carries.
    const SCHEMA: &'static str;
    /// Its file's stem: `<repo root>/<NAME>.json`, and
    /// `<sweep dir>/<NAME>.smoke.json` for smoke runs.
    const NAME: &'static str;

    /// The shared fields.
    fn shared(&self) -> &Shared;

    /// The entry's cell within its run: a fresh entry with the same run
    /// label and key replaces the old one.
    fn key(&self) -> impl PartialEq + '_;

    /// Writes the entry's own fields (the shared ones are written for it).
    fn write(&self, obj: &mut Obj);

    /// Reads and checks the entry's own fields.
    fn read(shared: Shared, f: &Fields<'_>) -> Result<Self, String>;

    /// The file's gate, run by `--validate` after the schema check: a
    /// report of the checks it passed. None by default.
    fn gate(_entries: &[Self]) -> Result<String, String> {
        Ok(String::new())
    }
}

/// Entry `idx` of a file being parsed, with field readers whose errors
/// name the entry and the field.
pub struct Fields<'a> {
    v: &'a Value,
    idx: usize,
}

impl Fields<'_> {
    /// An error about this entry.
    pub fn err(&self, msg: impl Display) -> String {
        format!("entry {}: {msg}", self.idx)
    }

    /// A required string field.
    pub fn str(&self, k: &str) -> Result<String, String> {
        let s = self.v.get(k).and_then(Value::as_str);
        s.map(str::to_string)
            .ok_or_else(|| self.err(format!("`{k}` missing or not a string")))
    }

    /// A required integer field.
    pub fn int(&self, k: &str) -> Result<u64, String> {
        let n = self.v.get(k).and_then(Value::as_u64);
        n.ok_or_else(|| self.err(format!("`{k}` missing or not an integer")))
    }

    /// An integer field that may be absent.
    pub fn opt_int(&self, k: &str) -> Result<Option<u64>, String> {
        self.v.get(k).map(|_| self.int(k)).transpose()
    }

    /// A required rate: a finite number above zero.
    pub fn rate(&self, k: &str) -> Result<f64, String> {
        let x = self.v.get(k).and_then(Value::as_f64);
        let x = x.ok_or_else(|| self.err(format!("`{k}` missing or not a number")))?;
        if x.is_finite() && x > 0.0 {
            Ok(x)
        } else {
            Err(self.err(format!("`{k}` = {x} is not a positive rate")))
        }
    }
}

/// The repository root: the bench crate's manifest dir is
/// `<repo>/crates/bench`.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels under the repo root")
}

/// The committed trajectory file: `<repo root>/<NAME>.json`.
pub fn trajectory_path<E: Entry>() -> PathBuf {
    repo_root().join(format!("{}.json", E::NAME))
}

/// The file `--validate [path]` checks: the committed trajectory when
/// no path is given, else `path`, a relative one taken from the
/// repository root (`cargo bench` runs a bench in `crates/bench`, not
/// in the directory it was called from).
fn validate_path<E: Entry>(path: Option<&str>) -> PathBuf {
    path.map_or_else(trajectory_path::<E>, |p| repo_root().join(p))
}

/// Parses and schema-checks a trajectory file's text.
pub fn parse_trajectory<E: Entry>(text: &str) -> Result<Vec<E>, String> {
    let root = parse(text).map_err(|e| format!("not JSON: {e}"))?;
    match root.get("schema").and_then(Value::as_str) {
        Some(s) if s == E::SCHEMA => {}
        Some(s) => return Err(format!("schema `{s}` != expected `{}`", E::SCHEMA)),
        None => return Err("missing `schema` tag".into()),
    }
    let entries = root
        .get("entries")
        .and_then(Value::as_arr)
        .ok_or("missing `entries` array")?;
    entries
        .iter()
        .enumerate()
        .map(|(idx, v)| {
            let f = Fields { v, idx };
            E::read(Shared::read(&f)?, &f)
        })
        .collect()
}

/// Loads a trajectory file; a missing file is an empty trajectory.
pub fn load<E: Entry>(path: &Path) -> Result<Vec<E>, String> {
    match fs::read_to_string(path) {
        Ok(text) => parse_trajectory(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Merges fresh measurements into an existing trajectory: an entry with
/// the same run label and key replaces the old record in place
/// (re-running a bench updates its cell); new ones append in measurement
/// order, so the file reads chronologically run by run.
pub fn merge<E: Entry>(mut existing: Vec<E>, fresh: Vec<E>) -> Vec<E> {
    for entry in fresh {
        let same = |e: &E| e.shared().run == entry.shared().run && e.key() == entry.key();
        match existing.iter().position(same) {
            Some(i) => existing[i] = entry,
            None => existing.push(entry),
        }
    }
    existing
}

/// Renders a trajectory: valid JSON, one entry per line.
pub fn render<E: Entry>(entries: &[E]) -> String {
    let mut out = format!(
        "{{\n\"schema\": {},\n\"entries\": [\n",
        Value::Str(E::SCHEMA.into())
    );
    for (i, e) in entries.iter().enumerate() {
        let mut obj = Obj::new();
        e.shared().write(&mut obj);
        e.write(&mut obj);
        let sep = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(out, "{}{sep}", Value::Obj(obj));
    }
    out.push_str("]\n}\n");
    out
}

/// Loads, merges, and writes back the trajectory at `path`.
pub fn append<E: Entry>(path: &Path, fresh: Vec<E>) -> Result<Vec<E>, String> {
    let merged = merge(load(path)?, fresh);
    fs::write(path, render(&merged)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(merged)
}

/// CI entry point: schema-check `path`, which must hold at least one
/// entry, and run the file's gate.
pub fn validate_file<E: Entry>(path: &Path) -> Result<String, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries: Vec<E> = parse_trajectory(&text)?;
    if entries.is_empty() {
        return Err("trajectory is empty".into());
    }
    let report = format!("{}: {} entries, schema ok\n", path.display(), entries.len());
    Ok(report + &E::gate(&entries)?)
}

/// How a trajectory bench was invoked, read from its command line and
/// environment.
///
/// * `--validate [path]` — no measurement: [`Invocation::start`]
///   validates `path` (default: the committed file; a relative path is
///   taken from the repository root), prints the report and exits, with
///   status 1 if the file fails.
/// * `TOKENCMP_BENCH_SMOKE` set — CI-sized measurements, merged into
///   `<sweep dir>/<NAME>.smoke.json` (removed first) instead of the
///   committed file, so CI exercises the full measure → merge path and
///   can read the result without dirtying the trajectory.
/// * `TOKENCMP_BENCH_RUN` — the run label (default `smoke` or `dev`).
pub struct Invocation<E> {
    /// True for a smoke run.
    pub smoke: bool,
    /// The run label fresh entries carry.
    pub run: String,
    path: PathBuf,
    entry: PhantomData<fn(E)>,
}

impl<E: Entry> Invocation<E> {
    /// Reads the invocation; returns only if there is something to
    /// measure.
    pub fn start() -> Invocation<E> {
        let args: Vec<String> = std::env::args()
            .skip(1)
            .filter(|a| a != "--bench")
            .collect();
        if args.first().map(String::as_str) == Some("--validate") {
            let path = validate_path::<E>(args.get(1).map(String::as_str));
            match validate_file::<E>(&path) {
                Ok(report) => print!("{report}"),
                Err(e) => {
                    eprintln!("{}.json validation failed: {e}", E::NAME);
                    std::process::exit(1);
                }
            }
            std::process::exit(0);
        }
        let smoke = std::env::var("TOKENCMP_BENCH_SMOKE").is_ok();
        let run = std::env::var("TOKENCMP_BENCH_RUN")
            .unwrap_or_else(|_| if smoke { "smoke" } else { "dev" }.into());
        let path = if smoke {
            let dir = sweep_dir();
            let _ = fs::create_dir_all(&dir);
            let p = dir.join(format!("{}.smoke.json", E::NAME));
            let _ = fs::remove_file(&p);
            p
        } else {
            trajectory_path::<E>()
        };
        Invocation {
            smoke,
            run,
            path,
            entry: PhantomData,
        }
    }

    /// Merges `fresh` into this invocation's file and reports it; exits
    /// with status 1 if the file cannot be read or written.
    pub fn record(&self, fresh: Vec<E>) {
        match append(&self.path, fresh) {
            Ok(all) => println!(
                "\nwrote {} ({} entries, run `{}`)",
                self.path.display(),
                all.len(),
                self.run
            ),
            Err(e) => {
                eprintln!("failed to write trajectory: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal entry type: one keyed string, one rate.
    #[derive(Clone, Debug, PartialEq)]
    struct Row {
        shared: Shared,
        name: String,
        rate: f64,
    }

    impl Entry for Row {
        const SCHEMA: &'static str = "test-v1";
        const NAME: &'static str = "BENCH_test";
        fn shared(&self) -> &Shared {
            &self.shared
        }
        fn key(&self) -> impl PartialEq + '_ {
            self.name.as_str()
        }
        fn write(&self, obj: &mut Obj) {
            obj.insert("name".into(), Value::Str(self.name.clone()));
            obj.insert("rate".into(), Value::Float(self.rate));
        }
        fn read(shared: Shared, f: &Fields<'_>) -> Result<Row, String> {
            Ok(Row {
                shared,
                name: f.str("name")?,
                rate: f.rate("rate")?,
            })
        }
    }

    fn row(run: &str, name: &str, rate: f64) -> Row {
        Row {
            shared: Shared {
                run: run.into(),
                ..Shared::default()
            },
            name: name.into(),
            rate,
        }
    }

    #[test]
    fn shared_fields_are_checked_before_the_entry_fields() {
        for (entry, needle) in [
            (r#"{"name":"a","rate":1.0}"#, "`run`"),
            (
                r#"{"run":"a","name":"a","rate":1.0,"host_cores":0}"#,
                ">= 1",
            ),
            (
                r#"{"run":"a","name":"a","rate":1.0,"host_cores":"8"}"#,
                "host_cores",
            ),
            (r#"{"run":"a","rate":1.0}"#, "`name`"),
            (r#"{"run":"a","name":"a","rate":-1.0}"#, "positive rate"),
        ] {
            let text = format!(
                r#"{{"schema":"test-v1","entries":[{{"run":"x","name":"x","rate":1}},{entry}]}}"#
            );
            let err = parse_trajectory::<Row>(&text).unwrap_err();
            assert!(err.starts_with("entry 1:"), "{err}");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn validate_paths_resolve_against_the_repository_root() {
        let root = repo_root();
        assert!(root.join("crates/bench/Cargo.toml").is_file(), "{root:?}");
        assert_eq!(validate_path::<Row>(None), root.join("BENCH_test.json"));
        assert_eq!(
            validate_path::<Row>(Some("target/sweep/BENCH_test.smoke.json")),
            root.join("target/sweep/BENCH_test.smoke.json")
        );
        let abs = std::env::temp_dir().join("BENCH_test.json");
        assert!(abs.is_absolute());
        assert_eq!(validate_path::<Row>(abs.to_str()), abs);
    }

    #[test]
    fn validate_rejects_an_empty_file_and_append_creates_a_missing_one() {
        let dir = std::env::temp_dir().join(format!("trajectory-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = fs::remove_file(&path);
        fs::write(&path, render::<Row>(&[])).unwrap();
        assert!(validate_file::<Row>(&path).unwrap_err().contains("empty"));
        fs::remove_file(&path).unwrap();
        append(&path, vec![row("pr1", "a", 1.0)]).unwrap();
        let report = validate_file::<Row>(&path).unwrap();
        assert!(report.ends_with(": 1 entries, schema ok\n"), "{report}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
