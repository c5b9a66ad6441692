//! Structured JSON export of sweep results, and the parser that reads
//! them back.
//!
//! Each [`PointResult`](crate::PointResult) becomes one [`PointRecord`]:
//! protocol name, seed, outcome, exact picosecond runtime, event count,
//! the full counter snapshot, and per-tier per-class traffic. The export
//! is a single JSON array (deterministic field order, `u64` values kept
//! lossless — see [`crate::json`]), written under `target/sweep/` so
//! figure scripts and regression tooling can post-process runs without
//! re-simulating.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use tokencmp_net::Tier;
use tokencmp_proto::MsgClass;
use tokencmp_trace::timeseries::Sample;
use tokencmp_trace::{Segment, TimeSeries, TIMESERIES_SCHEMA};

use crate::json::{parse, JsonError, Value};
use crate::PointResult;

/// Samples kept when a run's [`TimeSeries`] is embedded into a
/// [`PointRecord`] — a compact trajectory, not the full-resolution
/// series (export that separately via [`series_to_value`]).
pub const EMBEDDED_SERIES_SAMPLES: usize = 64;

/// One sweep point, flattened to plain data for export / re-aggregation.
#[derive(Clone, Debug, PartialEq)]
pub struct PointRecord {
    /// The point's label (protocol name for [`crate::Sweep::push_grid`]
    /// grids, free-form otherwise).
    pub label: String,
    /// Protocol name (`"Dst1"`, `"DirectoryCMP"`, ...).
    pub protocol: String,
    /// The point's seed.
    pub seed: u64,
    /// Kernel outcome (`"Idle"` is the success case).
    pub outcome: String,
    /// Last-processor-done time in exact picoseconds.
    pub runtime_ps: u64,
    /// Events processed.
    pub events: u64,
    /// Counter snapshot (`l1.misses`, `l1.persistent`, ...).
    pub counters: BTreeMap<String, u64>,
    /// Traffic bytes keyed `"<tier>/<class>"` (e.g.
    /// `"inter/Response Data"`); zero entries are omitted.
    pub traffic_bytes: BTreeMap<String, u64>,
    /// Traffic message counts, keyed like [`Self::traffic_bytes`].
    pub traffic_msgs: BTreeMap<String, u64>,
    /// The run's telemetry series, downsampled to at most
    /// [`EMBEDDED_SERIES_SAMPLES`] samples; `None` when the point ran
    /// without sampling (the default).
    pub series: Option<TimeSeries>,
}

fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Intra => "intra",
        Tier::Inter => "inter",
        Tier::Mem => "mem",
    }
}

impl PointRecord {
    /// Flattens a completed sweep point.
    pub fn from_point(p: &PointResult) -> PointRecord {
        let mut traffic_bytes = BTreeMap::new();
        let mut traffic_msgs = BTreeMap::new();
        for tier in Tier::ALL {
            for class in MsgClass::ALL {
                let key = format!("{}/{}", tier_name(tier), class.label());
                let bytes = p.result.traffic.bytes(tier, class);
                let msgs = p.result.traffic.msgs(tier, class);
                if bytes > 0 {
                    traffic_bytes.insert(key.clone(), bytes);
                }
                if msgs > 0 {
                    traffic_msgs.insert(key, msgs);
                }
            }
        }
        PointRecord {
            label: p.point.label.clone(),
            protocol: p.point.protocol.name().to_owned(),
            seed: p.point.seed,
            outcome: format!("{:?}", p.result.outcome),
            runtime_ps: p.result.runtime.as_ps(),
            events: p.result.events,
            counters: p
                .result
                .counters
                .counters()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            traffic_bytes,
            traffic_msgs,
            series: p
                .result
                .series
                .as_ref()
                .map(|s| s.downsample(EMBEDDED_SERIES_SAMPLES)),
        }
    }

    /// Runtime in (possibly fractional) nanoseconds.
    pub fn runtime_ns(&self) -> f64 {
        self.runtime_ps as f64 / 1_000.0
    }

    /// Reads a counter (zero if absent, matching
    /// [`Stats::counter`](tokencmp_sim::Stats::counter)).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Number of committed misses with latency attribution (the
    /// `lat.total.count` counter); zero when the run had no misses or
    /// the protocol does not attribute (PerfectL2).
    pub fn miss_count(&self) -> u64 {
        self.counter("lat.total.count")
    }

    /// Mean committed-miss latency in nanoseconds, or `None` when no
    /// misses were attributed.
    pub fn miss_latency_mean_ns(&self) -> Option<f64> {
        let n = self.miss_count();
        (n > 0).then(|| self.counter("lat.total.ps_sum") as f64 / n as f64 / 1_000.0)
    }

    /// Median (p50 upper-bound) committed-miss latency in nanoseconds.
    pub fn miss_latency_p50_ns(&self) -> Option<f64> {
        (self.miss_count() > 0).then(|| self.counter("lat.total.p50_ps") as f64 / 1_000.0)
    }

    /// Tail (p99 upper-bound) committed-miss latency in nanoseconds.
    pub fn miss_latency_p99_ns(&self) -> Option<f64> {
        (self.miss_count() > 0).then(|| self.counter("lat.total.p99_ps") as f64 / 1_000.0)
    }

    /// Total traffic bytes on one tier.
    pub fn tier_bytes(&self, tier: Tier) -> u64 {
        let prefix = format!("{}/", tier_name(tier));
        self.traffic_bytes
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, &v)| v)
            .sum()
    }

    fn to_value(&self) -> Value {
        let map_obj = |m: &BTreeMap<String, u64>| {
            Value::Obj(m.iter().map(|(k, &v)| (k.clone(), Value::Int(v))).collect())
        };
        let mut traffic = BTreeMap::new();
        traffic.insert("bytes".to_owned(), map_obj(&self.traffic_bytes));
        traffic.insert("msgs".to_owned(), map_obj(&self.traffic_msgs));
        let mut obj = BTreeMap::new();
        obj.insert("label".to_owned(), Value::Str(self.label.clone()));
        obj.insert("protocol".to_owned(), Value::Str(self.protocol.clone()));
        obj.insert("seed".to_owned(), Value::Int(self.seed));
        obj.insert("outcome".to_owned(), Value::Str(self.outcome.clone()));
        obj.insert("runtime_ps".to_owned(), Value::Int(self.runtime_ps));
        obj.insert("runtime_ns".to_owned(), Value::Float(self.runtime_ns()));
        obj.insert("events".to_owned(), Value::Int(self.events));
        obj.insert("counters".to_owned(), map_obj(&self.counters));
        obj.insert("traffic".to_owned(), Value::Obj(traffic));
        if let Some(s) = &self.series {
            obj.insert("series".to_owned(), series_to_value(s));
        }
        Value::Obj(obj)
    }

    fn from_value(v: &Value) -> Result<PointRecord, JsonError> {
        let field_err = |name: &str| JsonError {
            offset: 0,
            message: format!("record missing or mistyped field '{name}'"),
        };
        let str_field = |name: &str| {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| field_err(name))
        };
        let int_field = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| field_err(name))
        };
        let int_map = |v: Option<&Value>, name: &str| -> Result<BTreeMap<String, u64>, JsonError> {
            let Some(obj) = v.and_then(Value::as_obj) else {
                return Ok(BTreeMap::new());
            };
            obj.iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| field_err(name))
                })
                .collect()
        };
        let traffic = v.get("traffic");
        Ok(PointRecord {
            label: str_field("label")?,
            protocol: str_field("protocol")?,
            seed: int_field("seed")?,
            outcome: str_field("outcome")?,
            runtime_ps: int_field("runtime_ps")?,
            events: int_field("events")?,
            counters: int_map(v.get("counters"), "counters")?,
            traffic_bytes: int_map(traffic.and_then(|t| t.get("bytes")), "traffic.bytes")?,
            traffic_msgs: int_map(traffic.and_then(|t| t.get("msgs")), "traffic.msgs")?,
            series: v.get("series").map(series_from_value).transpose()?,
        })
    }
}

/// Serializes a [`TimeSeries`] to the `tokencmp-timeseries-v2` JSON
/// schema: `{schema, period_ps, samples: [{at_ps, gauges, rates},
/// ...]}`. Integer gauges stay lossless; rates are floats.
pub fn series_to_value(series: &TimeSeries) -> Value {
    let samples = series
        .samples
        .iter()
        .map(|s| {
            let mut obj = BTreeMap::new();
            obj.insert("at_ps".to_owned(), Value::Int(s.at_ps));
            obj.insert(
                "gauges".to_owned(),
                Value::Obj(
                    s.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::Int(v)))
                        .collect(),
                ),
            );
            obj.insert(
                "rates".to_owned(),
                Value::Obj(
                    s.rates
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::Float(v)))
                        .collect(),
                ),
            );
            Value::Obj(obj)
        })
        .collect();
    let mut obj = BTreeMap::new();
    obj.insert(
        "schema".to_owned(),
        Value::Str(TIMESERIES_SCHEMA.to_owned()),
    );
    obj.insert("period_ps".to_owned(), Value::Int(series.period_ps));
    obj.insert("samples".to_owned(), Value::Arr(samples));
    Value::Obj(obj)
}

/// Parses a `tokencmp-timeseries-v2` JSON value back into a
/// [`TimeSeries`]; rejects unknown schema identifiers rather than
/// misreading a future format.
pub fn series_from_value(v: &Value) -> Result<TimeSeries, JsonError> {
    let err = |message: String| JsonError { offset: 0, message };
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| err("series missing 'schema'".into()))?;
    if schema != TIMESERIES_SCHEMA {
        return Err(err(format!(
            "unknown time-series schema '{schema}' (expected '{TIMESERIES_SCHEMA}')"
        )));
    }
    let period_ps = v
        .get("period_ps")
        .and_then(Value::as_u64)
        .ok_or_else(|| err("series missing 'period_ps'".into()))?;
    let mut samples = Vec::new();
    for s in v
        .get("samples")
        .and_then(Value::as_arr)
        .ok_or_else(|| err("series missing 'samples'".into()))?
    {
        let at_ps = s
            .get("at_ps")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("sample missing 'at_ps'".into()))?;
        let mut gauges = BTreeMap::new();
        if let Some(obj) = s.get("gauges").and_then(Value::as_obj) {
            for (k, v) in obj {
                gauges.insert(
                    k.clone(),
                    v.as_u64()
                        .ok_or_else(|| err(format!("gauge '{k}' is not an integer")))?,
                );
            }
        }
        let mut rates = BTreeMap::new();
        if let Some(obj) = s.get("rates").and_then(Value::as_obj) {
            for (k, v) in obj {
                rates.insert(
                    k.clone(),
                    v.as_f64()
                        .ok_or_else(|| err(format!("rate '{k}' is not a number")))?,
                );
            }
        }
        samples.push(Sample {
            at_ps,
            gauges,
            rates,
        });
    }
    Ok(TimeSeries { period_ps, samples })
}

/// Renders the per-record miss-latency attribution as an aligned text
/// table: one row per record with mean/p50/p99 miss latency (ns) and
/// each attribution segment's share of the total latency-weighted time.
/// Records without attribution counters (no misses, PerfectL2) are
/// listed with dashes so every input record stays visible.
pub fn latency_table(records: &[PointRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:<14} {:>6}", "protocol", "seed");
    for col in ["misses", "mean", "p50", "p99"] {
        let _ = write!(out, " {col:>9}");
    }
    for seg in Segment::ALL {
        let _ = write!(out, " {:>9}", seg.label());
    }
    out.push('\n');
    for r in records {
        let _ = write!(out, "{:<14} {:>6}", r.protocol, r.seed);
        let n = r.miss_count();
        if n == 0 {
            for _ in 0..4 + Segment::ALL.len() {
                let _ = write!(out, " {:>9}", "-");
            }
            out.push('\n');
            continue;
        }
        let _ = write!(out, " {n:>9}");
        for q in [
            r.miss_latency_mean_ns(),
            r.miss_latency_p50_ns(),
            r.miss_latency_p99_ns(),
        ] {
            let _ = write!(out, " {:>9.1}", q.unwrap_or(0.0));
        }
        let total = r.counter("lat.total.ps_sum").max(1) as f64;
        for seg in Segment::ALL {
            let share = r.counter(&format!("lat.{}.ps_sum", seg.label())) as f64 / total;
            let _ = write!(out, " {:>8.1}%", 100.0 * share);
        }
        out.push('\n');
    }
    out
}

/// Serializes completed sweep points to a JSON array (one record each,
/// newline-separated for diffability).
pub fn points_to_json(points: &[PointResult]) -> String {
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&PointRecord::from_point(p).to_value().to_string());
        if i + 1 < points.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Parses a JSON export (as produced by [`points_to_json`]) back into
/// records, for mechanical re-aggregation.
pub fn parse_records(text: &str) -> Result<Vec<PointRecord>, JsonError> {
    let doc = parse(text)?;
    let arr = doc.as_arr().ok_or(JsonError {
        offset: 0,
        message: "expected a top-level array of records".to_owned(),
    })?;
    arr.iter().map(PointRecord::from_value).collect()
}

/// The directory JSON exports land in: `$CARGO_TARGET_DIR/sweep`, or
/// `<nearest ancestor with a target dir>/target/sweep`, or `target/sweep`
/// under the current directory as a last resort.
pub fn sweep_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        if !dir.is_empty() {
            return Path::new(&dir).join("sweep");
        }
    }
    if let Ok(cwd) = std::env::current_dir() {
        for dir in cwd.ancestors() {
            let target = dir.join("target");
            if target.is_dir() {
                return target.join("sweep");
            }
        }
    }
    Path::new("target").join("sweep")
}

/// Writes `points` to `target/sweep/<name>.json` and returns the path.
pub fn write_json(name: &str, points: &[PointResult]) -> std::io::Result<PathBuf> {
    write_text(name, &points_to_json(points))
}

/// Writes any JSON value to `target/sweep/<name>.json` and returns the
/// path — the generic exporter behind [`write_json`], for grids whose
/// records are not [`PointResult`]s (e.g. the litmus outcome grid).
pub fn write_value(name: &str, value: &crate::json::Value) -> std::io::Result<PathBuf> {
    write_text(name, &value.to_string())
}

fn write_text(name: &str, text: &str) -> std::io::Result<PathBuf> {
    let dir = sweep_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(text.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sweep;
    use tokencmp_core::Variant;
    use tokencmp_proto::{AccessKind, Block, SystemConfig};
    use tokencmp_system::{Protocol, RunOptions, ScriptedWorkload};

    fn sample_points() -> Vec<PointResult> {
        let cfg = SystemConfig::small_test();
        let mut sweep = Sweep::new();
        sweep.push_grid(
            &cfg,
            &[Protocol::Token(Variant::Dst1), Protocol::Directory],
            &[11, 23],
            RunOptions::default(),
            |_| {
                ScriptedWorkload::new(vec![
                    vec![(AccessKind::Load, Block(1)), (AccessKind::Store, Block(2))],
                    vec![(AccessKind::Store, Block(1))],
                    vec![],
                    vec![],
                ])
            },
        );
        sweep.run_on(2)
    }

    #[test]
    fn export_round_trips() {
        let points = sample_points();
        let text = points_to_json(&points);
        let records = parse_records(&text).unwrap();
        assert_eq!(records.len(), points.len());
        for (r, p) in records.iter().zip(&points) {
            assert_eq!(r, &PointRecord::from_point(p));
            assert_eq!(r.protocol, p.point.protocol.name());
            assert_eq!(r.seed, p.point.seed);
            assert_eq!(r.outcome, "Idle");
            assert_eq!(r.runtime_ps, p.result.runtime.as_ps());
            assert_eq!(r.events, p.result.events);
            assert_eq!(
                r.counter("l1.misses"),
                p.result.counters.counter("l1.misses")
            );
        }
    }

    #[test]
    fn records_carry_traffic() {
        let points = sample_points();
        let r = PointRecord::from_point(&points[0]);
        // A cross-chip store sweep moves bytes on at least one tier.
        let total: u64 = Tier::ALL.iter().map(|&t| r.tier_bytes(t)).sum();
        assert!(total > 0, "no traffic recorded: {r:?}");
        // And the flattened account matches the source Traffic.
        for tier in Tier::ALL {
            assert_eq!(
                r.tier_bytes(tier),
                points[0].result.traffic.total_bytes(tier)
            );
        }
    }

    #[test]
    fn runtime_ns_matches_result() {
        let points = sample_points();
        for p in &points {
            let r = PointRecord::from_point(p);
            assert_eq!(r.runtime_ns(), p.result.runtime_ns());
        }
    }

    #[test]
    fn latency_quantiles_and_table_surface_attribution() {
        let points = sample_points();
        let records: Vec<PointRecord> = points.iter().map(PointRecord::from_point).collect();
        // Both protocols miss at least once, so attribution must be present.
        for r in &records {
            assert!(r.miss_count() > 0, "no attributed misses in {r:?}");
            let mean = r.miss_latency_mean_ns().unwrap();
            let p50 = r.miss_latency_p50_ns().unwrap();
            let p99 = r.miss_latency_p99_ns().unwrap();
            assert!(mean > 0.0 && p50 > 0.0 && p99 >= p50);
        }
        let table = latency_table(&records);
        assert!(table.contains("protocol") && table.contains("p99"));
        // One header plus one row per record.
        assert_eq!(table.lines().count(), 1 + records.len());
        // A record without attribution renders as dashes, not a panic.
        let empty = PointRecord {
            counters: BTreeMap::new(),
            ..records[0].clone()
        };
        assert!(latency_table(&[empty])
            .lines()
            .nth(1)
            .unwrap()
            .contains('-'));
    }

    #[test]
    fn parse_rejects_non_arrays_and_bad_records() {
        assert!(parse_records("{}").is_err());
        assert!(parse_records("[{\"label\":\"x\"}]").is_err());
        assert!(parse_records("not json").is_err());
    }

    #[test]
    fn sampled_points_embed_and_round_trip_a_series() {
        use tokencmp_sim::Dur;
        let cfg = SystemConfig::small_test();
        let mut sweep = Sweep::new();
        sweep.push_grid(
            &cfg,
            &[Protocol::Token(Variant::Dst1)],
            &[11],
            RunOptions::default().with_sampling(Dur::from_ns(50)),
            |_| {
                ScriptedWorkload::new(vec![
                    vec![(AccessKind::Load, Block(1)), (AccessKind::Store, Block(2))],
                    vec![(AccessKind::Store, Block(1))],
                    vec![],
                    vec![],
                ])
            },
        );
        let points = sweep.run_on(1);
        let rec = PointRecord::from_point(&points[0]);
        let series = rec.series.as_ref().expect("sampled run embeds a series");
        assert!(!series.is_empty());
        assert!(series.len() <= EMBEDDED_SERIES_SAMPLES);
        // JSON round trip preserves the embedded series exactly.
        let text = points_to_json(&points);
        assert!(text.contains(TIMESERIES_SCHEMA));
        let parsed = &parse_records(&text).unwrap()[0];
        assert_eq!(parsed, &rec);
        // The standalone series round trip is exact too.
        let v = series_to_value(series);
        assert_eq!(&series_from_value(&v).unwrap(), series);
        // Unknown schemas are rejected, not misread.
        let mut obj = match v {
            Value::Obj(m) => m,
            _ => unreachable!(),
        };
        obj.insert("schema".to_owned(), Value::Str("bogus-v9".to_owned()));
        assert!(series_from_value(&Value::Obj(obj)).is_err());
    }

    #[test]
    fn missing_optional_maps_default_empty() {
        let text = r#"[{"label":"a","protocol":"Dst1","seed":7,"outcome":"Idle",
                        "runtime_ps":123,"events":9}]"#;
        let rec = &parse_records(text).unwrap()[0];
        assert!(rec.counters.is_empty());
        assert!(rec.traffic_bytes.is_empty());
        assert_eq!(rec.seed, 7);
        assert_eq!(rec.runtime_ps, 123);
    }
}
