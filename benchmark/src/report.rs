//! The result object of one run, the record format of a set of runs, and
//! the `compare` verdicts between two sets.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tokencmp::sweep::json::{self, Value};

use crate::measure::quartiles;
use crate::END_TO_END;

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// `name value unit`, aligned for a table.
    pub fn line(&self) -> String {
        let v = self.value;
        let value = if v == 0.0 || v.abs() >= 1e-3 {
            format!("{v:.6}")
        } else {
            format!("{v:.6e}")
        };
        format!("  {:<24} {value:>18} {}", self.name, self.unit)
    }
}

/// The result of one run: the object printed as its last output line.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// No check failed and every metric is a finite number.
    pub correct: bool,
    /// Checks made: runs, set-up runs, digest and host checks.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Every metric of the run's mode.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result object, with exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut o = BTreeMap::new();
                o.insert("value".into(), Value::Float(m.value));
                o.insert("unit".into(), Value::Str(m.unit.clone()));
                (m.name.clone(), Value::Obj(o))
            })
            .collect();
        let mut o = BTreeMap::new();
        o.insert("correct".into(), Value::Bool(self.correct));
        o.insert("attempted".into(), Value::Int(self.attempted));
        o.insert("failed".into(), Value::Int(self.failed));
        o.insert("metrics".into(), Value::Obj(metrics));
        Value::Obj(o)
    }

    /// Reads a result object back. Metrics come back in name order.
    pub fn from_json(v: &Value) -> Result<Report, String> {
        let obj = v.as_obj().ok_or("result is not an object")?;
        if obj.len() != 4 {
            return Err(format!("result has {} keys, want 4", obj.len()));
        }
        let int = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or(format!("result.{k} is not a whole number"))
        };
        let correct = match v.get("correct") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("result.correct is not a boolean".into()),
        };
        let mut metrics = Vec::new();
        for (name, m) in v
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("result.metrics is not an object")?
        {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => metrics.push(Metric {
                    name: name.clone(),
                    value,
                    unit: unit.to_string(),
                }),
                _ => return Err(format!("metric {name} lacks a numeric value or a unit")),
            }
        }
        Ok(Report {
            correct,
            attempted: int("attempted")?,
            failed: int("failed")?,
            metrics,
        })
    }

    /// One line per metric: name, value and unit.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(s, "{}", m.line());
        }
        s
    }
}

/// One run of a recorded set: workload, seed, mode, host facts, result.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Whether the run reported per-layer metrics.
    pub trace: bool,
    /// Host facts of the run.
    pub host: Value,
    /// The run's result object.
    pub result: Report,
}

impl Record {
    /// The record as one JSON line.
    pub fn to_line(&self) -> String {
        let mut o = BTreeMap::new();
        o.insert("workload".into(), Value::Str(self.workload.clone()));
        o.insert("seed".into(), Value::Int(self.seed));
        o.insert("trace".into(), Value::Int(u64::from(self.trace)));
        o.insert("host".into(), self.host.clone());
        o.insert("result".into(), self.result.to_json());
        Value::Obj(o).to_string()
    }

    /// Parses every non-blank line of a set file.
    pub fn parse_set(text: &str) -> Result<Vec<Record>, String> {
        text.lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .map(|(i, l)| {
                let at = |e: String| format!("line {}: {e}", i + 1);
                let v = json::parse(l).map_err(|e| at(e.to_string()))?;
                let s = |k: &str| v.get(k).ok_or_else(|| at(format!("no `{k}`")));
                Ok(Record {
                    workload: s("workload")?
                        .as_str()
                        .ok_or_else(|| at("workload is not a string".into()))?
                        .to_string(),
                    seed: s("seed")?
                        .as_u64()
                        .ok_or_else(|| at("seed is not a whole number".into()))?,
                    trace: s("trace")?.as_u64() == Some(1),
                    host: s("host")?.clone(),
                    result: Report::from_json(s("result")?).map_err(at)?,
                })
            })
            .collect()
    }
}

/// The verdict on one end-to-end metric of one workload, by the rule of
/// the `choosing-metrics` guide, section 8 (all metrics are lower-is-better).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine tenths of the pairs and the medians differ by
    /// more than A's interquartile distance, or every B run beats every
    /// A run.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of either set is wider than the bound.
    Unresolved,
}

/// Judges set `b` against baseline set `a` for a lower-is-better metric
/// with regression bound `bound` (a share of A's median).
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (q1a, ma, q3a) = quartiles(a);
    let (q1b, mb, q3b) = quartiles(b);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| y < x).count();
    let all_better =
        b.iter().cloned().fold(f64::MIN, f64::max) < a.iter().cloned().fold(f64::MAX, f64::min);
    if (pairs > 0 && wins * 10 >= pairs * 9 && ma - mb > q3a - q1a) || all_better {
        return Verdict::Improved;
    }
    let spread = ((q3a - q1a) / ma).max((q3b - q1b) / mb);
    if spread > bound {
        Verdict::Unresolved
    } else if mb > ma * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Compares two recorded sets: for each workload in both and each
/// end-to-end metric, both medians and quartiles and the verdict. Returns
/// the table and whether any metric regressed.
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let values = |set: &[Record], w: &str, m: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| !r.trace && r.workload == w)
            .filter_map(|r| r.result.value(m))
            .collect()
    };
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().filter(|r| !r.trace) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<13} {:>5} {:>32} {:>32}  verdict",
        "workload", "metric", "runs", "A q1 / median / q3", "B q1 / median / q3"
    );
    let mut regressed = false;
    for w in workloads {
        for (m, _, bound) in END_TO_END {
            let (xa, xb) = (values(a, w, m), values(b, w, m));
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let v = verdict(&xa, &xb, bound);
            regressed |= v == Verdict::Regressed;
            let q = |x: &[f64]| {
                let (q1, md, q3) = quartiles(x);
                format!("{q1:.4e} / {md:.4e} / {q3:.4e}")
            };
            let _ = writeln!(
                out,
                "{w:<16} {m:<13} {:>5} {:>32} {:>32}  {v:?}",
                format!("{}/{}", xa.len(), xb.len()),
                q(&xa),
                q(&xb)
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairwise_rule() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().cloned().collect();
        assert_eq!(verdict(&a, &faster, 0.1), Verdict::Improved);
        assert_eq!(verdict(&a, &slower, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&a, &same, 0.1), Verdict::Unchanged);
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(&noisy, &same, 0.1), Verdict::Unresolved);
    }
}
