//! Host facts stamped into every output, and the environment checks that
//! keep a run reproducible.

use std::collections::BTreeMap;
use std::path::Path;

use tokencmp::sweep::json::Value;

/// The `TOKENCMP_*` variables set in `vars`. The simulator reads several
/// of them (scheduler backend, profiling, sampling, stall window), and
/// any of them silently changes what a run measures.
pub fn tokencmp_vars(vars: impl Iterator<Item = (String, String)>) -> Vec<String> {
    let mut set: Vec<String> = vars
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("TOKENCMP_"))
        .collect();
    set.sort();
    set
}

/// Logical cores available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in `root`, read from `.git` without running
/// git; `unknown` outside a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(name)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, r) = l.split_once(' ')?;
                (r == name).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host facts of this run, as a JSON object.
pub fn facts(seed: u64, workers: usize) -> Value {
    let mut m = BTreeMap::new();
    m.insert("nproc".into(), Value::Int(nproc() as u64));
    m.insert("cpu".into(), Value::Str(cpu_model()));
    m.insert(
        "rustc".into(),
        Value::Str(env!("BENCH_RUSTC_VERSION").to_string()),
    );
    m.insert("git_rev".into(), Value::Str(git_revision(Path::new("."))));
    m.insert("seed".into(), Value::Int(seed));
    m.insert("workers".into(), Value::Int(workers as u64));
    Value::Obj(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tokencmp_variables_are_reported() {
        let vars = [
            ("PATH", "/bin"),
            ("TOKENCMP_SCHEDULER", "heap"),
            ("TOKENCMP_PROFILE", "1"),
            ("CARGO_TARGET_DIR", "x"),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string()));
        assert_eq!(
            tokencmp_vars(vars.into_iter()),
            ["TOKENCMP_PROFILE", "TOKENCMP_SCHEDULER"]
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
