//! Command line of the repository benchmark. See `README.md`.
//!
//! Exit codes: 0 success, 1 a check failed (or `compare` found a
//! regression), 2 bad usage or a polluted environment.

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use tokencmp_benchmark::measure::{self, Plan};
use tokencmp_benchmark::report::{compare, Record, Report};
use tokencmp_benchmark::{host, mc, Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]
  benchmark --workload mesh-1024 --full-mesh [...]   (every core active)
  benchmark all [--seed N] [--seconds N] [--repeat N] [--smoke] [--out FILE]
  benchmark compare A.jsonl B.jsonl
workloads: table3-micro commercial mesh-1024 mcheck-recovery";

/// Parsed options of the `run` and `all` modes.
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    full_mesh: bool,
    repeat: u64,
    out: Option<String>,
}

fn parse_opts(args: &[String], all: bool) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        smoke: false,
        full_mesh: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), all) {
            ("--smoke", _) => {
                o.smoke = true;
                continue;
            }
            ("--full-mesh", false) => {
                o.full_mesh = true;
                continue;
            }
            _ => {}
        }
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let num = |lo: u64, hi: u64| match val.parse::<u64>() {
            Ok(n) if (lo..=hi).contains(&n) => Ok(n),
            _ => Err(format!(
                "{flag}: `{val}` is not a whole number in {lo}..={hi}"
            )),
        };
        match (flag.as_str(), all) {
            ("--workload", false) => {
                o.workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload `{val}`"))?)
            }
            ("--seed", _) => o.seed = num(0, u64::MAX)?,
            ("--seconds", _) => o.seconds = num(1, 3600)?,
            ("--trace", false) => o.trace = num(0, 1)? == 1,
            ("--repeat", true) => o.repeat = num(1, 1000)?,
            ("--out", true) => o.out = Some(val.to_string()),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if !all && o.workload.is_none() {
        return Err("--workload is required".into());
    }
    if o.full_mesh && o.workload != Some(Workload::Mesh1024) {
        return Err("--full-mesh applies to mesh-1024 only".into());
    }
    Ok(o)
}

/// Measures one workload in this process.
fn run_one(o: &Opts) -> ExitCode {
    let w = o.workload.expect("checked by parse_opts");
    let mut plan = Plan::new(w, o.seed, o.seconds, o.trace, o.smoke);
    if o.full_mesh {
        plan = plan.with_full_mesh();
    }
    println!(
        "benchmark: workload={} seed={} seconds={} trace={} smoke={} full_mesh={}",
        w.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.smoke,
        o.full_mesh
    );
    println!("host: {}", host::facts(o.seed, mc::WORKERS));
    let m = measure::run(&plan);
    let golden = match plan.golden {
        Some(g) => format!("{g:#018x}"),
        None => "not pinned".into(),
    };
    println!(
        "passes: {}  digest: {:#018x}  golden: {golden}",
        m.pass_walls.len(),
        m.digest
    );
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("pass wall_s (raw): {}", list(&m.pass_walls));
    println!("reference_s:       {}", list(&m.reference_s));
    let passes = if o.trace {
        "traced passes"
    } else {
        "before scaling"
    };
    for r in &m.raw {
        println!("{} (raw, {passes})", r.line());
    }
    print!("{}", m.report.table());
    println!("{}", m.report.to_json());
    if m.report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} checks failed",
            m.report.failed, m.report.attempted
        );
        ExitCode::from(1)
    }
}

/// Runs every workload in a child process of its own (so peak memory is
/// per workload): `repeat` untraced runs each, then one traced run each.
fn run_all(o: &Opts) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate self: {e}"))?;
    let mut out = match &o.out {
        Some(p) => Some(std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))?),
        None => None,
    };
    let mut ok = true;
    let mut jobs: Vec<(Workload, u64, bool)> = Vec::new();
    for r in 0..o.repeat {
        jobs.extend(Workload::ALL.map(|w| (w, o.seed.wrapping_add(r), false)));
    }
    jobs.extend(Workload::ALL.map(|w| (w, o.seed, true)));
    for (w, seed, trace) in jobs {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if o.smoke {
            cmd.arg("--smoke");
        }
        let child = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        let result = stdout
            .lines()
            .last()
            .and_then(|l| tokencmp::sweep::json::parse(l).ok())
            .and_then(|v| Report::from_json(&v).ok());
        let Some(result) = result else {
            eprintln!("error: {} (seed {seed}) printed no result", w.name());
            ok = false;
            continue;
        };
        ok &= child.status.success() && result.correct;
        let record = Record {
            workload: w.name().into(),
            seed,
            trace,
            host: host::facts(seed, mc::WORKERS),
            result,
        };
        if let Some(f) = out.as_mut() {
            writeln!(f, "{}", record.to_line()).map_err(|e| format!("write: {e}"))?;
        }
    }
    if let Some(f) = out {
        f.sync_all().map_err(|e| format!("sync: {e}"))?;
    }
    Ok(ok)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two set files".into());
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Record::parse_set(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, regressed) = compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |msg: String| {
        eprintln!("error: {msg}\n{USAGE}");
        ExitCode::from(2)
    };
    let mode = args.first().map(String::as_str);
    if mode == Some("compare") {
        return match run_compare(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => usage_error(e),
        };
    }
    let polluted = host::tokencmp_vars(std::env::vars());
    if !polluted.is_empty() {
        eprintln!(
            "error: {} set; these change what the simulator measures — unset them",
            polluted.join(", ")
        );
        return ExitCode::from(2);
    }
    let all = mode == Some("all");
    let opts = match parse_opts(if all { &args[1..] } else { &args }, all) {
        Ok(o) => o,
        Err(e) => return usage_error(e),
    };
    if !all {
        return run_one(&opts);
    }
    match run_all(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => usage_error(e),
    }
}
