//! The k-machine benchmark. See README.md; run through `run.sh`.
//!
//! ```text
//! km-benchmark [--seed S] [--workload W] [--out FILE] [--seconds T]
//!              [--smoke] [--twice]          every workload, each in a child process
//! km-benchmark --workload W --seed S --seconds T --trace 0|1
//!                                           one workload in this process; the last
//!                                           line of stdout is one JSON object
//! km-benchmark compare A.json B.json        is B a regression from A?
//! km-benchmark metrics                      the metric table, as Markdown
//! ```

mod api;
mod compare;
mod host;
mod json;
mod metrics;
mod micro;
mod report;
mod stats;
mod trace;
mod verify;
mod workloads;

#[cfg(test)]
mod selftest;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use report::{ResultSet, WorkloadResult};
use workloads::{Ctx, Pass, Report, WORKLOADS};

/// Seconds of timed reps when the driver's form is used without
/// `--seconds`; the same as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Seconds of timed reps per workload in a full run. Twice the driver's:
/// a full run has no time cap to fit, and on a shared host a 10 s
/// window's median moves by more than the +10 % bound too often.
const FULL_SET_SECONDS: f64 = 20.0;

#[derive(Debug, Default)]
struct Args {
    seed: Option<u64>,
    workload: Option<String>,
    out: Option<String>,
    out_dir: Option<PathBuf>,
    seconds: Option<f64>,
    trace: Option<u8>,
    smoke: bool,
    twice: bool,
    /// Internal: this process is a child of a full run.
    child: bool,
    n: Option<usize>,
    k: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--seed" => a.seed = Some(parse(&value("a number")?, &flag)?),
            "--workload" => a.workload = Some(value("a name")?),
            "--out" => a.out = Some(value("a file")?),
            "--out-dir" => a.out_dir = Some(value("a directory")?.into()),
            "--seconds" => {
                let s: f64 = parse(&value("a number")?, &flag)?;
                if !(s.is_finite() && (0.0..=600.0).contains(&s)) {
                    return Err(format!("--seconds {s} is outside 0..600"));
                }
                a.seconds = Some(s);
            }
            "--trace" => match value("0 or 1")?.as_str() {
                "0" => a.trace = Some(0),
                "1" => a.trace = Some(1),
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            },
            "--n" => a.n = Some(parse(&value("a number")?, &flag)?),
            "--k" => a.k = Some(parse(&value("a number")?, &flag)?),
            "--smoke" => a.smoke = true,
            "--twice" => a.twice = true,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {w:?}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(a)
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} {text:?} is not a valid value"))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let result = match argv.peek().map(String::as_str) {
        Some("compare") => {
            let files: Vec<String> = argv.skip(1).collect();
            run_compare(&files)
        }
        Some("metrics") => {
            report::print_metric_table();
            Ok(true)
        }
        Some("dist-probe") => parse_args(argv.skip(1)).map(|a| {
            let (n, k) = (a.n.unwrap_or(1_000_000), a.k.unwrap_or(8));
            let out = workloads::dist_probe_child(n, k, a.seed.unwrap_or(1));
            println!("{}", out.to_compact());
            true
        }),
        _ => parse_args(argv).and_then(|a| {
            refuse_overrides()?;
            if a.child {
                run_child(&a)
            } else if a.trace.is_some() {
                run_driver(&a)
            } else {
                run_full(&a)
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("km-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// A forced engine, injected faults or a changed barrier timeout would
/// make every number here describe something other than the workload.
fn refuse_overrides() -> Result<(), String> {
    for var in api::REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; unset it — the benchmark picks each workload's engine and faults itself"
            ));
        }
    }
    Ok(())
}

fn context(a: &Args, pass: Pass) -> Result<Ctx, String> {
    Ok(Ctx {
        seed: a.seed.unwrap_or(1),
        seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
        pass,
        smoke: a.smoke,
        out_dir: a.out_dir.clone(),
        exe: std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?,
    })
}

fn run_workload(a: &Args, pass: Pass) -> Result<Report, String> {
    let name = a.workload.as_deref().ok_or("--workload is required here")?;
    let ctx = context(a, pass)?;
    workloads::run(name, &ctx).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// `--trace 0|1`: one workload in this process, one JSON object as the
/// last line of stdout. `--trace 0` reports the end-to-end metrics
/// every workload has; `--trace 1` every other metric, 0 where the
/// workload does not have it.
fn run_driver(a: &Args) -> Result<bool, String> {
    let traced = a.trace == Some(1);
    let rep = run_workload(a, if traced { Pass::Layers } else { Pass::EndToEnd })?;
    let result = WorkloadResult::from_report(&rep);
    report::print_workload(&result);

    let mut metrics = Value::obj();
    let wanted: Vec<&metrics::MetricDef> = if traced {
        driver_per_layer().collect()
    } else {
        driver_end_to_end().collect()
    };
    for def in wanted {
        let value = match rep.median_of(def.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => return Err(format!("{} was not measured", def.name)),
        };
        metrics.set(
            def.name,
            Value::obj().with("value", value).with("unit", def.unit),
        );
    }
    let line = Value::obj()
        .with("correct", rep.failed == 0)
        .with("attempted", rep.attempted.max(1))
        .with("failed", rep.failed)
        .with("metrics", metrics);
    println!("{}", line.to_compact());
    Ok(true)
}

/// The end-to-end metrics every workload reports: what `BENCHMARK.json`
/// lists under `end_to_end`. The three exact ones (`rounds`,
/// `max_recv_kbits`, `wire_mib`) are absent on some workloads, so for
/// the driver they travel with the per-layer metrics.
fn driver_end_to_end() -> impl Iterator<Item = &'static metrics::MetricDef> {
    metrics::END_TO_END
        .iter()
        .filter(|d| d.kind == metrics::Kind::Timing)
}

fn driver_per_layer() -> impl Iterator<Item = &'static metrics::MetricDef> {
    metrics::END_TO_END
        .iter()
        .filter(|d| d.kind != metrics::Kind::Timing)
        .chain(metrics::PER_LAYER.iter())
}

/// A child of a full run: both passes, the report as the last line.
fn run_child(a: &Args) -> Result<bool, String> {
    let rep = run_workload(a, Pass::Both)?;
    println!(
        "{}",
        WorkloadResult::from_report(&rep).to_json().to_compact()
    );
    Ok(true)
}

/// One workload in a child process of its own, so its peak RSS is that
/// workload's alone. A child that dies or prints no report becomes one
/// failed operation.
fn run_in_child(a: &Args, name: &str, set: &ResultSet) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--child", "--workload", name])
        .args(["--seed", &set.seed.to_string()])
        .args(["--seconds", &set.seconds.to_string()]);
    if set.smoke {
        cmd.arg("--smoke");
    }
    if let Some(dir) = &a.out_dir {
        cmd.arg("--out-dir").arg(dir);
    }
    // stderr is inherited: the child's progress shows as it runs.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "printed nothing".to_string())
        .and_then(json::parse)
        .and_then(|v| WorkloadResult::from_json(&v));
    Ok(match parsed {
        Ok(r) if out.status.success() => r,
        other => WorkloadResult {
            name: name.to_string(),
            engine: "none".to_string(),
            ops_attempted: 1,
            ops_failed: 1,
            failures: vec![format!(
                "child exited with {} ({})",
                out.status,
                other
                    .err()
                    .unwrap_or_else(|| "its report parsed".to_string())
            )],
            metrics: Vec::new(),
        },
    })
}

fn write_set(set: &ResultSet, path: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, set.to_json().to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Every workload (or the one named), each in a child process. With
/// `--twice` each workload runs twice back to back, so the two result
/// sets see the same phases of a shared host, and the second set is
/// compared against the first.
fn run_full(a: &Args) -> Result<bool, String> {
    let mut first = ResultSet {
        smoke: a.smoke,
        seed: a.seed.unwrap_or(1),
        seconds: a.seconds.unwrap_or(FULL_SET_SECONDS),
        host: host::metadata(),
        workloads: Vec::new(),
    };
    let mut second = first.clone();
    println!(
        "km-benchmark seed={} seconds={}{}  host: {}",
        first.seed,
        first.seconds,
        if a.smoke {
            " SMOKE (not a measurement)"
        } else {
            ""
        },
        first.host.to_compact()
    );
    for (name, _) in WORKLOADS {
        if a.workload.as_deref().is_some_and(|w| w != name) {
            continue;
        }
        let sets: &mut [&mut ResultSet] = if a.twice {
            &mut [&mut first, &mut second]
        } else {
            &mut [&mut first]
        };
        for set in sets {
            let result = run_in_child(a, name, set)?;
            report::print_workload(&result);
            set.workloads.push(result);
        }
    }
    println!();
    let mut ok = first.ops_failed() + second.ops_failed() == 0;
    let in_out_dir = |file: &str| {
        a.out_dir
            .as_ref()
            .map(|d| d.join(file).to_string_lossy().into_owned())
    };
    let first_path = a.out.clone().or_else(|| {
        in_out_dir(if a.twice {
            "results-A.json"
        } else {
            "results.json"
        })
    });
    if let Some(path) = &first_path {
        write_set(&first, path)?;
    }
    if a.twice {
        if let Some(path) = in_out_dir("results-B.json") {
            write_set(&second, &path)?;
        }
        if a.smoke {
            println!("smoke sets are not compared");
        } else {
            println!("\n---- repeatability: second set (B) against the first (A) ----");
            let c = compare::compare(&first, &second)?;
            compare::print(&c);
            ok &= c.violations().is_empty();
        }
    }
    if !ok {
        println!("\nFAILED: see the FAILED and REGRESSION lines above");
    }
    Ok(ok)
}

fn run_compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let (a, b) = (ResultSet::load(a)?, ResultSet::load(b)?);
    if a.host != b.host {
        println!(
            "note: hosts differ\n  A: {}\n  B: {}",
            a.host.to_compact(),
            b.host.to_compact()
        );
    }
    let c = compare::compare(&a, &b)?;
    compare::print(&c);
    let violations = c.violations();
    if violations.is_empty() {
        println!("OK: B is within every bound of A");
    } else {
        println!("{} regression(s)", violations.len());
    }
    Ok(violations.is_empty())
}
