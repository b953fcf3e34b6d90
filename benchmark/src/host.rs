//! What the host looks like, and how much memory this process has used.

use std::process::Command;

use crate::json::Value;

/// Peak resident set size of this process in MiB: `VmHWM` from
/// `/proc/self/status`. Every workload runs in a process of its own, so
/// this is that workload's peak and nothing else's. `None` where the
/// kernel does not provide it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Host metadata recorded with every result set, so two sets are only
/// ever compared knowing whether they came from like hosts.
pub fn metadata() -> Value {
    let unknown = || "unknown".to_string();
    Value::obj()
        .with("nproc", nproc())
        .with("cpu_model", cpu_model().unwrap_or_else(unknown))
        .with(
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        )
        .with(
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
}
