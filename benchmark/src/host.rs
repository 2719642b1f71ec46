//! The host block every result carries, and this process's peak RSS.

use std::process::Command;

use crate::json::Value;
use crate::run::RunArgs;
use crate::spec;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and how the numbers next to it were taken.
pub fn block(args: &RunArgs, passes: usize) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("threads", Value::Num(1.0)),
        (
            "cpu",
            Value::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("kernel", Value::str(command_line("uname", &["-sr"]))),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        // The driver's checkout is not a git repository.
        (
            "commit",
            Value::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("workload", Value::str(args.workload.name)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("traced", Value::Bool(args.traced)),
        ("passes", Value::Num(passes as f64)),
        (
            "jobs_per_wave",
            Value::Num(spec::TENANTS as f64 * spec::JOBS_PER_TENANT as f64),
        ),
    ])
}
