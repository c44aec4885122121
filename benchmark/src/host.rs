//! Host and toolchain facts stamped on every result: a blocked-Bloom number
//! means nothing without knowing which vector path ran, on what.

use pof_core::{Calibrator, Platform};
use serde::Value;
use std::process::Command;

/// Build a JSON object from `(key, value)` pairs.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(
        pairs
            .into_iter()
            .map(|(key, value)| (key.to_owned(), value))
            .collect(),
    )
}

pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// First line a command prints, or "unknown" (the driver's checkout is not a
/// git repository, and a host may lack either tool).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|stdout| stdout.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `nproc`, CPU model, SIMD features, caches, estimated clock, commit and
/// compiler.
pub fn stamp() -> Value {
    let platform = Platform::detect();
    object(vec![
        ("nproc", Value::U64(platform.logical_cpus as u64)),
        ("cpu_model", text(platform.model_name)),
        (
            "simd_features",
            Value::Seq(platform.simd_features.into_iter().map(Value::Str).collect()),
        ),
        (
            "caches",
            Value::Map(
                platform
                    .cache_bytes
                    .into_iter()
                    .map(|(name, bytes)| (name, Value::U64(bytes)))
                    .collect(),
            ),
        ),
        ("estimated_ghz", Value::F64(Calibrator::estimate_cpu_ghz())),
        (
            "git_commit",
            text(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", text(first_line("rustc", &["--version"]))),
    ])
}

/// The number after `field` in a `/proc/self` file, 0 when `/proc` does not
/// say.
fn proc_number(file: &str, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .ok()
        .and_then(|text| {
            text.lines().find_map(|line| {
                line.strip_prefix(field)?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_number("status", "VmHWM:") / 1024.0
}

/// Bytes this process has passed to write calls so far (`wchar`).
pub fn bytes_written() -> u64 {
    proc_number("io", "wchar:") as u64
}
