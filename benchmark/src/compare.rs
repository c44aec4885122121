//! `--compare <a> <b>`: judge a set of runs against a baseline set by the
//! bounds this benchmark fixed.
//!
//! Each file holds one stamped record per line (what `--out` appends). For
//! every end-to-end metric × workload the verdict is `ok`, `regressed`
//! (`b`'s median is worse than `a`'s by more than the bound) or `unresolved`
//! (either side's interquartile spread is wider than the bound, unless every
//! run of `b` reads better than every run of `a`). Counts that are exact for
//! a seed must be identical wherever both files ran that seed.

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One stamped record.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// Parse stamped records, one JSON object per line; other lines are skipped.
pub fn parse_records(text: &str) -> Vec<Record> {
    text.lines()
        .filter_map(|line| serde_json::parse(line.trim()).ok())
        .filter_map(|value| {
            let Value::Str(workload) = value.get("workload")? else {
                return None;
            };
            let Value::Map(entries) = value.get("metrics")? else {
                return None;
            };
            Some(Record {
                workload: workload.clone(),
                seed: number(value.get("seed")?)? as u64,
                traced: number(value.get("trace")?)? != 0.0,
                failed: number(value.get("failed")?)? as u64,
                metrics: entries
                    .iter()
                    .filter_map(|(name, value)| Some((name.clone(), number(value)?)))
                    .collect(),
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Interquartile distance as a share of the median (0 for a single run).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Judge one metric: `a` is the baseline's runs, `b` the candidate's.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (base, candidate) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (candidate - base) / base,
        Better::Higher => (base - candidate) / base,
    };
    if spread(a) > bound || spread(b) > bound {
        let all_better = b.iter().all(|&y| {
            a.iter().all(|&x| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values(records: &[Record], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Print the comparison; returns how many rows were not `ok`.
pub fn compare(a: &[Record], b: &[Record]) -> usize {
    let mut problems = 0;
    println!(
        "{:<15} {:<24} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a.median", "b.median", "a.iqr%", "b.iqr%", "bound%"
    );
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let (va, vb) = (
                values(a, workload, false, metric.name),
                values(b, workload, false, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, metric.better, metric.bound);
            problems += usize::from(verdict != Verdict::Ok);
            println!(
                "{:<15} {:<24} {:>12.5} {:>12.5} {:>8.2} {:>8.2} {:>7.1}  {}",
                workload,
                metric.name,
                median(&va),
                median(&vb),
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                metric.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    // Exact counts: same workload, seed and trace flag must agree exactly.
    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|metric| metric.exact)
        .map(|metric| metric.name)
        .chain(["bits_per_live_key", "mem_bytes_per_live_key"])
        .collect();
    let mut compared = 0;
    for ra in a {
        for rb in b
            .iter()
            .filter(|rb| (&rb.workload, rb.seed, rb.traced) == (&ra.workload, ra.seed, ra.traced))
        {
            for name in &exact {
                let (Some(x), Some(y)) = (ra.metrics.get(*name), rb.metrics.get(*name)) else {
                    continue;
                };
                compared += 1;
                if x != y {
                    problems += 1;
                    println!(
                        "{:<15} {:<24} seed {} differs: {x} vs {y}",
                        ra.workload, name, ra.seed
                    );
                }
            }
        }
    }
    let failed: u64 = a.iter().chain(b).map(|r| r.failed).sum();
    if failed > 0 {
        problems += 1;
        println!("failed_ops: {failed} across both files (must be 0)");
    }
    println!("exact counts: {compared} compared; failed_ops {failed}; {problems} row(s) not ok");
    problems
}

/// Read both files and compare them.
pub fn compare_files(a: &Path, b: &Path) -> std::io::Result<usize> {
    let a = parse_records(&std::fs::read_to_string(a)?);
    let b = parse_records(&std::fs::read_to_string(b)?);
    Ok(compare(&a, &b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        // 5 % slower against an 8 % bound: fine. 12 % slower: regressed.
        assert_eq!(
            judge(&steady, &[105.0; 4], Better::Lower, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[112.0; 4], Better::Lower, 0.08),
            Verdict::Regressed
        );
        // For a rate, lower is worse.
        assert_eq!(
            judge(&steady, &[88.0; 4], Better::Higher, 0.08),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&steady, &[112.0; 4], Better::Higher, 0.08),
            Verdict::Ok
        );
        // A spread wider than the bound resolves nothing...
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[100.0; 4], Better::Lower, 0.08),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats every baseline run.
        assert_eq!(judge(&noisy, &[70.0; 4], Better::Lower, 0.08), Verdict::Ok);
    }

    #[test]
    fn records_parse_from_stamped_lines() {
        let text = "noise\n{\"workload\":\"churn\",\"seed\":3,\"trace\":0,\"failed\":0,\"metrics\":{\"setup_s\":0.25,\"fpr\":0.003}}\n";
        let records = parse_records(text);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].workload, "churn");
        assert_eq!(records[0].seed, 3);
        assert!(!records[0].traced);
        assert_eq!(records[0].metrics["setup_s"], 0.25);
    }
}
