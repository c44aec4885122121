//! The repo benchmark: five store workloads measured end to end, and an
//! outside-in ladder of layers measured in a separate traced run. See
//! `benchmark/README.md` for what each metric and workload is for.

pub mod compare;
pub mod host;
pub mod keys;
pub mod ladder;
pub mod result;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use run::Run;
use std::path::{Path, PathBuf};

/// Run one workload to completion (set-ups, measured window, closing
/// checks) and return what it accumulated. `dir` is scratch space the run
/// creates and removes.
pub fn run_workload(workload: &str, seed: u64, seconds: f64, traced: bool, dir: &Path) -> Run {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create scratch directory");
    let mut run = Run::new(seed, seconds, traced, dir.to_path_buf());
    match workload {
        "probe_cached" => workloads::probe(&mut run, workloads::PROBE_CACHED),
        "probe_dram" => workloads::probe(&mut run, workloads::PROBE_DRAM),
        "churn" => workloads::churn(&mut run),
        "tiered_lsm" => workloads::tiered(&mut run),
        "durable_ingest" => workloads::durable(&mut run),
        other => panic!("unknown workload {other}"),
    }
    let _ = std::fs::remove_dir_all(dir);
    run
}

/// `benchmark/out` of the checkout the process runs in: found by walking up
/// from the working directory to the `BENCHMARK.json` beside `benchmark/`.
pub fn out_dir() -> PathBuf {
    let cwd = std::env::current_dir().expect("working directory");
    cwd.ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file())
        .map_or_else(
            || cwd.join("out"),
            |root| root.join("benchmark").join("out"),
        )
}
