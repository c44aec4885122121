//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repo root repeats these
//! lists for the driver; `tests/contract.rs` fails if the two drift apart.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: `bound` is the share of the baseline's median by
/// which the metric may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// One per-layer metric (traced run only; no bound). `exact` marks counts
/// that repeat exactly for a seed, which `--compare` checks for equality.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

/// The five workloads, in the order the README discusses them.
pub const WORKLOADS: [&str; 5] = [
    "probe_cached",
    "probe_dram",
    "churn",
    "tiered_lsm",
    "durable_ingest",
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by every workload from the untraced run.
/// `failed_ops` / `attempted_ops` travel as the result's `failed` /
/// `attempted` fields and must be 0 of at least 1.
///
/// Timings carry the widest bound the driver allows: on the 2-core shared
/// host this was sized on, a neighbour's noisy phase moves every timing of
/// a whole run by 15–25 % (memory-bound workloads most), whatever is
/// measured inside the run. Accuracy is `true_negative_rate` = 1 − FPR, not
/// the FPR itself: a nearly empty filter (`probe_dram`) has an observed FPR
/// of exactly 0, which no relative bound can be applied to. Its bound of
/// 0.1 % means "the FPR may not rise by more than 0.001".
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("probe_mkeys_s", "Mkeys/s", Better::Higher, 0.25),
    e2e("probe_p50_us", "us", Better::Lower, 0.25),
    e2e("probe_p99_us", "us", Better::Lower, 0.25),
    e2e("write_mkeys_s", "Mkeys/s", Better::Higher, 0.25),
    e2e("write_p50_us", "us", Better::Lower, 0.25),
    e2e("write_p99_us", "us", Better::Lower, 0.25),
    e2e("reopen_ms", "ms", Better::Lower, 0.25),
    e2e("bits_per_live_key", "bits/key", Better::Lower, 0.01),
    e2e("mem_bytes_per_live_key", "B/key", Better::Lower, 0.01),
    e2e("true_negative_rate", "ratio", Better::Higher, 0.001),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// A time or ratio, lower is better, varies from run to run.
const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

/// A rate, higher is better.
const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// A count that repeats exactly for a seed.
const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Per-layer metrics, named `<crate>.<metric>`, reported by every workload
/// from the traced run at that workload's configuration and footprint.
pub const PER_LAYER: [PerLayer; 55] = [
    // Probe ladder, innermost rung first (ns per probed key).
    lower("hash.hash_ns", "ns/key"),
    lower("hash.address_ns", "ns/key"),
    lower("bloom.probe_scalar_ns", "ns/key"),
    lower("bloom.probe_batch_ns", "ns/key"),
    lower("bloom.probe_staged_ns", "ns/key"),
    lower("cuckoo.probe_scalar_ns", "ns/key"),
    lower("cuckoo.probe_batch_ns", "ns/key"),
    lower("cuckoo.probe_staged_ns", "ns/key"),
    lower("xorfuse.probe_scalar_ns", "ns/key"),
    lower("xorfuse.probe_batch_ns", "ns/key"),
    lower("xorfuse.probe_staged_ns", "ns/key"),
    lower("core.anyfilter_probe_ns", "ns/key"),
    lower("store.snapshot1_probe_ns", "ns/key"),
    lower("store.snapshot_probe_ns", "ns/key"),
    lower("store.contains_batch_ns", "ns/key"),
    lower("tiered.level_probe_ns", "ns/key"),
    lower("tiered.cascade_ns", "ns/key"),
    lower("core.dispatch_self_ns", "ns/key"),
    lower("store.routing_self_ns", "ns/key"),
    lower("store.frontdoor_self_ns", "ns/key"),
    lower("tiered.cascade_self_ns", "ns/key"),
    // Write ladder (ns per written key unless the unit says otherwise).
    lower("core.anyfilter_insert_ns", "ns/key"),
    lower("store.insert_ns", "ns/key"),
    lower("store.delete_ns", "ns/key"),
    lower("store.maintain_ms", "ms"),
    lower("store.journaled_insert_ns", "ns/key"),
    lower("store.write_self_ns", "ns/key"),
    lower("persist.journal_self_ns", "ns/key"),
    lower("persist.wal_append_ns_per_record", "ns/record"),
    lower("persist.fsync_us", "us"),
    higher("persist.snapshot_write_mb_s", "MB/s"),
    higher("persist.read_wal_mrecords_s", "Mrecords/s"),
    lower("store.reopen_snapshot_ms", "ms"),
    higher("store.reopen_replay_mkeys_s", "Mkeys/s"),
    lower("tiered.compact_ms", "ms"),
    lower("store.write_p999_us", "us"),
    lower("store.write_max_us", "us"),
    // Counts and waste ratios of the workload's own store.
    exact("store.final_keys", "count"),
    exact("store.rebuilds", "count"),
    exact("store.tombstones_peak", "count"),
    exact("store.overflow_peak", "count"),
    exact("store.bookkeeping_bytes", "bytes"),
    exact("store.filter_bytes", "bytes"),
    exact("tiered.compactions", "count"),
    exact("tiered.keys_moved", "count"),
    exact("persist.wal_bytes", "bytes"),
    exact("persist.snapshot_bytes", "bytes"),
    exact("persist.checkpoints", "count"),
    lower("persist.write_amplification", "ratio"),
    lower("model.fpr_observed", "ratio"),
    lower("model.fpr_observed_over_modeled", "ratio"),
    lower("cuckoo.load_factor", "ratio"),
    exact("xorfuse.construction_retries", "count"),
    lower("trace.overhead_pct", "%"),
    lower("trace.ladder_residual_pct", "%"),
];

/// Names may hold letters, digits, `_`, `.` and `-`, start with a letter or
/// digit, and run to at most 64 characters (the driver's rule).
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units may hold letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
