//! Turning a finished [`Run`] into named metrics and printed results.

use crate::host::{object, peak_rss_mb, text};
use crate::run::Run;
use crate::spec::{END_TO_END, PER_LAYER};
use serde::Value;

/// Every end-to-end metric of an untraced run, in `END_TO_END` order.
pub fn end_to_end(run: &Run) -> Vec<f64> {
    let live = run.footprint.live_keys as f64;
    let filter_bytes = run.footprint.filter_bits as f64 / 8.0;
    let resident_bytes =
        filter_bytes + (run.footprint.bookkeeping_bytes + run.footprint.sidecar_bytes) as f64;
    END_TO_END
        .iter()
        .map(|metric| match metric.name {
            "setup_s" => crate::stats::median(&run.setup_s),
            "probe_mkeys_s" => run.probe.mkeys_per_s(),
            "probe_p50_us" => run.probe.percentile_us(0.50),
            "probe_p99_us" => run.probe.percentile_us(0.99),
            "write_mkeys_s" => run.write.mkeys_per_s(),
            "write_p50_us" => run.write.percentile_us(0.50),
            "write_p99_us" => run.write.percentile_us(0.99),
            "reopen_ms" => crate::stats::median(&run.reopen_ms),
            "bits_per_live_key" => run.footprint.filter_bits as f64 / live,
            "mem_bytes_per_live_key" => resident_bytes / live,
            "true_negative_rate" => 1.0 - run.fpr(),
            "peak_rss_mb" => peak_rss_mb(),
            other => unreachable!("end-to-end metric {other} has no source"),
        })
        .collect()
}

/// Every per-layer metric of a traced run, in `PER_LAYER` order.
pub fn per_layer(run: &Run) -> Vec<f64> {
    let tracer = &run.tracer;
    // Time over keys on both sides: a throughput's inverse, not a median.
    let untraced_ns_per_key = run.untraced_probe.ns_per_key();
    PER_LAYER
        .iter()
        .map(|metric| match metric.name {
            "core.dispatch_self_ns" => tracer
                .median_rung_self_ns_per_key("core.anyfilter_probe_ns", "bloom.probe_batch_ns"),
            "store.routing_self_ns" => tracer
                .median_rung_self_ns_per_key("store.snapshot_probe_ns", "store.snapshot1_probe_ns"),
            "store.frontdoor_self_ns" => tracer
                .median_rung_self_ns_per_key("store.contains_batch_ns", "store.snapshot_probe_ns"),
            "tiered.cascade_self_ns" => {
                tracer.median_rung_self_ns_per_key("tiered.cascade_ns", "tiered.level_probe_ns")
            }
            "store.write_self_ns" => {
                tracer.median_rung_self_ns_per_key("store.insert_ns", "core.anyfilter_insert_ns")
            }
            "persist.journal_self_ns" => {
                tracer.median_rung_self_ns_per_key("store.journaled_insert_ns", "store.insert_ns")
            }
            "store.maintain_ms" | "tiered.compact_ms" | "store.reopen_snapshot_ms" => {
                tracer.median_ns(metric.name) / 1e6
            }
            "persist.fsync_us" => tracer.median_ns(metric.name) / 1e3,
            "store.write_p999_us" => run.write.pooled_percentile_us(0.999),
            "store.write_max_us" => run.write.pooled_percentile_us(1.0),
            "model.fpr_observed" => run.fpr(),
            "trace.overhead_pct" => {
                (1.0 - run.probe.mkeys_per_s() / run.untraced_probe.mkeys_per_s()) * 100.0
            }
            "trace.ladder_residual_pct" => {
                let rung = tracer.mean_ns_per_key(run.top_rung);
                (rung - untraced_ns_per_key).abs() / untraced_ns_per_key * 100.0
            }
            name => match run.layer.get(name) {
                Some(&value) => value,
                // Every remaining name is a rung span, in ns per key.
                None => tracer.median_ns_per_key(name),
            },
        })
        .collect()
}

/// The names, units and values this run reports.
pub fn metrics(run: &Run) -> Vec<(&'static str, &'static str, f64)> {
    if run.traced {
        let values = per_layer(run);
        PER_LAYER
            .iter()
            .zip(values)
            .map(|(metric, value)| (metric.name, metric.unit, value))
            .collect()
    } else {
        let values = end_to_end(run);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(metric, value)| (metric.name, metric.unit, value))
            .collect()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn contract_line(run: &Run, metrics: &[(&'static str, &'static str, f64)]) -> String {
    let metrics = Value::Map(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_owned(),
                    object(vec![("value", Value::F64(value)), ("unit", text(unit))]),
                )
            })
            .collect(),
    );
    let line = object(vec![
        ("correct", Value::Bool(run.failed == 0)),
        ("attempted", Value::U64(run.attempted)),
        ("failed", Value::U64(run.failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("serialize result")
}

/// The stamped record `--out` appends and `--compare` reads: the contract
/// fields plus workload, seed, sizes, kernels and host.
pub fn stamped_line(
    run: &Run,
    workload: &str,
    host: &Value,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let facts = Value::Map(
        run.facts
            .iter()
            .map(|(key, value)| (key.clone(), text(value.clone())))
            .collect(),
    );
    let values = Value::Map(
        metrics
            .iter()
            .map(|&(name, _, value)| (name.to_owned(), Value::F64(value)))
            .collect(),
    );
    let line = object(vec![
        ("workload", text(workload)),
        ("seed", Value::U64(run.seed)),
        ("seconds", Value::F64(run.seconds)),
        ("trace", Value::U64(u64::from(run.traced))),
        ("attempted", Value::U64(run.attempted)),
        ("failed", Value::U64(run.failed)),
        ("fpr", Value::F64(run.fpr())),
        ("probe_calls", Value::U64(run.probe.calls() as u64)),
        ("write_calls", Value::U64(run.write.calls() as u64)),
        ("setups", Value::U64(run.setup_s.len() as u64)),
        ("reopens", Value::U64(run.reopen_ms.len() as u64)),
        ("facts", facts),
        ("host", host.clone()),
        ("metrics", values),
    ]);
    serde_json::to_string(&line).expect("serialize stamped result")
}
