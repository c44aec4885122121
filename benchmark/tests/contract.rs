//! The benchmark's promises to the driver and to later readers: names are
//! well formed and match `BENCHMARK.json`, a seed fixes every count, and a
//! wrong answer is counted, not panicked over.

use pof_benchmark::keys::{AbsentStream, KeySpace, Rng};
use pof_benchmark::run::Run;
use pof_benchmark::spec::{valid_name, valid_unit, END_TO_END, PER_LAYER, WORKLOADS};
use pof_benchmark::{result, run_workload};
use serde::Value;
use std::path::PathBuf;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside benchmark/");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
}

fn entries<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match field(value, key) {
        Value::Seq(items) => items,
        other => panic!("BENCHMARK.json: {key} is {other:?}, not a list"),
    }
}

fn string<'a>(value: &'a Value, key: &str) -> &'a str {
    match field(value, key) {
        Value::Str(s) => s,
        other => panic!("{key} is {other:?}, not a string"),
    }
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out/tmp")
        .join(format!("test-{name}-{}", std::process::id()))
}

#[test]
fn names_and_units_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(seen.insert(name), "name {name:?} is used twice");
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(valid_unit(unit), "bad unit {unit:?}");
    }
    assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
    assert!(!valid_unit("keys per second") && !valid_unit(""));
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let json = benchmark_json();
    let Value::Map(top) = &json else {
        panic!("BENCHMARK.json is not an object");
    };
    let keys: Vec<&str> = top.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<&str> = entries(&json, "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for workload in entries(&json, "workloads") {
        let why = string(workload, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why:?}"
        );
    }

    let end_to_end = entries(&json, "end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, metric) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(string(listed, "name"), metric.name);
        assert_eq!(string(listed, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(
            string(listed, "better"),
            metric.better.as_str(),
            "{}",
            metric.name
        );
        assert_eq!(
            field(listed, "bound"),
            &Value::F64(metric.bound),
            "{}",
            metric.name
        );
        assert!(metric.bound > 0.0 && metric.bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    let per_layer = entries(&json, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (listed, metric) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(string(listed, "name"), metric.name);
        assert_eq!(string(listed, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(
            string(listed, "better"),
            metric.better.as_str(),
            "{}",
            metric.name
        );
    }
}

#[test]
fn same_seed_gives_identical_counts() {
    for workload in ["probe_cached", "durable_ingest"] {
        let runs: Vec<Run> = (0..2)
            .map(|i| {
                run_workload(
                    workload,
                    7,
                    0.05,
                    false,
                    &scratch(&format!("{workload}{i}")),
                )
            })
            .collect();
        assert_eq!(runs[0].failed, 0, "{workload}");
        let exact = PER_LAYER.iter().filter(|m| m.exact);
        let mut compared = 0;
        for metric in exact {
            let (a, b) = (
                runs[0].layer.get(metric.name),
                runs[1].layer.get(metric.name),
            );
            assert_eq!(
                a, b,
                "{workload}: {} differs between two runs of seed 7",
                metric.name
            );
            compared += usize::from(a.is_some());
        }
        assert!(
            compared >= 8,
            "{workload}: only {compared} counts were recorded"
        );
        assert_eq!(runs[0].footprint.filter_bits, runs[1].footprint.filter_bits);
        assert_eq!(runs[0].footprint.live_keys, runs[1].footprint.live_keys);
        assert_eq!(
            runs[0].footprint.bookkeeping_bytes,
            runs[1].footprint.bookkeeping_bytes
        );

        // The untraced run reports every end-to-end metric, each a number.
        let metrics = result::metrics(&runs[0]);
        assert_eq!(metrics.len(), END_TO_END.len());
        for (name, _, value) in &metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload}: {name} = {value}"
            );
        }
        let line = serde_json::parse(&result::contract_line(&runs[0], &metrics)).expect("json");
        let Value::Map(fields) = &line else {
            panic!("result line is not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&line, "correct"), &Value::Bool(true));
    }
}

#[test]
fn an_injected_false_negative_is_a_failed_op_not_a_panic() {
    let space = KeySpace::new(11);
    let mut run = Run::new(11, 1.0, false, scratch("inject"));
    let resident: Vec<u32> = (0..1000).map(|i| space.key(i)).collect();
    let batch = AbsentStream::new(space).mixed_batch(&mut Rng::new(11), 4096, 100, |rng| {
        resident[rng.below(resident.len())]
    });
    assert!(batch.present.len() > 300);

    // An honest filter: every live position qualifies, plus a false positive.
    let absent_position = (0..4096u32)
        .find(|p| !batch.present.contains(p))
        .expect("an absent position");
    let verdict = run.probe_call("test.probe", &batch, |_, sel| {
        let mut positions = batch.present.clone();
        positions.push(absent_position);
        positions.sort_unstable();
        for position in positions {
            sel.push(position);
        }
    });
    assert_eq!((verdict.false_negatives, verdict.false_positives), (0, 1));
    assert_eq!(run.failed, 0);

    // A lying one: it drops a live key.
    let verdict = run.probe_call("test.probe", &batch, |_, sel| {
        for &position in &batch.present[1..] {
            sel.push(position);
        }
    });
    assert_eq!(verdict.false_negatives, 1);
    assert_eq!(run.failed, 1);
    assert_eq!(run.attempted, 2 * 4096);
    let metrics = [("true_negative_rate", "ratio", 0.5)];
    let line = serde_json::parse(&result::contract_line(&run, &metrics)).expect("json");
    assert_eq!(field(&line, "correct"), &Value::Bool(false));
    assert_eq!(field(&line, "failed"), &Value::U64(1));
}
