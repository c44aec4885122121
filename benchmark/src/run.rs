//! The state one benchmark run accumulates, and the calls that feed it.
//!
//! Every store call a workload makes goes through [`Run::write_call`] or
//! [`Run::probe_call`]: they time the call, pool the latency, verify the
//! answer against the oracle and — in a traced slice — record the span.

use crate::keys::{check, AbsentStream, KeySpace, Oracle, ProbeBatch, Rng, Verdict};
use crate::ladder::Ladder;
use crate::stats::{timed, OpLog};
use crate::trace::Tracer;
use pof_filter::SelectionVector;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Filter and bookkeeping bytes of the workload's own store at the end,
/// from the store's `stats()`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Footprint {
    pub live_keys: u64,
    pub filter_bits: u64,
    pub bookkeeping_bytes: u64,
    pub sidecar_bytes: u64,
}

pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub rng: Rng,
    pub oracle: Oracle,
    pub absent: AbsentStream,
    pub probe: OpLog,
    pub write: OpLog,
    /// Calls of untraced slices of a traced run, for `trace.overhead_pct`.
    pub untraced_probe: OpLog,
    pub setup_s: Vec<f64>,
    pub reopen_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub fpr_probed: u64,
    pub fpr_hits: u64,
    pub footprint: Footprint,
    /// Per-layer values that do not come from spans (counts, ratios).
    pub layer: BTreeMap<&'static str, f64>,
    /// Sizes, kernels and routing facts for the result's stamp.
    pub facts: BTreeMap<String, String>,
    pub tracer: Tracer,
    /// True while the current slice of a traced run records spans.
    pub tracing_now: bool,
    pub ladder: Option<Ladder>,
    /// The ladder rung that makes the same call as the workload's own probe
    /// path, for `trace.ladder_residual_pct`.
    pub top_rung: &'static str,
    pub dir: PathBuf,
    op: u64,
    pub sel: SelectionVector,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, traced: bool, dir: PathBuf) -> Self {
        let space = KeySpace::new(seed);
        Self {
            seed,
            seconds,
            traced,
            rng: Rng::new(seed),
            oracle: Oracle::new(space),
            absent: AbsentStream::new(space),
            probe: OpLog::default(),
            write: OpLog::default(),
            untraced_probe: OpLog::default(),
            setup_s: Vec::new(),
            reopen_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            fpr_probed: 0,
            fpr_hits: 0,
            footprint: Footprint::default(),
            layer: BTreeMap::new(),
            facts: BTreeMap::new(),
            tracer: Tracer::default(),
            tracing_now: false,
            ladder: None,
            top_rung: "store.snapshot_probe_ns",
            dir,
            op: 0,
            sel: SelectionVector::new(),
        }
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.insert(key.to_owned(), value.to_string());
    }

    /// Has the measured window run out? A traced run measures its workload
    /// for half the time and spends the rest on the ladder.
    pub fn window_open(&self, window: Instant) -> bool {
        let seconds = if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        window.elapsed().as_secs_f64() < seconds
    }

    /// Time `f`, as a span when the current slice is traced.
    fn time<R>(&mut self, name: &'static str, keys: usize, f: impl FnOnce() -> R) -> (R, u64) {
        self.op += 1;
        if self.tracing_now {
            self.tracer.span(name, 0, self.op, keys, f)
        } else {
            timed(f)
        }
    }

    /// Time one write call (`insert_batch`, `delete_batch`, `maintain`,
    /// `compact`) over `keys` keys and pool it.
    pub fn write_call<R>(&mut self, name: &'static str, keys: usize, f: impl FnOnce() -> R) -> R {
        self.attempted += keys as u64;
        let (out, ns) = self.time(name, keys, f);
        self.write.record(keys, ns);
        out
    }

    /// Time one probe call, pool it and verify it: every live key of the
    /// batch must qualify. A false negative is a failed operation, not a
    /// panic.
    pub fn probe_call(
        &mut self,
        name: &'static str,
        batch: &ProbeBatch,
        f: impl FnOnce(&[u32], &mut SelectionVector),
    ) -> Verdict {
        let mut sel = std::mem::take(&mut self.sel);
        sel.clear();
        let ((), ns) = self.time(name, batch.keys.len(), || f(&batch.keys, &mut sel));
        let log = if self.traced && !self.tracing_now {
            &mut self.untraced_probe
        } else {
            &mut self.probe
        };
        log.record(batch.keys.len(), ns);
        let verdict = check(sel.as_slice(), batch);
        self.sel = sel;
        self.attempted += batch.keys.len() as u64;
        self.failed += verdict.false_negatives;
        verdict
    }

    /// One call of the closing false-positive scan: `batch` holds absent
    /// keys only, so everything that qualifies is a false positive.
    pub fn fpr_call(
        &mut self,
        name: &'static str,
        batch: &ProbeBatch,
        f: impl FnOnce(&[u32], &mut SelectionVector),
    ) {
        debug_assert!(batch.present.is_empty());
        let verdict = self.probe_call(name, batch, f);
        self.fpr_probed += batch.keys.len() as u64;
        self.fpr_hits += verdict.false_positives;
    }

    /// Count one oracle check (a key after reopen, an exact key count) and
    /// whether it failed.
    pub fn verify(&mut self, checks: u64, failures: u64) {
        self.attempted += checks;
        self.failed += failures;
    }

    /// End a repetition of both logs (a set-up, a lifecycle iteration, a
    /// slice of a probe window).
    pub fn end_repetition(&mut self) {
        self.probe.end_repetition();
        self.write.end_repetition();
        self.untraced_probe.end_repetition();
    }

    pub fn fpr(&self) -> f64 {
        self.fpr_hits as f64 / self.fpr_probed as f64
    }
}
