//! Order statistics and the per-call logs the metrics are computed from.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `q` (0..=1) of the samples at or below it. `NaN` for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// exclusive method), so `--compare` judges spread the way the driver does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return [only; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Rank i*(n+1)/4 (1-based); like Python, the rank is clamped to the
        // sample but the interpolation weight is not.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    out
}

/// Per-call log of one operation class (probe calls or write calls).
///
/// Calls are grouped into *repetitions* — a set-up, a lifecycle iteration, a
/// slice of a probe window — and every reported figure is the median over
/// repetitions of that repetition's own figure. A burst of interference
/// from a neighbour on the host then moves the repetitions it hits, not the
/// result.
#[derive(Debug, Default)]
pub struct OpLog {
    /// `(keys, ns)` of every call, in call order.
    calls: Vec<(u32, u64)>,
    /// Index into `calls` where each closed repetition ends.
    ends: Vec<usize>,
}

impl OpLog {
    /// Record one call that handled `keys` keys in `ns` nanoseconds.
    pub fn record(&mut self, keys: usize, ns: u64) {
        self.calls.push((keys as u32, ns));
    }

    /// Close the current repetition (a no-op when it saw no call).
    pub fn end_repetition(&mut self) {
        if self.ends.last().copied().unwrap_or(0) < self.calls.len() {
            self.ends.push(self.calls.len());
        }
    }

    /// Calls recorded so far.
    pub fn calls(&self) -> usize {
        self.calls.len()
    }

    fn repetitions(&self) -> impl Iterator<Item = &[(u32, u64)]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(self.ends.iter().copied())
            .map(|(start, end)| &self.calls[start..end])
    }

    /// Median over repetitions of keys ÷ time inside the calls, in Mkeys/s.
    pub fn mkeys_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .repetitions()
            .map(|calls| {
                let (keys, ns) = totals(calls);
                keys as f64 * 1e3 / ns as f64
            })
            .collect();
        median(&rates)
    }

    /// Nanoseconds per key over every call recorded, taken together.
    pub fn ns_per_key(&self) -> f64 {
        let (keys, ns) = totals(&self.calls);
        ns as f64 / keys as f64
    }

    /// Median over repetitions of the repetition's latency percentile, in
    /// microseconds.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let per_repetition: Vec<f64> = self
            .repetitions()
            .map(|calls| latency_percentile_us(calls, q))
            .collect();
        median(&per_repetition)
    }

    /// Latency percentile over every call of the run pooled, in
    /// microseconds (the far tail, which no single repetition resolves).
    pub fn pooled_percentile_us(&self, q: f64) -> f64 {
        latency_percentile_us(&self.calls, q)
    }
}

fn totals(calls: &[(u32, u64)]) -> (u64, u64) {
    calls
        .iter()
        .fold((0, 0), |(keys, ns), &(k, n)| (keys + u64::from(k), ns + n))
}

fn latency_percentile_us(calls: &[(u32, u64)], q: f64) -> f64 {
    let mut sorted: Vec<f64> = calls.iter().map(|&(_, ns)| ns as f64 / 1e3).collect();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// Time one call in nanoseconds (never 0, so rates stay finite).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    (out, (start.elapsed().as_nanos() as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&values);
        assert!((q[0] - 2.75).abs() < 1e-12, "{q:?}");
        assert!((q[1] - 5.5).abs() < 1e-12, "{q:?}");
        assert!((q[2] - 8.25).abs() < 1e-12, "{q:?}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
    }

    #[test]
    fn oplog_reports_the_median_repetition() {
        let mut log = OpLog::default();
        for (keys, ns) in [(1000, 1000), (1000, 2000), (1000, 100_000)] {
            log.record(keys, ns);
            log.record(keys, ns * 3);
            log.end_repetition();
            log.end_repetition(); // closing twice adds no empty repetition
        }
        // Repetitions run at 500, 250 and 5 Mkeys/s; the outlier moves nothing.
        assert_eq!(log.mkeys_per_s(), 250.0);
        assert_eq!(log.calls(), 6);
        // Per-repetition medians are 1, 2 and 100 us; maxima 3, 6 and 300 us.
        assert_eq!(log.percentile_us(0.5), 2.0);
        assert_eq!(log.percentile_us(1.0), 6.0);
        assert_eq!(log.pooled_percentile_us(1.0), 300.0);
        assert_eq!(log.ns_per_key(), 412_000.0 / 6000.0);
    }
}
