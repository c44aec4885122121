//! Per-platform calibration of filter lookup costs (§2, §5.1).
//!
//! The false-positive rate `f` has an analytical model, but the lookup cost
//! `t_l` is "a physical cost metric … harder to predict, as it depends on the
//! hardware" (§2). The paper therefore proposes a one-time calibration phase
//! of microbenchmarks on the target platform. [`Calibrator`] implements that
//! phase: it builds each candidate configuration at a set of filter sizes
//! spanning L1 through DRAM, measures the batched lookup throughput, and
//! records nanoseconds and (estimated) CPU cycles per lookup. The resulting
//! [`CalibrationSet`] interpolates `t_l` for any filter size and is the
//! measured input of the skyline computation.

use crate::anyfilter::AnyFilter;
use crate::configspace::FilterConfig;
use pof_filter::{Filter, KeyGen, SelectionVector};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One measured point: a configuration at a concrete filter size.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CalibrationRecord {
    /// Label of the configuration (see `FilterConfig::label`).
    pub config_label: String,
    /// Actual filter size in bits.
    pub filter_bits: u64,
    /// Number of keys the filter was built with.
    pub keys: u64,
    /// Measured nanoseconds per lookup (batched path).
    pub ns_per_lookup: f64,
    /// Measured cost converted to CPU cycles per lookup.
    pub cycles_per_lookup: f64,
    /// Which kernel was active (`scalar`, `avx2-…`).
    pub kernel: String,
}

/// Calibration results for a set of configurations over a size sweep.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CalibrationSet {
    /// Estimated CPU frequency in GHz used for the cycle conversion.
    pub cpu_ghz: f64,
    /// All measured points.
    pub records: Vec<CalibrationRecord>,
}

impl CalibrationSet {
    /// Interpolated lookup cost (cycles) of `config_label` for a filter of
    /// `filter_bits` bits; piecewise-linear in `log2(size)` between measured
    /// points, clamped at the ends. Returns `None` if the configuration was
    /// never calibrated.
    #[must_use]
    pub fn lookup_cycles(&self, config_label: &str, filter_bits: f64) -> Option<f64> {
        let mut points: Vec<(f64, f64)> = self
            .records
            .iter()
            .filter(|r| r.config_label == config_label)
            .map(|r| ((r.filter_bits as f64).log2(), r.cycles_per_lookup))
            .collect();
        if points.is_empty() {
            return None;
        }
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let x = filter_bits.max(1.0).log2();
        if x <= points[0].0 {
            return Some(points[0].1);
        }
        if x >= points[points.len() - 1].0 {
            return Some(points[points.len() - 1].1);
        }
        for window in points.windows(2) {
            let (x0, y0) = window[0];
            let (x1, y1) = window[1];
            if x >= x0 && x <= x1 {
                let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
                return Some(y0 + t * (y1 - y0));
            }
        }
        Some(points[points.len() - 1].1)
    }

    /// Serialize to JSON (used to persist the one-time calibration).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("calibration serialization cannot fail")
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Microbenchmark driver for filter lookup costs.
#[derive(Debug, Clone, Copy)]
pub struct Calibrator {
    /// Number of probe keys per measurement.
    pub probe_count: usize,
    /// Number of timed repetitions (the minimum is reported).
    pub repetitions: usize,
    /// Number of keys inserted into each measured filter, as a fraction that
    /// determines `n` from the filter size and a 10 bits/key budget.
    pub bits_per_key: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self {
            probe_count: 64 * 1024,
            repetitions: 3,
            bits_per_key: 12.0,
        }
    }
}

impl Calibrator {
    /// Estimate the CPU frequency (GHz) with a short spin of known work.
    ///
    /// The estimate only affects the ns→cycles conversion, not any relative
    /// comparison; it is deliberately cheap rather than precise.
    #[must_use]
    pub fn estimate_cpu_ghz() -> f64 {
        // Time a fixed number of dependent multiply-adds. On modern cores the
        // dependent chain retires ~1 imul per 3 cycles; calibrate with that.
        // `black_box` on every step keeps the optimizer from folding the
        // chain into fewer, wider steps, which over-reads the clock
        // several-fold. The fastest of several rounds counts: being
        // descheduled only ever slows a round down.
        const ROUNDS: u64 = 5;
        const ITERS: u64 = 4_000_000;
        let mut acc: u64 = 0x9E37_79B9;
        let mut fastest = f64::INFINITY;
        for _ in 0..ROUNDS {
            let start = Instant::now();
            for i in 0..ITERS {
                acc = std::hint::black_box(
                    acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i),
                );
            }
            fastest = fastest.min(start.elapsed().as_secs_f64());
        }
        let cycles = ITERS as f64 * 3.0;
        (cycles / fastest / 1e9).clamp(0.5, 6.0)
    }

    /// Measure one configuration at one target filter size.
    #[must_use]
    pub fn measure(
        &self,
        config: &FilterConfig,
        filter_bits: u64,
        cpu_ghz: f64,
    ) -> CalibrationRecord {
        let n = ((filter_bits as f64 / self.bits_per_key) as usize).max(64);
        let mut gen = KeyGen::new(0xC0FFEE);
        let build_keys = gen.distinct_keys(n);
        let mut filter = AnyFilter::build(config, n, self.bits_per_key);
        for &key in &build_keys {
            filter.insert(key);
        }
        let probes = gen.keys(self.probe_count);
        let mut sel = SelectionVector::with_capacity(self.probe_count);

        // Warm up caches and the branch predictor once.
        sel.clear();
        filter.contains_batch(&probes, &mut sel);

        let mut best_ns = f64::INFINITY;
        for _ in 0..self.repetitions {
            sel.clear();
            let start = Instant::now();
            filter.contains_batch(&probes, &mut sel);
            let elapsed = start.elapsed().as_secs_f64();
            std::hint::black_box(sel.len());
            best_ns = best_ns.min(elapsed * 1e9 / self.probe_count as f64);
        }

        CalibrationRecord {
            config_label: config.label(),
            filter_bits: filter.size_bits(),
            keys: n as u64,
            ns_per_lookup: best_ns,
            cycles_per_lookup: best_ns * cpu_ghz,
            kernel: filter.kernel_name().to_string(),
        }
    }

    /// Calibrate a set of configurations over a sweep of filter sizes.
    #[must_use]
    pub fn calibrate(&self, configs: &[FilterConfig], filter_sizes_bits: &[u64]) -> CalibrationSet {
        let cpu_ghz = Self::estimate_cpu_ghz();
        let mut records = Vec::with_capacity(configs.len() * filter_sizes_bits.len());
        for config in configs {
            for &bits in filter_sizes_bits {
                records.push(self.measure(config, bits, cpu_ghz));
            }
        }
        CalibrationSet { cpu_ghz, records }
    }

    /// The default size sweep: L1-resident through DRAM-resident filters.
    #[must_use]
    pub fn default_size_sweep() -> Vec<u64> {
        // 16 KiB, 256 KiB, 4 MiB, 64 MiB (in bits).
        vec![16 << 13, 256 << 13, 4 << 23, 64 << 23]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pof_bloom::{Addressing, BloomConfig};
    use pof_cuckoo::CuckooConfig;

    fn small_calibrator() -> Calibrator {
        Calibrator {
            probe_count: 4_096,
            repetitions: 1,
            bits_per_key: 12.0,
        }
    }

    #[test]
    fn cpu_frequency_estimate_is_plausible() {
        let ghz = Calibrator::estimate_cpu_ghz();
        // Strictly inside the clamp: a clamped value means the timing loop
        // measured something other than the clock.
        assert!(ghz > 0.5 && ghz < 6.0, "estimated {ghz} GHz");
        // Where the kernel reports a nominal clock, agree with it within 2x.
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let reported_mhz = cpuinfo
            .lines()
            .filter(|line| line.starts_with("cpu MHz"))
            .find_map(|line| line.split(':').nth(1)?.trim().parse::<f64>().ok());
        if let Some(mhz) = reported_mhz {
            let reported = mhz / 1e3;
            assert!(
                ghz > reported / 2.0 && ghz < reported * 2.0,
                "estimated {ghz} GHz, /proc/cpuinfo reports {reported} GHz"
            );
        }
    }

    #[test]
    fn measurement_produces_positive_costs() {
        let calibrator = small_calibrator();
        let config =
            FilterConfig::Bloom(BloomConfig::register_blocked(32, 4, Addressing::PowerOfTwo));
        let record = calibrator.measure(&config, 1 << 17, 3.0);
        assert!(record.ns_per_lookup > 0.0);
        assert!(record.cycles_per_lookup > 0.0);
        assert!(record.filter_bits >= 1 << 17);
        assert_eq!(record.config_label, config.label());
    }

    #[test]
    fn calibration_set_interpolates_between_sizes() {
        let label = "synthetic";
        let set = CalibrationSet {
            cpu_ghz: 3.0,
            records: vec![
                CalibrationRecord {
                    config_label: label.to_string(),
                    filter_bits: 1 << 10,
                    keys: 100,
                    ns_per_lookup: 1.0,
                    cycles_per_lookup: 4.0,
                    kernel: "scalar".to_string(),
                },
                CalibrationRecord {
                    config_label: label.to_string(),
                    filter_bits: 1 << 20,
                    keys: 100_000,
                    ns_per_lookup: 10.0,
                    cycles_per_lookup: 40.0,
                    kernel: "scalar".to_string(),
                },
            ],
        };
        // Clamped below and above.
        assert_eq!(set.lookup_cycles(label, 512.0), Some(4.0));
        assert_eq!(set.lookup_cycles(label, (1u64 << 25) as f64), Some(40.0));
        // Halfway in log space.
        let mid = set.lookup_cycles(label, (1u64 << 15) as f64).unwrap();
        assert!((mid - 22.0).abs() < 1e-9, "mid {mid}");
        // Unknown labels yield None.
        assert_eq!(set.lookup_cycles("unknown", 1e6), None);
    }

    #[test]
    fn calibration_roundtrips_through_json() {
        let calibrator = small_calibrator();
        let configs = vec![
            FilterConfig::Bloom(BloomConfig::cache_sectorized(
                512,
                64,
                2,
                8,
                Addressing::Magic,
            )),
            FilterConfig::Cuckoo(CuckooConfig::representative()),
        ];
        let set = calibrator.calibrate(&configs, &[1 << 16, 1 << 18]);
        assert_eq!(set.records.len(), 4);
        let json = set.to_json();
        let restored = CalibrationSet::from_json(&json).unwrap();
        assert_eq!(restored.records.len(), set.records.len());
        for (a, b) in restored.records.iter().zip(&set.records) {
            assert_eq!(a.config_label, b.config_label);
            assert_eq!(a.filter_bits, b.filter_bits);
            assert_eq!(a.kernel, b.kernel);
            // Floating-point timings survive the round trip up to printing precision.
            assert!((a.ns_per_lookup - b.ns_per_lookup).abs() < 1e-6);
            assert!((a.cycles_per_lookup - b.cycles_per_lookup).abs() < 1e-6);
        }
        assert!(restored.cpu_ghz > 0.0);
    }

    #[test]
    fn larger_filters_are_not_cheaper_to_probe() {
        // Sanity check of the measurement machinery: a DRAM-sized filter must
        // not measure (meaningfully) faster than an L1-resident one.
        let calibrator = Calibrator {
            probe_count: 32 * 1024,
            repetitions: 2,
            bits_per_key: 12.0,
        };
        let config = FilterConfig::Bloom(BloomConfig::cache_sectorized(
            512,
            64,
            2,
            8,
            Addressing::PowerOfTwo,
        ));
        let small = calibrator.measure(&config, 1 << 17, 3.0);
        let large = calibrator.measure(&config, 1 << 28, 3.0);
        assert!(
            large.ns_per_lookup > small.ns_per_lookup * 0.8,
            "large {} vs small {}",
            large.ns_per_lookup,
            small.ns_per_lookup
        );
    }
}
