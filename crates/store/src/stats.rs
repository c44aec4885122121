//! Occupancy, size and false-positive statistics per shard and per store —
//! and, for tiered stores, per level.

use crate::shard::BloomDeleteMode;
use pof_filter::FilterKind;

/// Statistics of one shard at the moment [`stats`] was called.
///
/// [`stats`]: crate::ShardedFilterStore::stats
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Keys inserted into this shard.
    pub keys: u64,
    /// Published filter size in bits.
    pub size_bits: u64,
    /// Effective bits per key (`size_bits / keys`; 0 when empty).
    pub bits_per_key: f64,
    /// Analytical false-positive rate at the current occupancy.
    pub modeled_fpr: f64,
    /// Policy-triggered rebuilds this shard has performed.
    pub rebuilds: u64,
    /// Of those, rebuild jobs (snapshot → off-lock build → delta replay →
    /// atomic swap) a maintainer thread or queue completed; jobs an inline
    /// store's write call ran on its own thread are not counted.
    pub rebuilds_background: u64,
    /// Completed live family/configuration migrations — rebuilds whose
    /// target `FilterConfig` differed from the incumbent's, driven by the
    /// readvisor ([`run_pending_readvise`]) or the manual [`migrate_to`].
    ///
    /// [`run_pending_readvise`]: crate::ShardedFilterStore::run_pending_readvise
    /// [`migrate_to`]: crate::ShardedFilterStore::migrate_to
    pub migrations: u64,
    /// Cumulative request→swap latency of the rebuilds counted in
    /// [`Self::rebuilds_background`], in nanoseconds — how long this shard's
    /// replacement filters were in flight.
    pub rebuild_wait_ns: u64,
    /// Longest single `insert_batch`/`delete_batch` call this shard has
    /// served (lock wait + mutation + snapshot publish, plus the rebuilds an
    /// inline store runs before the call returns), in nanoseconds.
    /// The writer tail-latency figure background rebuilds exist to shrink;
    /// `maintain()` time is excluded. On hosts where the maintainer has no
    /// spare core, wall-clock call times also absorb scheduler time-sharing
    /// — [`ShardStats::writer_rebuild_stall_ns`] isolates the structural
    /// component.
    pub max_writer_stall_ns: u64,
    /// Longest single rebuild a write call paid for on its own thread, in
    /// nanoseconds: the exact stall the background maintainer takes off the
    /// write path. Structurally zero with background rebuilds on, bar the
    /// immediate-urgency and backpressure builds under the shard lock;
    /// `maintain()`-time rebuilds are excluded.
    pub writer_rebuild_stall_ns: u64,
    /// Is a rebuild job currently in flight for this shard?
    pub rebuild_pending: bool,
    /// Deleted keys still represented in the filter (Bloom shards cannot
    /// unset bits; the active rebuild policy decides when they are purged).
    pub tombstones: u64,
    /// Keys parked in the shard's exact overflow side buffer by a deferring
    /// policy, awaiting the next maintenance fold.
    pub overflow: u64,
    /// Writer-side bookkeeping bytes: the compact key set holds each live
    /// key once, so this is exactly 4 bytes per live key.
    pub bookkeeping_bytes: u64,
    /// Heap bytes of the shard's Bloom counting sidecar
    /// ([`BloomDeleteMode::Counting`](crate::BloomDeleteMode) — 4 bits per
    /// filter bit, 8 after counter saturation). Zero in tombstone mode and
    /// for Cuckoo shards; write side only, snapshots never carry it.
    pub counting_sidecar_bytes: u64,
    /// Name of the active rebuild policy.
    pub policy: &'static str,
    /// Configuration label of the shard filter.
    pub config_label: String,
    /// Active batch-lookup kernel (`scalar`, `avx2-…`).
    pub kernel: &'static str,
    /// Stored fingerprint width in bits (fuse and Cuckoo shards; 0 for the
    /// Bloom family, which stores no discrete fingerprints).
    pub fingerprint_bits: u32,
    /// Seeded construction retries the shard's current filter needed (fuse
    /// peeling re-seeds; always 0 for the mutable families).
    pub construction_retries: u64,
}

/// Aggregated view over every shard of a store.
#[derive(Debug, Clone)]
pub struct StoreStats {
    /// Per-shard statistics, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl StoreStats {
    pub(crate) fn aggregate(shards: Vec<ShardStats>) -> Self {
        Self { shards }
    }

    /// Total keys across all shards.
    #[must_use]
    pub fn total_keys(&self) -> u64 {
        self.shards.iter().map(|s| s.keys).sum()
    }

    /// Total filter bits across all shards.
    #[must_use]
    pub fn total_size_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.size_bits).sum()
    }

    /// Total rebuilds across all shards.
    #[must_use]
    pub fn total_rebuilds(&self) -> u64 {
        self.shards.iter().map(|s| s.rebuilds).sum()
    }

    /// Total rebuilds a maintainer thread or queue completed (see
    /// [`ShardStats::rebuilds_background`]).
    #[must_use]
    pub fn total_background_rebuilds(&self) -> u64 {
        self.shards.iter().map(|s| s.rebuilds_background).sum()
    }

    /// Total completed live family migrations across all shards.
    #[must_use]
    pub fn total_migrations(&self) -> u64 {
        self.shards.iter().map(|s| s.migrations).sum()
    }

    /// Cumulative request→swap latency of background rebuilds, ns.
    #[must_use]
    pub fn total_rebuild_wait_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.rebuild_wait_ns).sum()
    }

    /// Longest single write call served by any shard, in nanoseconds — the
    /// store's observed writer tail latency.
    #[must_use]
    pub fn max_writer_stall_ns(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.max_writer_stall_ns)
            .max()
            .unwrap_or(0)
    }

    /// Longest single inline rebuild paid by any write call, in nanoseconds
    /// — the write-path stall component that moving rebuilds to the
    /// background maintainer eliminates.
    #[must_use]
    pub fn writer_rebuild_stall_ns(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.writer_rebuild_stall_ns)
            .max()
            .unwrap_or(0)
    }

    /// Total tombstoned (deleted but still filter-resident) keys.
    #[must_use]
    pub fn total_tombstones(&self) -> u64 {
        self.shards.iter().map(|s| s.tombstones).sum()
    }

    /// Total keys parked in overflow side buffers.
    #[must_use]
    pub fn total_overflow(&self) -> u64 {
        self.shards.iter().map(|s| s.overflow).sum()
    }

    /// Total writer-side bookkeeping bytes across all shards.
    #[must_use]
    pub fn total_bookkeeping_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bookkeeping_bytes).sum()
    }

    /// Total Bloom counting-sidecar bytes across all shards — the memory a
    /// counting-mode store pays for in-place Bloom deletes.
    #[must_use]
    pub fn total_counting_sidecar_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.counting_sidecar_bytes).sum()
    }

    /// The store-level analytical false-positive rate: the key-weighted mean
    /// of the shard rates (a uniformly drawn probe lands in shard `i` with
    /// probability proportional to the shard routing, which the splitter hash
    /// makes near-uniform; weighting by keys matches a probe stream drawn
    /// like the inserted population).
    #[must_use]
    pub fn weighted_modeled_fpr(&self) -> f64 {
        let total = self.total_keys();
        if total == 0 {
            return 0.0;
        }
        self.shards
            .iter()
            .map(|s| s.modeled_fpr * s.keys as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Effective filter bits per live key across the whole store (`0.0` for
    /// an empty store — never NaN or infinity).
    #[must_use]
    pub fn bits_per_live_key(&self) -> f64 {
        let keys = self.total_keys();
        if keys == 0 {
            0.0
        } else {
            self.total_size_bits() as f64 / keys as f64
        }
    }

    /// Ratio of the largest to the smallest shard occupancy (1.0 = perfectly
    /// balanced; meaningful once shards are non-empty).
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.keys).max().unwrap_or(0);
        let min = self.shards.iter().map(|s| s.keys).min().unwrap_or(0);
        if min == 0 {
            if max == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            max as f64 / min as f64
        }
    }
}

/// Statistics of one level of a [`TieredStore`](crate::TieredStore): what
/// the advisor chose for the level (family, budget, delete mode), what the
/// level currently holds, and its compaction traffic. The full per-shard
/// [`StoreStats`] of the level's store is nested in [`LevelStats::store`].
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// Level index (0 = newest/hottest).
    pub level: usize,
    /// Filter family every shard of this level builds.
    pub family: FilterKind,
    /// Configuration label of the level's filters.
    pub config_label: String,
    /// How the level's Bloom shards *currently* honor deletes (irrelevant
    /// for Cuckoo levels, which always delete in place). Tracks live
    /// migrations: a counting-Bloom level that migrated to fuse reports
    /// tombstone mode, like [`family`](Self::family) reports the live
    /// family rather than the advisor's construction-time pick.
    pub delete_mode: BloomDeleteMode,
    /// Bits-per-key budget the level's shards currently build from (the
    /// construction-time budget until a migration re-targets it).
    pub bits_per_key_budget: f64,
    /// Keys the level was sized for
    /// ([`LevelSpec::expected_keys`](pof_core::LevelSpec)).
    pub expected_keys: u64,
    /// Work a negative probe saves at this level (the level's `t_w`).
    pub work_saved_cycles: f64,
    /// Delete fraction the level was described with.
    pub delete_rate: f64,
    /// Live keys currently resident.
    pub live_keys: u64,
    /// Published filter bits across the level's shards.
    pub size_bits: u64,
    /// Tombstoned keys across the level's shards (always 0 on counting and
    /// Cuckoo levels).
    pub tombstones: u64,
    /// Shard rebuilds the level has performed.
    pub rebuilds: u64,
    /// Completed live family migrations across the level's shards.
    pub migrations: u64,
    /// Keys received from compactions of the level above.
    pub compacted_in: u64,
    /// Keys moved out by compactions of this level.
    pub compacted_out: u64,
    /// Stored fingerprint width of the level's filters in bits (fuse and
    /// Cuckoo families; 0 for Bloom levels).
    pub fingerprint_bits: u32,
    /// Total seeded construction retries across the level's current filters
    /// (fuse peeling re-seeds; always 0 on mutable levels).
    pub construction_retries: u64,
    /// The level store's full per-shard statistics.
    pub store: StoreStats,
}

impl LevelStats {
    /// Effective filter bits per live key (`0.0` when the level is empty) —
    /// the per-level memory figure the tiered bench reports.
    #[must_use]
    pub fn bits_per_live_key(&self) -> f64 {
        if self.live_keys == 0 {
            0.0
        } else {
            self.size_bits as f64 / self.live_keys as f64
        }
    }
}

/// Aggregated view over every level of a tiered store.
#[derive(Debug, Clone)]
pub struct TieredStats {
    /// Per-level statistics, newest level first.
    pub levels: Vec<LevelStats>,
    /// Completed compaction operations (explicit and policy-triggered).
    pub compactions: u64,
    /// Name of the active [`CompactionPolicy`](crate::CompactionPolicy).
    pub compaction_policy: &'static str,
}

impl TieredStats {
    /// Total live keys across all levels (exact: inserts shadow older
    /// occurrences, so no key is counted twice).
    #[must_use]
    pub fn total_keys(&self) -> u64 {
        self.levels.iter().map(|l| l.live_keys).sum()
    }

    /// Total published filter bits across all levels.
    #[must_use]
    pub fn total_size_bits(&self) -> u64 {
        self.levels.iter().map(|l| l.size_bits).sum()
    }

    /// Total tombstoned keys across all levels.
    #[must_use]
    pub fn total_tombstones(&self) -> u64 {
        self.levels.iter().map(|l| l.tombstones).sum()
    }

    /// Total shard rebuilds across all levels.
    #[must_use]
    pub fn total_rebuilds(&self) -> u64 {
        self.levels.iter().map(|l| l.rebuilds).sum()
    }

    /// Total completed live family migrations across all levels.
    #[must_use]
    pub fn total_migrations(&self) -> u64 {
        self.levels.iter().map(|l| l.migrations).sum()
    }

    /// Effective filter bits per live key across the whole tiered store
    /// (`0.0` for an empty store — never NaN or infinity).
    #[must_use]
    pub fn bits_per_live_key(&self) -> f64 {
        let keys = self.total_keys();
        if keys == 0 {
            0.0
        } else {
            self.total_size_bits() as f64 / keys as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(index: usize, keys: u64, fpr: f64) -> ShardStats {
        ShardStats {
            shard: index,
            keys,
            size_bits: keys * 12,
            bits_per_key: 12.0,
            modeled_fpr: fpr,
            rebuilds: index as u64,
            rebuilds_background: index as u64 / 2,
            migrations: index as u64 + 1,
            rebuild_wait_ns: index as u64 * 1_000,
            max_writer_stall_ns: index as u64 * 500,
            writer_rebuild_stall_ns: index as u64 * 400,
            rebuild_pending: false,
            // Offset by one so *every* shard contributes a distinct nonzero
            // term: the old `index * 2` fixture zeroed shard 0's share, and
            // the total_tombstones assertion was really testing a single
            // shard's value rather than summation across shards.
            tombstones: index as u64 * 2 + 1,
            overflow: index as u64 * 3 + 1,
            bookkeeping_bytes: keys * 8,
            counting_sidecar_bytes: keys * 4,
            policy: "saturation-doubling",
            config_label: "test".to_string(),
            kernel: "scalar",
            fingerprint_bits: 0,
            construction_retries: 0,
        }
    }

    #[test]
    fn aggregates_sum_and_weight() {
        let stats = StoreStats::aggregate(vec![shard(0, 100, 0.01), shard(1, 300, 0.03)]);
        assert_eq!(stats.total_keys(), 400);
        assert_eq!(stats.total_size_bits(), 4_800);
        assert_eq!(stats.total_rebuilds(), 1);
        assert_eq!(stats.total_background_rebuilds(), 0);
        // 1 + 2: both shards contribute a nonzero migration count.
        assert_eq!(stats.total_migrations(), 3);
        assert_eq!(stats.total_rebuild_wait_ns(), 1_000);
        assert_eq!(stats.max_writer_stall_ns(), 500);
        assert_eq!(stats.writer_rebuild_stall_ns(), 400);
        // 1 + 3 and 1 + 4: both shards contribute, so these really do test
        // the summation (a lookup of either single shard could not pass).
        assert_eq!(stats.total_tombstones(), 4);
        assert_eq!(stats.total_overflow(), 5);
        assert_eq!(stats.total_bookkeeping_bytes(), 3_200);
        assert_eq!(stats.total_counting_sidecar_bytes(), 1_600);
        let expected = (0.01 * 100.0 + 0.03 * 300.0) / 400.0;
        assert!((stats.weighted_modeled_fpr() - expected).abs() < 1e-12);
        assert!((stats.imbalance() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_store_degenerates_gracefully() {
        let stats = StoreStats::aggregate(vec![shard(0, 0, 0.0)]);
        assert_eq!(stats.total_keys(), 0);
        assert_eq!(stats.weighted_modeled_fpr(), 0.0);
        assert_eq!(stats.imbalance(), 1.0);
        // Ratio stats on empty stores report 0, not 0/0 = NaN or x/0 = inf
        // (an empty shard still publishes a sized filter).
        assert_eq!(stats.bits_per_live_key(), 0.0);
        assert!(stats.bits_per_live_key().is_finite());
    }

    #[test]
    fn populated_store_reports_bits_per_live_key() {
        let stats = StoreStats::aggregate(vec![shard(0, 100, 0.01), shard(1, 300, 0.03)]);
        assert!((stats.bits_per_live_key() - 12.0).abs() < 1e-12);
    }
}
