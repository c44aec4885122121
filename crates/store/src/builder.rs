//! Construction of sharded stores — shard count, per-shard budget, and
//! either a pinned filter configuration or one chosen by the
//! `FilterAdvisor` — and of tiered stores, where the advisor makes that
//! choice once per level. Both builders share the same
//! [`LifecycleOptions`] (rebuild policy + execution mode) and the same
//! optional [`ReadviseOptions`] for online re-advising.

use crate::maintainer::RebuildMode;
use crate::options::{LifecycleOptions, ReadviseOptions, StoreOptions};
use crate::policy::RebuildPolicy;
use crate::shard::BloomDeleteMode;
use crate::store::ShardedFilterStore;
use crate::tiered::{CompactionPolicy, SizeRatio, TierLevel, TieredStore};
use pof_bloom::{Addressing, BloomConfig};
use pof_core::{ConfigSpace, FilterAdvisor, FilterConfig, LevelSpec, WorkloadSpec};
use pof_filter::FilterKind;
use std::sync::Arc;

/// Where the per-shard filter configuration comes from.
#[derive(Debug, Clone, Copy)]
pub enum ConfigSource {
    /// Use exactly this configuration for every shard.
    Pinned(FilterConfig),
    /// Ask the [`FilterAdvisor`] (synthetic calibration over the default
    /// configuration space) for the performance-optimal configuration, given
    /// the work each filtered-out lookup saves and the expected hit rate.
    ///
    /// This legacy form carries no delete-rate or probe-volume terms, so the
    /// advisor sweeps only the mutable families. Prefer
    /// [`AdvisedLevel`](Self::AdvisedLevel), which consumes a full
    /// [`LevelSpec`].
    Advised {
        /// Work (CPU cycles) saved for every probe a shard filter rejects.
        work_saved_cycles: f64,
        /// Fraction of probes that are true members.
        sigma: f64,
    },
    /// Ask [`FilterAdvisor::recommend_for_level`] over the fuse-enabled
    /// configuration space, honoring the spec's delete rate (which also
    /// selects the Bloom delete mode) and expected probe volume (which
    /// amortizes immutable build cost).
    AdvisedLevel(LevelSpec),
}

/// Builder for [`ShardedFilterStore`].
///
/// ```
/// use pof_store::StoreBuilder;
///
/// let store = StoreBuilder::new()
///     .shards(8)
///     .expected_keys(1 << 16)
///     .bits_per_key(14.0)
///     .build();
/// assert_eq!(store.shard_count(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    shards: usize,
    expected_keys: usize,
    bits_per_key: f64,
    config: ConfigSource,
    lifecycle: LifecycleOptions,
    bloom_deletes: BloomDeleteMode,
    readvise: Option<ReadviseOptions>,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreBuilder {
    /// Defaults: 8 shards, 64k expected keys, 12 bits/key, the paper's
    /// canonical high-throughput Bloom configuration (cache-sectorized,
    /// 512-bit blocks, 64-bit sectors, z = 2, k = 8, magic addressing), and
    /// [`LifecycleOptions::default`] (saturation-doubling, inline rebuilds).
    #[must_use]
    pub fn new() -> Self {
        Self {
            shards: 8,
            expected_keys: 64 * 1024,
            bits_per_key: 12.0,
            config: ConfigSource::Pinned(FilterConfig::Bloom(BloomConfig::cache_sectorized(
                512,
                64,
                2,
                8,
                Addressing::Magic,
            ))),
            lifecycle: LifecycleOptions::default(),
            bloom_deletes: BloomDeleteMode::Tombstone,
            readvise: None,
        }
    }

    /// Number of shards. Rounded up to the next power of two at build time.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Expected total key count, used to size each shard's initial filter
    /// (shards grow on demand, so this is a sizing hint, not a limit).
    #[must_use]
    pub fn expected_keys(mut self, keys: usize) -> Self {
        self.expected_keys = keys;
        self
    }

    /// Per-shard filter budget in bits per key.
    #[must_use]
    pub fn bits_per_key(mut self, bits_per_key: f64) -> Self {
        self.bits_per_key = bits_per_key;
        self
    }

    /// Pin an explicit filter configuration for every shard.
    #[must_use]
    pub fn config(mut self, config: FilterConfig) -> Self {
        self.config = ConfigSource::Pinned(config);
        self
    }

    /// Select the shard-lifecycle [`RebuildPolicy`]: when shards rebuild
    /// their filters, how rebuild capacity is chosen, and whether saturated
    /// writes are deferred to [`maintain`](ShardedFilterStore::maintain).
    ///
    /// Defaults to [`SaturationDoubling`](crate::SaturationDoubling) (inline
    /// doubling, the store's classic behavior). See
    /// [`FprDrift`](crate::FprDrift) and
    /// [`DeferredBatch`](crate::DeferredBatch) for the other built-ins; any
    /// `Arc<dyn RebuildPolicy>` works, one instance is shared by all shards.
    #[must_use]
    pub fn rebuild_policy(mut self, policy: Arc<dyn RebuildPolicy>) -> Self {
        self.lifecycle.policy = policy;
        self
    }

    /// Replace the whole shard-lifecycle pair (rebuild policy + execution
    /// mode) at once — the same struct [`StoreOptions`] carries, shared with
    /// [`TieredStoreBuilder::lifecycle`].
    #[must_use]
    pub fn lifecycle(mut self, lifecycle: LifecycleOptions) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Select where rebuild jobs run. Every mode runs the same job: the
    /// writer records a pending-rebuild state and keeps serving, the job
    /// builds the replacement off-lock from the shard's live key set,
    /// re-acquires the shard briefly to replay the bounded delta of writes
    /// that raced the build, and publishes the replacement with a single
    /// `Arc` swap; readers are wait-free throughout. With
    /// [`RebuildMode::Inline`] (the default) the write call that requested
    /// the rebuild runs the job itself before it returns;
    /// [`RebuildMode::Background`] hands it to a maintainer thread, so a
    /// saturating shard no longer stalls writers for a full filter replay
    /// ([`ShardedFilterStore::maintain`] doubles as a deterministic drain
    /// barrier); with [`RebuildMode::Queued`] rebuild jobs queue until
    /// the caller runs them via
    /// [`ShardedFilterStore::run_pending_rebuilds`]. Queued is the
    /// deterministic harness the interleaving and property tests drive, and
    /// the hook for embedding rebuilds in an external executor.
    #[must_use]
    pub fn rebuild_mode(mut self, mode: RebuildMode) -> Self {
        self.lifecycle.rebuild_mode = mode;
        self
    }

    /// Select how Bloom shards honor deletes.
    ///
    /// The default, [`BloomDeleteMode::Tombstone`], costs no memory: deleted
    /// keys leave the bookkeeping at once while their filter bits linger
    /// until the policy's next (purge) rebuild. With
    /// [`BloomDeleteMode::Counting`] every Bloom shard filter carries a
    /// per-bit counting sidecar (4 bits per filter bit on the write side,
    /// 8 after counter saturation; snapshots never carry it) and deletes
    /// clear bits in place — tombstones stay at zero, policies stop
    /// scheduling purge rebuilds, and a delete-heavy Bloom store stops
    /// rebuilding at all, matching the in-place deletes Cuckoo shards always
    /// had. Cuckoo shards ignore this knob.
    #[must_use]
    pub fn bloom_deletes(mut self, mode: BloomDeleteMode) -> Self {
        self.bloom_deletes = mode;
        self
    }

    /// Let the [`FilterAdvisor`] choose the per-shard configuration *and*
    /// bits-per-key budget for the described workload (overriding
    /// [`bits_per_key`](Self::bits_per_key)).
    ///
    /// This form drops the workload's delete rate and probe volume, so it
    /// sweeps only the mutable families; [`advised_level`](Self::advised_level)
    /// takes the full [`LevelSpec`] and can also land on an immutable fuse
    /// filter or a counting-Bloom delete sidecar.
    #[must_use]
    pub fn advised(mut self, work_saved_cycles: f64, sigma: f64) -> Self {
        self.config = ConfigSource::Advised {
            work_saved_cycles,
            sigma,
        };
        self
    }

    /// Let the [`FilterAdvisor`] choose the configuration, bits-per-key
    /// budget *and* Bloom delete mode from a full [`LevelSpec`] — unlike
    /// [`advised`](Self::advised), the spec's `delete_rate` and
    /// `expected_probes_per_key` flow into the maintenance-weighted
    /// objective, so delete-heavy workloads get a counting sidecar and
    /// cold static ones may get an immutable fuse filter. A nonzero
    /// `spec.expected_keys` also overrides
    /// [`expected_keys`](Self::expected_keys) for sizing.
    #[must_use]
    pub fn advised_level(mut self, spec: LevelSpec) -> Self {
        self.config = ConfigSource::AdvisedLevel(spec);
        self
    }

    /// Enable online re-advising: the store observes its real traffic and
    /// [`ShardedFilterStore::run_pending_readvise`] (or `maintain()`)
    /// re-runs the advisor against it, migrating the filter family live once
    /// the hysteresis gate confirms a flip. For advised configurations the
    /// initial workload hint defaults to the advising spec; a
    /// pinned-configuration store uses `options.workload` as seeded.
    #[must_use]
    pub fn readvise(mut self, options: ReadviseOptions) -> Self {
        self.readvise = Some(options);
        self
    }

    /// Build the store.
    #[must_use]
    pub fn build(self) -> ShardedFilterStore {
        let shard_count = self.shards.max(1).next_power_of_two();
        let expected_keys = match self.config {
            ConfigSource::AdvisedLevel(spec) if spec.expected_keys > 0 => {
                spec.expected_keys as usize
            }
            _ => self.expected_keys,
        };
        let capacity_per_shard = (expected_keys / shard_count).max(64);
        let (config, bits_per_key, delete_mode, advised_hint) = match self.config {
            ConfigSource::Pinned(config) => (config, self.bits_per_key, self.bloom_deletes, None),
            ConfigSource::Advised {
                work_saved_cycles,
                sigma,
            } => {
                let advisor = FilterAdvisor::with_synthetic_calibration(ConfigSpace::default());
                let recommendation = advisor.recommend(&WorkloadSpec {
                    n: capacity_per_shard as u64,
                    work_saved_cycles,
                    sigma,
                });
                let hint = LevelSpec {
                    expected_keys: capacity_per_shard as u64,
                    work_saved_cycles,
                    sigma,
                    ..LevelSpec::default()
                };
                (
                    recommendation.config,
                    recommendation.bits_per_key,
                    self.bloom_deletes,
                    Some(hint),
                )
            }
            ConfigSource::AdvisedLevel(spec) => {
                let spec = LevelSpec {
                    expected_keys: expected_keys as u64,
                    ..spec
                };
                let advisor =
                    FilterAdvisor::with_synthetic_calibration(ConfigSpace::default().with_fuse());
                let level = advisor.recommend_for_level(&spec);
                let delete_mode = if level.counting_deletes {
                    BloomDeleteMode::Counting
                } else {
                    BloomDeleteMode::Tombstone
                };
                (
                    level.recommendation.config,
                    level.recommendation.bits_per_key,
                    delete_mode,
                    Some(spec),
                )
            }
        };
        let readvise = self.readvise.map(|options| match advised_hint {
            Some(workload) => ReadviseOptions {
                workload,
                ..options
            },
            None => options,
        });
        ShardedFilterStore::from_options(StoreOptions {
            config,
            shard_count,
            capacity_per_shard,
            bits_per_key,
            lifecycle: self.lifecycle,
            delete_mode,
            readvise,
        })
    }
}

/// Where one tiered-store level's filter configuration comes from.
#[derive(Debug, Clone)]
enum LevelPlan {
    /// Ask [`FilterAdvisor::recommend_for_level`] for the family, budget and
    /// delete mode.
    Advised(LevelSpec),
    /// Use exactly this shape for the level.
    Pinned {
        spec: LevelSpec,
        config: FilterConfig,
        bits_per_key: f64,
        delete_mode: BloomDeleteMode,
    },
}

/// Builder for [`TieredStore`]: levels are declared newest-first, each
/// described by a [`LevelSpec`]; the advisor pins every advised level's
/// family (Bloom for hot/cheap-miss levels, an immutable fuse filter for
/// cold *static* expensive-miss levels, Cuckoo for cold levels that still
/// churn), bits-per-key budget and Bloom delete mode (counting for
/// delete-heavy Bloom levels, tombstone otherwise). Advised levels sweep
/// the fuse-enabled configuration space
/// ([`ConfigSpace::with_fuse`](pof_core::ConfigSpace::with_fuse)): the
/// build-cost term charges immutable candidates for their construction and
/// rebuild amplification, so fuse only wins where its memory/FPR edge pays
/// for the re-peels the level's churn would force.
///
/// ```
/// use pof_store::{LevelSpec, TieredStoreBuilder};
///
/// // A hot churn level in front of a cold simulated-disk level: the
/// // advisor picks a different family for each end of the t_w range.
/// let store = TieredStoreBuilder::new()
///     .level(LevelSpec {
///         expected_keys: 1 << 14,
///         work_saved_cycles: 32.0, // a skipped memtable probe
///         delete_rate: 0.5,
///         ..LevelSpec::default()
///     })
///     .level(LevelSpec {
///         expected_keys: 1 << 17,
///         work_saved_cycles: 16_000_000.0, // a skipped disk read
///         delete_rate: 0.0,
///         ..LevelSpec::default()
///     })
///     .build();
/// assert_eq!(store.level_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TieredStoreBuilder {
    levels: Vec<LevelPlan>,
    shards_per_level: usize,
    lifecycle: LifecycleOptions,
    compaction: Arc<dyn CompactionPolicy>,
    readvise: Option<ReadviseOptions>,
}

impl Default for TieredStoreBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TieredStoreBuilder {
    /// Defaults: no levels yet (add at least one), 4 shards per level,
    /// [`LifecycleOptions::default`] (saturation-doubling, inline rebuilds),
    /// and the [`SizeRatio`] compaction trigger.
    #[must_use]
    pub fn new() -> Self {
        Self {
            levels: Vec::new(),
            shards_per_level: 4,
            lifecycle: LifecycleOptions::default(),
            compaction: Arc::new(SizeRatio::default()),
            readvise: None,
        }
    }

    /// Append a level (newest first) whose family, bits-per-key budget and
    /// Bloom delete mode the advisor chooses from the level's workload shape
    /// via [`FilterAdvisor::recommend_for_level`].
    #[must_use]
    pub fn level(mut self, spec: LevelSpec) -> Self {
        self.levels.push(LevelPlan::Advised(spec));
        self
    }

    /// Append a level (newest first) with an explicitly pinned filter
    /// configuration, budget and delete mode — the deterministic path the
    /// oracle and interleaving tests drive.
    #[must_use]
    pub fn level_pinned(
        mut self,
        spec: LevelSpec,
        config: FilterConfig,
        bits_per_key: f64,
        delete_mode: BloomDeleteMode,
    ) -> Self {
        self.levels.push(LevelPlan::Pinned {
            spec,
            config,
            bits_per_key,
            delete_mode,
        });
        self
    }

    /// Shards per level store (rounded up to a power of two at build time).
    #[must_use]
    pub fn shards_per_level(mut self, shards: usize) -> Self {
        self.shards_per_level = shards;
        self
    }

    /// The shard-lifecycle [`RebuildPolicy`] every level's store uses.
    #[must_use]
    pub fn rebuild_policy(mut self, policy: Arc<dyn RebuildPolicy>) -> Self {
        self.lifecycle.policy = policy;
        self
    }

    /// Replace the whole shard-lifecycle pair every level's store uses —
    /// the same struct [`StoreBuilder::lifecycle`] takes.
    #[must_use]
    pub fn lifecycle(mut self, lifecycle: LifecycleOptions) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Select the rebuild execution mode for every level (see
    /// [`StoreBuilder::rebuild_mode`]) — notably [`RebuildMode::Queued`],
    /// which lets a test interleave a [`TieredStore::compact`] into a
    /// pending shard rebuild's delta window via
    /// [`TieredStore::run_pending_rebuilds`].
    #[must_use]
    pub fn rebuild_mode(mut self, mode: RebuildMode) -> Self {
        self.lifecycle.rebuild_mode = mode;
        self
    }

    /// The [`CompactionPolicy`] deciding when levels spill. Defaults to
    /// [`SizeRatio`]; [`ManualCompaction`](crate::ManualCompaction) leaves
    /// every spill to explicit [`TieredStore::compact`] calls.
    #[must_use]
    pub fn compaction(mut self, policy: Arc<dyn CompactionPolicy>) -> Self {
        self.compaction = policy;
        self
    }

    /// Enable online re-advising on every level's store. Each level's
    /// initial workload hint is that level's declared [`LevelSpec`]
    /// (`options.workload` is ignored); update a live level's hint with
    /// [`TieredStore::set_level_workload_hint`] and drive evaluations with
    /// [`TieredStore::run_pending_readvise`].
    #[must_use]
    pub fn readvise(mut self, options: ReadviseOptions) -> Self {
        self.readvise = Some(options);
        self
    }

    /// Build the tiered store.
    ///
    /// # Panics
    /// If no level was declared.
    #[must_use]
    pub fn build(self) -> TieredStore {
        let (levels, compaction) = self.resolved();
        let levels = levels
            .into_iter()
            .map(|(spec, options)| TierLevel::new(ShardedFilterStore::from_options(options), spec))
            .collect();
        TieredStore::from_levels(levels, compaction)
    }

    /// Resolve every declared level to the [`StoreOptions`] its store would
    /// be built from, without constructing anything — the shared front half
    /// of [`Self::build`] and [`TieredStore::open_with`], so a recovered
    /// store and a freshly built one agree on every knob the disk does not
    /// record (policies, rebuild mode, re-advising).
    ///
    /// # Panics
    /// If no level was declared.
    pub(crate) fn resolved(self) -> (Vec<(LevelSpec, StoreOptions)>, Arc<dyn CompactionPolicy>) {
        assert!(
            !self.levels.is_empty(),
            "a tiered store needs at least one level"
        );
        let shard_count = self.shards_per_level.max(1).next_power_of_two();
        // One advisor shared by every advised level, built lazily so fully
        // pinned stores — the deterministic test path — skip the calibration
        // sweep entirely. Tiered stores sweep the fuse-enabled space: a
        // level's store routes every mutation on an immutable shard through
        // the snapshot→build→swap machinery, so the advisor is free to put
        // cold static levels on a fuse filter.
        let mut advisor: Option<FilterAdvisor> = None;
        let levels = self
            .levels
            .into_iter()
            .map(|plan| {
                let (spec, config, bits_per_key, delete_mode) = match plan {
                    LevelPlan::Pinned {
                        spec,
                        config,
                        bits_per_key,
                        delete_mode,
                    } => (spec, config, bits_per_key, delete_mode),
                    LevelPlan::Advised(spec) => {
                        let advisor = advisor.get_or_insert_with(|| {
                            FilterAdvisor::with_synthetic_calibration(
                                ConfigSpace::default().with_fuse(),
                            )
                        });
                        let level = advisor.recommend_for_level(&spec);
                        let delete_mode = if level.counting_deletes {
                            BloomDeleteMode::Counting
                        } else {
                            BloomDeleteMode::Tombstone
                        };
                        debug_assert!(
                            level.recommendation.config.kind() == FilterKind::Bloom
                                || delete_mode == BloomDeleteMode::Tombstone
                        );
                        (
                            spec,
                            level.recommendation.config,
                            level.recommendation.bits_per_key,
                            delete_mode,
                        )
                    }
                };
                let capacity_per_shard = (spec.expected_keys as usize / shard_count).max(64);
                let readvise = self.readvise.map(|options| ReadviseOptions {
                    workload: spec,
                    ..options
                });
                (
                    spec,
                    StoreOptions {
                        config,
                        shard_count,
                        capacity_per_shard,
                        bits_per_key,
                        lifecycle: self.lifecycle.clone(),
                        delete_mode,
                        readvise,
                    },
                )
            })
            .collect();
        (levels, self.compaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SaturationDoubling;

    #[test]
    fn pinned_builder_uses_requested_shape() {
        let config =
            FilterConfig::Bloom(BloomConfig::register_blocked(32, 4, Addressing::PowerOfTwo));
        let store = StoreBuilder::new()
            .shards(3)
            .expected_keys(10_000)
            .bits_per_key(10.0)
            .config(config)
            .build();
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.config(), config);
    }

    #[test]
    fn builder_selects_the_rebuild_policy() {
        use crate::policy::{DeferredBatch, FprDrift};
        for (policy, name) in [
            (
                Arc::new(SaturationDoubling) as Arc<dyn RebuildPolicy>,
                "saturation-doubling",
            ),
            (Arc::new(FprDrift::new(2.0)), "fpr-drift"),
            (Arc::new(DeferredBatch::new(512)), "deferred-batch"),
        ] {
            let store = StoreBuilder::new()
                .shards(2)
                .expected_keys(1_000)
                .rebuild_policy(policy)
                .build();
            store.insert_batch(&[1, 2, 3]);
            assert!(store.stats().shards.iter().all(|s| s.policy == name));
        }
    }

    #[test]
    fn advised_builder_picks_bloom_for_high_throughput() {
        let store = StoreBuilder::new()
            .shards(4)
            .expected_keys(1 << 18)
            .advised(64.0, 0.1)
            .build();
        assert_eq!(store.config().kind(), FilterKind::Bloom);
    }

    #[test]
    fn advised_builder_picks_cuckoo_for_expensive_misses() {
        let store = StoreBuilder::new()
            .shards(4)
            .expected_keys(1 << 18)
            .advised(20_000_000.0, 0.1)
            .build();
        assert_eq!(store.config().kind(), FilterKind::Cuckoo);
    }

    #[test]
    fn advised_level_keeps_the_delete_rate_the_flat_form_drops() {
        // The same cold expensive-miss workload, with and without churn:
        // `advised(w, sigma)` cannot see the delete rate, but
        // `advised_level` feeds it into the maintenance-weighted objective —
        // a churny cold level lands on Cuckoo (in-place deletes), a static
        // one on the immutable fuse family, and a delete-heavy hot level
        // gets a counting-Bloom sidecar.
        let churny = StoreBuilder::new()
            .shards(2)
            .advised_level(LevelSpec {
                expected_keys: 1 << 17,
                work_saved_cycles: 16_000_000.0,
                delete_rate: 0.5,
                ..LevelSpec::default()
            })
            .build();
        assert_eq!(churny.config().kind(), FilterKind::Cuckoo);

        let static_cold = StoreBuilder::new()
            .shards(2)
            .advised_level(LevelSpec {
                expected_keys: 1 << 17,
                work_saved_cycles: 16_000_000.0,
                delete_rate: 0.0,
                ..LevelSpec::default()
            })
            .build();
        assert_eq!(static_cold.config().kind(), FilterKind::Fuse);

        let hot_churny = StoreBuilder::new()
            .shards(2)
            .advised_level(LevelSpec {
                expected_keys: 1 << 14,
                work_saved_cycles: 32.0,
                delete_rate: 0.5,
                ..LevelSpec::default()
            })
            .build();
        assert_eq!(hot_churny.config().kind(), FilterKind::Bloom);
        assert_eq!(hot_churny.delete_mode(), BloomDeleteMode::Counting);
    }

    #[test]
    fn readvise_builder_seeds_the_workload_hint_from_the_advising_spec() {
        let spec = LevelSpec {
            expected_keys: 1 << 14,
            work_saved_cycles: 32.0,
            delete_rate: 0.5,
            ..LevelSpec::default()
        };
        let store = StoreBuilder::new()
            .shards(2)
            .advised_level(spec)
            .readvise(ReadviseOptions::default())
            .build();
        let observed = store.observed_level_spec();
        assert_eq!(observed.work_saved_cycles, spec.work_saved_cycles);
        assert_eq!(observed.sigma, spec.sigma);
    }

    #[test]
    fn advised_tiered_builder_flips_families_and_delete_modes_across_levels() {
        // The paper's per-level t_w story end to end, extended by the
        // build-cost term: a delete-heavy hot level with cheap misses gets a
        // counting Bloom filter; a *static* cold level behind simulated-disk
        // misses gets an immutable fuse filter (best memory/FPR, and no
        // churn to amplify its re-peel cost); a cold level that still churns
        // gets Cuckoo (in-place deletes beat repeated whole-set re-peels).
        let store = TieredStoreBuilder::new()
            .level(LevelSpec {
                expected_keys: 1 << 14,
                work_saved_cycles: 32.0,
                delete_rate: 0.5,
                ..LevelSpec::default()
            })
            .level(LevelSpec {
                expected_keys: 1 << 17,
                work_saved_cycles: 16_000_000.0,
                delete_rate: 0.5,
                ..LevelSpec::default()
            })
            .level(LevelSpec {
                expected_keys: 1 << 17,
                work_saved_cycles: 16_000_000.0,
                delete_rate: 0.0,
                ..LevelSpec::default()
            })
            .shards_per_level(2)
            .build();
        let stats = store.stats();
        assert_eq!(stats.levels[0].family, FilterKind::Bloom);
        assert_eq!(stats.levels[0].delete_mode, BloomDeleteMode::Counting);
        assert!(!store.level_store(0).config().immutable());
        assert_eq!(stats.levels[1].family, FilterKind::Cuckoo);
        assert_eq!(stats.levels[1].delete_mode, BloomDeleteMode::Tombstone);
        assert_eq!(stats.levels[2].family, FilterKind::Fuse);
        assert_eq!(stats.levels[2].delete_mode, BloomDeleteMode::Tombstone);
        assert!(store.level_store(2).config().immutable());
        assert!(stats.levels[2].fingerprint_bits > 0);
        assert_eq!(stats.compaction_policy, "size-ratio");
    }
}
