//! Consolidated construction options for sharded stores.
//!
//! The store's constructors historically accumulated positional parameters —
//! filter config, shard count, capacity, budget, policy, rebuild mode,
//! delete mode — one per feature PR, peaking at the 7-positional
//! `with_options`. This module replaces that sprawl with three small structs:
//!
//! * [`StoreOptions`] — everything a [`ShardedFilterStore`] needs, with
//!   [`Default`]s matching the classic constructor defaults, consumed by
//!   [`ShardedFilterStore::from_options`],
//! * [`LifecycleOptions`] — the rebuild policy/execution pair shared by
//!   [`StoreBuilder`](crate::StoreBuilder) and
//!   [`TieredStoreBuilder`](crate::TieredStoreBuilder) (which used to
//!   duplicate the knobs),
//! * [`ReadviseOptions`] — the online re-advising knobs: hysteresis
//!   threshold and streak, the minimum observed traffic per evaluation, and
//!   the initial workload hint.
//!
//! [`ShardedFilterStore`]: crate::ShardedFilterStore
//! [`ShardedFilterStore::from_options`]: crate::ShardedFilterStore::from_options

use crate::maintainer::RebuildMode;
use crate::policy::{RebuildPolicy, SaturationDoubling};
use crate::shard::BloomDeleteMode;
use pof_bloom::{Addressing, BloomConfig};
use pof_core::{FilterConfig, LevelSpec};
use std::sync::Arc;

/// The shard-lifecycle pair every store (flat or per tiered level) needs:
/// *when* shards rebuild (the [`RebuildPolicy`]) and *where* the rebuild
/// runs (the [`RebuildMode`]). One instance is shared by all shards.
#[derive(Debug, Clone)]
pub struct LifecycleOptions {
    /// When shards rebuild their filters and how rebuild capacity is chosen.
    pub policy: Arc<dyn RebuildPolicy>,
    /// Where policy-triggered rebuild jobs run: on the calling thread before
    /// the write call returns, on a background maintainer thread, or queued
    /// for a deterministic harness (see [`RebuildMode`]).
    pub rebuild_mode: RebuildMode,
}

impl Default for LifecycleOptions {
    /// [`SaturationDoubling`] with inline rebuilds: every write call finishes
    /// the rebuilds it requested before it returns.
    fn default() -> Self {
        Self {
            policy: Arc::new(SaturationDoubling),
            rebuild_mode: RebuildMode::Inline,
        }
    }
}

/// Knobs for online re-advising (see the crate docs' "Online re-advising"
/// story): how much modeled improvement a family flip must show, for how
/// many consecutive evaluations, before the store migrates live.
#[derive(Debug, Clone, Copy)]
pub struct ReadviseOptions {
    /// Minimum relative reduction of the modeled maintenance-weighted
    /// objective (`(incumbent − candidate) / incumbent`) a family flip must
    /// clear. Delete-mode flips within the Bloom family are exempt (their
    /// objective difference is structurally small).
    pub min_improvement: f64,
    /// Consecutive above-threshold evaluations (all proposing the same
    /// target family) required before a migration is confirmed.
    pub consecutive: u32,
    /// Minimum observed operations (inserts + deletes + lookups) since the
    /// last evaluation for an evaluation to run at all — a near-idle store
    /// neither advances nor resets the hysteresis streak.
    pub min_ops: u64,
    /// Initial workload hint: `work_saved_cycles` (`t_w`) and `sigma` cannot
    /// be observed from the store's own traffic, so they are seeded here and
    /// updated via
    /// [`ShardedFilterStore::set_workload_hint`](crate::ShardedFilterStore::set_workload_hint)
    /// as the deployment's miss cost drifts.
    pub workload: LevelSpec,
}

impl Default for ReadviseOptions {
    /// 20 % modeled improvement sustained for 3 evaluations, at least 64
    /// observed operations per evaluation, default workload hint.
    fn default() -> Self {
        Self {
            min_improvement: 0.2,
            consecutive: 3,
            min_ops: 64,
            workload: LevelSpec::default(),
        }
    }
}

/// Everything [`ShardedFilterStore::from_options`] needs — the struct that
/// replaces the store's former positional constructors. Start from
/// [`Default`] and override what differs:
///
/// ```
/// use pof_store::{RebuildMode, ShardedFilterStore, StoreOptions};
///
/// let store = ShardedFilterStore::from_options(StoreOptions {
///     shard_count: 4,
///     capacity_per_shard: 1 << 12,
///     lifecycle: pof_store::LifecycleOptions {
///         rebuild_mode: RebuildMode::Queued,
///         ..Default::default()
///     },
///     ..Default::default()
/// });
/// assert_eq!(store.shard_count(), 4);
/// ```
///
/// [`ShardedFilterStore::from_options`]: crate::ShardedFilterStore::from_options
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Filter configuration every shard builds from.
    pub config: FilterConfig,
    /// Number of shards (rounded up to a power of two at build time).
    pub shard_count: usize,
    /// Keys each shard's initial filter is sized for (shards grow on
    /// demand, so this is a sizing hint, not a limit).
    pub capacity_per_shard: usize,
    /// Per-shard filter budget in bits per key.
    pub bits_per_key: f64,
    /// The shard-lifecycle pair: rebuild policy and execution mode.
    pub lifecycle: LifecycleOptions,
    /// How Bloom shards honor deletes (tombstone or counting sidecar).
    pub delete_mode: BloomDeleteMode,
    /// Enable online re-advising with these knobs; `None` (the default)
    /// keeps the family fixed at construction time.
    pub readvise: Option<ReadviseOptions>,
}

impl Default for StoreOptions {
    /// The classic store defaults: the paper's canonical high-throughput
    /// Bloom configuration (cache-sectorized, 512-bit blocks, 64-bit
    /// sectors, z = 2, k = 8, magic addressing), 8 shards sized for 8k keys
    /// each at 12 bits/key, [`LifecycleOptions::default`], tombstone
    /// deletes, no re-advising.
    fn default() -> Self {
        Self {
            config: FilterConfig::Bloom(BloomConfig::cache_sectorized(
                512,
                64,
                2,
                8,
                Addressing::Magic,
            )),
            shard_count: 8,
            capacity_per_shard: 8 * 1024,
            bits_per_key: 12.0,
            lifecycle: LifecycleOptions::default(),
            delete_mode: BloomDeleteMode::Tombstone,
            readvise: None,
        }
    }
}
