//! A sharded, concurrent filter store — the serving layer above the
//! performance-optimal filtering machinery.
//!
//! The paper's thesis is that filter choice is a *throughput* question; this
//! crate is the subsystem that turns one recommended filter configuration
//! into a structure that can serve millions of membership lookups per second
//! from many threads:
//!
//! * [`ShardedFilterStore`] — keys are partitioned across `P` shards by a
//!   cheap splitter hash (reusing `pof-hash`), each shard holds an
//!   [`AnyFilter`](pof_core::AnyFilter) chosen by the
//!   [`FilterAdvisor`](pof_core::FilterAdvisor) or pinned explicitly,
//! * reads are wait-free against writers: every lookup probes an immutable
//!   [`Arc`](std::sync::Arc) snapshot of the shard's filter, while inserts
//!   and rebuilds mutate a private write-side copy and publish a fresh
//!   snapshot when done (readers never observe a half-built filter),
//! * the API is **batch-first**: [`ShardedFilterStore::insert_batch`] and
//!   [`ShardedFilterStore::contains_batch`] fan a batch out to the shards,
//!   probe each shard through its vectorised kernel, and merge the per-shard
//!   position lists back into one batch-ordered
//!   [`SelectionVector`](pof_filter::SelectionVector),
//! * the shard **lifecycle is policy-driven**: a pluggable [`RebuildPolicy`]
//!   decides when shards rebuild their filters and how large the rebuild is.
//!   [`SaturationDoubling`] (the default) doubles the moment a shard
//!   outgrows its capacity or its filter refuses a key; [`FprDrift`] rebuilds
//!   when the modeled false-positive rate drifts past a budget multiple,
//!   re-fitting (growing *or shrinking*) to the live key count;
//!   [`DeferredBatch`] keeps writes latency-flat by parking overflow keys in
//!   an exact side buffer (probed by readers, so nothing goes missing) and
//!   folding them in on the next [`ShardedFilterStore::maintain`] call,
//! * every rebuild is **one job**: the writer records a pending-rebuild
//!   state, the job builds the replacement from the shard's live key set
//!   off-lock, re-acquires the shard briefly to replay the bounded delta of
//!   writes that raced the build, and publishes it with a single `Arc`
//!   swap. [`StoreBuilder::rebuild_mode`] picks who runs it: the write call
//!   itself ([`RebuildMode::Inline`], the default), a maintainer thread
//!   ([`RebuildMode::Background`]) or the caller phase by phase
//!   ([`RebuildMode::Queued`]). Only
//!   [`RebuildUrgency::Immediate`] or delta backpressure builds under the
//!   shard lock. [`ShardedFilterStore::maintain`] doubles as a
//!   deterministic drain barrier, and [`ShardStats::max_writer_stall_ns`] /
//!   [`ShardStats::writer_rebuild_stall_ns`] make the tail-latency effect
//!   measurable,
//! * the store **deletes**: [`ShardedFilterStore::delete_batch`] removes
//!   Cuckoo signatures in place and republishes; Bloom shards *tombstone* by
//!   default — the key leaves [`ShardedFilterStore::key_count`] immediately
//!   while its bits linger as false positives until the policy's next
//!   rebuild — or, with [`StoreBuilder::bloom_deletes`]
//!   ([`BloomDeleteMode::Counting`]), delete **in place** through a
//!   per-shard counting sidecar (4 bits per filter bit on the write side;
//!   published snapshots never carry it), so tombstones stay at zero and a
//!   delete-heavy Bloom store stops rebuilding altogether. No policy ever
//!   loses a live key: the authoritative key bookkeeping lives on the write
//!   side in a compact key set holding each key once (one `u32` per live
//!   key: a sorted run plus a short unsorted tail), and a rebuild's filter
//!   is a function of that key set alone,
//! * steady-state reads are **allocation-free**: a reader holding a
//!   [`StoreSnapshot`] and a reusable [`ProbeScratch`] routes every batch
//!   through [`StoreSnapshot::contains_batch_with`] without touching the
//!   heap,
//! * [`StoreStats`] exposes per-shard occupancy, size, modeled FPR,
//!   tombstones, overflow and bookkeeping bytes, and
//!   [`ShardedFilterStore::observed_fpr`] measures the empirical rate through
//!   `pof-filter`'s measurement machinery,
//! * the store **tiers**: a [`TieredStore`] layers per-level sharded stores
//!   into an LSM-style hierarchy, each level's family, budget and delete
//!   mode pinned by the advisor from the level's `LevelSpec` (`expected_keys`,
//!   `t_w`, σ, delete rate) — register-blocked Bloom with counting deletes
//!   for hot churn levels, Cuckoo for cold simulated-disk levels — with
//!   newest→oldest short-circuit lookups, exact cross-level key accounting,
//!   and a [`CompactionPolicy`]-driven [`TieredStore::compact`] that merges
//!   a level into the next through the same policy/maintainer machinery,
//! * construction is **struct-first**: every store comes from
//!   [`ShardedFilterStore::from_options`] consuming a [`StoreOptions`]
//!   (shard count, budget, [`LifecycleOptions`], delete mode, re-advising
//!   knobs), with [`StoreBuilder`] / [`TieredStoreBuilder`] as the fluent
//!   fronts — the old positional constructors survive as deprecated shims,
//! * families are **not forever**: with [`StoreOptions::readvise`]
//!   ([`ReadviseOptions`]) the store observes its real insert/delete/lookup
//!   traffic in decayed counters, re-runs the per-level advisor against the
//!   observed [`LevelSpec`] on every
//!   [`ShardedFilterStore::run_pending_readvise`] (and `maintain()`) call,
//!   and — once the modeled improvement clears a hysteresis gate for enough
//!   consecutive evaluations — migrates each shard live to the new family
//!   through the same snapshot → off-lock build → delta replay → `Arc`-swap
//!   machinery rebuilds use (a hot counting-Bloom level that cools into a
//!   static tier ends up on an immutable fuse filter without a restart, and
//!   readers never observe a false negative on the way).
//!
//! # Example
//!
//! ```
//! use pof_store::StoreBuilder;
//! use pof_filter::SelectionVector;
//!
//! // An advisor-configured store for ~64k keys served by 4 shards, with
//! // latency-flat deferred maintenance.
//! let store = StoreBuilder::new()
//!     .shards(4)
//!     .expected_keys(64 * 1024)
//!     .advised(200.0, 0.1)
//!     .rebuild_policy(std::sync::Arc::new(pof_store::DeferredBatch::new(4_096)))
//!     .build();
//!
//! let keys: Vec<u32> = (0..10_000u32).map(|i| i * 2 + 1).collect();
//! store.insert_batch(&keys);
//!
//! let probes: Vec<u32> = (0..20_000u32).collect();
//! let mut sel = SelectionVector::new();
//! store.contains_batch(&probes, &mut sel);
//! // Every inserted key qualifies; non-members only as false positives.
//! assert!(sel.len() >= keys.len());
//!
//! // Deletes work for every family; folds/purges run on demand.
//! let removed = store.delete_batch(&keys[..1_000]);
//! assert_eq!(removed, 1_000);
//! store.maintain();
//! assert_eq!(store.key_count(), 9_000);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod builder;
mod keyset;
mod maintainer;
mod options;
mod persist;
mod policy;
mod readvise;
mod shard;
mod stats;
mod store;
mod tiered;

pub use builder::{ConfigSource, StoreBuilder, TieredStoreBuilder};
pub use maintainer::RebuildMode;
pub use options::{LifecycleOptions, ReadviseOptions, StoreOptions};
pub use persist::PersistOptions;
pub use policy::{
    DeferredBatch, FprDrift, RebuildDecision, RebuildPolicy, RebuildUrgency, SaturationDoubling,
    ShardObservation,
};
pub use shard::BloomDeleteMode;
pub use stats::{LevelStats, ShardStats, StoreStats, TieredStats};
pub use store::{ProbeScratch, ShardedFilterStore, StoreSnapshot};
pub use tiered::{
    CompactionPolicy, LevelObservation, ManualCompaction, SizeRatio, TieredProbeScratch,
    TieredStore,
};

/// Re-exported so tiered-store callers can describe levels without a direct
/// `pof-core` dependency.
pub use pof_core::{LevelRecommendation, LevelSpec};

/// Re-exported so persistence callers (and crash tests) can name the fsync
/// policy, error type, and fault-injection hooks without a direct
/// `pof-persist` dependency.
pub use pof_persist::{FaultInjector, FaultPoint, FsyncPolicy, PersistError};
