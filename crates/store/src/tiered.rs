//! Tiered (LSM-style) stores: one [`ShardedFilterStore`] per level, each
//! level's filter family, bits-per-key budget and delete mode chosen by the
//! advisor from the level's workload shape.
//!
//! The paper's core result is that the performance-optimal family flips with
//! the per-tuple work `t_w` — exactly the quantity that differs per LSM
//! level. A hot level absorbs churn and its misses cost tens of cycles (a
//! skipped memtable probe): the skyline puts it on a blocked Bloom filter. A
//! cold level is large, mostly immutable, and a miss there costs a simulated
//! disk read: the skyline puts it on a Cuckoo filter — or, when the level is
//! fully static, on an immutable binary-fuse filter, whose whole-set re-peel
//! the level's store absorbs through its rebuild machinery. The [`TieredStore`]
//! makes that per-level story executable: each level is described by a
//! [`LevelSpec`] (`expected_keys`, `t_w`, σ, delete rate), fed through
//! [`FilterAdvisor::recommend_for_level`](pof_core::FilterAdvisor::recommend_for_level)
//! at build time, and served by its own sharded store — so every subsystem
//! the flat store already has (rebuild policies, background maintainers,
//! counting-Bloom deletes) composes per level.
//!
//! Semantics:
//!
//! * **Lookups** probe levels newest→oldest and short-circuit on the first
//!   positive level — the LSM read path, with the usual filter contract (no
//!   false negatives; a false positive costs one wasted level probe).
//! * **Inserts** land in level 0 and *shadow* older occurrences: the key is
//!   deleted from every older level, so each key lives in exactly one level
//!   and [`TieredStore::key_count`] stays exact. (The per-level stores keep
//!   exact write-side bookkeeping, which makes the shadow delete precise.)
//! * **Deletes** remove the key from whichever level holds it.
//! * **[`TieredStore::compact`]** merges a level's live key set into the
//!   next level's store. The destination grows through its own
//!   [`RebuildPolicy`](crate::RebuildPolicy) and rebuild mode — inline,
//!   threaded maintainer, or queued for a deterministic harness — so a
//!   compaction can race a pending shard rebuild, which the interleave suite
//!   enumerates. A [`CompactionPolicy`] (default: [`SizeRatio`]) decides
//!   *when* levels spill.

use crate::builder::TieredStoreBuilder;
use crate::persist::PersistOptions;
use crate::stats::{LevelStats, TieredStats};
use crate::store::{ProbeScratch, ShardedFilterStore};
use pof_core::LevelSpec;
use pof_filter::SelectionVector;
use pof_persist::{write_meta, PersistError, StoreMeta};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Compile-time audit that tiered stores can be shared across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TieredStore>();
};

/// What a [`CompactionPolicy`] sees when deciding whether one level should
/// spill into the next. Only non-terminal levels are offered (the oldest
/// level has nowhere to spill).
#[derive(Debug, Clone, Copy)]
pub struct LevelObservation {
    /// Index of the level under consideration (0 = newest).
    pub level: usize,
    /// Live keys currently resident in the level.
    pub live_keys: usize,
    /// Keys the level was sized for ([`LevelSpec::expected_keys`]).
    pub expected_keys: usize,
    /// Live keys in the next (older) level — the compaction destination.
    pub next_live_keys: usize,
    /// Keys the next level was sized for.
    pub next_expected_keys: usize,
}

/// Decides when a tiered store compacts a level into the next.
///
/// Consulted after every [`TieredStore::insert_batch`] and on
/// [`TieredStore::maintain`], level by level from newest to oldest (so one
/// pass propagates a cascade: level 0 spilling into level 1 can push level 1
/// over its own trigger, which the same pass then observes).
pub trait CompactionPolicy: std::fmt::Debug + Send + Sync {
    /// Should `observation.level` spill into the next level now?
    fn should_compact(&self, observation: &LevelObservation) -> bool;

    /// Short name for stats and logs.
    fn name(&self) -> &'static str;
}

/// The classic LSM size-ratio trigger: a level compacts into the next as
/// soon as its live key count exceeds `headroom ×` its
/// [`LevelSpec::expected_keys`] sizing. `headroom = 1.0` (the default)
/// spills exactly at the sizing; a larger headroom tolerates transient
/// overshoot between maintenance rounds.
#[derive(Debug, Clone, Copy)]
pub struct SizeRatio {
    headroom: f64,
}

impl SizeRatio {
    /// Trigger when `live_keys > headroom * expected_keys`.
    ///
    /// # Panics
    /// If `headroom` is not strictly positive.
    #[must_use]
    pub fn new(headroom: f64) -> Self {
        assert!(
            headroom > 0.0,
            "compaction headroom must be strictly positive"
        );
        Self { headroom }
    }
}

impl Default for SizeRatio {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl CompactionPolicy for SizeRatio {
    fn should_compact(&self, observation: &LevelObservation) -> bool {
        observation.live_keys as f64 > self.headroom * observation.expected_keys as f64
    }

    fn name(&self) -> &'static str {
        "size-ratio"
    }
}

/// Never compacts on its own: levels spill only on explicit
/// [`TieredStore::compact`] calls. The policy the oracle tests drive, so the
/// test controls exactly when keys change level.
#[derive(Debug, Clone, Copy, Default)]
pub struct ManualCompaction;

impl CompactionPolicy for ManualCompaction {
    fn should_compact(&self, _observation: &LevelObservation) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "manual"
    }
}

/// Reusable scratch buffers for the tiered batched read path
/// ([`TieredStore::contains_batch_with`]): the cascade's qualified flags,
/// the shrinking remaining-keys/positions pair, the per-level selection
/// vector, and the per-level shard-routing [`ProbeScratch`]. Holding one per
/// reader thread makes steady-state tiered batch lookups reuse every buffer
/// (the per-level snapshot `Arc` bumps remain, as in the flat store).
#[derive(Debug, Default)]
pub struct TieredProbeScratch {
    qualified: Vec<bool>,
    remaining_keys: Vec<u32>,
    remaining_positions: Vec<u32>,
    level_sel: SelectionVector,
    probe: ProbeScratch,
}

impl TieredProbeScratch {
    /// Create an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// One level: its sharded store plus the workload description it was built
/// for. Family, budget and delete mode live in the store itself (they can
/// drift through live migration); the spec is the construction-time
/// description compaction sizing still keys off.
#[derive(Debug)]
pub(crate) struct TierLevel {
    pub(crate) store: ShardedFilterStore,
    pub(crate) spec: LevelSpec,
    /// Keys this level has received from compactions of the level above.
    compacted_in: AtomicU64,
    /// Keys compactions have moved out of this level.
    compacted_out: AtomicU64,
}

impl TierLevel {
    pub(crate) fn new(store: ShardedFilterStore, spec: LevelSpec) -> Self {
        Self {
            store,
            spec,
            compacted_in: AtomicU64::new(0),
            compacted_out: AtomicU64::new(0),
        }
    }
}

/// An LSM-style tiered filter store: levels of [`ShardedFilterStore`]s,
/// newest first, each with its own advisor-chosen (or pinned) family,
/// bits-per-key budget, rebuild policy execution mode and Bloom delete mode.
/// Built via [`TieredStoreBuilder`](crate::TieredStoreBuilder).
///
/// # Concurrency
///
/// Reads ([`contains`](Self::contains) / [`contains_batch`](Self::contains_batch))
/// are wait-free exactly like the flat store's: they probe the levels'
/// published snapshots and never take the tiered write lock. Write-side
/// operations span *multiple* levels (an insert shadow-deletes older
/// occurrences, a compaction moves a key set between two level stores), so
/// they serialize on one store-wide mutex — otherwise a `delete_batch`
/// racing a `compact` could observe a key mid-move in both levels (double
/// counting the removal) or in neither bookkeeping (resurrecting it), and
/// the each-key-lives-in-exactly-one-level invariant would be lost.
///
/// Levels publish their snapshots independently rather than through a
/// cross-level commit point, so both directions a key can move are made
/// safe by ordering alone. Upward moves (a re-insert of a key an older
/// level still holds) insert into level 0 first, then *shadow-delete* the
/// older occurrences: the older level's bookkeeping drops the key
/// immediately, but its published filter stays bit-identical until that
/// level's next rebuild — so a reader that probed level 0 before the
/// insert published still gets a positive from the older level, whatever
/// its family or delete mode (the delete-in-place clears Cuckoo and
/// counting-Bloom levels used to perform here were the one false-negative
/// window this store had). Downward moves ([`Self::compact`]) populate the
/// destination before clearing the source, and readers visit the
/// destination later. Stable keys (not mid-move) are never misreported in
/// any mode.
#[derive(Debug)]
pub struct TieredStore {
    levels: Vec<TierLevel>,
    compaction: Arc<dyn CompactionPolicy>,
    /// Completed compaction operations (explicit and policy-triggered).
    compactions: AtomicU64,
    /// Serializes the multi-level write paths (insert/delete/load/compact/
    /// maintain). Readers never touch it.
    write_lock: Mutex<()>,
}

impl TieredStore {
    pub(crate) fn from_levels(
        levels: Vec<TierLevel>,
        compaction: Arc<dyn CompactionPolicy>,
    ) -> Self {
        assert!(
            !levels.is_empty(),
            "a tiered store needs at least one level"
        );
        Self {
            levels,
            compaction,
            compactions: AtomicU64::new(0),
            write_lock: Mutex::new(()),
        }
    }

    /// Open (or create) a persistent tiered store in `dir` with the durable
    /// default [`PersistOptions`] — see [`Self::open_with`].
    ///
    /// # Errors
    /// Propagates I/O failures, corruption the fallback generation cannot
    /// mask, and a directory whose metadata names a different store shape.
    pub fn open(dir: impl AsRef<Path>, builder: TieredStoreBuilder) -> Result<Self, PersistError> {
        Self::open_with(dir, builder, PersistOptions::durable())
    }

    /// Open (or create) a persistent tiered store in `dir`: each level lives
    /// in its own `level-NN/` subdirectory as a full persistent
    /// [`ShardedFilterStore`] (snapshots + WAL segments, recovered through
    /// [`ShardedFilterStore::open_with`]), tied together by a root
    /// `STORE.meta` recording the tiered shape and level count.
    ///
    /// The `builder` supplies everything the disk does not record — level
    /// specs, policies, rebuild mode, re-advising — and must declare the
    /// same number of levels the directory holds. Each recovered level keeps
    /// its *persisted* filter family and shard count (a level that migrated
    /// families before the crash stays migrated); a fresh directory builds
    /// each level exactly as [`TieredStoreBuilder::build`] would.
    ///
    /// # Errors
    /// Propagates I/O failures, corruption the fallback generation cannot
    /// mask, a level-count mismatch with the builder, and a directory whose
    /// metadata names a flat store.
    ///
    /// # Panics
    /// If the builder declares no levels.
    pub fn open_with(
        dir: impl AsRef<Path>,
        builder: TieredStoreBuilder,
        persist: PersistOptions,
    ) -> Result<Self, PersistError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let (resolved, compaction) = builder.resolved();
        match pof_persist::read_meta(dir)? {
            None => {
                write_meta(
                    dir,
                    StoreMeta {
                        kind: StoreMeta::KIND_TIERED,
                        count: resolved.len() as u32,
                    },
                )?;
            }
            Some(meta) if meta.kind == StoreMeta::KIND_TIERED => {
                if meta.count as usize != resolved.len() {
                    return Err(PersistError::Corrupt {
                        path: dir.join("STORE.meta"),
                        detail: format!(
                            "directory holds {} levels but the builder declares {}",
                            meta.count,
                            resolved.len()
                        ),
                    });
                }
            }
            Some(_) => {
                return Err(PersistError::Corrupt {
                    path: dir.join("STORE.meta"),
                    detail: "directory holds a flat store; use ShardedFilterStore::open".to_owned(),
                });
            }
        }
        let levels = resolved
            .into_iter()
            .enumerate()
            .map(|(index, (spec, options))| {
                let level_dir = dir.join(format!("level-{index:02}"));
                let store = ShardedFilterStore::open_with(level_dir, options, persist.clone())?;
                Ok(TierLevel::new(store, spec))
            })
            .collect::<Result<Vec<_>, PersistError>>()?;
        Ok(Self::from_levels(levels, compaction))
    }

    /// Checkpoint every level's store (see
    /// [`ShardedFilterStore::persist_checkpoint`]): each shard's state is
    /// snapshotted to disk and its WAL rotated. A no-op for stores built in
    /// memory.
    ///
    /// # Errors
    /// Returns the first shard's failure; that level's persistence layer is
    /// dead from then on (later levels are still attempted).
    pub fn persist_checkpoint(&self) -> Result<(), PersistError> {
        let _guard = self.write_guard();
        let mut first_err = None;
        for level in &self.levels {
            if let Err(err) = level.store.persist_checkpoint() {
                first_err.get_or_insert(err);
            }
        }
        match first_err {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Acquire the store-wide write lock (multi-level mutations only).
    fn write_guard(&self) -> MutexGuard<'_, ()> {
        self.write_lock.lock().expect("tiered write lock poisoned")
    }

    /// Number of levels (level 0 is the newest/hottest).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// The workload description level `level` was built for.
    ///
    /// # Panics
    /// If `level` is out of range.
    #[must_use]
    pub fn level_spec(&self, level: usize) -> LevelSpec {
        self.levels[level].spec
    }

    /// Direct read access to one level's store — the per-level probe the LSM
    /// substrate uses to answer "may this *level* contain the key?" without
    /// consulting the newer levels above it.
    ///
    /// # Panics
    /// If `level` is out of range.
    #[must_use]
    pub fn level_store(&self, level: usize) -> &ShardedFilterStore {
        &self.levels[level].store
    }

    /// Does level `level` (alone) possibly contain `key`?
    ///
    /// # Panics
    /// If `level` is out of range.
    #[must_use]
    pub fn level_contains(&self, level: usize, key: u32) -> bool {
        self.levels[level].store.contains(key)
    }

    /// Insert a batch into level 0, shadowing any older occurrences: a key
    /// re-inserted after it was compacted down leaves the older level's
    /// *bookkeeping* at once (so every key lives in exactly one level and
    /// [`Self::key_count`] stays exact) while the older level's published
    /// filter keeps answering positive until its next rebuild — readers
    /// racing the reinsertion can never observe the key in neither level.
    /// Afterwards the [`CompactionPolicy`] is consulted, newest level first,
    /// and due levels spill.
    pub fn insert_batch(&self, keys: &[u32]) {
        let guard = self.write_guard();
        self.levels[0].store.insert_batch(keys);
        for level in &self.levels[1..] {
            level.store.shadow_delete_batch(keys);
        }
        self.run_compaction_policy(&guard);
    }

    /// Delete a batch of keys from whichever levels hold them. Returns how
    /// many keys were actually removed (absent keys are no-ops).
    pub fn delete_batch(&self, keys: &[u32]) -> usize {
        let _guard = self.write_guard();
        self.levels
            .iter()
            .map(|level| level.store.delete_batch(keys))
            .sum()
    }

    /// Bulk-load keys directly into one level, bypassing level 0 and the
    /// shadowing pass — the bootstrap path for populating cold levels (e.g.
    /// from on-disk runs) without replaying the whole compaction history.
    /// The caller is responsible for keeping levels disjoint; a key loaded
    /// into two levels stays correct for lookups (newest wins) but is
    /// double-counted by [`Self::key_count`] until one copy is deleted.
    ///
    /// # Panics
    /// If `level` is out of range.
    pub fn load_level(&self, level: usize, keys: &[u32]) {
        let _guard = self.write_guard();
        self.levels[level].store.insert_batch(keys);
    }

    /// Point lookup: probe levels newest→oldest, short-circuiting on the
    /// first positive level.
    #[must_use]
    pub fn contains(&self, key: u32) -> bool {
        self.levels.iter().any(|level| level.store.contains(key))
    }

    /// Batched lookup across all levels: for every key that tests positive
    /// in *some* level, append its batch position to `sel` in ascending
    /// order (`sel` is not cleared, matching
    /// [`Filter::contains_batch`](pof_filter::Filter::contains_batch)).
    ///
    /// The batch cascades: level 0 is probed with the full batch through its
    /// vectorised path, and only the misses ride on to level 1, and so on —
    /// the batch equivalent of the point lookup's short-circuit, so a
    /// hot-heavy workload rarely touches the cold levels at all. Steady-state
    /// readers should hold a [`TieredProbeScratch`] and call
    /// [`Self::contains_batch_with`], which reuses every cascade buffer.
    pub fn contains_batch(&self, keys: &[u32], sel: &mut SelectionVector) {
        self.contains_batch_with(keys, sel, &mut TieredProbeScratch::new());
    }

    /// [`Self::contains_batch`] through caller-owned scratch buffers:
    /// identical results, but the cascade's routing buffers (and each
    /// level's shard-routing scratch) are reused across calls.
    // pof-analyze: no-alloc
    pub fn contains_batch_with(
        &self,
        keys: &[u32],
        sel: &mut SelectionVector,
        scratch: &mut TieredProbeScratch,
    ) {
        if self.levels.len() == 1 {
            self.levels[0].store.note_probed(keys.len());
            self.levels[0]
                .store
                .snapshot()
                .contains_batch_with(keys, sel, &mut scratch.probe);
            return;
        }
        scratch.qualified.clear();
        scratch.qualified.resize(keys.len(), false);
        scratch.remaining_keys.clear();
        scratch.remaining_keys.extend_from_slice(keys);
        scratch.remaining_positions.clear();
        scratch.remaining_positions.extend(0..keys.len() as u32);
        let mut snapshot = self.levels[0].store.snapshot();
        let mut index = 0usize;
        loop {
            // Credit each level's workload observer with exactly the keys it
            // is probed with (misses only, below level 0) — the cascade goes
            // through raw snapshots, which re-advising cannot see on its own.
            self.levels[index]
                .store
                .note_probed(scratch.remaining_keys.len());
            scratch.level_sel.clear();
            snapshot.contains_batch_with(
                &scratch.remaining_keys,
                &mut scratch.level_sel,
                &mut scratch.probe,
            );
            // If misses survive this level, snapshot the next one and start
            // streaming its shard filters toward the cache *before* the
            // hit-mark/miss-compact scan below — by the time the (smaller)
            // miss batch arrives there, its leading lines are warm.
            let missed = scratch.level_sel.len() < scratch.remaining_keys.len();
            let next_snapshot = if missed && index + 1 < self.levels.len() {
                let next = self.levels[index + 1].store.snapshot();
                next.prefetch_storage();
                Some(next)
            } else {
                None
            };
            // Mark the hits and compact the misses in place: they are the
            // (smaller) batch the next, older level sees.
            let hits = scratch.level_sel.as_slice();
            let mut write = 0usize;
            let mut hit_cursor = 0usize;
            for read in 0..scratch.remaining_keys.len() {
                if hit_cursor < hits.len() && hits[hit_cursor] as usize == read {
                    scratch.qualified[scratch.remaining_positions[read] as usize] = true;
                    hit_cursor += 1;
                } else {
                    scratch.remaining_keys[write] = scratch.remaining_keys[read];
                    scratch.remaining_positions[write] = scratch.remaining_positions[read];
                    write += 1;
                }
            }
            scratch.remaining_keys.truncate(write);
            scratch.remaining_positions.truncate(write);
            match next_snapshot {
                Some(next) => {
                    snapshot = next;
                    index += 1;
                }
                None => break,
            }
        }
        sel.reserve(keys.len());
        for (position, &hit) in scratch.qualified.iter().enumerate() {
            sel.push_if(position as u32, hit);
        }
    }

    /// Compact level `level` into level `level + 1`: the level's live key
    /// set (exact, from the write-side bookkeeping) is inserted into the
    /// next level's store, then deleted from the source. Returns how many
    /// keys moved.
    ///
    /// The destination absorbs the merged keys through its own
    /// [`RebuildPolicy`](crate::RebuildPolicy) and rebuild execution mode:
    /// inline stores run the rebuild job on the calling thread inside this
    /// call, background stores hand it to their maintainer thread, and
    /// queued stores leave it for
    /// [`run_pending_rebuilds`](Self::run_pending_rebuilds) — so a
    /// compaction can land *inside* a pending rebuild's delta window, which
    /// the interleave suite enumerates. Compacting the oldest level folds it
    /// in place (one [`maintain`](ShardedFilterStore::maintain) round) and
    /// moves nothing.
    ///
    /// # Panics
    /// If `level` is out of range.
    pub fn compact(&self, level: usize) -> usize {
        let guard = self.write_guard();
        self.compact_locked(level, &guard)
    }

    /// [`Self::compact`] body, with the write lock already held (the policy
    /// pass inside `insert_batch`/`maintain` calls this re-entrantly).
    fn compact_locked(&self, level: usize, _guard: &MutexGuard<'_, ()>) -> usize {
        assert!(level < self.levels.len(), "compact: no level {level}");
        if level + 1 == self.levels.len() {
            // The oldest level has nowhere to spill: fold/purge in place,
            // and persist the folded state (a fuse terminal level's merged
            // filter goes straight to disk here).
            self.levels[level].store.maintain();
            let _ = self.levels[level].store.persist_checkpoint();
            return 0;
        }
        let keys = self.levels[level].store.live_keys();
        if keys.is_empty() {
            return 0;
        }
        // Insert into the destination first: a concurrent reader sees the
        // keys in both levels mid-compaction (never in neither), so the
        // no-false-negative contract holds throughout.
        self.levels[level + 1].store.insert_batch(&keys);
        let moved = self.levels[level].store.delete_batch(&keys);
        // Persist the move at once (best-effort — a dead persistence layer
        // just stays dead): the destination's merged state, fuse filters
        // included, lands on disk as a fresh snapshot generation rather than
        // as a WAL replay obligation, and the source's emptied state follows
        // so a crash right after this point recovers both sides of the move.
        let _ = self.levels[level + 1].store.persist_checkpoint();
        let _ = self.levels[level].store.persist_checkpoint();
        self.levels[level]
            .compacted_out
            .fetch_add(moved as u64, Ordering::Relaxed);
        self.levels[level + 1]
            .compacted_in
            .fetch_add(moved as u64, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        moved
    }

    /// Consult the [`CompactionPolicy`] for every non-terminal level, newest
    /// first, compacting the due ones. Returns how many keys moved. Caller
    /// holds the write lock.
    fn run_compaction_policy(&self, guard: &MutexGuard<'_, ()>) -> usize {
        let mut moved = 0;
        for level in 0..self.levels.len().saturating_sub(1) {
            let observation = LevelObservation {
                level,
                live_keys: self.levels[level].store.key_count(),
                expected_keys: self.levels[level].spec.expected_keys as usize,
                next_live_keys: self.levels[level + 1].store.key_count(),
                next_expected_keys: self.levels[level + 1].spec.expected_keys as usize,
            };
            if self.compaction.should_compact(&observation) {
                moved += self.compact_locked(level, guard);
            }
        }
        moved
    }

    /// Run one maintenance round over every level (fold overflow, purge
    /// tombstones, drain background rebuilds — see
    /// [`ShardedFilterStore::maintain`]), then consult the
    /// [`CompactionPolicy`]. Returns the number of shard rebuilds performed
    /// across all levels.
    pub fn maintain(&self) -> usize {
        let guard = self.write_guard();
        let rebuilt = self.levels.iter().map(|level| level.store.maintain()).sum();
        self.run_compaction_policy(&guard);
        rebuilt
    }

    /// In [`RebuildMode::Queued`](crate::RebuildMode::Queued), advance up to
    /// `limit` queued rebuild phases across the levels (level 0's queue
    /// first). Returns how many phases ran; `0` in the other modes.
    pub fn run_pending_rebuilds(&self, limit: usize) -> usize {
        let mut ran = 0;
        for level in &self.levels {
            if ran >= limit {
                break;
            }
            ran += level.store.run_pending_rebuilds(limit - ran);
        }
        ran
    }

    /// Run one online re-advising step on every level (level 0 first) —
    /// see [`ShardedFilterStore::run_pending_readvise`]. A no-op unless the
    /// store was built with
    /// [`TieredStoreBuilder::readvise`](crate::TieredStoreBuilder::readvise).
    /// Returns the number of shards that migrated or had a migration
    /// requested, across all levels.
    ///
    /// Runs under the store-wide write lock: a migration rebuilds level
    /// stores, and racing it against a compaction mid-move would blur the
    /// per-level accounting the oracle tests pin down.
    pub fn run_pending_readvise(&self) -> usize {
        let _guard = self.write_guard();
        self.levels
            .iter()
            .map(|level| level.store.run_pending_readvise())
            .sum()
    }

    /// Update one level's workload hint (`t_w`, σ — the externally known
    /// half of the observed workload) for subsequent re-advising
    /// evaluations. See [`ShardedFilterStore::set_workload_hint`].
    ///
    /// # Panics
    /// If `level` is out of range.
    pub fn set_level_workload_hint(&self, level: usize, hint: LevelSpec) {
        self.levels[level].store.set_workload_hint(hint);
    }

    /// Background rebuild jobs enqueued but not yet completed, across all
    /// levels.
    #[must_use]
    pub fn pending_rebuilds(&self) -> usize {
        self.levels
            .iter()
            .map(|level| level.store.pending_rebuilds())
            .sum()
    }

    /// Total live keys across all levels. Exact, because inserts shadow
    /// older occurrences: every key is counted in exactly one level.
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.levels
            .iter()
            .map(|level| level.store.key_count())
            .sum()
    }

    /// Total published filter bits across all levels.
    #[must_use]
    pub fn size_bits(&self) -> u64 {
        self.levels
            .iter()
            .map(|level| level.store.size_bits())
            .sum()
    }

    /// Per-level and aggregate statistics: family, delete mode, budget,
    /// occupancy, tombstones, rebuilds and compaction traffic per level,
    /// with the full per-shard [`StoreStats`](crate::StoreStats) nested.
    #[must_use]
    pub fn stats(&self) -> TieredStats {
        let levels = self
            .levels
            .iter()
            .enumerate()
            .map(|(index, level)| {
                let store = level.store.stats();
                LevelStats {
                    level: index,
                    family: level.store.config().kind(),
                    config_label: level.store.config().label(),
                    // Live, not construction-time: these three follow the
                    // store through migrations.
                    delete_mode: level.store.delete_mode(),
                    bits_per_key_budget: level.store.bits_per_key(),
                    expected_keys: level.spec.expected_keys,
                    work_saved_cycles: level.spec.work_saved_cycles,
                    delete_rate: level.spec.delete_rate,
                    live_keys: store.total_keys(),
                    size_bits: store.total_size_bits(),
                    tombstones: store.total_tombstones(),
                    rebuilds: store.total_rebuilds(),
                    migrations: store.total_migrations(),
                    compacted_in: level.compacted_in.load(Ordering::Relaxed),
                    compacted_out: level.compacted_out.load(Ordering::Relaxed),
                    fingerprint_bits: level.store.config().fingerprint_bits(),
                    construction_retries: store
                        .shards
                        .iter()
                        .map(|shard| shard.construction_retries)
                        .sum(),
                    store,
                }
            })
            .collect();
        TieredStats {
            levels,
            compactions: self.compactions.load(Ordering::Relaxed),
            compaction_policy: self.compaction.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TieredStoreBuilder;
    use crate::shard::BloomDeleteMode;
    use pof_bloom::{Addressing, BloomConfig};
    use pof_core::FilterConfig;
    use pof_cuckoo::{CuckooAddressing, CuckooConfig};
    use pof_filter::{FilterKind, KeyGen};

    fn bloom_config() -> FilterConfig {
        FilterConfig::Bloom(BloomConfig::cache_sectorized(
            512,
            64,
            2,
            8,
            Addressing::Magic,
        ))
    }

    fn cuckoo_config() -> FilterConfig {
        FilterConfig::Cuckoo(CuckooConfig::new(16, 2, CuckooAddressing::PowerOfTwo))
    }

    fn spec(expected_keys: u64, work_saved_cycles: f64, delete_rate: f64) -> LevelSpec {
        LevelSpec {
            expected_keys,
            work_saved_cycles,
            delete_rate,
            ..LevelSpec::default()
        }
    }

    /// A two-level store with pinned families and manual compaction, so
    /// tests control every key movement.
    fn two_level_manual() -> TieredStore {
        TieredStoreBuilder::new()
            .level_pinned(
                spec(4_096, 32.0, 0.5),
                bloom_config(),
                14.0,
                BloomDeleteMode::Counting,
            )
            .level_pinned(
                spec(32_768, 1e7, 0.0),
                cuckoo_config(),
                16.0,
                BloomDeleteMode::Tombstone,
            )
            .shards_per_level(2)
            .compaction(Arc::new(ManualCompaction))
            .build()
    }

    #[test]
    fn lookups_cascade_and_short_circuit_across_levels() {
        let store = two_level_manual();
        let mut gen = KeyGen::new(0x7E01);
        let hot = gen.distinct_keys(2_000);
        let cold = gen.distinct_keys(8_000);
        store.load_level(1, &cold);
        store.insert_batch(&hot);
        for &key in hot.iter().chain(&cold) {
            assert!(store.contains(key));
        }
        // Batch path agrees with the point path, in ascending order.
        let probes: Vec<u32> = hot
            .iter()
            .chain(&cold)
            .copied()
            .chain(gen.distinct_keys(5_000))
            .collect();
        let mut sel = SelectionVector::new();
        store.contains_batch(&probes, &mut sel);
        let expected: Vec<u32> = probes
            .iter()
            .enumerate()
            .filter(|(_, &k)| store.contains(k))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel.as_slice(), expected.as_slice());
    }

    #[test]
    fn compact_moves_the_live_keyset_down_one_level() {
        let store = two_level_manual();
        let mut gen = KeyGen::new(0x7E02);
        let keys = gen.distinct_keys(3_000);
        store.insert_batch(&keys);
        assert_eq!(store.stats().levels[0].live_keys, keys.len() as u64);
        assert_eq!(store.compact(0), keys.len());
        let stats = store.stats();
        assert_eq!(stats.levels[0].live_keys, 0);
        assert_eq!(stats.levels[1].live_keys, keys.len() as u64);
        assert_eq!(stats.levels[0].compacted_out, keys.len() as u64);
        assert_eq!(stats.levels[1].compacted_in, keys.len() as u64);
        assert_eq!(stats.compactions, 1);
        assert_eq!(store.key_count(), keys.len());
        for &key in &keys {
            assert!(store.contains(key), "compaction lost {key}");
        }
        // Compacting the (empty) hot level again moves nothing; compacting
        // the terminal level folds in place and moves nothing either.
        assert_eq!(store.compact(0), 0);
        assert_eq!(store.compact(1), 0);
        assert_eq!(store.key_count(), keys.len());
    }

    #[test]
    fn reinserts_shadow_compacted_copies_exactly() {
        let store = two_level_manual();
        let mut gen = KeyGen::new(0x7E03);
        let keys = gen.distinct_keys(1_000);
        store.insert_batch(&keys);
        store.compact(0);
        // Re-insert half of the compacted keys: they must move back to level
        // 0 without double-counting, and a delete afterwards removes exactly
        // one copy.
        let (back, stayed) = keys.split_at(500);
        store.insert_batch(back);
        assert_eq!(store.key_count(), keys.len());
        let stats = store.stats();
        assert_eq!(stats.levels[0].live_keys, back.len() as u64);
        assert_eq!(stats.levels[1].live_keys, stayed.len() as u64);
        assert_eq!(store.delete_batch(back), back.len());
        assert_eq!(store.delete_batch(back), 0, "shadowed copy survived");
        assert_eq!(store.key_count(), stayed.len());
        for &key in stayed {
            assert!(store.contains(key));
        }
    }

    #[test]
    fn deletes_find_keys_at_any_level() {
        let store = two_level_manual();
        let mut gen = KeyGen::new(0x7E04);
        let keys = gen.distinct_keys(2_000);
        store.insert_batch(&keys);
        store.compact(0);
        let fresh = gen.distinct_keys(500);
        store.insert_batch(&fresh);
        // One batch spanning both levels plus absent keys.
        let mut batch: Vec<u32> = keys[..700].to_vec();
        batch.extend_from_slice(&fresh[..200]);
        batch.extend(gen.distinct_keys(300));
        assert_eq!(store.delete_batch(&batch), 900);
        assert_eq!(store.key_count(), keys.len() + fresh.len() - 900);
    }

    #[test]
    fn size_ratio_policy_spills_hot_levels_automatically() {
        let store = TieredStoreBuilder::new()
            .level_pinned(
                spec(1_024, 32.0, 0.0),
                bloom_config(),
                14.0,
                BloomDeleteMode::Tombstone,
            )
            .level_pinned(
                spec(65_536, 1e7, 0.0),
                cuckoo_config(),
                16.0,
                BloomDeleteMode::Tombstone,
            )
            .shards_per_level(2)
            .build(); // default SizeRatio compaction
        let mut gen = KeyGen::new(0x7E05);
        let mut all = Vec::new();
        for _ in 0..8 {
            let batch = gen.distinct_keys(512);
            store.insert_batch(&batch);
            all.extend_from_slice(&batch);
            // The hot level never holds more than its sizing plus one batch:
            // the policy spills it as soon as it crosses 1_024.
            assert!(
                store.stats().levels[0].live_keys <= 1_024 + 512,
                "hot level ran away: {:?}",
                store.stats().levels[0].live_keys
            );
        }
        let stats = store.stats();
        assert!(stats.compactions > 0, "size-ratio never triggered");
        assert!(stats.levels[1].live_keys > 0);
        assert_eq!(store.key_count(), all.len());
        for &key in &all {
            assert!(store.contains(key));
        }
    }

    #[test]
    fn stats_expose_per_level_families_and_budgets() {
        let store = two_level_manual();
        let stats = store.stats();
        assert_eq!(stats.levels.len(), 2);
        assert_eq!(stats.levels[0].family, FilterKind::Bloom);
        assert_eq!(stats.levels[0].delete_mode, BloomDeleteMode::Counting);
        assert_eq!(stats.levels[1].family, FilterKind::Cuckoo);
        assert!((stats.levels[0].bits_per_key_budget - 14.0).abs() < 1e-12);
        assert!((stats.levels[1].work_saved_cycles - 1e7).abs() < 1e-12);
        assert_eq!(stats.compaction_policy, "manual");
        assert_eq!(stats.total_keys(), 0);
        store.insert_batch(&[1, 2, 3]);
        let stats = store.stats();
        assert_eq!(stats.total_keys(), 3);
        assert!(stats.total_size_bits() > 0);
        assert!(stats.levels[0].bits_per_live_key() > 0.0);
    }

    #[test]
    fn empty_store_ratio_stats_are_zero_not_nan() {
        // Satellite: a freshly built store holds no keys, and every
        // per-live-key ratio must degenerate to 0 (finite), not NaN/inf.
        let store = two_level_manual();
        let stats = store.stats();
        assert_eq!(stats.total_keys(), 0);
        assert_eq!(stats.bits_per_live_key(), 0.0);
        assert!(stats.bits_per_live_key().is_finite());
        for level in &stats.levels {
            assert_eq!(level.bits_per_live_key(), 0.0);
            assert!(level.bits_per_live_key().is_finite());
            assert_eq!(level.store.bits_per_live_key(), 0.0);
        }
    }

    #[test]
    fn scratch_batch_path_agrees_and_reuses_buffers() {
        let store = two_level_manual();
        let mut gen = KeyGen::new(0x7E07);
        let cold = gen.distinct_keys(4_000);
        let hot = gen.distinct_keys(1_000);
        store.load_level(1, &cold);
        store.insert_batch(&hot);
        let probes: Vec<u32> = hot
            .iter()
            .chain(&cold)
            .copied()
            .chain(gen.distinct_keys(3_000))
            .collect();
        let mut scratch = TieredProbeScratch::new();
        let mut with_scratch = SelectionVector::new();
        let mut plain = SelectionVector::new();
        // Repeated calls through one scratch: identical output every time.
        for _ in 0..3 {
            with_scratch.clear();
            store.contains_batch_with(&probes, &mut with_scratch, &mut scratch);
            plain.clear();
            store.contains_batch(&probes, &mut plain);
            assert_eq!(with_scratch.as_slice(), plain.as_slice());
        }
    }

    #[test]
    fn concurrent_writers_keep_cross_level_accounting_exact() {
        // Two writer threads hammer the multi-level paths the write lock
        // serializes: one inserts its own key space, the other churns a
        // disjoint space with deletes while compactions fire. Each logical
        // operation is atomic at the tiered level, so the final accounting
        // must come out exact.
        let store = Arc::new(two_level_manual());
        let mut gen = KeyGen::new(0x7E08);
        let stable: Vec<u32> = gen.distinct_keys(4_000);
        let churn: Vec<u32> = gen.distinct_keys(4_000);
        let (doomed, kept) = churn.split_at(2_000);
        std::thread::scope(|scope| {
            let inserter = Arc::clone(&store);
            let stable_ref = &stable;
            scope.spawn(move || {
                for chunk in stable_ref.chunks(250) {
                    inserter.insert_batch(chunk);
                    inserter.compact(0);
                }
            });
            let churner = Arc::clone(&store);
            let (churn_ref, doomed_ref) = (&churn, &doomed);
            scope.spawn(move || {
                let mut removed = 0;
                for (round, chunk) in churn_ref.chunks(250).enumerate() {
                    churner.insert_batch(chunk);
                    if round % 2 == 1 {
                        removed += churner.delete_batch(&doomed_ref[removed..removed + 250]);
                    }
                }
                assert_eq!(removed, doomed_ref.len(), "churn thread lost deletes");
            });
        });
        assert_eq!(store.key_count(), stable.len() + kept.len());
        for &key in stable.iter().chain(kept) {
            assert!(store.contains(key), "lost {key} under concurrent writers");
        }
        let stats = store.stats();
        assert_eq!(
            stats.levels[0].live_keys + stats.levels[1].live_keys,
            (stable.len() + kept.len()) as u64
        );
    }

    #[test]
    fn queued_mode_levels_share_the_rebuild_harness() {
        let store = TieredStoreBuilder::new()
            .level_pinned(
                spec(64, 32.0, 0.0),
                bloom_config(),
                16.0,
                BloomDeleteMode::Tombstone,
            )
            .level_pinned(
                spec(64, 1e7, 0.0),
                cuckoo_config(),
                16.0,
                BloomDeleteMode::Tombstone,
            )
            .shards_per_level(1)
            .compaction(Arc::new(ManualCompaction))
            .rebuild_mode(crate::RebuildMode::Queued)
            .build();
        let mut gen = KeyGen::new(0x7E06);
        // Saturate both levels past their 64-key sizing.
        let hot = gen.distinct_keys(200);
        let cold = gen.distinct_keys(200);
        store.insert_batch(&hot);
        store.load_level(1, &cold);
        assert_eq!(store.pending_rebuilds(), 2);
        // Two phases per rebuild: snapshot + swap, level 0's queue first.
        assert_eq!(store.run_pending_rebuilds(2), 2);
        assert_eq!(store.pending_rebuilds(), 1);
        store.maintain();
        assert_eq!(store.pending_rebuilds(), 0);
        for &key in hot.iter().chain(&cold) {
            assert!(store.contains(key));
        }
        assert_eq!(store.key_count(), hot.len() + cold.len());
    }

    #[test]
    fn a_cooling_level_migrates_live_while_its_neighbors_hold_family() {
        use crate::options::ReadviseOptions;

        // Two Bloom levels under re-advising: the hot one churns throughout
        // (so its counting sidecar stays justified), the big one is declared
        // hot-ish but stops mattering to the memtable — when its hint drifts
        // to cold-static, only *it* walks onto the immutable fuse family.
        let store = TieredStoreBuilder::new()
            .level_pinned(
                spec(4_096, 32.0, 0.5),
                bloom_config(),
                14.0,
                BloomDeleteMode::Counting,
            )
            .level_pinned(
                spec(32_768, 32.0, 0.4),
                bloom_config(),
                14.0,
                BloomDeleteMode::Tombstone,
            )
            .shards_per_level(2)
            .compaction(Arc::new(ManualCompaction))
            .readvise(ReadviseOptions::default())
            .build();
        let mut gen = KeyGen::new(0x7E07);
        let mut hot = gen.distinct_keys(2_000);
        let cold = gen.distinct_keys(20_000);
        store.load_level(1, &cold);
        store.insert_batch(&hot);

        let mut sel = SelectionVector::new();
        let churn = |store: &TieredStore, hot: &mut Vec<u32>, gen: &mut KeyGen| {
            let doomed: Vec<u32> = hot.drain(..400).collect();
            assert_eq!(store.delete_batch(&doomed), doomed.len());
            let fresh = gen.distinct_keys(400);
            store.insert_batch(&fresh);
            hot.extend(fresh);
        };
        for _ in 0..4 {
            churn(&store, &mut hot, &mut gen);
            store.run_pending_readvise();
        }
        let stats = store.stats();
        assert_eq!(stats.levels[0].family, FilterKind::Bloom);
        assert_eq!(stats.levels[1].family, FilterKind::Bloom);
        assert_eq!(stats.total_migrations(), 0);

        // The big level cools: misses now cost a simulated disk read and
        // its set is static for the rest of its life.
        store.set_level_workload_hint(
            1,
            LevelSpec {
                expected_keys: 32_768,
                work_saved_cycles: 16_000_000.0,
                sigma: 0.0,
                delete_rate: 0.0,
                expected_probes_per_key: 1_000_000.0,
            },
        );
        let mut reached_fuse = false;
        for round in 0..40 {
            churn(&store, &mut hot, &mut gen);
            sel.clear();
            let members: Vec<u32> = hot.iter().chain(&cold).copied().collect();
            store.contains_batch(&members, &mut sel);
            assert_eq!(sel.len(), members.len(), "false negative at round {round}");
            store.run_pending_readvise();
            if store.stats().levels[1].family == FilterKind::Fuse {
                reached_fuse = true;
                break;
            }
        }
        assert!(reached_fuse, "the cooling level never reached fuse");
        let stats = store.stats();
        assert_eq!(stats.levels[0].family, FilterKind::Bloom);
        assert_eq!(stats.levels[0].delete_mode, BloomDeleteMode::Counting);
        assert_eq!(stats.levels[0].migrations, 0, "hot level must not move");
        assert!(stats.levels[1].migrations >= 2, "one per shard");
        assert!(store.level_store(1).config().immutable());
        for &key in hot.iter().chain(&cold) {
            assert!(store.contains(key), "lost {key} across the migration");
        }
    }
}
