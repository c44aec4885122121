//! The sharded filter store and its frozen read snapshot.

use crate::maintainer::Maintainer;
use crate::options::StoreOptions;
use crate::persist::{PersistOptions, StorePersistence};
use crate::readvise::{Readvisor, WorkloadObserver};
use crate::shard::{
    BloomDeleteMode, MigrateOutcome, MigrationTarget, RebuildTicket, Shard, ShardSnapshot,
};
use crate::stats::{ShardStats, StoreStats};
use pof_core::{AnyFilter, FilterConfig, LevelSpec};
use pof_filter::probe::ProbePlan;
use pof_filter::stats::measured_fpr;
use pof_filter::{DeleteOutcome, Filter, FilterKind, SelectionVector};
use pof_persist::{PersistError, StoreMeta, WalOp};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Compile-time audit that the store (and therefore `AnyFilter`) can be
/// shared across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AnyFilter>();
    assert_send_sync::<ShardedFilterStore>();
    assert_send_sync::<StoreSnapshot>();
};

/// Replay a recovered WAL tail into a freshly restored shard: consecutive
/// same-op runs batch together (the journal granularity is the original
/// batch, so runs are typically whole batches). Inserts of keys the
/// snapshot already holds and deletes of keys it never had are no-ops by
/// set semantics — replay is idempotent over the snapshot/WAL overlap a
/// generation fallback introduces. Shadow deletes were journaled as plain
/// deletes: replaying them physically is membership-equivalent, because the
/// key's reinsertion into the newer level is journaled (and replayed)
/// there. Recovery is its own maintainer: every rebuild a replayed batch
/// requests runs before the next batch replays.
fn replay_wal(shard: &Shard, ops: &[(WalOp, u32)]) {
    fn flush(shard: &Shard, op: Option<WalOp>, batch: &mut Vec<u32>) {
        let ticket = match op {
            Some(WalOp::Insert) => shard.insert_batch(batch),
            Some(WalOp::Delete) => shard.delete_batch(batch).1,
            None => None,
        };
        if let Some(ticket) = ticket {
            shard.run_rebuild(ticket);
        }
        batch.clear();
    }
    let mut batch: Vec<u32> = Vec::new();
    let mut current: Option<WalOp> = None;
    for &(op, key) in ops {
        if current != Some(op) {
            flush(shard, current, &mut batch);
            current = Some(op);
        }
        batch.push(key);
    }
    flush(shard, current, &mut batch);
}

/// A concurrent approximate-membership store: `P` filter shards, batch-first
/// lookups, snapshot-isolated reads, and a policy-driven shard lifecycle.
///
/// Routing: a key's shard is the top `log2(P)` bits of an avalanche mix of
/// the key ([`pof_hash::mix32`]) — deliberately a *different* hash family
/// than the multiplicative hashes the filters consume internally, so shard
/// routing does not correlate with intra-filter placement.
///
/// Readers ([`contains`](Self::contains) /
/// [`contains_batch`](Self::contains_batch)) never block on writers: they
/// probe the shard's last published snapshot. Writers
/// ([`insert_batch`](Self::insert_batch) /
/// [`delete_batch`](Self::delete_batch)) serialize per shard, mutate a
/// private write-side filter and publish a new snapshot per batch. A key is
/// therefore visible to readers once the `insert_batch` call that carried it
/// returns — and published snapshots never lose keys, which the concurrency
/// tests assert.
///
/// *When* a shard rebuilds its filter — doubling on saturation, modeled-FPR
/// drift, or deferred-until-[`maintain`](Self::maintain) — is decided by the
/// store's [`RebuildPolicy`](crate::RebuildPolicy) (see
/// [`StoreBuilder::rebuild_policy`](crate::StoreBuilder::rebuild_policy)).
/// Every rebuild is one job: snapshot the shard's key set, build the
/// replacement off-lock, replay the bounded write delta, swap it in atomically.
/// *Where* the job runs is the store's [`RebuildMode`](crate::RebuildMode): on
/// the calling thread before the write call returns (default), on a background
/// maintainer thread, or from an explicit queue (see
/// [`StoreBuilder::rebuild_mode`](crate::StoreBuilder::rebuild_mode)). Only a
/// decision of immediate urgency, or backpressure from a shard that
/// re-saturates mid-job, builds under the shard's write lock.
///
/// With [`StoreOptions::readvise`] set, the store additionally observes its
/// own traffic and can *migrate* the filter family live: see
/// [`run_pending_readvise`](Self::run_pending_readvise).
#[derive(Debug)]
pub struct ShardedFilterStore {
    /// Shared with the maintainer.
    shards: Arc<Vec<Shard>>,
    /// `log2` of the shard count.
    shard_bits: u32,
    /// The rebuild executor.
    maintainer: Maintainer,
    /// Decayed insert/delete/lookup counters feeding re-advising.
    observer: WorkloadObserver,
    /// The externally supplied half of the observed workload: `t_w`, σ, and
    /// the expectation terms lookups alone cannot reveal.
    workload_hint: Mutex<LevelSpec>,
    /// The online re-advising controller; `None` keeps the family fixed.
    readvisor: Option<Mutex<Readvisor>>,
    /// WAL journaling + checkpoint engine; `None` for a memory-only store.
    persistence: Option<Arc<StorePersistence>>,
}

/// Reusable scratch buffers for the batched read path.
///
/// [`StoreSnapshot::contains_batch_with`] routes a batch to its shards with a
/// counting sort through these buffers; holding one `ProbeScratch` (plus one
/// [`SelectionVector`]) per reader thread makes steady-state batched lookups
/// allocation-free, which the store's allocation-counting test asserts.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    cursors: Vec<usize>,
    starts: Vec<usize>,
    routed_keys: Vec<u32>,
    routed_positions: Vec<u32>,
    qualifies: Vec<bool>,
    shard_sel: SelectionVector,
    /// Scratch lanes for the staged (hash → prefetch → probe) kernels, so
    /// shard slices large enough to go staged stay allocation-free too.
    plan: ProbePlan,
}

impl ProbeScratch {
    /// Create an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl ShardedFilterStore {
    /// Create a store with `shard_count` shards (rounded up to a power of
    /// two), each sized for `capacity_per_shard` keys at `bits_per_key`,
    /// using the default [`SaturationDoubling`](crate::SaturationDoubling) lifecycle policy.
    ///
    /// Most callers should go through [`StoreBuilder`](crate::StoreBuilder).
    #[must_use]
    pub fn new(
        config: FilterConfig,
        shard_count: usize,
        capacity_per_shard: usize,
        bits_per_key: f64,
    ) -> Self {
        Self::from_options(StoreOptions {
            config,
            shard_count,
            capacity_per_shard,
            bits_per_key,
            ..StoreOptions::default()
        })
    }

    /// Create a store from a consolidated [`StoreOptions`] — the primary
    /// constructor. [`StoreOptions::default`] matches [`Self::new`]'s
    /// defaults; override the fields that differ.
    ///
    /// On the lifecycle side,
    /// [`RebuildMode::Background`](crate::RebuildMode::Background) spawns one
    /// maintainer thread owned by the store (joined on drop, after finishing
    /// any queued jobs) and [`RebuildMode::Queued`](crate::RebuildMode::Queued)
    /// queues jobs for [`run_pending_rebuilds`](Self::run_pending_rebuilds);
    /// [`BloomDeleteMode::Counting`] gives Bloom shards in-place deletes
    /// through a per-shard counting sidecar; a `Some` `readvise` enables online
    /// re-advising (see [`run_pending_readvise`](Self::run_pending_readvise)).
    /// Most callers should go through [`StoreBuilder`](crate::StoreBuilder).
    #[must_use]
    pub fn from_options(options: StoreOptions) -> Self {
        let StoreOptions {
            config,
            shard_count,
            capacity_per_shard,
            bits_per_key,
            lifecycle,
            delete_mode,
            readvise,
        } = options;
        let shard_count = shard_count.max(1).next_power_of_two();
        let shards: Arc<Vec<Shard>> = Arc::new(
            (0..shard_count)
                .map(|_| {
                    Shard::new(
                        config,
                        capacity_per_shard,
                        bits_per_key,
                        Arc::clone(&lifecycle.policy),
                        delete_mode,
                    )
                })
                .collect(),
        );
        let maintainer = Maintainer::new(lifecycle.rebuild_mode, Arc::clone(&shards));
        let workload_hint = readvise.as_ref().map(|r| r.workload).unwrap_or_default();
        Self {
            shards,
            shard_bits: shard_count.trailing_zeros(),
            maintainer,
            observer: WorkloadObserver::default(),
            workload_hint: Mutex::new(workload_hint),
            readvisor: readvise.map(|r| Mutex::new(Readvisor::new(&r))),
            persistence: None,
        }
    }

    /// Open (or create) a durably persisted store at `dir` with the default
    /// durability knobs ([`PersistOptions::durable`]): every acknowledged
    /// batch is crash-safe the moment the call returns.
    ///
    /// An empty (or nonexistent) directory creates a fresh store shaped by
    /// `options` and starts journaling. A directory that already holds a
    /// store **recovers** it: each shard maps the newest snapshot whose
    /// header and payload CRCs validate (falling back one generation past a
    /// torn one), replays its WAL tail, and continues journaling where the
    /// crashed process stopped. The shard count is part of the durable
    /// layout (routing depends on it), so on recovery the persisted count
    /// wins over `options.shard_count`; policy, rebuild mode and re-advising
    /// remain runtime choices honored from `options`.
    ///
    /// # Errors
    ///
    /// Filesystem failures, and [`PersistError::Corrupt`] when the directory
    /// holds something that is not a flat store (e.g. a
    /// [`TieredStore`](crate::TieredStore) root) or no uncorrupted state
    /// survives.
    pub fn open(dir: impl AsRef<Path>, options: StoreOptions) -> Result<Self, PersistError> {
        Self::open_with(dir, options, PersistOptions::durable())
    }

    /// [`Self::open`] with explicit [`PersistOptions`] (fsync policy, WAL
    /// rotation threshold, checkpoint-on-maintain, fault injection).
    pub fn open_with(
        dir: impl AsRef<Path>,
        options: StoreOptions,
        persist: PersistOptions,
    ) -> Result<Self, PersistError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        match pof_persist::read_meta(dir)? {
            None => {
                let mut store = Self::from_options(options);
                pof_persist::write_meta(
                    dir,
                    StoreMeta {
                        kind: StoreMeta::KIND_FLAT,
                        count: store.shards.len() as u32,
                    },
                )?;
                let persistence = StorePersistence::create(dir, store.shards.len(), persist)?;
                store.persistence = Some(Arc::new(persistence));
                Ok(store)
            }
            Some(meta) if meta.kind == StoreMeta::KIND_FLAT => {
                Self::recover(dir, meta.count as usize, options, persist)
            }
            Some(_) => Err(PersistError::Corrupt {
                path: dir.join("STORE.meta"),
                detail: "directory holds a tiered store; use TieredStore::open".to_owned(),
            }),
        }
    }

    /// Recovery half of [`Self::open_with`]: rebuild every shard from its
    /// newest valid snapshot plus WAL tail, then reattach the journals.
    fn recover(
        dir: &Path,
        shard_count: usize,
        options: StoreOptions,
        persist: PersistOptions,
    ) -> Result<Self, PersistError> {
        if shard_count == 0 || !shard_count.is_power_of_two() {
            return Err(PersistError::Corrupt {
                path: dir.join("STORE.meta"),
                detail: format!("persisted shard count {shard_count} is not a power of two"),
            });
        }
        let StoreOptions {
            config,
            shard_count: _,
            capacity_per_shard,
            bits_per_key,
            lifecycle,
            delete_mode,
            readvise,
        } = options;
        let files = pof_persist::scan_dir(dir, shard_count)?;
        let mut shards = Vec::with_capacity(shard_count);
        let mut segments = Vec::with_capacity(shard_count);
        for (index, shard_files) in files.iter().enumerate() {
            let recovered = pof_persist::recover_shard(dir, index, shard_files)?;
            let shard = match &recovered.snapshot {
                Some(snapshot) => {
                    let path = dir.join(pof_persist::snapshot_file(
                        index,
                        recovered.snapshot_generation,
                    ));
                    let corrupt = |detail: String| PersistError::Corrupt {
                        path: path.clone(),
                        detail,
                    };
                    let mut cursor = pof_persist::codec::Cursor::new(snapshot.payload());
                    let shard = Shard::decode_state(&mut cursor, Arc::clone(&lifecycle.policy))
                        .map_err(|err| corrupt(err.to_string()))?;
                    cursor.finish().map_err(|err| corrupt(err.to_string()))?;
                    shard
                }
                None => Shard::new(
                    config,
                    capacity_per_shard,
                    bits_per_key,
                    Arc::clone(&lifecycle.policy),
                    delete_mode,
                ),
            };
            replay_wal(&shard, &recovered.replay);
            segments.push((recovered.wal_generation, recovered.wal_valid_len));
            shards.push(shard);
        }
        let shards = Arc::new(shards);
        let maintainer = Maintainer::new(lifecycle.rebuild_mode, Arc::clone(&shards));
        let persistence = StorePersistence::reattach(dir, &segments, persist)?;
        let workload_hint = readvise.as_ref().map(|r| r.workload).unwrap_or_default();
        Ok(Self {
            shards,
            shard_bits: shard_count.trailing_zeros(),
            maintainer,
            observer: WorkloadObserver::default(),
            workload_hint: Mutex::new(workload_hint),
            readvisor: readvise.map(|r| Mutex::new(Readvisor::new(&r))),
            persistence: Some(Arc::new(persistence)),
        })
    }

    /// Checkpoint every shard now: capture its state, rotate its WAL segment
    /// to a fresh generation, and write the snapshot atomically. After this
    /// returns, reopening the directory recovers by mapping the snapshots
    /// instead of replaying the journal. A no-op `Ok(())` on a memory-only
    /// store.
    ///
    /// # Errors
    ///
    /// The first shard's filesystem or injected-fault failure; shards before
    /// it are checkpointed, shards after it keep their previous generation
    /// (both recover correctly — their WAL still covers them).
    pub fn persist_checkpoint(&self) -> Result<(), PersistError> {
        let Some(persistence) = &self.persistence else {
            return Ok(());
        };
        for (index, shard) in self.shards.iter().enumerate() {
            persistence.checkpoint_shard(index, shard)?;
        }
        Ok(())
    }

    /// Rotate this shard's journal if the automatic policy asks for it.
    /// Best-effort: an I/O failure flips the persistence layer dead and the
    /// in-memory store keeps serving.
    fn maybe_rotate(&self, index: usize, shard: &Shard) {
        if let Some(persistence) = &self.persistence {
            if persistence.wants_rotation(index) {
                let _ = persistence.checkpoint_shard(index, shard);
            }
        }
    }

    /// Hand a write call's rebuild ticket, if any, to the maintainer.
    fn enqueue_rebuild(&self, shard: usize, ticket: Option<RebuildTicket>) {
        if let Some(ticket) = ticket {
            self.maintainer.enqueue(shard, ticket);
        }
    }

    /// Number of shards (always a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index of a key.
    #[inline]
    #[must_use]
    pub fn shard_of(&self, key: u32) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (pof_hash::mix32(key) >> (32 - self.shard_bits)) as usize
        }
    }

    /// Insert a batch of keys, fanning out to the owning shards.
    ///
    /// Each shard's keys are applied under that shard's write lock and become
    /// visible to readers atomically (per shard) when its fresh snapshot is
    /// published at the end of the batch; a shard whose slice of the batch was
    /// entirely duplicates skips the publish (nothing observable changed).
    /// Inserts never fail: a shard whose filter cannot accommodate a key
    /// rebuilds or defers per its [`RebuildPolicy`](crate::RebuildPolicy). The
    /// store has *set* semantics — re-inserting a key already present is a
    /// no-op.
    pub fn insert_batch(&self, keys: &[u32]) {
        self.observer.note_inserts(keys.len());
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for &key in keys {
            routed[self.shard_of(key)].push(key);
        }
        for (index, (shard, keys)) in self.shards.iter().zip(&routed).enumerate() {
            let ticket = match &self.persistence {
                Some(persistence) => persistence
                    .journal_apply(index, WalOp::Insert, keys, || shard.insert_batch(keys))
                    .flatten(),
                None => shard.insert_batch(keys),
            };
            self.enqueue_rebuild(index, ticket);
            self.maybe_rotate(index, shard);
        }
    }

    /// Delete a batch of keys, fanning out to the owning shards. Returns how
    /// many keys were actually removed (keys not present are no-ops).
    ///
    /// Cuckoo shards delete in place and republish immediately, and Bloom
    /// shards built with [`BloomDeleteMode::Counting`]
    /// ([`StoreBuilder::bloom_deletes`](crate::StoreBuilder::bloom_deletes)) do
    /// the same through their counting sidecars. Bloom shards in the default
    /// tombstone mode *tombstone* — the key leaves the bookkeeping (and
    /// [`Self::key_count`]) at once, while its filter bits linger as false
    /// positives until the shard's [`RebuildPolicy`](crate::RebuildPolicy) next
    /// rebuilds, e.g. on the next saturation rebuild, an FPR-drift re-fit, or
    /// an explicit [`Self::maintain`] call.
    pub fn delete_batch(&self, keys: &[u32]) -> usize {
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for &key in keys {
            routed[self.shard_of(key)].push(key);
        }
        let mut removed = 0;
        for (index, (shard, keys)) in self.shards.iter().zip(&routed).enumerate() {
            let (shard_removed, ticket) = match &self.persistence {
                Some(persistence) => persistence
                    .journal_apply(index, WalOp::Delete, keys, || shard.delete_batch(keys))
                    .unwrap_or((0, None)),
                None => shard.delete_batch(keys),
            };
            removed += shard_removed;
            self.enqueue_rebuild(index, ticket);
            self.maybe_rotate(index, shard);
        }
        // Only *successful* deletes feed the observer: a tiered store
        // shadow-deletes every freshly inserted key from its older levels,
        // and counting those misses would make a pure-insert workload look
        // delete-heavy to the readvisor.
        self.observer.note_deletes(removed);
        removed
    }

    /// Delete a batch from the bookkeeping only, leaving every published
    /// filter bit-identical — the no-false-negative delete the tiered store
    /// uses when a key moves up a level (see
    /// [`Shard::shadow_delete_batch`]). Journals like a physical delete: on
    /// replay the key is simply gone, which is the same membership outcome.
    pub(crate) fn shadow_delete_batch(&self, keys: &[u32]) -> usize {
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for &key in keys {
            routed[self.shard_of(key)].push(key);
        }
        let mut removed = 0;
        for (index, (shard, keys)) in self.shards.iter().zip(&routed).enumerate() {
            removed += match &self.persistence {
                Some(persistence) => persistence
                    .journal_apply(index, WalOp::Delete, keys, || {
                        shard.shadow_delete_batch(keys)
                    })
                    .unwrap_or(0),
                None => shard.shadow_delete_batch(keys),
            };
        }
        self.observer.note_deletes(removed);
        removed
    }

    /// Run one maintenance round over every shard: fold deferred overflow
    /// buffers, purge tombstones, re-fit capacities — whatever the active
    /// [`RebuildPolicy`](crate::RebuildPolicy) decides is due. Returns the
    /// number of shards that rebuilt.
    ///
    /// This is also the store's **deterministic barrier**: whatever the
    /// policy decided (including nothing at all — e.g. a clean
    /// [`SaturationDoubling`](crate::SaturationDoubling) store),
    /// `maintain()` drains every in-flight and newly requested rebuild
    /// before returning, so callers (and tests) observe a fully swapped-in
    /// store afterwards.
    ///
    /// Readers are unaffected while this runs (they keep probing the last
    /// published snapshots); call it from an ingest pause, a timer, or after
    /// a delete wave.
    pub fn maintain(&self) -> usize {
        let mut rebuilt = 0;
        for (index, shard) in self.shards.iter().enumerate() {
            if let Some(ticket) = shard.maintain() {
                self.maintainer.enqueue(index, ticket);
                rebuilt += 1;
            }
        }
        // Re-advising rides the maintenance round (a no-op unless the store
        // was built with readvise options): migrations requested here are
        // rebuild jobs like any other, so the drain below is their barrier
        // too.
        rebuilt += self.run_pending_readvise();
        self.maintainer.drain();
        // With `checkpoint_on_maintain` set, the maintenance round doubles
        // as the durability barrier: the post-drain state (folds, purges and
        // swaps included) is what lands in the snapshots, so the journals
        // rotate at their emptiest.
        if let Some(persistence) = &self.persistence {
            if persistence.checkpoint_on_maintain() {
                for (index, shard) in self.shards.iter().enumerate() {
                    let _ = persistence.checkpoint_shard(index, shard);
                }
            }
        }
        rebuilt
    }

    /// In [`RebuildMode::Queued`](crate::RebuildMode::Queued) mode, advance up
    /// to `limit` queued rebuild phases on the calling thread. Each rebuild is
    /// **two** phases — the brief key-set snapshot (which opens the shard's
    /// delta-replay window), then the off-lock build, delta replay and atomic
    /// swap — exactly what the maintainer thread does in one go, split so a
    /// deterministic harness can interleave writes in between. Returns how many
    /// phases ran; always `0` in the other modes
    /// ([`RebuildMode::Background`](crate::RebuildMode::Background)'s worker
    /// owns execution, and inline stores never queue).
    pub fn run_pending_rebuilds(&self, limit: usize) -> usize {
        self.maintainer.run_pending(limit)
    }

    /// Number of rebuild jobs enqueued but not yet completed. Always `0` for
    /// [`RebuildMode::Inline`](crate::RebuildMode::Inline) stores, whose jobs
    /// finish before the requesting call returns.
    #[must_use]
    pub fn pending_rebuilds(&self) -> usize {
        self.maintainer.pending()
    }

    /// Update the externally supplied half of the observed workload: the
    /// work saved per filtered probe (`t_w`), the true hit rate σ, and the
    /// expectation terms the store cannot measure from its own counters.
    /// Deployments call this as their miss cost drifts (e.g. the backing
    /// level moved from cache to disk); the next re-advising evaluation sees
    /// the new values.
    pub fn set_workload_hint(&self, hint: LevelSpec) {
        *self.workload_hint.lock().expect("workload hint poisoned") = hint;
    }

    /// The workload as the store currently sees it: live key count and the
    /// decayed observed delete fraction of the write traffic, with the
    /// forward-looking economic terms — `t_w`, σ and the expected lifetime
    /// probe volume per key — taken from the workload hint
    /// ([`Self::set_workload_hint`]). Traffic can reveal *churn*, but not
    /// what a miss costs downstream nor how many probes a filter will serve
    /// over its remaining life (the decayed window structurally
    /// underestimates it, which would bar the store from ever amortizing an
    /// immutable filter's build cost). This is exactly the [`LevelSpec`]
    /// each re-advising evaluation feeds the advisor.
    #[must_use]
    pub fn observed_level_spec(&self) -> LevelSpec {
        let (inserts, deletes, _lookups) = self.observer.totals();
        let hint = *self.workload_hint.lock().expect("workload hint poisoned");
        let writes = (inserts + deletes) as f64;
        LevelSpec {
            expected_keys: (self.key_count() as u64).max(1),
            work_saved_cycles: hint.work_saved_cycles,
            sigma: hint.sigma,
            delete_rate: deletes as f64 / writes.max(1.0),
            expected_probes_per_key: hint.expected_probes_per_key,
        }
    }

    /// Run one online re-advising step, mirroring how
    /// [`run_pending_rebuilds`](Self::run_pending_rebuilds) makes queued
    /// rebuilds deterministic. A no-op (returning `0`) unless the store was
    /// built with [`StoreOptions::readvise`].
    ///
    /// With no migration in flight and enough observed traffic, this
    /// re-runs the advisor against [`Self::observed_level_spec`] (decaying
    /// the counters) and feeds the verdict through the hysteresis gates; a
    /// confirmed family or delete-mode flip becomes the pending migration
    /// target. With a target pending, every shard is driven toward it: a
    /// migration is just a rebuild with a different target `FilterConfig`,
    /// so it goes through the same snapshot → off-lock build → delta replay
    /// → swap job as any other rebuild (inline stores run it on the spot;
    /// background/queued stores enqueue it). Returns the number
    /// of shards that advanced (migrated or had a migration requested); the
    /// target stays pending until every shard reports it is already there,
    /// so shards that were busy get picked up by the next call.
    ///
    /// [`maintain`](Self::maintain) calls this automatically, so stores on a
    /// maintenance cadence re-advise for free.
    pub fn run_pending_readvise(&self) -> usize {
        let Some(readvisor) = &self.readvisor else {
            return 0;
        };
        let mut readvisor = readvisor.lock().expect("readvisor lock poisoned");
        if readvisor.pending_target.is_none() {
            let (inserts, deletes, lookups) = self.observer.totals();
            if inserts + deletes + lookups < readvisor.min_ops() {
                return 0;
            }
            let observed = self.observed_level_spec();
            self.observer.decay();
            let incumbent = self.shards[0].config();
            let counting = self.shards[0].delete_mode() == BloomDeleteMode::Counting;
            readvisor.pending_target = readvisor.evaluate(&observed, &incumbent, counting);
        }
        let Some(target) = readvisor.pending_target else {
            return 0;
        };
        let (advanced, done) = self.drive_migration(target);
        if done {
            readvisor.pending_target = None;
        }
        advanced
    }

    /// Migrate every shard to a new filter family/configuration, bypassing
    /// the advisor and hysteresis — the manual counterpart of
    /// [`run_pending_readvise`](Self::run_pending_readvise) for callers that
    /// know where they are going (tests, operators forcing a layout).
    ///
    /// Inline stores run the migration job on the spot; background/queued
    /// stores enqueue it (drive them with
    /// [`run_pending_rebuilds`](Self::run_pending_rebuilds) or
    /// [`maintain`](Self::maintain)). Shards already at the target, or busy
    /// with an in-flight rebuild, are skipped. Returns the number of shards
    /// that migrated or had a migration requested.
    pub fn migrate_to(
        &self,
        config: FilterConfig,
        bits_per_key: f64,
        delete_mode: BloomDeleteMode,
    ) -> usize {
        let target = MigrationTarget {
            config,
            bits_per_key,
            counting: delete_mode == BloomDeleteMode::Counting,
        };
        self.drive_migration(target).0
    }

    /// Drive every shard toward `target`. Returns `(advanced, done)`:
    /// `advanced` counts shards that migrated or accepted a migration
    /// request this call; `done` is `true` only when every shard reported
    /// it was already at the target (nothing requested, nothing refused as
    /// busy).
    fn drive_migration(&self, target: MigrationTarget) -> (usize, bool) {
        let mut advanced = 0;
        let mut done = true;
        for (index, shard) in self.shards.iter().enumerate() {
            match shard.migrate(target) {
                MigrateOutcome::Unchanged => {}
                MigrateOutcome::Requested(ticket) => {
                    self.maintainer.enqueue(index, ticket);
                    advanced += 1;
                    done = false;
                }
                MigrateOutcome::Busy => done = false,
            }
        }
        (advanced, done)
    }

    /// How the store's Bloom shards currently honor deletes. Unlike the
    /// construction-time option, this tracks live migrations (a counting
    /// level that migrated to fuse reports [`BloomDeleteMode::Tombstone`]).
    #[must_use]
    pub fn delete_mode(&self) -> BloomDeleteMode {
        self.shards[0].delete_mode()
    }

    /// The bits-per-key budget the shards currently build from (tracks live
    /// migrations).
    #[must_use]
    pub fn bits_per_key(&self) -> f64 {
        self.shards[0].bits_per_key()
    }

    /// Point lookup against the current snapshots.
    #[must_use]
    pub fn contains(&self, key: u32) -> bool {
        self.observer.note_lookups(1);
        self.shards[self.shard_of(key)].load().contains(key)
    }

    /// Batched lookup: for every key in `keys` that tests positive, append
    /// its batch position to `sel`, in ascending order (`sel` is not cleared,
    /// matching [`Filter::contains_batch`]).
    ///
    /// The batch is routed per shard, each shard slice is probed through the
    /// shard filter's vectorised batch kernel against one consistent
    /// snapshot, and the per-shard position lists are merged back to batch
    /// order. Steady-state readers that want the allocation-free path should
    /// hold a [`StoreSnapshot`] and a [`ProbeScratch`] and call
    /// [`StoreSnapshot::contains_batch_with`].
    pub fn contains_batch(&self, keys: &[u32], sel: &mut SelectionVector) {
        self.observer.note_lookups(keys.len());
        self.snapshot().contains_batch(keys, sel)
    }

    /// Credit `count` lookups to the workload observer on behalf of a caller
    /// probing this store's snapshots directly (the tiered cascade probes
    /// level snapshots without going through [`Self::contains_batch`]).
    /// Readers holding a long-lived [`StoreSnapshot`] are otherwise
    /// invisible to re-advising.
    pub(crate) fn note_probed(&self, count: usize) {
        self.observer.note_lookups(count);
    }

    /// Freeze the current state of every shard into an immutable
    /// [`StoreSnapshot`].
    ///
    /// The snapshot observes each shard at its latest published state and is
    /// unaffected by later inserts — the right granularity for probing one
    /// logical scan against a stable view.
    #[must_use]
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            shards: self.shards.iter().map(Shard::load).collect(),
            shard_bits: self.shard_bits,
        }
    }

    /// Total number of live (inserted and not deleted) keys across all
    /// shards. Tombstoned keys are *not* counted — a deleted key leaves the
    /// count immediately even while its bits linger in a Bloom shard.
    #[must_use]
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(Shard::key_count).sum()
    }

    /// Copy of the store's authoritative live key set, shard by shard, each
    /// shard's keys ascending.
    ///
    /// This reads the exact write-side bookkeeping, not the filters: deleted
    /// keys are absent even while their bits linger as tombstones, and keys
    /// parked in overflow buffers are included. It is how a
    /// [`TieredStore`](crate::TieredStore) compaction merges one level's
    /// membership into the next, and how [`Self::observed_fpr`] knows the
    /// ground truth.
    #[must_use]
    pub fn live_keys(&self) -> Vec<u32> {
        self.shards.iter().flat_map(|shard| shard.keys()).collect()
    }

    /// Total published size in bits across all shards (filter bits plus any
    /// overflow-buffer keys).
    #[must_use]
    pub fn size_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.load().size_bits()).sum()
    }

    /// Per-shard and aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                // One consistent view per shard: pairing a snapshot with
                // counters read under separate locks could mix a pre-rebuild
                // filter size with a post-rebuild key count.
                let view = shard.consistent_view();
                let keys = view.keys as u64;
                let size_bits = view.snapshot.size_bits();
                ShardStats {
                    shard: index,
                    keys,
                    size_bits,
                    bits_per_key: if keys == 0 {
                        0.0
                    } else {
                        size_bits as f64 / keys as f64
                    },
                    modeled_fpr: view.snapshot.filter.modeled_fpr(),
                    rebuilds: view.rebuilds,
                    rebuilds_background: view.rebuilds_background,
                    migrations: view.migrations,
                    rebuild_wait_ns: view.rebuild_wait_ns,
                    max_writer_stall_ns: view.max_writer_stall_ns,
                    writer_rebuild_stall_ns: view.writer_rebuild_stall_ns,
                    rebuild_pending: view.rebuild_pending,
                    tombstones: view.tombstones as u64,
                    overflow: view.overflow as u64,
                    bookkeeping_bytes: view.bookkeeping_bytes as u64,
                    counting_sidecar_bytes: view.counting_sidecar_bytes as u64,
                    policy: view.policy,
                    config_label: view.snapshot.filter.config_label(),
                    kernel: view.snapshot.filter.kernel_name(),
                    fingerprint_bits: view.snapshot.filter.config().fingerprint_bits(),
                    construction_retries: view.snapshot.filter.construction_retries(),
                }
            })
            .collect();
        StoreStats::aggregate(shards)
    }

    /// Measure the store's empirical false-positive rate: probe `probe_count`
    /// keys guaranteed to be non-members (relative to the full live key set)
    /// through the batch path and report the qualifying fraction.
    ///
    /// Delegates to [`pof_filter::stats::measured_fpr`] over a frozen
    /// [`StoreSnapshot`], so the measurement also exercises the per-shard
    /// SIMD kernels. Note that recently deleted keys on Bloom shards count as
    /// false positives until their tombstones are purged — that is the honest
    /// read-path behavior.
    #[must_use]
    pub fn observed_fpr(&self, probe_count: usize, seed: u64) -> f64 {
        // Freeze the probed view *before* gathering members: the member list
        // is then a superset of every key the snapshot can legitimately
        // report, so keys inserted concurrently between the two steps can
        // never be misclassified as false positives.
        let snapshot = self.snapshot();
        let members = self.live_keys();
        measured_fpr(&snapshot, &members, probe_count, seed).fpr
    }

    /// The filter configuration the shards build from.
    #[must_use]
    pub fn config(&self) -> FilterConfig {
        self.shards[0].config()
    }
}

impl Filter for ShardedFilterStore {
    /// Insert via the unified trait. Never fails (shards rebuild or defer on
    /// saturation), so this always returns `true`.
    ///
    /// **Cost note:** every fresh insert publishes a shard snapshot, which
    /// clones the shard's whole filter — per-key point inserts through this
    /// trait are O(filter size) each. Loops should go through
    /// [`ShardedFilterStore::insert_batch`], which publishes once per batch.
    fn insert(&mut self, key: u32) -> bool {
        self.insert_batch(std::slice::from_ref(&key));
        true
    }

    fn contains(&self, key: u32) -> bool {
        ShardedFilterStore::contains(self, key)
    }

    fn contains_batch(&self, keys: &[u32], sel: &mut SelectionVector) {
        ShardedFilterStore::contains_batch(self, keys, sel);
    }

    /// The store supports deletion for *every* shard family: Cuckoo shards
    /// remove the signature in place, Bloom shards tombstone and leave the
    /// purge to the rebuild policy. See [`ShardedFilterStore::delete_batch`].
    fn try_delete(&mut self, key: u32) -> DeleteOutcome {
        if self.delete_batch(std::slice::from_ref(&key)) == 1 {
            DeleteOutcome::Removed
        } else {
            DeleteOutcome::NotFound
        }
    }

    fn supports_delete(&self) -> bool {
        true
    }

    fn size_bits(&self) -> u64 {
        ShardedFilterStore::size_bits(self)
    }

    fn kind(&self) -> FilterKind {
        self.config().kind()
    }

    fn config_label(&self) -> String {
        format!(
            "sharded(P={},{})",
            self.shard_count(),
            self.config().label()
        )
    }
}

/// An immutable, consistent view of every shard at one point in time.
///
/// Snapshots are cheap (`P` atomic reference bumps), can outlive the store,
/// and implement [`Filter`]'s read side, so anything that probes a filter —
/// the LSM substrate, the measurement harness, a join pipeline — can probe a
/// whole sharded store through the same interface. Each per-shard view
/// includes the shard's overflow side buffer (keys a deferring policy has
/// parked outside the filter), so deferred keys stay visible. The write side
/// is inert: [`Filter::insert`] on a snapshot reports failure rather than
/// mutating, and [`Filter::try_delete`] reports `Unsupported`.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    shards: Vec<Arc<ShardSnapshot>>,
    shard_bits: u32,
}

impl StoreSnapshot {
    /// Shard index of a key (same routing as the owning store).
    #[inline]
    #[must_use]
    pub fn shard_of(&self, key: u32) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (pof_hash::mix32(key) >> (32 - self.shard_bits)) as usize
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The filter snapshot backing one shard.
    ///
    /// Note: a shard under a deferring policy may also hold keys in its
    /// overflow side buffer, which this accessor does not expose — probe
    /// through [`Filter::contains`] / [`Filter::contains_batch`] for the
    /// complete membership answer.
    #[must_use]
    pub fn shard_filter(&self, shard: usize) -> &AnyFilter {
        &self.shards[shard].filter
    }

    /// Number of keys parked in one shard's overflow side buffer.
    #[must_use]
    pub fn shard_overflow_len(&self, shard: usize) -> usize {
        self.shards[shard].overflow.len()
    }

    /// Batched lookup through caller-owned scratch buffers: identical
    /// results to [`Filter::contains_batch`], but the routing buffers (and
    /// the caller's `sel`) are reused across calls, so steady-state batched
    /// lookups perform **zero heap allocations** once the buffers are warm.
    // pof-analyze: no-alloc
    pub fn contains_batch_with(
        &self,
        keys: &[u32],
        sel: &mut SelectionVector,
        scratch: &mut ProbeScratch,
    ) {
        let shard_count = self.shards.len();
        if shard_count == 1 && self.shards[0].overflow.is_empty() {
            // Single shard, no side buffer: no routing, probe the batch
            // kernel directly (staged when the batch and filter warrant it).
            self.shards[0]
                .filter
                .contains_batch_planned(keys, sel, &mut scratch.plan);
            return;
        }
        // Route the batch with a counting sort into flat reusable buffers:
        // no per-shard vectors, no allocations once the scratch is warm.
        scratch.cursors.clear();
        scratch.cursors.resize(shard_count + 1, 0);
        for &key in keys {
            scratch.cursors[self.shard_of(key) + 1] += 1;
        }
        for shard in 0..shard_count {
            scratch.cursors[shard + 1] += scratch.cursors[shard];
        }
        scratch.starts.clear();
        scratch.starts.extend_from_slice(&scratch.cursors);
        // The scatter below writes every slot in `[0, keys.len())` exactly
        // once (the cursors partition the range), so the routed buffers only
        // ever need to *grow* — no clear-and-rezero pass.
        if scratch.routed_keys.len() < keys.len() {
            scratch.routed_keys.resize(keys.len(), 0);
            scratch.routed_positions.resize(keys.len(), 0);
        }
        for (i, &key) in keys.iter().enumerate() {
            let slot = &mut scratch.cursors[self.shard_of(key)];
            scratch.routed_keys[*slot] = key;
            scratch.routed_positions[*slot] = i as u32;
            *slot += 1;
        }
        // Probe each shard's contiguous slice through its batch kernel
        // (staged when the slice and filter warrant it), marking the
        // qualifying batch positions. Before scanning a shard, stream the
        // next populated shard's filter toward the cache so its leading
        // lines are warm by the time its slice is probed.
        scratch.qualifies.clear();
        scratch.qualifies.resize(keys.len(), false);
        for (shard, snapshot) in self.shards.iter().enumerate() {
            let (start, end) = (scratch.starts[shard], scratch.starts[shard + 1]);
            if start == end {
                continue;
            }
            if let Some(next) =
                (shard + 1..shard_count).find(|&s| scratch.starts[s] < scratch.starts[s + 1])
            {
                self.shards[next].filter.prefetch_storage();
            }
            scratch.shard_sel.clear();
            snapshot.filter.contains_batch_planned(
                &scratch.routed_keys[start..end],
                &mut scratch.shard_sel,
                &mut scratch.plan,
            );
            for &local in scratch.shard_sel.as_slice() {
                scratch.qualifies[scratch.routed_positions[start + local as usize] as usize] = true;
            }
        }
        // Second pass for overflow side buffers (keys a deferring policy has
        // parked outside the filter): positions the filters already marked
        // qualifying skip the exact binary search.
        if self.shards.iter().any(|s| !s.overflow.is_empty()) {
            for (shard, snapshot) in self.shards.iter().enumerate() {
                if snapshot.overflow.is_empty() {
                    continue;
                }
                for i in scratch.starts[shard]..scratch.starts[shard + 1] {
                    let position = scratch.routed_positions[i] as usize;
                    if !scratch.qualifies[position]
                        && snapshot
                            .overflow
                            .binary_search(&scratch.routed_keys[i])
                            .is_ok()
                    {
                        scratch.qualifies[position] = true;
                    }
                }
            }
        }
        // Emit in ascending batch order, per the SelectionVector contract.
        sel.reserve(keys.len());
        for (i, &hit) in scratch.qualifies.iter().enumerate() {
            sel.push_if(i as u32, hit);
        }
    }

    /// Prefetch the leading cache lines of every shard's filter storage. The
    /// tiered store calls this on the *next* level's snapshot while the
    /// current level is still being scanned, so the miss cascade lands on
    /// warm lines.
    #[inline]
    pub(crate) fn prefetch_storage(&self) {
        for shard in &self.shards {
            shard.filter.prefetch_storage();
        }
    }
}

impl Filter for StoreSnapshot {
    /// Snapshots are read-only; inserting reports failure (the documented
    /// "could not accommodate the key" outcome) and changes nothing.
    fn insert(&mut self, _key: u32) -> bool {
        false
    }

    fn contains(&self, key: u32) -> bool {
        self.shards[self.shard_of(key)].contains(key)
    }

    fn contains_batch(&self, keys: &[u32], sel: &mut SelectionVector) {
        self.contains_batch_with(keys, sel, &mut ProbeScratch::new());
    }

    fn size_bits(&self) -> u64 {
        self.shards.iter().map(|s| s.size_bits()).sum()
    }

    fn kind(&self) -> FilterKind {
        self.shards[0].filter.kind()
    }

    fn config_label(&self) -> String {
        format!(
            "sharded-snapshot(P={},{})",
            self.shards.len(),
            self.shards[0].filter.config_label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{LifecycleOptions, ReadviseOptions, StoreOptions};
    use crate::policy::{DeferredBatch, FprDrift, SaturationDoubling};
    use crate::RebuildMode;
    use pof_bloom::{Addressing, BloomConfig};
    use pof_cuckoo::{CuckooAddressing, CuckooConfig};
    use pof_filter::KeyGen;

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

    fn fuse_config() -> FilterConfig {
        FilterConfig::Fuse(pof_core::FuseConfig::fuse8())
    }

    #[test]
    fn no_false_negatives_across_shard_counts_and_families() {
        let mut gen = KeyGen::new(301);
        let keys = gen.distinct_keys(30_000);
        for config in [bloom_config(), cuckoo_config(), fuse_config()] {
            for shard_count in [1usize, 2, 8, 32] {
                let store =
                    ShardedFilterStore::new(config, shard_count, keys.len() / shard_count, 20.0);
                store.insert_batch(&keys);
                assert_eq!(store.key_count(), keys.len());
                for &key in &keys {
                    assert!(
                        store.contains(key),
                        "false negative in {} with {shard_count} shards",
                        config.label()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_agrees_with_point_lookups() {
        let mut gen = KeyGen::new(302);
        let keys = gen.distinct_keys(20_000);
        let probes = gen.keys(50_000);
        let store = ShardedFilterStore::new(bloom_config(), 8, 4_000, 14.0);
        store.insert_batch(&keys);
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
    fn batch_positions_are_ordered_and_in_range() {
        let mut gen = KeyGen::new(303);
        let keys = gen.distinct_keys(5_000);
        let probes = gen.keys(20_000);
        let store = ShardedFilterStore::new(cuckoo_config(), 4, 2_000, 20.0);
        store.insert_batch(&keys);
        let mut sel = SelectionVector::new();
        store.contains_batch(&probes, &mut sel);
        let positions = sel.as_slice();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
        assert!(positions.iter().all(|&p| (p as usize) < probes.len()));
    }

    #[test]
    fn saturated_shards_rebuild_without_losing_keys() {
        // Size the store for far fewer keys than are inserted: every shard
        // must grow (Cuckoo shards may additionally rebuild on relocation
        // failure), and no key may be lost across those rebuilds.
        let mut gen = KeyGen::new(304);
        let keys = gen.distinct_keys(40_000);
        for config in [bloom_config(), cuckoo_config()] {
            let store = ShardedFilterStore::new(config, 4, 256, 16.0);
            for chunk in keys.chunks(1_000) {
                store.insert_batch(chunk);
            }
            let stats = store.stats();
            assert!(
                stats.total_rebuilds() >= 4,
                "{}: expected every shard to rebuild, stats: {stats:?}",
                config.label()
            );
            // Inline stores run each rebuild on the writing thread: the
            // write calls paid for it, and no maintainer swapped anything.
            assert!(stats.writer_rebuild_stall_ns() > 0, "{stats:?}");
            assert_eq!(stats.total_background_rebuilds(), 0);
            for &key in &keys {
                assert!(store.contains(key), "lost key in {}", config.label());
            }
        }
    }

    #[test]
    fn snapshots_are_stable_under_later_inserts() {
        let mut gen = KeyGen::new(305);
        let before = gen.distinct_keys(5_000);
        let after = gen.distinct_keys(5_000);
        let store = ShardedFilterStore::new(bloom_config(), 4, 4_000, 16.0);
        store.insert_batch(&before);
        let snapshot = store.snapshot();
        let bits_before = snapshot.size_bits();
        store.insert_batch(&after);
        // The frozen snapshot still answers for the first key set and did not
        // observe the second batch's growth.
        for &key in &before {
            assert!(snapshot.contains(key));
        }
        assert_eq!(snapshot.size_bits(), bits_before);
        // The live store sees both.
        for &key in before.iter().chain(&after) {
            assert!(store.contains(key));
        }
    }

    #[test]
    fn observed_fpr_tracks_the_model() {
        let mut gen = KeyGen::new(306);
        let keys = gen.distinct_keys(40_000);
        let store = ShardedFilterStore::new(bloom_config(), 8, 5_000, 12.0);
        store.insert_batch(&keys);
        let observed = store.observed_fpr(200_000, 17);
        let modeled = store.stats().weighted_modeled_fpr();
        assert!(
            pof_filter::stats::fpr_matches_model(observed, modeled, 0.5, 5e-4),
            "observed {observed}, modeled {modeled}"
        );
    }

    #[test]
    fn stats_expose_shard_occupancy() {
        let mut gen = KeyGen::new(307);
        let keys = gen.distinct_keys(16_000);
        let store = ShardedFilterStore::new(bloom_config(), 4, 8_000, 12.0);
        store.insert_batch(&keys);
        let stats = store.stats();
        assert_eq!(stats.shards.len(), 4);
        assert_eq!(stats.total_keys(), keys.len() as u64);
        // The splitter hash should spread keys within ~3x of each other.
        let max = stats.shards.iter().map(|s| s.keys).max().unwrap();
        let min = stats.shards.iter().map(|s| s.keys).min().unwrap();
        assert!(
            max < 3 * min.max(1),
            "unbalanced shards: min {min}, max {max}"
        );
        for shard in &stats.shards {
            assert!(shard.size_bits > 0);
            assert!(shard.modeled_fpr > 0.0 && shard.modeled_fpr < 1.0);
            assert!(!shard.config_label.is_empty());
            assert_eq!(shard.policy, "saturation-doubling");
            assert_eq!(shard.tombstones, 0);
            assert_eq!(shard.overflow, 0);
        }
    }

    #[test]
    fn store_implements_the_filter_trait() {
        let mut store = ShardedFilterStore::new(bloom_config(), 2, 1_000, 12.0);
        assert!(Filter::insert(&mut store, 42));
        assert!(Filter::contains(&store, 42));
        assert_eq!(Filter::kind(&store), FilterKind::Bloom);
        assert!(Filter::config_label(&store).starts_with("sharded(P=2,"));
        assert!(Filter::size_bits(&store) > 0);
        // The store deletes through the unified trait (tombstoning here —
        // Bloom shards), a snapshot refuses both writes and deletes.
        assert!(Filter::supports_delete(&store));
        assert_eq!(Filter::try_delete(&mut store, 42), DeleteOutcome::Removed);
        assert_eq!(Filter::try_delete(&mut store, 42), DeleteOutcome::NotFound);
        assert_eq!(store.key_count(), 0);
        let mut snapshot = store.snapshot();
        assert!(!Filter::insert(&mut snapshot, 7));
        assert!(!Filter::supports_delete(&snapshot));
        assert_eq!(
            Filter::try_delete(&mut snapshot, 7),
            DeleteOutcome::Unsupported
        );
    }

    #[test]
    fn duplicate_inserts_are_set_semantics_and_terminate() {
        // A Cuckoo filter is a bag bounded at 2·b copies per fingerprint, so
        // replaying unbounded duplicates could never fit at any capacity;
        // the store must treat re-inserts as no-ops instead of rebuilding
        // forever.
        for config in [bloom_config(), cuckoo_config(), fuse_config()] {
            let store = ShardedFilterStore::new(config, 2, 64, 20.0);
            store.insert_batch(&vec![7u32; 100]);
            store.insert_batch(&[7, 8, 7, 9, 7]);
            assert!(store.contains(7) && store.contains(8) && store.contains(9));
            assert_eq!(store.key_count(), 3, "{}", config.label());
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let store = ShardedFilterStore::new(bloom_config(), 5, 100, 12.0);
        assert_eq!(store.shard_count(), 8);
        let store = ShardedFilterStore::new(bloom_config(), 0, 100, 12.0);
        assert_eq!(store.shard_count(), 1);
    }

    #[test]
    fn all_duplicate_batches_skip_the_snapshot_publish() {
        let mut gen = KeyGen::new(308);
        let keys = gen.distinct_keys(2_000);
        let store = ShardedFilterStore::new(bloom_config(), 2, 2_000, 12.0);
        store.insert_batch(&keys);
        let before = store.snapshot();
        // Re-inserting only known keys must not publish fresh snapshots:
        // the shard snapshots are the very same allocations afterwards.
        store.insert_batch(&keys);
        let after = store.snapshot();
        for shard in 0..store.shard_count() {
            assert!(
                Arc::ptr_eq(&before.shards[shard], &after.shards[shard]),
                "all-duplicate batch republished shard {shard}"
            );
        }
        // A batch with one fresh key publishes again.
        let fresh_key = gen.distinct_keys(1)[0];
        let mut batch = keys[..10].to_vec();
        batch.push(fresh_key);
        store.insert_batch(&batch);
        let touched = store.shard_of(fresh_key);
        let republished = store.snapshot();
        assert!(!Arc::ptr_eq(
            &after.shards[touched],
            &republished.shards[touched]
        ));
        // Deleting keys that are not present is equally unobservable.
        let absent = gen.distinct_keys(50);
        let absent: Vec<u32> = absent.into_iter().filter(|k| !store.contains(*k)).collect();
        assert_eq!(store.delete_batch(&absent), 0);
        let after_noop_delete = store.snapshot();
        for shard in 0..store.shard_count() {
            assert!(Arc::ptr_eq(
                &republished.shards[shard],
                &after_noop_delete.shards[shard]
            ));
        }
    }

    #[test]
    fn cuckoo_deletes_are_immediately_observable() {
        let mut gen = KeyGen::new(309);
        let keys = gen.distinct_keys(8_000);
        let store = ShardedFilterStore::new(cuckoo_config(), 4, 4_000, 20.0);
        store.insert_batch(&keys);
        let (gone, kept) = keys.split_at(3_000);
        assert_eq!(store.delete_batch(gone), gone.len());
        assert_eq!(store.key_count(), kept.len());
        for &key in kept {
            assert!(store.contains(key), "delete took an unrelated key");
        }
        // Deleted keys leave the filter physically (modulo signature
        // collisions with surviving keys, which are false positives by
        // construction): with 16-bit signatures virtually none survive.
        let still_positive = gone.iter().filter(|&&k| store.contains(k)).count();
        assert!(
            still_positive < gone.len() / 100,
            "{still_positive} of {} deleted keys still positive",
            gone.len()
        );
        // Delete-then-reinsert round-trips.
        store.insert_batch(gone);
        assert_eq!(store.key_count(), keys.len());
        for &key in &keys {
            assert!(store.contains(key));
        }
    }

    #[test]
    fn bloom_deletes_tombstone_until_maintenance() {
        let mut gen = KeyGen::new(310);
        let keys = gen.distinct_keys(8_000);
        let store = ShardedFilterStore::new(bloom_config(), 4, 4_000, 14.0);
        store.insert_batch(&keys);
        let (gone, kept) = keys.split_at(3_000);
        assert_eq!(store.delete_batch(gone), gone.len());
        // Bookkeeping is tombstone-aware immediately...
        assert_eq!(store.key_count(), kept.len());
        assert_eq!(store.stats().total_tombstones(), gone.len() as u64);
        // ...while the filter bits linger (deleted keys still probe positive).
        assert!(store.contains(gone[0]));
        // The default policy purges tombstones on an explicit maintain().
        assert!(store.maintain() > 0);
        assert_eq!(store.stats().total_tombstones(), 0);
        for &key in kept {
            assert!(store.contains(key), "maintenance lost a live key");
        }
        // After the purge the deleted keys are gone modulo the filter's FPR.
        let still_positive = gone.iter().filter(|&&k| store.contains(k)).count();
        assert!(
            (still_positive as f64) < gone.len() as f64 * 0.05,
            "{still_positive} of {} purged keys still positive",
            gone.len()
        );
    }

    #[test]
    fn counting_bloom_deletes_in_place_with_zero_tombstones_and_no_purges() {
        let mut gen = KeyGen::new(314);
        let keys = gen.distinct_keys(8_000);
        let store = crate::builder::StoreBuilder::new()
            .shards(4)
            .expected_keys(16_000)
            .bits_per_key(14.0)
            .config(bloom_config())
            .bloom_deletes(BloomDeleteMode::Counting)
            .build();
        store.insert_batch(&keys);
        let (gone, kept) = keys.split_at(3_000);
        assert_eq!(store.delete_batch(gone), gone.len());
        assert_eq!(store.key_count(), kept.len());
        // In place: no tombstones, and the deleted keys are negative
        // *immediately* (modulo the filter's FPR), no maintain() needed.
        let stats = store.stats();
        assert_eq!(stats.total_tombstones(), 0);
        assert!(stats.total_counting_sidecar_bytes() > 0);
        let still = gone.iter().filter(|&&k| store.contains(k)).count();
        assert!(
            (still as f64) < gone.len() as f64 * 0.05,
            "{still} of {} deleted keys still positive without a rebuild",
            gone.len()
        );
        for &key in kept {
            assert!(store.contains(key), "counting delete took a live key");
        }
        // With nothing tombstoned there is no purge work: maintain() finds
        // every shard clean (the delete-heavy regime stops rebuilding).
        assert_eq!(store.maintain(), 0);
        assert_eq!(store.stats().total_rebuilds(), 0);
        // Delete-then-reinsert round-trips through the counters.
        store.insert_batch(gone);
        assert_eq!(store.key_count(), keys.len());
        for &key in &keys {
            assert!(store.contains(key));
        }
        // Snapshots stay lean: the sidecar is write-side only, so published
        // shard filters report no counting memory... which the store-level
        // accounting already proved (> 0 comes from the write side; the
        // snapshot's size_bits is pure filter bits and unchanged by mode).
        let tombstone_twin = ShardedFilterStore::new(bloom_config(), 4, 4_000, 14.0);
        tombstone_twin.insert_batch(&keys);
        assert_eq!(store.size_bits(), tombstone_twin.size_bits());
    }

    #[test]
    fn deferred_policy_parks_overflow_and_folds_on_maintain() {
        let mut gen = KeyGen::new(311);
        let keys = gen.distinct_keys(4_000);
        let store = ShardedFilterStore::from_options(StoreOptions {
            config: bloom_config(),
            shard_count: 2,
            capacity_per_shard: 512,
            bits_per_key: 14.0,
            lifecycle: LifecycleOptions {
                policy: Arc::new(DeferredBatch::new(4_096)),
                ..LifecycleOptions::default()
            },
            ..StoreOptions::default()
        });
        store.insert_batch(&keys);
        // Shards saturated far past their 512-key capacity: the excess is
        // parked, not rebuilt — and every key still answers positive.
        let stats = store.stats();
        assert_eq!(stats.total_rebuilds(), 0, "deferred policy rebuilt inline");
        assert!(stats.total_overflow() > 0);
        for &key in &keys {
            assert!(store.contains(key), "parked key went missing");
        }
        // Snapshots expose the parked keys; batch and point lookups agree.
        let snapshot = store.snapshot();
        let mut sel = SelectionVector::new();
        snapshot.contains_batch(&keys, &mut sel);
        assert_eq!(sel.len(), keys.len());
        // Maintenance folds everything into right-sized filters.
        assert!(store.maintain() > 0);
        let stats = store.stats();
        assert_eq!(stats.total_overflow(), 0);
        assert!(stats.total_rebuilds() > 0);
        for &key in &keys {
            assert!(store.contains(key), "fold lost a key");
        }
    }

    #[test]
    fn fpr_drift_policy_shrinks_after_heavy_deletes() {
        let mut gen = KeyGen::new(312);
        let keys = gen.distinct_keys(16_000);
        let store = ShardedFilterStore::from_options(StoreOptions {
            config: bloom_config(),
            shard_count: 2,
            capacity_per_shard: 1_024,
            bits_per_key: 14.0,
            lifecycle: LifecycleOptions {
                policy: Arc::new(FprDrift::new(2.0)),
                ..LifecycleOptions::default()
            },
            ..StoreOptions::default()
        });
        store.insert_batch(&keys);
        let grown_bits = store.size_bits();
        // Delete 97% of the keys: the drift policy re-fits shards downward.
        let (gone, kept) = keys.split_at(keys.len() - keys.len() / 32);
        assert_eq!(store.delete_batch(gone), gone.len());
        store.maintain();
        assert!(
            store.size_bits() < grown_bits / 4,
            "expected a shrink: {} -> {}",
            grown_bits,
            store.size_bits()
        );
        assert_eq!(store.key_count(), kept.len());
        for &key in kept {
            assert!(store.contains(key), "shrink lost a live key");
        }
    }

    #[test]
    fn background_rebuilds_lose_no_keys_and_record_stats() {
        // The background twin of `saturated_shards_rebuild_without_losing_
        // keys`: undersized shards, heavy growth, rebuilds swapped in by the
        // maintainer thread — and still not a single key missing.
        let mut gen = KeyGen::new(401);
        let keys = gen.distinct_keys(40_000);
        for config in [bloom_config(), cuckoo_config()] {
            let store = ShardedFilterStore::from_options(StoreOptions {
                config,
                shard_count: 4,
                capacity_per_shard: 256,
                bits_per_key: 16.0,
                lifecycle: LifecycleOptions {
                    policy: Arc::new(SaturationDoubling),
                    rebuild_mode: RebuildMode::Background,
                },
                ..StoreOptions::default()
            });
            for chunk in keys.chunks(1_000) {
                store.insert_batch(chunk);
            }
            // Deterministic barrier: every in-flight swap lands before the
            // assertions run.
            store.maintain();
            assert_eq!(store.pending_rebuilds(), 0);
            assert_eq!(store.key_count(), keys.len(), "{}", config.label());
            for &key in &keys {
                assert!(store.contains(key), "lost key in {}", config.label());
            }
            let stats = store.stats();
            assert!(
                stats.total_background_rebuilds() > 0,
                "{}: no rebuild ran off-lock, stats: {stats:?}",
                config.label()
            );
            assert!(stats.total_rebuild_wait_ns() > 0);
            assert!(stats.max_writer_stall_ns() > 0);
        }
    }

    #[test]
    fn queued_rebuild_replays_the_delta_window() {
        // Deterministic walk through the snapshot-swap handoff: open the
        // delta window with the snapshot phase, mutate the shard inside it,
        // then swap and verify the replay reconciled everything.
        for config in [bloom_config(), cuckoo_config()] {
            let store = ShardedFilterStore::from_options(StoreOptions {
                config,
                shard_count: 1,
                capacity_per_shard: 64,
                bits_per_key: 16.0,
                lifecycle: LifecycleOptions {
                    policy: Arc::new(SaturationDoubling),
                    rebuild_mode: RebuildMode::Queued,
                },
                ..StoreOptions::default()
            });
            let mut gen = KeyGen::new(402);
            let keys = gen.distinct_keys(100);
            store.insert_batch(&keys); // 100 > 64: a rebuild is requested
            assert_eq!(store.pending_rebuilds(), 1, "{}", config.label());
            // Phase one: key-set snapshot; the writer now delta-logs.
            assert_eq!(store.run_pending_rebuilds(1), 1);
            // Mutations inside the delta-replay window.
            let late = gen.distinct_keys(50);
            store.insert_batch(&late);
            let doomed = &keys[..30];
            assert_eq!(store.delete_batch(doomed), doomed.len());
            // Phase two: off-lock build, delta replay, atomic swap.
            assert_eq!(store.run_pending_rebuilds(usize::MAX), 1);
            assert_eq!(store.pending_rebuilds(), 0);
            assert_eq!(store.stats().total_background_rebuilds(), 1);
            let live: Vec<u32> = keys[30..].iter().chain(&late).copied().collect();
            assert_eq!(store.key_count(), live.len(), "{}", config.label());
            for &key in &live {
                assert!(
                    store.contains(key),
                    "replay lost {key} in {}",
                    config.label()
                );
            }
            if config.kind() == FilterKind::Cuckoo {
                // Deletes replayed into the replacement removed signatures
                // physically: the doomed keys answer negative (16-bit
                // signatures make residual collisions vanishingly rare).
                let still = doomed.iter().filter(|&&k| store.contains(k)).count();
                assert!(still <= 1, "{still} deleted keys survived the replay");
            }
        }
    }

    #[test]
    fn maintain_is_a_drain_barrier_even_when_no_policy_work_is_due() {
        // A clean SaturationDoubling store has nothing for the policy to do
        // on maintain() — but maintain() must still drain queued background
        // work (the deterministic barrier the tests and callers rely on).
        let store = ShardedFilterStore::from_options(StoreOptions {
            config: bloom_config(),
            shard_count: 1,
            capacity_per_shard: 64,
            bits_per_key: 16.0,
            lifecycle: LifecycleOptions {
                policy: Arc::new(SaturationDoubling),
                rebuild_mode: RebuildMode::Queued,
            },
            ..StoreOptions::default()
        });
        let mut gen = KeyGen::new(403);
        store.insert_batch(&gen.distinct_keys(100));
        assert_eq!(store.pending_rebuilds(), 1);
        store.maintain();
        assert_eq!(store.pending_rebuilds(), 0);
        assert_eq!(store.stats().total_background_rebuilds(), 1);
    }

    #[test]
    fn stale_rebuild_tickets_are_discarded_after_inline_fallback() {
        // Force the backpressure path: request a rebuild, then stuff the
        // shard far past the delta bound *inside* the replay window so the
        // writer falls back inline. The queued job's swap must then be
        // refused — the fallback's filter stays, nothing is lost.
        let store = ShardedFilterStore::from_options(StoreOptions {
            config: bloom_config(),
            shard_count: 1,
            capacity_per_shard: 64,
            bits_per_key: 16.0,
            lifecycle: LifecycleOptions {
                policy: Arc::new(SaturationDoubling),
                rebuild_mode: RebuildMode::Queued,
            },
            ..StoreOptions::default()
        });
        let mut gen = KeyGen::new(404);
        let first = gen.distinct_keys(100);
        store.insert_batch(&first);
        assert_eq!(store.pending_rebuilds(), 1);
        assert_eq!(store.run_pending_rebuilds(1), 1); // snapshot: delta opens
                                                      // The delta bound is max(capacity, 4096): exceed it (forcing the
                                                      // inline fallback) without outgrowing the fallback's refit capacity,
                                                      // which would legitimately request a second rebuild.
        let flood = gen.distinct_keys(6_000);
        store.insert_batch(&flood);
        let stats = store.stats();
        assert!(
            stats.total_rebuilds() > 0 && stats.total_background_rebuilds() == 0,
            "flood should have rebuilt inline: {stats:?}"
        );
        assert!(!stats.shards[0].rebuild_pending);
        // The staged swap is now stale; draining discards it.
        store.run_pending_rebuilds(usize::MAX);
        assert_eq!(store.stats().total_background_rebuilds(), 0);
        assert_eq!(store.key_count(), first.len() + flood.len());
        for &key in first.iter().chain(&flood) {
            assert!(store.contains(key), "fallback lost {key}");
        }
    }

    #[test]
    fn runaway_overflow_forces_inline_fallback_while_pending() {
        // DeferredBatch promises its overflow buffer never balloons past 4x
        // the cap. That hard bound must hold even while a background fold is
        // in flight (policy decisions are otherwise suppressed): a Cuckoo
        // shard whose saturated filter refuses keys mid-window grows the
        // buffer, and at 4x the urgency hook forces an inline fallback.
        let store = ShardedFilterStore::from_options(StoreOptions {
            config: cuckoo_config(),
            shard_count: 1,
            capacity_per_shard: 64,
            bits_per_key: 20.0,
            lifecycle: LifecycleOptions {
                policy: Arc::new(DeferredBatch::new(4)),
                rebuild_mode: RebuildMode::Queued,
            },
            ..StoreOptions::default()
        });
        let mut gen = KeyGen::new(405);
        let keys = gen.distinct_keys(400);
        store.insert_batch(&keys);
        assert!(
            store.stats().total_overflow() <= 16,
            "overflow hard bound violated during the in-flight window: {:?}",
            store.stats()
        );
        assert!(
            store.stats().total_rebuilds() >= 1,
            "the runaway buffer should have forced an inline fallback"
        );
        store.maintain();
        assert_eq!(store.key_count(), keys.len());
        for &key in &keys {
            assert!(store.contains(key), "fallback lost {key}");
        }
    }

    #[test]
    fn writer_bookkeeping_is_compact() {
        // The compact key set holds each live key once: exactly the raw key
        // bytes.
        let mut gen = KeyGen::new(313);
        let keys = gen.distinct_keys(64_000);
        let store = ShardedFilterStore::new(bloom_config(), 4, 8_000, 12.0);
        store.insert_batch(&keys);
        let stats = store.stats();
        assert_eq!(stats.total_bookkeeping_bytes(), 4 * keys.len() as u64);
    }

    fn hot_churny_spec() -> LevelSpec {
        LevelSpec {
            expected_keys: 1 << 12,
            work_saved_cycles: 32.0,
            sigma: 0.5,
            delete_rate: 0.4,
            expected_probes_per_key: 4.0,
        }
    }

    fn cold_static_spec() -> LevelSpec {
        LevelSpec {
            expected_keys: 1 << 12,
            work_saved_cycles: 16_000_000.0,
            sigma: 0.0,
            delete_rate: 0.0,
            expected_probes_per_key: 1_000_000.0,
        }
    }

    #[test]
    fn readvising_migrates_a_cooling_store_without_false_negatives() {
        // The tentpole end to end: a counting-Bloom store under churn stays
        // Bloom; when the workload turns cold and static (hint drifts, churn
        // stops, counters decay), re-advising walks it to the immutable fuse
        // family — live, with every surviving key answering positive at
        // every step.
        let store = ShardedFilterStore::from_options(StoreOptions {
            config: bloom_config(),
            shard_count: 2,
            capacity_per_shard: 16_384,
            bits_per_key: 14.0,
            delete_mode: BloomDeleteMode::Counting,
            readvise: Some(ReadviseOptions {
                workload: hot_churny_spec(),
                ..ReadviseOptions::default()
            }),
            ..StoreOptions::default()
        });
        let mut gen = KeyGen::new(501);
        // Fuse only pays off at scale: the advisor's build-cost term keeps
        // small sets on mutable families, so the cooling story needs a
        // population comfortably past the crossover (~16k live keys).
        let keys = gen.distinct_keys(24_000);
        store.insert_batch(&keys);
        let (gone, live) = keys.split_at(4_000);
        assert_eq!(store.delete_batch(gone), gone.len());
        let mut sel = SelectionVector::new();
        for _ in 0..4 {
            sel.clear();
            store.contains_batch(live, &mut sel);
            assert_eq!(sel.len(), live.len(), "false negative while hot");
            store.run_pending_readvise();
        }
        assert_eq!(
            store.config().kind(),
            FilterKind::Bloom,
            "a hot churny workload must not migrate away from Bloom"
        );
        assert_eq!(store.stats().total_migrations(), 0);
        // The workload cools: misses now cost a disk probe, churn stops.
        store.set_workload_hint(cold_static_spec());
        let mut migrated_at = None;
        for round in 0..40 {
            sel.clear();
            store.contains_batch(live, &mut sel);
            assert_eq!(sel.len(), live.len(), "false negative at round {round}");
            store.run_pending_readvise();
            if store.config().kind() == FilterKind::Fuse {
                migrated_at = Some(round);
                break;
            }
        }
        assert!(
            migrated_at.is_some(),
            "store never reached fuse; still {:?}",
            store.config().kind()
        );
        let stats = store.stats();
        assert!(stats.total_migrations() >= store.shard_count() as u64);
        assert_eq!(store.delete_mode(), BloomDeleteMode::Tombstone);
        assert_eq!(stats.total_counting_sidecar_bytes(), 0);
        assert!(stats.shards[0].fingerprint_bits > 0);
        sel.clear();
        store.contains_batch(live, &mut sel);
        assert_eq!(sel.len(), live.len(), "false negative after migration");
        // The migrated store still takes writes (immutable shards park fresh
        // keys in overflow until the next fold).
        let fresh = gen.distinct_keys(100);
        store.insert_batch(&fresh);
        for &key in &fresh {
            assert!(store.contains(key), "post-migration insert lost {key}");
        }
    }

    #[test]
    fn borderline_oscillating_workload_never_flaps() {
        // The no-flap acceptance bar: a workload oscillating around the
        // family crossover, with the improvement threshold set above what
        // the oscillation can sustain, must complete zero migrations.
        let store = ShardedFilterStore::from_options(StoreOptions {
            config: bloom_config(),
            shard_count: 1,
            capacity_per_shard: 2_048,
            bits_per_key: 14.0,
            readvise: Some(ReadviseOptions {
                min_improvement: 0.95,
                consecutive: 2,
                workload: hot_churny_spec(),
                ..ReadviseOptions::default()
            }),
            ..StoreOptions::default()
        });
        let mut gen = KeyGen::new(502);
        let keys = gen.distinct_keys(1_000);
        store.insert_batch(&keys);
        let mut sel = SelectionVector::new();
        for round in 0..12 {
            store.set_workload_hint(if round % 2 == 0 {
                cold_static_spec()
            } else {
                hot_churny_spec()
            });
            sel.clear();
            store.contains_batch(&keys, &mut sel);
            assert_eq!(sel.len(), keys.len());
            store.run_pending_readvise();
        }
        assert_eq!(
            store.stats().total_migrations(),
            0,
            "oscillating borderline stats flapped the family"
        );
        assert_eq!(store.config().kind(), FilterKind::Bloom);
    }

    #[test]
    fn migrate_to_is_the_manual_path_and_respects_busy_shards() {
        let store = ShardedFilterStore::new(cuckoo_config(), 2, 1_024, 16.0);
        let mut gen = KeyGen::new(503);
        let keys = gen.distinct_keys(2_000);
        store.insert_batch(&keys);
        // Manual migration, no advisor involved: Cuckoo -> fuse inline.
        assert_eq!(
            store.migrate_to(fuse_config(), 10.0, BloomDeleteMode::Tombstone),
            2
        );
        assert_eq!(store.config().kind(), FilterKind::Fuse);
        assert_eq!(store.stats().total_migrations(), 2);
        for &key in &keys {
            assert!(store.contains(key), "manual migration lost {key}");
        }
        // Already at the target: a repeat is a no-op.
        assert_eq!(
            store.migrate_to(fuse_config(), 10.0, BloomDeleteMode::Tombstone),
            0
        );
        assert_eq!(store.stats().total_migrations(), 2);
    }
}
