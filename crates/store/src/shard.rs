//! One shard: a mutable write side guarded by a mutex, and an immutable
//! published snapshot readers probe without ever blocking on writers.
//!
//! The write path is policy-driven: the shard appends keys to its compact
//! key set, asks its [`RebuildPolicy`] what to do (insert in place, rebuild,
//! or defer into the overflow buffer), and publishes a fresh
//! [`ShardSnapshot`] whenever readers could observe the difference.

use crate::keyset::CompactKeySet;
use crate::policy::{RebuildDecision, RebuildPolicy, RebuildUrgency, ShardObservation};
use pof_core::{AnyFilter, FilterConfig};
use pof_filter::{DeleteOutcome, Filter};
use pof_persist::codec::{put_f64, put_u32_slice, put_u64, put_u8, CodecError, Cursor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// How a store's Bloom-family shards honor deletes.
///
/// Cuckoo shards always delete in place (their fingerprints are discrete);
/// this knob only decides what a *Bloom* shard does when a key is deleted:
///
/// * [`Tombstone`](Self::Tombstone) (the default): the key leaves the
///   bookkeeping immediately, its filter bits linger as false positives
///   until the shard's [`RebuildPolicy`] next rebuilds (purge). Zero extra
///   memory; delete-heavy workloads keep paying rebuilds.
/// * [`Counting`](Self::Counting): every shard filter carries a
///   per-bit counting sidecar ([`pof_bloom::CountingSidecar`]; 4 bits per
///   filter bit, 8 after promotion, write side only — published snapshots
///   never carry it), and deletes clear bits in place. Tombstones stay at
///   zero, so policies never schedule purge rebuilds — a delete-heavy Bloom
///   store stops rebuilding altogether.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BloomDeleteMode {
    /// Deletes tombstone; the policy's next rebuild purges the bits.
    #[default]
    Tombstone,
    /// Deletes clear bits in place through a per-shard counting sidecar.
    Counting,
}

/// The FPR budget a drift policy compares against: the configuration's
/// modeled FPR at nominal occupancy. Infeasible Cuckoo budgets (the build
/// raises them to the minimum feasible bits-per-key) fall back to the rate
/// near the maximum load factor. Recomputed whenever a migration changes the
/// shard's `(config, bits_per_key)` pair.
fn budget_fpr_for(config: &FilterConfig, capacity: usize, bits_per_key: f64) -> f64 {
    config
        .modeled_fpr(capacity as f64, bits_per_key)
        .unwrap_or_else(|| match config {
            FilterConfig::Cuckoo(c) => c.modeled_fpr(0.95),
            // A fuse filter's FPR is fixed by its fingerprint width
            // regardless of the (possibly structurally infeasible)
            // bits-per-key budget it was recommended under.
            FilterConfig::Fuse(c) => c.modeled_fpr(),
            // Bloom budgets are always feasible; this arm is unreachable.
            _ => f64::INFINITY,
        })
}

/// Build a shard filter, attaching the counting sidecar when the shard runs
/// in [`BloomDeleteMode::Counting`]. Every (re)build path must go through
/// this: a replacement filter without counters could never delete again.
fn build_shard_filter(
    config: &FilterConfig,
    capacity: usize,
    bits_per_key: f64,
    counting: bool,
) -> AnyFilter {
    let mut filter = AnyFilter::build(config, capacity, bits_per_key);
    if counting {
        filter.enable_counting();
    }
    filter
}

/// (Re)build a shard filter over a complete key set (ascending, so the
/// filter is a function of the set alone), returning the filter and the
/// capacity it was sized for. Mutable families insert the keys, growing
/// geometrically until every key fits; immutable
/// (fuse) families peel the whole set in one shot — their size follows from
/// the key count, so the grow loop does not apply (and must not run: a fuse
/// filter refuses incremental inserts, which would spin the loop forever).
fn build_populated_filter(
    config: &FilterConfig,
    keys: &[u32],
    capacity: usize,
    bits_per_key: f64,
    counting: bool,
) -> (AnyFilter, usize) {
    if config.immutable() {
        let filter = AnyFilter::build_with_keys(config, keys, bits_per_key)
            .expect("fuse construction cannot refuse keys");
        return (filter, capacity.max(keys.len()).max(64));
    }
    'grow: for attempt in 0.. {
        let grown = capacity << attempt;
        let mut filter = build_shard_filter(config, grown, bits_per_key, counting);
        for &key in keys {
            if !filter.insert(key) {
                continue 'grow;
            }
        }
        return (filter, grown);
    }
    unreachable!("rebuild retries grow geometrically and must eventually fit");
}

/// What readers probe: the shard's filter at one publish point, plus the
/// exact overflow side buffer of keys a deferring policy has not yet folded
/// into the filter. Probing the buffer keeps the no-false-negative contract
/// even while keys are parked outside the filter.
#[derive(Debug)]
pub(crate) struct ShardSnapshot {
    /// The published filter.
    pub(crate) filter: AnyFilter,
    /// Sorted copy of the overflow buffer at publish time (usually empty).
    pub(crate) overflow: Vec<u32>,
}

impl ShardSnapshot {
    /// Is `key` in the published filter or parked in the overflow buffer?
    #[inline]
    pub(crate) fn contains(&self, key: u32) -> bool {
        self.filter.contains(key) || self.overflow.binary_search(&key).is_ok()
    }

    /// Published footprint: filter bits plus the raw bits of parked keys.
    pub(crate) fn size_bits(&self) -> u64 {
        self.filter.size_bits() + 32 * self.overflow.len() as u64
    }
}

/// A request for the store's maintainer: rebuild this shard's filter
/// off-lock and swap it in. Tagged with the writer's rebuild epoch at
/// request time; the swap is refused (and the built filter discarded) if the
/// shard rebuilt by other means in the meantime.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RebuildTicket {
    epoch: u64,
    /// Start of the write call that requested the rebuild (`None` for
    /// maintenance and migrations): the stall base when that call runs it.
    write_call: Option<Instant>,
}

/// The shape a migration rebuilds a shard into: a family migration is just a
/// rebuild whose plan carries a different `(config, bits_per_key, counting)`
/// triple than the writer's current one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MigrationTarget {
    /// The replacement filter configuration.
    pub(crate) config: FilterConfig,
    /// The replacement bits-per-key budget.
    pub(crate) bits_per_key: f64,
    /// Whether the replacement carries a counting sidecar
    /// ([`BloomDeleteMode::Counting`]).
    pub(crate) counting: bool,
}

/// What [`Shard::migrate`] did.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MigrateOutcome {
    /// The migration was requested; the caller must hand the ticket to the
    /// maintainer.
    Requested(RebuildTicket),
    /// A rebuild is already in flight; try again after it completes.
    Busy,
    /// The shard is already at the target shape; nothing to do.
    Unchanged,
}

/// One write-side mutation logged while a rebuild job is in flight,
/// replayed into the replacement filter (in order) before the swap.
#[derive(Debug, Clone, Copy)]
enum DeltaOp {
    Insert(u32),
    Delete(u32),
}

/// Writer-side state of one requested or in-flight rebuild job.
#[derive(Debug)]
struct PendingRebuild {
    /// Rebuild epoch at request time. An under-lock fallback rebuild bumps
    /// the writer's epoch, which invalidates this job: its result is
    /// discarded at swap time instead of clobbering the newer filter.
    epoch: u64,
    /// Capacity the policy asked for when the rebuild was requested.
    capacity: usize,
    /// Mutations since the maintainer snapshotted the key set. Bounded: the
    /// writer falls back to an under-lock rebuild if the shard re-saturates
    /// faster than the maintainer can rebuild (see
    /// [`ShardWriter::shed_backpressure`]).
    delta: Vec<DeltaOp>,
    /// Set once the maintainer has taken its key-set snapshot; from then on
    /// every write is also logged to `delta` for replay.
    delta_active: bool,
    /// When the rebuild was requested, for `rebuild_wait_ns` accounting.
    requested: Instant,
    /// When set, this rebuild is a *migration*: the plan builds the
    /// replacement with the target's `(config, bits_per_key, counting)`, and
    /// the swap adopts them as the writer's new shape.
    target: Option<MigrationTarget>,
}

/// Everything the maintainer needs to build a shard's replacement filter
/// off-lock: copied out under one brief writer lock by
/// [`Shard::begin_rebuild`].
#[derive(Debug)]
pub(crate) struct RebuildPlan {
    keys: Vec<u32>,
    capacity: usize,
    config: FilterConfig,
    bits_per_key: f64,
    counting: bool,
}

impl RebuildPlan {
    /// Build the replacement filter — no locks held. Mirrors
    /// [`ShardWriter::rebuild`]: insert the folded key set, grow
    /// geometrically until every key fits.
    ///
    /// The build runs straight through rather than yielding between chunks:
    /// on a host with a spare core it never competes with writers anyway,
    /// and on a saturated host yielding would stretch the snapshot→swap
    /// window by a writer scheduler slice per chunk, ballooning the delta
    /// the swap must replay (and tripping the backpressure fallback this
    /// subsystem tries to avoid). Keeping the window short keeps the delta
    /// small.
    pub(crate) fn build(&self) -> (AnyFilter, usize) {
        build_populated_filter(
            &self.config,
            &self.keys,
            self.capacity,
            self.bits_per_key,
            self.counting,
        )
    }
}

/// The write side of a shard. Only ever touched under the shard's write lock.
#[derive(Debug)]
pub(crate) struct ShardWriter {
    /// The filter being mutated. Cloned into a snapshot on publish.
    filter: AnyFilter,
    /// Authoritative live-key bookkeeping: one `u32` per live key. Every
    /// rebuild inserts the folded (ascending) set, so a rebuilt filter —
    /// Cuckoo slot placement included — depends on the key set alone.
    keys: CompactKeySet,
    /// Keys diverted by a deferring policy: present in `keys`, *not* in
    /// `filter`. Sorted at every lock release so the publish path clones it
    /// as-is and the delete path can binary-search it; within one write
    /// batch freshly parked keys append out of order ([`Self::defer`] is
    /// O(1), not a per-key memmove) and [`Self::seal_overflow`] restores
    /// the invariant once at batch end. Readers see the snapshot's copy.
    overflow: Vec<u32>,
    /// Has `overflow` gained unsorted appends since the last seal?
    overflow_dirty: bool,
    /// Deleted keys still represented in the filter (tombstone-mode Bloom
    /// shards cannot unset bits). Purged to zero by every rebuild;
    /// structurally zero in [`BloomDeleteMode::Counting`] and for Cuckoo
    /// shards, which both delete in place.
    tombstones: usize,
    /// Number of keys the current filter was sized for.
    capacity: usize,
    /// Configuration every (re)build of this shard uses.
    config: FilterConfig,
    /// Bits-per-key budget every (re)build of this shard uses.
    bits_per_key: f64,
    /// Modeled FPR of `(config, bits_per_key)` at nominal occupancy — the
    /// budget that drift-based policies compare against.
    budget_fpr: f64,
    /// Number of policy-triggered rebuilds performed so far.
    rebuilds: u64,
    /// Completed family migrations: rebuilds that swapped the shard's
    /// `(config, bits_per_key, counting)` shape for a re-advised one.
    migrations: u64,
    /// Of those, how many a maintainer thread or queue completed (rebuilds a
    /// write call ran on its own thread are not counted here).
    rebuilds_background: u64,
    /// Cumulative request→swap latency of those maintainer rebuilds.
    rebuild_wait_ns: u64,
    /// Largest single rebuild a write call (insert or delete) paid for on
    /// its own thread, in nanoseconds: inline-mode jobs plus under-lock
    /// builds. Maintenance-time rebuilds (`maintain()`) are excluded, like
    /// all `maintain()` work.
    writer_rebuild_stall_ns: u64,
    /// Monotonic generation of the shard's filter: bumped by every completed
    /// rebuild (under the lock or swapped in). Rebuild jobs are tagged with
    /// the epoch at request time and discarded on mismatch.
    rebuild_epoch: u64,
    /// Requested or in-flight rebuild, if any. While set, policy decisions
    /// are suppressed (the replacement is already being built) and writes
    /// are delta-logged for replay.
    pending: Option<PendingRebuild>,
    /// A ticket produced by the last write call, not yet handed to the
    /// store. Taken by the calling batch method before it releases the lock;
    /// the store then runs or enqueues it.
    ticket: Option<RebuildTicket>,
    /// Do Bloom filters of this shard carry a counting sidecar
    /// ([`BloomDeleteMode::Counting`])? Every rebuild re-attaches it.
    counting: bool,
    /// The lifecycle policy consulted on every append/delete/maintain.
    policy: Arc<dyn RebuildPolicy>,
}

/// A shard of the store.
#[derive(Debug)]
pub(crate) struct Shard {
    writer: Mutex<ShardWriter>,
    /// The published snapshot. Readers take the read lock only long enough to
    /// clone the `Arc`; the actual probing happens on the clone, outside any
    /// lock, so a concurrent rebuild never stalls or torments a reader.
    snapshot: RwLock<Arc<ShardSnapshot>>,
    /// Longest single `insert_batch`/`delete_batch` call observed on this
    /// shard (lock wait + mutation + publish), in nanoseconds — the writer
    /// tail-latency figure the background maintainer exists to shrink.
    /// `maintain()` time is deliberately excluded: that is the dedicated
    /// maintenance slot, not a foreground write.
    max_writer_stall_ns: AtomicU64,
}

/// One mutually consistent sample of a shard, for stats reporting.
pub(crate) struct ShardView {
    /// The published snapshot at sample time.
    pub(crate) snapshot: Arc<ShardSnapshot>,
    /// Live keys (inserted minus deleted, overflow included).
    pub(crate) keys: usize,
    /// Policy-triggered rebuilds so far.
    pub(crate) rebuilds: u64,
    /// Tombstoned (deleted but still filter-resident) keys.
    pub(crate) tombstones: usize,
    /// Keys parked in the overflow buffer.
    pub(crate) overflow: usize,
    /// Writer-side bookkeeping bytes (see `CompactKeySet`).
    pub(crate) bookkeeping_bytes: usize,
    /// Heap bytes of the write-side counting sidecar (0 in tombstone mode
    /// and for Cuckoo shards).
    pub(crate) counting_sidecar_bytes: usize,
    /// Name of the active rebuild policy.
    pub(crate) policy: &'static str,
    /// Rebuilds completed off-lock by the maintainer (subset of `rebuilds`).
    pub(crate) rebuilds_background: u64,
    /// Cumulative request→swap latency of background rebuilds, ns.
    pub(crate) rebuild_wait_ns: u64,
    /// Longest single write call this shard has served, ns.
    pub(crate) max_writer_stall_ns: u64,
    /// Longest single rebuild a write call paid for on its own thread, ns.
    pub(crate) writer_rebuild_stall_ns: u64,
    /// Is a rebuild job currently in flight?
    pub(crate) rebuild_pending: bool,
    /// Completed family migrations (subset of `rebuilds`).
    pub(crate) migrations: u64,
}

impl Shard {
    /// Create an empty shard sized for `capacity` keys.
    pub(crate) fn new(
        config: FilterConfig,
        capacity: usize,
        bits_per_key: f64,
        policy: Arc<dyn RebuildPolicy>,
        delete_mode: BloomDeleteMode,
    ) -> Self {
        let capacity = capacity.max(64);
        let counting = delete_mode == BloomDeleteMode::Counting;
        let filter = build_shard_filter(&config, capacity, bits_per_key, counting);
        let budget_fpr = budget_fpr_for(&config, capacity, bits_per_key);
        let snapshot = Arc::new(ShardSnapshot {
            // Snapshots are probe-only: never ship the counting sidecar.
            filter: filter.read_only_clone(),
            overflow: Vec::new(),
        });
        Self {
            writer: Mutex::new(ShardWriter {
                filter,
                keys: CompactKeySet::default(),
                overflow: Vec::new(),
                overflow_dirty: false,
                tombstones: 0,
                capacity,
                config,
                bits_per_key,
                budget_fpr,
                rebuilds: 0,
                migrations: 0,
                rebuilds_background: 0,
                rebuild_wait_ns: 0,
                writer_rebuild_stall_ns: 0,
                rebuild_epoch: 0,
                pending: None,
                ticket: None,
                counting,
                policy,
            }),
            snapshot: RwLock::new(snapshot),
            max_writer_stall_ns: AtomicU64::new(0),
        }
    }

    /// Load the current published snapshot.
    pub(crate) fn load(&self) -> Arc<ShardSnapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// Publish the writer's current state. Must be called while holding the
    /// writer lock: if the snapshot swap happened after unlock, a slower
    /// writer could overwrite a newer snapshot with its older clone,
    /// momentarily hiding committed keys from readers. Readers only ever
    /// take the snapshot *read* lock, so holding both here cannot deadlock.
    fn publish(&self, writer: &ShardWriter) {
        let snapshot = Arc::new(ShardSnapshot {
            // Probe side only: lookups never consult a counting sidecar, so
            // publishing in counting mode stays as cheap as tombstone mode
            // (the clone copies the bit array, not the counters).
            filter: writer.filter.read_only_clone(),
            // Already sorted — the writer maintains the invariant.
            overflow: writer.overflow.clone(),
        });
        *self.snapshot.write().expect("snapshot lock poisoned") = snapshot;
    }

    /// Insert a batch of keys routed to this shard (rebuilding or deferring
    /// per the shard's policy), then publish a fresh snapshot — unless every
    /// key in the batch was a duplicate, in which case nothing observable
    /// changed and the clone-and-publish is skipped entirely. Returns a
    /// ticket if the policy requested a rebuild.
    pub(crate) fn insert_batch(&self, keys: &[u32]) -> Option<RebuildTicket> {
        if keys.is_empty() {
            return None;
        }
        let start = Instant::now();
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let fresh = if writer.config.immutable() && writer.pending.is_none() {
            // Immutable bulk fast path: with no rebuild in flight the filter
            // refuses in-place inserts, the batch-end fold *is* the policy,
            // and the delta log is inactive — so register the batch with one
            // sort and park every fresh key, instead of a membership probe
            // and a cadenced refold per key through `insert_one`.
            let fresh = writer.keys.insert_bulk(keys);
            for &key in &fresh {
                writer.defer(key);
            }
            fresh.len()
        } else {
            let mut fresh = 0usize;
            for &key in keys {
                if writer.insert_one(key) {
                    fresh += 1;
                }
            }
            fresh
        };
        // Freshly parked keys appended out of order: restore the overflow
        // buffer's sorted invariant once, before anything clones or folds it.
        writer.seal_overflow();
        // Immutable shards park every fresh key in the overflow buffer (the
        // filter refuses in-place inserts); request one re-peel that folds
        // the batch's parked keys at batch end — one rebuild per batch, not
        // one per key.
        if fresh > 0 {
            writer.fold_immutable();
        }
        let ticket = writer.take_ticket(start);
        // Any fresh key changed either the filter or the overflow buffer;
        // an all-duplicate batch changed neither.
        if fresh > 0 {
            self.publish(&writer);
        }
        drop(writer);
        self.note_writer_stall(start);
        ticket
    }

    /// Delete a batch of keys routed to this shard. Returns how many were
    /// actually removed, plus a ticket if the policy requested a rebuild.
    /// Cuckoo shards — and Bloom shards in
    /// [`BloomDeleteMode::Counting`] — delete in place and republish; Bloom
    /// shards in tombstone mode tombstone (the key leaves the bookkeeping
    /// immediately, the filter bits stay until the policy's next rebuild).
    pub(crate) fn delete_batch(&self, keys: &[u32]) -> (usize, Option<RebuildTicket>) {
        if keys.is_empty() {
            return (0, None);
        }
        let start = Instant::now();
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let (removed, mut observable) = writer.delete_many(keys);
        if removed > 0 {
            if let RebuildDecision::Rebuild { capacity } = writer.policy_decision_on_delete() {
                // pof-analyze: allow(lock-discipline): only a decision of immediate urgency builds here, under the lock; a deferrable one mints a ticket for the caller or maintainer to build off-lock
                if !writer.rebuild_or_request(capacity) {
                    observable = true;
                }
            }
            // Immutable shards cannot unset fingerprints: deleted keys left
            // tombstones behind, purged by re-peeling the surviving key set.
            // Absent-key (NotFound) deletes minted no tombstone above and so
            // trigger no rebuild here.
            writer.fold_immutable();
        }
        let ticket = writer.take_ticket(start);
        if observable {
            self.publish(&writer);
        }
        drop(writer);
        self.note_writer_stall(start);
        (removed, ticket)
    }

    /// Delete a batch of keys from the *bookkeeping only*, leaving the
    /// published probe state bit-identical — the tombstone-mode delete,
    /// forced onto every family. Returns how many live keys were removed.
    ///
    /// This is the structural fix for the tiered reinsertion race: when a
    /// key moves *up* a tier, the older level must not stop answering
    /// positive at delete time, or a reader that probed the newer level
    /// before the insert published and reaches the older level after the
    /// delete would see a false negative. A shadow delete removes the key
    /// from the key set (so rebuilds, key counts, and compactions see it
    /// gone) but touches neither the filter bits nor the overflow buffer,
    /// consults no policy, and publishes nothing: the lingering positives
    /// are purged by the shard's *next* rebuild — an event driven by later
    /// traffic, far outside any in-flight reader's probe window — exactly
    /// like a tombstone-mode Bloom delete, and unlike the in-place clears
    /// Cuckoo and counting-Bloom shards perform on the ordinary
    /// [`Shard::delete_batch`] path.
    pub(crate) fn shadow_delete_batch(&self, keys: &[u32]) -> usize {
        if keys.is_empty() {
            return 0;
        }
        let start = Instant::now();
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let removed = writer.shadow_delete_many(keys);
        drop(writer);
        self.note_writer_stall(start);
        removed
    }

    /// Run one maintenance round: ask the policy whether deferred work
    /// (overflow folds, tombstone purges, re-fits) should happen now, and
    /// request it if so. Whatever the policy's urgency, maintenance never
    /// builds under the lock: the store drains every ticket before
    /// `maintain()` returns anyway.
    pub(crate) fn maintain(&self) -> Option<RebuildTicket> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        match writer.policy_decision_on_maintain() {
            RebuildDecision::Rebuild { capacity } => Some(writer.request(capacity, None)),
            RebuildDecision::Keep | RebuildDecision::Defer => None,
        }
    }

    /// Record the duration of one write call for the stall statistic.
    fn note_writer_stall(&self, start: Instant) {
        self.max_writer_stall_ns
            .fetch_max(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Run one rebuild job start to finish on the calling thread: snapshot,
    /// off-lock build, delta replay, swap. This is how
    /// [`RebuildMode::Inline`](crate::RebuildMode::Inline) executes a ticket
    /// — the caller is the maintainer. A stale ticket is discarded.
    pub(crate) fn run_rebuild(&self, ticket: RebuildTicket) {
        let start = Instant::now();
        if let Some(plan) = self.begin_rebuild(ticket) {
            let (filter, capacity) = plan.build();
            self.finish_rebuild(ticket, filter, capacity, Some(start));
        }
    }

    /// Phase one of a rebuild job: under one brief writer lock, validate the
    /// ticket, switch the writer into delta-logging mode, and copy out
    /// everything needed to build the replacement filter off-lock. Returns
    /// `None` if the ticket went stale (an under-lock fallback rebuilt the
    /// shard first).
    pub(crate) fn begin_rebuild(&self, ticket: RebuildTicket) -> Option<RebuildPlan> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let pending = writer.pending.as_mut()?;
        if pending.epoch != ticket.epoch {
            return None;
        }
        pending.delta_active = true;
        let (requested, target) = (pending.capacity, pending.target);
        // The requested capacity may be stale by the time the job is picked
        // up (the shard kept absorbing writes, or a re-peel or migration
        // simply asked for the current capacity): grow it to fit what is
        // live *now*, so a Bloom replacement is not born overloaded.
        let capacity = writer.fitted_capacity(requested);
        // A migration rebuild targets a different shape; a plain rebuild
        // rebuilds in place.
        let (config, bits_per_key, counting) = match target {
            Some(target) => (target.config, target.bits_per_key, target.counting),
            None => (writer.config, writer.bits_per_key, writer.counting),
        };
        Some(RebuildPlan {
            keys: writer.keys.folded().to_vec(),
            capacity,
            config,
            bits_per_key,
            counting,
        })
    }

    /// Phase two of a rebuild job: re-acquire the shard briefly, replay the
    /// mutations logged since the snapshot into the replacement filter, and
    /// publish it with a single `Arc` swap. A stale ticket's filter is
    /// discarded. `on_caller` is the job's start when the requesting thread
    /// ran it ([`Self::run_rebuild`]), which books it as that call's stall
    /// instead of a background rebuild.
    pub(crate) fn finish_rebuild(
        &self,
        ticket: RebuildTicket,
        filter: AnyFilter,
        capacity: usize,
        on_caller: Option<Instant>,
    ) {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        if writer.pending.as_ref().map(|p| p.epoch) != Some(ticket.epoch) {
            return;
        }
        let pending = writer.pending.take().expect("epoch matched above");
        let mut filter = filter;
        // Replay the delta in chronological order. Inserts the replacement
        // refuses are parked in the overflow buffer (readers probe it, so
        // nothing goes missing); deletes remove in place where the family
        // allows and tombstone otherwise — exactly the synchronous write
        // path's semantics, compressed into the swap.
        let mut overflow: Vec<u32> = Vec::new();
        let mut tombstones = 0usize;
        for op in &pending.delta {
            match *op {
                DeltaOp::Insert(key) => {
                    if !filter.insert(key) {
                        let position = overflow.partition_point(|&k| k < key);
                        overflow.insert(position, key);
                    }
                }
                DeltaOp::Delete(key) => {
                    if let Ok(position) = overflow.binary_search(&key) {
                        overflow.remove(position);
                    } else {
                        match filter.try_delete(key) {
                            DeleteOutcome::Removed => {}
                            // Only an actual refusal leaves lingering bits
                            // behind; a NotFound removed nothing — counting
                            // it would overstate the tombstone load and
                            // mis-trigger purge heuristics.
                            DeleteOutcome::Unsupported => tombstones += 1,
                            DeleteOutcome::NotFound => {}
                        }
                    }
                }
            }
        }
        // A migration swap adopts the target shape: every later rebuild of
        // this shard re-peels into the new family, and drift policies compare
        // against the new budget.
        if let Some(target) = pending.target {
            writer.config = target.config;
            writer.bits_per_key = target.bits_per_key;
            writer.counting = target.counting;
            writer.budget_fpr = budget_fpr_for(&target.config, capacity, target.bits_per_key);
            writer.migrations += 1;
        }
        writer.filter = filter;
        writer.capacity = capacity;
        writer.overflow = overflow;
        writer.tombstones = tombstones;
        writer.rebuilds += 1;
        writer.rebuild_epoch += 1;
        match on_caller {
            None => {
                writer.rebuilds_background += 1;
                writer.rebuild_wait_ns += pending.requested.elapsed().as_nanos() as u64;
            }
            Some(start) if ticket.write_call.is_some() => writer.note_build_stall(start),
            Some(_) => {}
        }
        self.publish(&writer);
        drop(writer);
        if let (Some(_), Some(call)) = (on_caller, ticket.write_call) {
            self.note_writer_stall(call);
        }
    }

    /// Rebuild this shard into a different `(config, bits_per_key, counting)`
    /// shape — the live-migration primitive. Leaves a ticket whose rebuild
    /// plan carries the target, so the ordinary snapshot → off-lock build →
    /// delta replay → `Arc`-swap job performs the family swap with readers
    /// staying wait-free throughout.
    pub(crate) fn migrate(&self, target: MigrationTarget) -> MigrateOutcome {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        if writer.config == target.config
            && writer.bits_per_key == target.bits_per_key
            && writer.counting == target.counting
        {
            return MigrateOutcome::Unchanged;
        }
        if writer.pending.is_some() {
            // An ordinary rebuild (or an earlier migration) is in flight;
            // stacking a second pending job would orphan its ticket. The
            // readvisor retries at its next evaluation.
            return MigrateOutcome::Busy;
        }
        let capacity = writer.capacity;
        MigrateOutcome::Requested(writer.request(capacity, Some(target)))
    }

    /// Number of live keys in this shard.
    pub(crate) fn key_count(&self) -> usize {
        self.writer.lock().expect("writer lock poisoned").keys.len()
    }

    /// A mutually consistent sample of this shard.
    ///
    /// Taken under the writer lock — and snapshots are only ever published
    /// under that same lock — so the snapshot cannot be newer or older than
    /// the counters it is paired with (separate `load()` + `key_count()`
    /// calls could interleave with a rebuild and pair a stale filter size
    /// with a fresh key count).
    pub(crate) fn consistent_view(&self) -> ShardView {
        let writer = self.writer.lock().expect("writer lock poisoned");
        let snapshot = Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"));
        ShardView {
            snapshot,
            keys: writer.keys.len(),
            rebuilds: writer.rebuilds,
            tombstones: writer.tombstones,
            overflow: writer.overflow.len(),
            bookkeeping_bytes: writer.keys.bookkeeping_bytes(),
            counting_sidecar_bytes: writer.filter.counting_bytes(),
            policy: writer.policy.name(),
            rebuilds_background: writer.rebuilds_background,
            rebuild_wait_ns: writer.rebuild_wait_ns,
            max_writer_stall_ns: self.max_writer_stall_ns.load(Ordering::Relaxed),
            writer_rebuild_stall_ns: writer.writer_rebuild_stall_ns,
            rebuild_pending: writer.pending.is_some(),
            migrations: writer.migrations,
        }
    }

    /// Copy of this shard's authoritative live-key list, ascending.
    pub(crate) fn keys(&self) -> Vec<u32> {
        self.writer
            .lock()
            .expect("writer lock poisoned")
            .keys
            .folded()
            .to_vec()
    }

    /// The configuration this shard builds its filters from.
    pub(crate) fn config(&self) -> FilterConfig {
        self.writer.lock().expect("writer lock poisoned").config
    }

    /// The bits-per-key budget this shard builds its filters with.
    pub(crate) fn bits_per_key(&self) -> f64 {
        self.writer
            .lock()
            .expect("writer lock poisoned")
            .bits_per_key
    }

    /// How this shard currently honors Bloom deletes (migrations can flip
    /// it: a counting-Bloom shard re-advised to fuse drops its sidecar).
    pub(crate) fn delete_mode(&self) -> BloomDeleteMode {
        if self.writer.lock().expect("writer lock poisoned").counting {
            BloomDeleteMode::Counting
        } else {
            BloomDeleteMode::Tombstone
        }
    }

    /// Serialize this shard's complete write-side state — filter (with its
    /// counting sidecar, if any), ascending key log, overflow
    /// buffer, and lifecycle counters — under one writer lock, so the
    /// payload is a single consistent cut. Plain little-endian throughout:
    /// the snapshot file this lands in opens by `mmap` and decodes without
    /// any byte swapping.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        writer.seal_overflow();
        put_f64(out, writer.bits_per_key);
        put_u8(out, u8::from(writer.counting));
        put_u64(out, writer.capacity as u64);
        put_u64(out, writer.tombstones as u64);
        put_u64(out, writer.rebuilds);
        put_u64(out, writer.migrations);
        pof_core::encode_filter(&writer.filter, out);
        put_u32_slice(out, writer.keys.folded());
        put_u32_slice(out, &writer.overflow);
    }

    /// Rebuild a shard from a payload written by [`Shard::encode_state`].
    /// The filter configuration travels inside the filter codec; the policy
    /// is a runtime choice supplied by the opening store, not persisted
    /// state. The key log may arrive in any order (it is sorted on decode)
    /// but must not repeat a key; since a rebuild's filter is a function of
    /// the key set alone, post-recovery rebuilds reproduce exactly the
    /// filters the pre-crash shard would have built.
    pub(crate) fn decode_state(
        cursor: &mut Cursor<'_>,
        policy: Arc<dyn RebuildPolicy>,
    ) -> Result<Self, CodecError> {
        let bits_per_key = cursor.f64()?;
        let counting = cursor.u8()? != 0;
        let capacity = usize::try_from(cursor.u64()?)
            .map_err(|_| CodecError::Invalid("shard capacity exceeds usize"))?;
        let tombstones = usize::try_from(cursor.u64()?)
            .map_err(|_| CodecError::Invalid("shard tombstones exceed usize"))?;
        let rebuilds = cursor.u64()?;
        let migrations = cursor.u64()?;
        let filter = pof_core::decode_filter(cursor)?;
        let keys = CompactKeySet::from_log(cursor.u32_slice()?)
            .ok_or(CodecError::Invalid("shard key log repeats a key"))?;
        let overflow = cursor.u32_slice()?;
        if !overflow.windows(2).all(|w| w[0] < w[1]) {
            return Err(CodecError::Invalid("shard overflow buffer not sorted"));
        }
        let config = filter.config();
        let capacity = capacity.max(64);
        let budget_fpr = budget_fpr_for(&config, capacity, bits_per_key);
        let snapshot = Arc::new(ShardSnapshot {
            filter: filter.read_only_clone(),
            overflow: overflow.clone(),
        });
        Ok(Self {
            writer: Mutex::new(ShardWriter {
                filter,
                keys,
                overflow,
                overflow_dirty: false,
                tombstones,
                capacity,
                config,
                bits_per_key,
                budget_fpr,
                rebuilds,
                migrations,
                rebuilds_background: 0,
                rebuild_wait_ns: 0,
                writer_rebuild_stall_ns: 0,
                rebuild_epoch: 0,
                pending: None,
                ticket: None,
                counting,
                policy,
            }),
            snapshot: RwLock::new(snapshot),
            max_writer_stall_ns: AtomicU64::new(0),
        })
    }
}

impl ShardWriter {
    /// The policy's view of this writer.
    fn observe(&self) -> ShardObservation<'_> {
        ShardObservation {
            live_keys: self.keys.len(),
            capacity: self.capacity,
            overflow_len: self.overflow.len(),
            tombstones: self.tombstones,
            // Saturating, and summed before the subtraction: transient
            // states where parked keys outnumber the bookkeeping (e.g. a
            // delta replay that rebuilt the key set before re-parking
            // refused inserts) must clamp to zero, not underflow — a debug
            // build would otherwise abort inside a policy callback.
            occupancy: (self.keys.len() + self.tombstones).saturating_sub(self.overflow.len()),
            budget_fpr: self.budget_fpr,
            filter: &self.filter,
            config: &self.config,
        }
    }

    /// Insert one key. Duplicates are no-ops (set semantics — replaying
    /// duplicates would also break Cuckoo rebuilds: a Cuckoo filter is a bag
    /// holding at most `2·b` copies of one fingerprint, so a key inserted
    /// more than `2·b` times can never fit at any capacity and the rebuild
    /// loop would grow forever). Returns `true` if the key was fresh.
    fn insert_one(&mut self, key: u32) -> bool {
        if !self.keys.insert(key) {
            return false;
        }
        self.log_delta(DeltaOp::Insert(key));
        if self.pending.is_some() {
            // A rebuild is already in flight: policy decisions are
            // suppressed (the replacement is being built from a snapshot
            // that the delta replay will reconcile). The key goes into the
            // *current* filter for immediate visibility — or the overflow
            // buffer if the filter refuses it — and reaches the replacement
            // through the delta.
            if !self.filter.insert(key) {
                self.defer(key);
                // The overflow buffer grew while a rebuild is in flight:
                // policies enforcing a hard bound on it (DeferredBatch's
                // 4x cap) must still get their say, or the bound would be
                // unenforceable for the whole build window. Immutable
                // shards are exempt — parking the whole in-flight batch is
                // their design, and `shed_backpressure` below still bounds
                // the build window through the delta length.
                if !self.config.immutable()
                    && self.policy.urgency(&self.observe()) == RebuildUrgency::Immediate
                {
                    self.inline_fallback();
                    return true;
                }
            }
            self.shed_backpressure();
            return true;
        }
        if self.config.immutable() {
            // No in-place insert exists for this family, so the per-key
            // policy consultation is moot: park the key (readers probe the
            // buffer, nothing goes missing) and let the batch-end fold
            // decide when to re-peel.
            self.defer(key);
            return true;
        }
        match self.policy.on_append(&self.observe()) {
            RebuildDecision::Rebuild { capacity } => {
                if self.rebuild_or_request(capacity) {
                    // Deferred to the maintainer: the key must stay visible
                    // *now*, through the current filter or the buffer.
                    if !self.filter.insert(key) {
                        self.defer(key);
                    }
                }
            }
            RebuildDecision::Defer => self.defer(key),
            RebuildDecision::Keep => {
                if !self.filter.insert(key) {
                    // The filter refused the key (Cuckoo relocation failure
                    // below nominal capacity).
                    match self.policy.on_filter_full(&self.observe()) {
                        RebuildDecision::Rebuild { capacity } => {
                            if self.rebuild_or_request(capacity) {
                                self.defer(key);
                            }
                        }
                        // Whatever the policy says, the key must stay
                        // represented somewhere: defer it.
                        RebuildDecision::Defer | RebuildDecision::Keep => self.defer(key),
                    }
                }
            }
        }
        true
    }

    /// Batch-end fold for immutable (fuse) shards: if parked keys or
    /// tombstones have accumulated and no rebuild is already in flight,
    /// request a re-peel of the filter from the authoritative key set. A
    /// no-op for mutable families and for clean immutable shards.
    fn fold_immutable(&mut self) {
        let dirty = !self.overflow.is_empty() || self.tombstones > 0;
        if self.config.immutable() && self.pending.is_none() && dirty {
            self.rebuild_or_request(self.capacity);
        }
    }

    /// `capacity` (floored at 64), doubled until the live key set fits.
    fn fitted_capacity(&self, capacity: usize) -> usize {
        let mut capacity = capacity.max(64);
        while capacity < self.keys.len() {
            capacity *= 2;
        }
        capacity
    }

    /// Record a rebuild job and return its ticket. While the job is pending,
    /// policy decisions are suppressed; a `target` makes it a migration.
    fn request(&mut self, capacity: usize, target: Option<MigrationTarget>) -> RebuildTicket {
        self.pending = Some(PendingRebuild {
            epoch: self.rebuild_epoch,
            capacity,
            delta: Vec::new(),
            delta_active: false,
            requested: Instant::now(),
            target,
        });
        RebuildTicket {
            epoch: self.rebuild_epoch,
            write_call: None,
        }
    }

    /// Hand the ticket this write call minted (if any) to the caller,
    /// stamped with the call's start for the stall statistics.
    fn take_ticket(&mut self, write_call: Instant) -> Option<RebuildTicket> {
        self.ticket.take().map(|ticket| RebuildTicket {
            write_call: Some(write_call),
            ..ticket
        })
    }

    /// Execute a write call's `Rebuild` decision: request it (leaving a
    /// [`RebuildTicket`] for the caller), or — when the policy marks it
    /// [`RebuildUrgency::Immediate`] — rebuild under the lock right now.
    /// Returns `true` when the rebuild was requested — callers must then
    /// keep the triggering key visible themselves.
    fn rebuild_or_request(&mut self, capacity: usize) -> bool {
        // Immutable shards always defer: their overflow buffer legitimately
        // holds a whole batch between fold and swap, which a mutable-world
        // urgency bound (DeferredBatch's 4x overflow cap) would misread as a
        // runaway buffer.
        let deferrable = self.config.immutable()
            || self.policy.urgency(&self.observe()) == RebuildUrgency::Deferrable;
        if deferrable {
            self.ticket = Some(self.request(capacity, None));
        } else {
            self.rebuild(capacity);
        }
        deferrable
    }

    /// Record a rebuild started at `start` that a write call paid for on its
    /// own thread.
    fn note_build_stall(&mut self, start: Instant) {
        self.writer_rebuild_stall_ns = self
            .writer_rebuild_stall_ns
            .max(start.elapsed().as_nanos() as u64);
    }

    /// Log one mutation for the in-flight rebuild's replay, if the
    /// maintainer has taken its snapshot.
    fn log_delta(&mut self, op: DeltaOp) {
        if let Some(pending) = self.pending.as_mut() {
            if pending.delta_active {
                pending.delta.push(op);
            }
        }
    }

    /// Backpressure for a shard that re-saturates while its rebuild is in
    /// flight: once the delta outgrows the shard's own capacity (floored at
    /// 4096 so brief build windows on small shards don't trip it) the replay
    /// would no longer be "bounded", so fall back to one under-lock rebuild.
    /// The epoch bump inside [`ShardWriter::rebuild`] invalidates the
    /// in-flight job; its result is discarded at swap time.
    fn shed_backpressure(&mut self) {
        let bound = self.capacity.max(4096);
        let Some(pending) = self.pending.as_ref() else {
            return;
        };
        if pending.delta.len() <= bound {
            return;
        }
        self.inline_fallback();
    }

    /// Abandon the in-flight rebuild job and rebuild under the lock right
    /// now, refit to the current live count. The epoch bump inside
    /// [`ShardWriter::rebuild`] invalidates the abandoned job; its result is
    /// discarded at swap time.
    fn inline_fallback(&mut self) {
        let requested = self
            .pending
            .take()
            .map_or(self.capacity, |pending| pending.capacity);
        self.rebuild(self.fitted_capacity(requested.max(self.capacity)));
    }

    /// Park a key in the overflow buffer. The key is fresh in the key set —
    /// at worst a *shadow-deleted* stale copy of it still lingers here (it
    /// keeps answering positive by design), which the batch-end seal
    /// collapses. Appends without re-sorting —
    /// a sorted per-key `Vec::insert` is a memmove of the whole buffer,
    /// quadratic over a bulk load that parks every key (the immutable-shard
    /// ingest path) — the batch that called this seals before releasing the
    /// lock.
    fn defer(&mut self, key: u32) {
        self.overflow.push(key);
        self.overflow_dirty = true;
    }

    /// Restore the overflow buffer's sorted invariant after a batch of
    /// [`Self::defer`] appends. Amortized near-linear: the buffer is a
    /// sorted run followed by the batch's appends.
    fn seal_overflow(&mut self) {
        if self.overflow_dirty {
            self.overflow.sort_unstable();
            // A re-inserted key can meet its own shadow-deleted stale copy
            // here; one entry serves both purposes.
            self.overflow.dedup();
            self.overflow_dirty = false;
        }
    }

    /// Delete a batch of keys from the bookkeeping, the overflow buffer, or
    /// the filter — wherever each currently lives. Returns `(removed,
    /// observable)`: how many live keys were removed, and whether readers
    /// could tell (tombstone-only deletes leave the published state
    /// bit-identical).
    fn delete_many(&mut self, keys: &[u32]) -> (usize, bool) {
        // A key listed twice is removed once, absent keys are no-ops.
        let doomed = self.keys.remove_batch(keys);
        if doomed.is_empty() {
            return (0, false);
        }
        let mut observable = false;
        for &key in &doomed {
            self.log_delta(DeltaOp::Delete(key));
            // Keys parked in the overflow buffer were never in the filter:
            // skip the filter delete (the buffer drops them below).
            if self.overflow.binary_search(&key).is_ok() {
                observable = true;
                continue;
            }
            match self.filter.try_delete(key) {
                DeleteOutcome::Removed => observable = true,
                // Tombstone-mode Bloom shards refuse: the key leaves the
                // bookkeeping now, its bits leave at the next rebuild.
                DeleteOutcome::Unsupported => self.tombstones += 1,
                // Defensive: the filter held no occurrence, so nothing
                // lingers — counting this as a tombstone would inflate the
                // count past the bits actually resident and could spuriously
                // trip purge/shrink heuristics (`FprDrift`'s mostly-dead
                // test compares tombstones against live keys).
                DeleteOutcome::NotFound => {}
            }
        }
        self.overflow
            .retain(|key| doomed.binary_search(key).is_err());
        (doomed.len(), observable)
    }

    /// Bookkeeping-only companion to [`Self::delete_many`]: remove the keys
    /// from the key set and count tombstones, but leave the filter bits
    /// *and* the overflow buffer untouched — parked keys keep answering
    /// positive through the published snapshot's overflow copy until the
    /// next rebuild drops them (they are no longer in `keys`, so no rebuild
    /// or publish ever carries them forward). Delta-logged like a physical
    /// delete: an in-flight rebuild job builds from the post-delete
    /// key set either way, so replaying the delete into its replacement is
    /// membership-equivalent.
    fn shadow_delete_many(&mut self, keys: &[u32]) -> usize {
        let doomed = self.keys.remove_batch(keys);
        for &key in &doomed {
            self.log_delta(DeltaOp::Delete(key));
            // An overflow-parked key leaves no filter bits behind — only
            // keys actually resident in the filter linger as tombstones for
            // the purge heuristics to weigh.
            if self.overflow.binary_search(&key).is_err() {
                self.tombstones += 1;
            }
        }
        doomed.len()
    }

    /// The policy's post-delete-batch decision (`Defer` is meaningless for
    /// deletes and treated as `Keep`; suppressed entirely while a rebuild
    /// job is in flight — the swap purges tombstones anyway).
    fn policy_decision_on_delete(&self) -> RebuildDecision {
        if self.pending.is_some() {
            return RebuildDecision::Keep;
        }
        match self.policy.on_delete(&self.observe()) {
            RebuildDecision::Defer => RebuildDecision::Keep,
            decision => decision,
        }
    }

    /// The policy's maintenance decision (`Defer` treated as `Keep`;
    /// suppressed while a rebuild job is in flight — the store's
    /// `maintain()` drains the in-flight job instead of stacking another).
    fn policy_decision_on_maintain(&self) -> RebuildDecision {
        if self.pending.is_some() {
            return RebuildDecision::Keep;
        }
        // Immutable shards override the policy: parked keys and tombstones
        // can only ever leave through a re-peel, so maintenance *must* fold
        // them regardless of what a mutable-world policy would decide.
        if self.config.immutable() && (!self.overflow.is_empty() || self.tombstones > 0) {
            return RebuildDecision::Rebuild {
                capacity: self.capacity,
            };
        }
        match self.policy.on_maintain(&self.observe()) {
            RebuildDecision::Defer => RebuildDecision::Keep,
            decision => decision,
        }
    }

    /// Test-only hook: pre-register `key` as bookkeeping-resident *without*
    /// offering it to the filter, reproducing the defensive state where a
    /// delete finds the key in the key set but not in the structure.
    #[cfg(test)]
    fn adopt_untracked_key(&mut self, key: u32) {
        assert!(self.keys.insert(key), "key already resident");
    }

    /// Rebuild the filter from the authoritative key set at a new capacity,
    /// under the lock — the one path for immediate urgency and backpressure
    /// — and book the stall against the write call paying for it.
    ///
    /// The folded live key set is inserted into the fresh filter; the
    /// overflow buffer folds in and tombstones are purged. The filter
    /// replaces the write side only — readers keep the previous snapshot
    /// until the caller publishes.
    fn rebuild(&mut self, capacity: usize) {
        let start = Instant::now();
        let capacity = capacity.max(64);
        let (filter, grown) = build_populated_filter(
            &self.config,
            self.keys.folded(),
            capacity,
            self.bits_per_key,
            self.counting,
        );
        self.filter = filter;
        self.capacity = grown;
        self.overflow.clear();
        self.tombstones = 0;
        self.rebuilds += 1;
        self.rebuild_epoch += 1;
        self.note_build_stall(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SaturationDoubling;
    use pof_bloom::{Addressing, BloomConfig};
    use pof_cuckoo::{CuckooAddressing, CuckooConfig};

    fn shard(config: FilterConfig, delete_mode: BloomDeleteMode) -> Shard {
        Shard::new(config, 256, 16.0, Arc::new(SaturationDoubling), delete_mode)
    }

    /// Run the rebuild a write call requested, as an inline store does
    /// before the call returns.
    fn run(shard: &Shard, ticket: Option<RebuildTicket>) {
        if let Some(ticket) = ticket {
            shard.run_rebuild(ticket);
        }
    }

    fn bloom_config() -> FilterConfig {
        FilterConfig::Bloom(BloomConfig::cache_sectorized(
            512,
            64,
            2,
            8,
            Addressing::Magic,
        ))
    }

    /// Regression (delete accounting): a delete that resolves to
    /// `DeleteOutcome::NotFound` removed nothing from the filter, so it must
    /// not be booked as a tombstone — the old `Unsupported | NotFound` arm
    /// inflated the count, which `FprDrift`'s mostly-dead heuristic compares
    /// against live keys.
    #[test]
    fn not_found_deletes_do_not_mint_tombstones() {
        let shard = shard(
            FilterConfig::Cuckoo(CuckooConfig::new(16, 2, CuckooAddressing::PowerOfTwo)),
            BloomDeleteMode::Tombstone,
        );
        let mut writer = shard.writer.lock().unwrap();
        // Resident in the bookkeeping, never offered to the filter: the
        // delete will probe the Cuckoo filter and find nothing.
        writer.adopt_untracked_key(42);
        let (removed, observable) = writer.delete_many(&[42]);
        assert_eq!(removed, 1, "the bookkeeping entry is gone");
        assert!(!observable, "nothing in the published state changed");
        assert_eq!(writer.tombstones, 0, "NotFound minted a tombstone");
        // A genuine tombstone-mode Bloom delete still counts.
        drop(writer);
        let bloom = self::shard(bloom_config(), BloomDeleteMode::Tombstone);
        let mut writer = bloom.writer.lock().unwrap();
        assert!(writer.insert_one(7));
        let (removed, _) = writer.delete_many(&[7]);
        assert_eq!((removed, writer.tombstones), (1, 1));
    }

    fn fuse_config() -> FilterConfig {
        FilterConfig::Fuse(pof_core::FuseConfig::fuse8())
    }

    /// Companion to the NotFound fix above, for the immutable family: a fuse
    /// filter has no false negatives, so `contains == false` *proves* a key
    /// absent — an absent-key delete must neither mint a tombstone nor
    /// trigger a re-peel of the whole shard.
    #[test]
    fn absent_key_deletes_on_immutable_shards_trigger_no_rebuild() {
        let shard = shard(fuse_config(), BloomDeleteMode::Tombstone);
        let keys: Vec<u32> = (0..300u32).map(|i| i * 17 + 3).collect();
        run(&shard, shard.insert_batch(&keys));
        let view = shard.consistent_view();
        let builds_before = view.rebuilds;
        assert_eq!(view.overflow, 0, "the insert batch folded its parked keys");
        // A key resident in the bookkeeping but provably absent from the
        // filter (the defensive NotFound state).
        let mut writer = shard.writer.lock().unwrap();
        let absent = (0..u32::MAX)
            .find(|k| !writer.filter.contains(*k))
            .expect("fpr < 1 leaves a negative");
        writer.adopt_untracked_key(absent);
        drop(writer);
        let (removed, _) = shard.delete_batch(&[absent]);
        assert_eq!(removed, 1, "the bookkeeping entry is gone");
        let view = shard.consistent_view();
        assert_eq!(view.tombstones, 0, "NotFound minted a tombstone");
        assert_eq!(view.rebuilds, builds_before, "NotFound forced a re-peel");
        // A genuine delete of present keys tombstones, and the batch-end
        // fold purges them through exactly one re-peel.
        let (removed, ticket) = shard.delete_batch(&keys[..50]);
        run(&shard, ticket);
        assert_eq!(removed, 50);
        let view = shard.consistent_view();
        assert_eq!(view.tombstones, 0, "the fold left tombstones behind");
        assert_eq!(view.rebuilds, builds_before + 1);
        let snapshot = shard.load();
        for &key in &keys[50..] {
            assert!(snapshot.contains(key), "survivor lost by the re-peel");
        }
    }

    /// Immutable shard lifecycle: per-key writes park in the overflow
    /// buffer, the batch end folds them with one re-peel, and no key is ever
    /// invisible in between.
    #[test]
    fn immutable_shards_fold_each_batch_with_one_rebuild() {
        let shard = shard(fuse_config(), BloomDeleteMode::Tombstone);
        let mut inserted: Vec<u32> = Vec::new();
        for batch in 0..4u32 {
            let keys: Vec<u32> = (0..200u32).map(|i| batch * 10_000 + i * 7).collect();
            run(&shard, shard.insert_batch(&keys));
            inserted.extend_from_slice(&keys);
            let view = shard.consistent_view();
            assert_eq!(view.overflow, 0, "batch {batch} left keys parked");
            assert_eq!(view.rebuilds, u64::from(batch) + 1, "one fold per batch");
            let snapshot = shard.load();
            for &key in &inserted {
                assert!(snapshot.contains(key), "batch {batch} lost {key}");
            }
        }
        assert_eq!(shard.key_count(), inserted.len());
    }

    /// Regression (occupancy arithmetic): with more parked keys than
    /// bookkeeping entries the old `keys - overflow + tombstones` expression
    /// underflowed in debug builds; the reordered saturating form clamps to
    /// zero at the exact boundary and stays exact elsewhere.
    #[test]
    fn occupancy_saturates_at_the_overflow_boundary() {
        let shard = shard(bloom_config(), BloomDeleteMode::Tombstone);
        let mut writer = shard.writer.lock().unwrap();
        writer.overflow = vec![1, 2, 3];
        assert_eq!(writer.observe().occupancy, 0, "must clamp, not underflow");
        // One past the boundary in the other direction stays exact.
        writer.adopt_untracked_key(9);
        writer.adopt_untracked_key(10);
        writer.adopt_untracked_key(11);
        writer.adopt_untracked_key(12);
        assert_eq!(writer.observe().occupancy, 1);
        writer.tombstones = 5;
        assert_eq!(writer.observe().occupancy, 6);
    }

    /// An inline migration re-peels the shard into the target family without
    /// losing a key, flips the delete machinery with it, and is idempotent.
    #[test]
    fn inline_migration_swaps_family_and_keeps_every_key() {
        let shard = shard(bloom_config(), BloomDeleteMode::Counting);
        let keys: Vec<u32> = (0..400u32).map(|i| i * 13 + 11).collect();
        run(&shard, shard.insert_batch(&keys));
        let (removed, ticket) = shard.delete_batch(&keys[..100]);
        run(&shard, ticket);
        assert_eq!(removed, 100);
        let target = MigrationTarget {
            config: fuse_config(),
            bits_per_key: 10.0,
            counting: false,
        };
        let MigrateOutcome::Requested(ticket) = shard.migrate(target) else {
            panic!("migration not requested");
        };
        shard.run_rebuild(ticket);
        let view = shard.consistent_view();
        assert_eq!(view.migrations, 1);
        assert_eq!(view.counting_sidecar_bytes, 0, "sidecar survived the swap");
        assert_eq!(shard.config().kind(), pof_filter::FilterKind::Fuse);
        let snapshot = shard.load();
        for &key in &keys[100..] {
            assert!(snapshot.contains(key), "migration lost {key}");
        }
        // Already at the target: a no-op, not a second rebuild.
        assert!(matches!(shard.migrate(target), MigrateOutcome::Unchanged));
        assert_eq!(shard.consistent_view().migrations, 1);
        // The migrated shard keeps absorbing writes through its new family.
        let more: Vec<u32> = (0..50u32).map(|i| 1_000_000 + i * 7).collect();
        run(&shard, shard.insert_batch(&more));
        let snapshot = shard.load();
        for &key in &more {
            assert!(snapshot.contains(key));
        }
    }

    /// Counting-mode shards delete Bloom keys in place: no tombstones, and
    /// the replacement filters of every rebuild path keep the sidecar.
    #[test]
    fn counting_shards_delete_in_place_and_rebuild_with_counters() {
        let shard = shard(bloom_config(), BloomDeleteMode::Counting);
        let keys: Vec<u32> = (0..200u32).map(|i| i * 31 + 5).collect();
        assert!(shard.insert_batch(&keys).is_none());
        let (removed, _) = shard.delete_batch(&keys[..100]);
        assert_eq!(removed, 100);
        let view = shard.consistent_view();
        assert_eq!(view.tombstones, 0, "counting mode must not tombstone");
        assert!(view.counting_sidecar_bytes > 0);
        // Deleted keys physically left the published snapshot (collisions
        // aside), live keys still answer.
        let snapshot = shard.load();
        for &key in &keys[100..] {
            assert!(snapshot.contains(key));
        }
        let still = keys[..100]
            .iter()
            .filter(|&&k| snapshot.contains(k))
            .count();
        assert!(still < 10, "{still} of 100 deleted keys still positive");
        // An inline rebuild must hand back a filter that can still delete.
        let mut writer = shard.writer.lock().unwrap();
        writer.rebuild(256);
        assert!(writer.filter.supports_delete(), "rebuild dropped counting");
        drop(writer);
        let (removed, _) = shard.delete_batch(&keys[100..150]);
        assert_eq!(removed, 50);
        assert_eq!(shard.consistent_view().tombstones, 0);
    }

    /// A shadow delete is invisible to readers at delete time — even on the
    /// in-place-delete families whose ordinary `delete_batch` clears bits
    /// immediately — and the bookkeeping still sees the keys gone, so the
    /// next rebuild (not the delete) purges the lingering positives.
    #[test]
    fn shadow_deletes_stay_invisible_until_the_next_rebuild() {
        for config in [
            FilterConfig::Cuckoo(CuckooConfig::new(16, 4, CuckooAddressing::PowerOfTwo)),
            bloom_config(),
        ] {
            for mode in [BloomDeleteMode::Tombstone, BloomDeleteMode::Counting] {
                let shard = shard(config, mode);
                let keys: Vec<u32> = (0..300u32).map(|i| i * 19 + 7).collect();
                run(&shard, shard.insert_batch(&keys));
                let removed = shard.shadow_delete_batch(&keys[..150]);
                assert_eq!(removed, 150);
                // Idempotent: the keys already left the bookkeeping.
                assert_eq!(shard.shadow_delete_batch(&keys[..150]), 0);
                assert_eq!(shard.key_count(), 150);
                let snapshot = shard.load();
                for &key in &keys {
                    assert!(
                        snapshot.contains(key),
                        "shadow delete of {key} became reader-visible (config {config:?}, {mode:?})"
                    );
                }
                // The purge happens at the next rebuild, rebuilt from the
                // post-delete key set.
                let mut writer = shard.writer.lock().unwrap();
                writer.rebuild(256);
                shard.publish(&writer);
                assert_eq!(writer.tombstones, 0, "rebuild left tombstones");
                drop(writer);
                let snapshot = shard.load();
                for &key in &keys[150..] {
                    assert!(snapshot.contains(key), "rebuild lost live key {key}");
                }
                let lingering = keys[..150]
                    .iter()
                    .filter(|&&key| snapshot.contains(key))
                    .count();
                assert!(
                    lingering < 15,
                    "{lingering} of 150 shadow-deleted keys survived the rebuild"
                );
            }
        }
    }

    /// Round-trip every delete family through `encode_state`/`decode_state`:
    /// the restored shard must answer identically, keep exact key counts,
    /// preserve lifecycle counters, and still honor deletes — including
    /// through the counting sidecar, which travels inside the filter codec.
    #[test]
    fn encode_decode_roundtrips_the_full_shard_state() {
        let configs = [
            (bloom_config(), BloomDeleteMode::Tombstone),
            (bloom_config(), BloomDeleteMode::Counting),
            (
                FilterConfig::Cuckoo(CuckooConfig::new(16, 4, CuckooAddressing::PowerOfTwo)),
                BloomDeleteMode::Tombstone,
            ),
            (fuse_config(), BloomDeleteMode::Tombstone),
        ];
        for (config, mode) in configs {
            let shard = shard(config, mode);
            let keys: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(2_654_435_769)).collect();
            run(&shard, shard.insert_batch(&keys));
            let (removed, ticket) = shard.delete_batch(&keys[..80]);
            run(&shard, ticket);
            assert_eq!(removed, 80);
            shard.shadow_delete_batch(&keys[80..120]);
            let mut payload = Vec::new();
            shard.encode_state(&mut payload);
            let mut cursor = Cursor::new(&payload);
            let restored = Shard::decode_state(&mut cursor, Arc::new(SaturationDoubling))
                .expect("encoded state must decode");
            cursor.finish().expect("decode must consume the payload");
            assert_eq!(restored.key_count(), shard.key_count());
            assert_eq!(restored.config(), shard.config());
            assert_eq!(restored.delete_mode(), shard.delete_mode());
            let original = shard.load();
            let mirror = restored.load();
            for probe in (0..20_000u32).map(|i| i * 31) {
                assert_eq!(
                    original.contains(probe),
                    mirror.contains(probe),
                    "restored shard diverges on {probe} (config {config:?}, {mode:?})"
                );
            }
            let before = shard.consistent_view();
            let after = restored.consistent_view();
            assert_eq!(after.rebuilds, before.rebuilds);
            assert_eq!(after.tombstones, before.tombstones);
            assert_eq!(after.overflow, before.overflow);
            // The restored shard is a live shard: inserts and deletes keep
            // working, and a rebuild from the restored key set reproduces a
            // working filter.
            let more: Vec<u32> = (0..100u32).map(|i| 900_000 + i * 3).collect();
            run(&restored, restored.insert_batch(&more));
            let (removed, ticket) = restored.delete_batch(&keys[120..160]);
            run(&restored, ticket);
            assert_eq!(removed, 40);
            let snapshot = restored.load();
            for &key in more.iter().chain(&keys[160..]) {
                assert!(snapshot.contains(key), "post-restore write lost {key}");
            }
        }
    }

    /// Corrupt shard payloads must fail decode, not build a half-shard.
    #[test]
    fn corrupt_shard_payloads_are_rejected() {
        let shard = shard(bloom_config(), BloomDeleteMode::Tombstone);
        shard.insert_batch(&[1, 2, 3, 4, 5]);
        let mut payload = Vec::new();
        shard.encode_state(&mut payload);
        // Truncations at every prefix length either decode-fail or leave
        // unconsumed bytes — never panic.
        for len in 0..payload.len() {
            let mut cursor = Cursor::new(&payload[..len]);
            let result = Shard::decode_state(&mut cursor, Arc::new(SaturationDoubling));
            if let Ok(_restored) = result {
                assert!(
                    cursor.finish().is_err(),
                    "truncated payload ({len} bytes) decoded cleanly"
                );
            }
        }
    }

    /// A key log that repeats a key is corrupt: accepting it would hand a
    /// Cuckoo rebuild more than `2·b` copies of one fingerprint, which fit
    /// at no capacity. An unsorted log of distinct keys is a valid set.
    #[test]
    fn decode_rejects_a_key_log_that_repeats_a_key() {
        let source = shard(bloom_config(), BloomDeleteMode::Tombstone);
        run(&source, source.insert_batch(&[2, 7, 51, 900]));
        let mut prefix = Vec::new();
        source.encode_state(&mut prefix);
        // Cut the trailing key log (4 keys) and empty overflow buffer, then
        // append hand-built ones.
        prefix.truncate(prefix.len() - (8 + 4 * 4) - 8);
        let decode = |keys: &[u32]| {
            let mut payload = prefix.clone();
            put_u32_slice(&mut payload, keys);
            put_u32_slice(&mut payload, &[]);
            let mut cursor = Cursor::new(&payload);
            Shard::decode_state(&mut cursor, Arc::new(SaturationDoubling))
        };
        assert!(matches!(decode(&[7, 7]), Err(CodecError::Invalid(_))));
        assert!(matches!(decode(&[3, 9, 3]), Err(CodecError::Invalid(_))));
        let restored = decode(&[900, 2, 51, 7]).expect("distinct keys decode");
        assert_eq!(restored.keys(), vec![2, 7, 51, 900]);
        let snapshot = restored.load();
        for key in [900, 2, 51, 7] {
            assert!(snapshot.contains(key), "restored shard lost {key}");
        }
        // The restored set still deduplicates.
        run(&restored, restored.insert_batch(&[51, 8]));
        assert_eq!(restored.key_count(), 5);
    }
}
