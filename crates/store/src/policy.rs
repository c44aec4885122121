//! Pluggable shard rebuild policies: *when* and *how* a shard's filter is
//! rebuilt is a policy decision, not a hard-coded side effect of the write
//! path.
//!
//! The paper's central claim is that the performance-optimal filter depends
//! on the workload; the same holds one level up, for filter *maintenance*.
//! A bulk-loaded join side wants the cheapest possible steady state
//! ([`SaturationDoubling`]), an FPR-budgeted serving tier wants rebuilds
//! driven by modeled false-positive drift and wants to shrink after deletes
//! ([`FprDrift`]), and a bursty ingest pipeline wants writes to stay
//! latency-flat and fold the overflow in on its own schedule
//! ([`DeferredBatch`], motivated by deferred/amortized maintenance à la
//! "Don't Thrash: How to Cache Your Hash on Flash" and the burst-tolerance
//! analysis of arXiv:2006.15254).
//!
//! A policy only *decides*; the shard writer executes. Decisions are pure
//! functions of a [`ShardObservation`], so policies are trivially shareable
//! across shards (`Arc<dyn RebuildPolicy>`) and unit-testable in isolation.

use pof_core::{AnyFilter, FilterConfig};

/// How urgently a [`RebuildDecision::Rebuild`] must take effect.
///
/// Shard writers consult it at decision time, whatever the store's
/// [`RebuildMode`](crate::RebuildMode): a `Deferrable` rebuild becomes a
/// job for the maintainer (the triggering key remains visible through the
/// current filter or the exact overflow buffer until the swap), an
/// `Immediate` one builds right away under the shard lock — the escape
/// hatch for policies whose decision *enforces a hard bound* that deferral
/// would violate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebuildUrgency {
    /// The rebuild may run off-lock on the maintainer (the default).
    #[default]
    Deferrable,
    /// The rebuild must build right away under the shard lock, in every
    /// rebuild mode.
    Immediate,
}

/// What the shard writer should do after a state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildDecision {
    /// Leave the filter as it is.
    Keep,
    /// Rebuild the filter now, sized for `capacity` keys, replaying the
    /// shard's live key set (which folds in any overflow and purges any
    /// tombstones).
    Rebuild {
        /// Key capacity the rebuilt filter is sized for.
        capacity: usize,
    },
    /// Divert the key that triggered this decision into the shard's exact
    /// side buffer instead of the filter. Readers probe the buffer, so the
    /// key stays visible; a later [`RebuildDecision::Rebuild`] folds it in.
    Defer,
}

/// A consistent view of one shard's write side, handed to policy hooks.
///
/// The `filter` reference lets a policy compute modeled statistics (e.g.
/// [`ShardObservation::modeled_fpr`]) *only when it needs them*, keeping
/// cheap policies cheap on the per-key insert path.
#[derive(Debug)]
pub struct ShardObservation<'a> {
    /// Live (inserted minus deleted) keys the shard is responsible for,
    /// including any keys currently parked in the overflow buffer.
    pub live_keys: usize,
    /// Key count the current filter was sized for.
    pub capacity: usize,
    /// Keys currently parked in the exact overflow side buffer.
    pub overflow_len: usize,
    /// Deleted keys still represented in the filter (Bloom tombstones).
    /// Structurally zero for Cuckoo shards and for Bloom shards in counting
    /// delete mode ([`crate::BloomDeleteMode::Counting`]) — with nothing
    /// tombstoned, the purge clauses of every built-in policy go quiet and a
    /// delete-heavy shard stops rebuilding.
    pub tombstones: usize,
    /// Keys physically resident in the filter:
    /// `live_keys − overflow_len + tombstones`. The cheap proxy for filter
    /// occupancy — policies should gate any expensive modeled-FPR evaluation
    /// on this (below `capacity` the modeled rate cannot exceed its
    /// nominal-occupancy budget).
    pub occupancy: usize,
    /// The false-positive rate the shard's `(config, bits_per_key)` pair was
    /// budgeted for at nominal occupancy.
    pub budget_fpr: f64,
    /// The live write-side filter (read-only for policies).
    pub filter: &'a AnyFilter,
    /// The configuration every rebuild of this shard uses.
    pub config: &'a FilterConfig,
}

impl ShardObservation<'_> {
    /// Analytical false-positive rate of the write-side filter at its current
    /// occupancy (tombstoned keys still count — they still set bits).
    #[must_use]
    pub fn modeled_fpr(&self) -> f64 {
        self.filter.modeled_fpr()
    }
}

/// A shard-lifecycle policy: decides when the filter is rebuilt, how large
/// the rebuild is, and whether writes may be deferred into the overflow
/// buffer.
///
/// Implementations must be cheap and deterministic — hooks run under the
/// shard's write lock, once per appended key ([`on_append`]) or once per
/// batch ([`on_delete`], [`on_maintain`]).
///
/// [`on_append`]: RebuildPolicy::on_append
/// [`on_delete`]: RebuildPolicy::on_delete
/// [`on_maintain`]: RebuildPolicy::on_maintain
pub trait RebuildPolicy: Send + Sync + std::fmt::Debug {
    /// Short label for stats and logs.
    fn name(&self) -> &'static str;

    /// A fresh key was appended to the shard's key set but not yet offered to
    /// the filter. `Keep` inserts it into the filter, `Defer` parks it in the
    /// overflow buffer, `Rebuild` replays everything (including this key)
    /// into a fresh filter.
    fn on_append(&self, observation: &ShardObservation<'_>) -> RebuildDecision;

    /// The filter refused the key (a Cuckoo relocation chain failed).
    /// `Rebuild` and `Defer` both keep the key represented; a policy
    /// answering `Keep` here gets the key deferred anyway — the store never
    /// loses a key.
    fn on_filter_full(&self, observation: &ShardObservation<'_>) -> RebuildDecision;

    /// A delete batch just finished (`Defer` is meaningless here and treated
    /// as `Keep`).
    fn on_delete(&self, observation: &ShardObservation<'_>) -> RebuildDecision;

    /// An explicit maintenance call ([`crate::ShardedFilterStore::maintain`]).
    /// This is the hook where deferred work (overflow folds, tombstone
    /// purges, shrinks) is expected to happen.
    fn on_maintain(&self, observation: &ShardObservation<'_>) -> RebuildDecision;

    /// How urgently this policy's `Rebuild` decisions must take effect when
    /// the store runs a background maintainer. The default — every rebuild
    /// is [`RebuildUrgency::Deferrable`] — is right for saturation growth,
    /// FPR-drift re-fits and shrinks, and overflow folds alike: correctness
    /// never depends on the rebuild happening *now* (the overflow buffer and
    /// the delta replay keep every key visible). Override it only to enforce
    /// a hard bound, as [`DeferredBatch`] does for a runaway side buffer.
    fn urgency(&self, observation: &ShardObservation<'_>) -> RebuildUrgency {
        let _ = observation;
        RebuildUrgency::Deferrable
    }
}

/// Smallest capacity on the binary ladder `64 · 2^k` that holds `target`
/// keys.
fn ladder_capacity(target: usize) -> usize {
    let mut capacity = 64usize;
    while capacity < target {
        capacity *= 2;
    }
    capacity
}

/// Smallest doubling of `capacity` that holds `live` keys (grow-only).
fn grown_capacity(mut capacity: usize, live: usize) -> usize {
    while capacity < live {
        capacity *= 2;
    }
    capacity
}

/// The classic policy (and the default): double the filter the moment the
/// shard outgrows its sized capacity or the filter refuses a key.
///
/// This reproduces the store's original hard-coded behavior: rebuilds are
/// requested at exactly `2 × capacity` (doubled further if the shard
/// outgrew that by the time the job snapshots it), deletes never trigger a
/// rebuild (Bloom tombstones are purged by the next saturation rebuild or an
/// explicit `maintain()`), and nothing is ever deferred.
#[derive(Debug, Clone, Copy, Default)]
pub struct SaturationDoubling;

impl RebuildPolicy for SaturationDoubling {
    fn name(&self) -> &'static str {
        "saturation-doubling"
    }

    fn on_append(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        if observation.live_keys > observation.capacity {
            RebuildDecision::Rebuild {
                capacity: observation.capacity * 2,
            }
        } else {
            RebuildDecision::Keep
        }
    }

    fn on_filter_full(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        RebuildDecision::Rebuild {
            capacity: observation.capacity * 2,
        }
    }

    fn on_delete(&self, _observation: &ShardObservation<'_>) -> RebuildDecision {
        RebuildDecision::Keep
    }

    fn on_maintain(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        if observation.tombstones > 0 || observation.overflow_len > 0 {
            RebuildDecision::Rebuild {
                capacity: observation.capacity,
            }
        } else {
            RebuildDecision::Keep
        }
    }
}

/// Rebuild when the modeled false-positive rate drifts past a configured
/// multiple of the shard's budget, re-fitting the filter to the live key
/// count — growing under inserts *and shrinking after deletes*.
///
/// Bloom occupancy (including tombstones) drives the modeled rate up as keys
/// accumulate; when it crosses `budget_multiple × budget_fpr` the shard is
/// rebuilt at [`FprDrift::headroom`] × live keys on the `64·2^k` capacity
/// ladder, which both purges tombstones and restores the budget. Deletes
/// trigger the same re-fit once the shard is mostly dead (more tombstones
/// than live keys) or its capacity is ≥ 4x oversized for what remains.
#[derive(Debug, Clone, Copy)]
pub struct FprDrift {
    budget_multiple: f64,
    headroom: f64,
}

impl FprDrift {
    /// Rebuild once the modeled FPR exceeds `budget_multiple` (clamped to
    /// ≥ 1) times the budgeted rate. Headroom defaults to 1.25.
    #[must_use]
    pub fn new(budget_multiple: f64) -> Self {
        Self {
            budget_multiple: budget_multiple.max(1.0),
            headroom: 1.25,
        }
    }

    /// Override the slack factor applied to the live key count when re-fitting
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn headroom(mut self, headroom: f64) -> Self {
        self.headroom = headroom.max(1.0);
        self
    }

    /// Capacity that re-fits `live` keys with this policy's headroom.
    fn refit(&self, live: usize) -> usize {
        ladder_capacity((live as f64 * self.headroom).ceil() as usize)
    }

    /// Has the modeled FPR drifted past the budgeted multiple?
    ///
    /// Gated on occupancy: at or below nominal occupancy the modeled rate is
    /// at most the budget itself (FPR is monotone in occupancy and the
    /// budget *is* the nominal-occupancy rate, with `budget_multiple ≥ 1`),
    /// so the expensive model — a nested Poisson series for blocked Bloom
    /// variants — is only evaluated past nominal.
    fn drifted(&self, observation: &ShardObservation<'_>) -> bool {
        observation.occupancy > observation.capacity
            && observation.modeled_fpr() > self.budget_multiple * observation.budget_fpr
    }
}

impl Default for FprDrift {
    /// Rebuild at 2x the budgeted false-positive rate.
    fn default() -> Self {
        Self::new(2.0)
    }
}

impl RebuildPolicy for FprDrift {
    fn name(&self) -> &'static str {
        "fpr-drift"
    }

    fn on_append(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        // This hook runs once per fresh key, so it additionally throttles
        // the model to every 32nd key past nominal occupancy (the first
        // over-nominal key is always checked). Drift detection lags by at
        // most 32 keys; rebuild sizing is unaffected.
        let over_nominal = observation.occupancy.saturating_sub(observation.capacity);
        let check_now = over_nominal > 0 && (over_nominal - 1).is_multiple_of(32);
        if check_now && self.drifted(observation) {
            RebuildDecision::Rebuild {
                capacity: self.refit(observation.live_keys),
            }
        } else {
            RebuildDecision::Keep
        }
    }

    fn on_filter_full(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        // The filter physically refused a key; re-fit, but never below a
        // doubling (a refit at the current ladder step would refuse again).
        RebuildDecision::Rebuild {
            capacity: self
                .refit(observation.live_keys)
                .max(observation.capacity * 2),
        }
    }

    fn on_delete(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        let refit = self.refit(observation.live_keys);
        let mostly_dead = observation.tombstones > observation.live_keys;
        let oversized = refit.saturating_mul(4) <= observation.capacity;
        if self.drifted(observation) || mostly_dead || oversized {
            RebuildDecision::Rebuild { capacity: refit }
        } else {
            RebuildDecision::Keep
        }
    }

    fn on_maintain(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        // Re-fit with a dead band (mirroring `on_delete`): rebuild a clean,
        // undrifted shard only when it is undersized or ≥ 4x oversized — an
        // exact `refit != capacity` test would rebuild healthy shards on
        // every maintain() whenever the live count sits near a capacity
        // ladder boundary.
        let refit = self.refit(observation.live_keys);
        let undersized = refit > observation.capacity;
        let oversized = refit.saturating_mul(4) <= observation.capacity;
        if observation.tombstones > 0
            || observation.overflow_len > 0
            || self.drifted(observation)
            || undersized
            || oversized
        {
            RebuildDecision::Rebuild { capacity: refit }
        } else {
            RebuildDecision::Keep
        }
    }
}

/// Keep writes latency-flat: a saturated shard absorbs overflow keys into an
/// exact side buffer (probed by readers, so nothing goes missing) instead of
/// rebuilding inline, and folds them into a right-sized filter on the next
/// explicit [`maintain()`](crate::ShardedFilterStore::maintain) call.
///
/// The buffer is bounded: once `max_overflow` keys are parked, the shard
/// rebuilds inline after all (an unbounded exact buffer would silently turn
/// the filter into a lookup table). Cuckoo relocation failures are also
/// absorbed into the buffer — a burst of hostile keys no longer triggers an
/// inline O(n) rebuild in the middle of an ingest spike.
#[derive(Debug, Clone, Copy)]
pub struct DeferredBatch {
    max_overflow: usize,
}

impl DeferredBatch {
    /// Defer up to `max_overflow` keys (clamped to ≥ 1) per shard between
    /// [`maintain()`](crate::ShardedFilterStore::maintain) calls.
    #[must_use]
    pub fn new(max_overflow: usize) -> Self {
        Self {
            max_overflow: max_overflow.max(1),
        }
    }

    /// The per-shard overflow bound.
    #[must_use]
    pub fn max_overflow(&self) -> usize {
        self.max_overflow
    }
}

impl Default for DeferredBatch {
    /// Defer up to 1024 keys per shard between maintenance calls.
    fn default() -> Self {
        Self::new(1024)
    }
}

impl RebuildPolicy for DeferredBatch {
    fn name(&self) -> &'static str {
        "deferred-batch"
    }

    fn on_append(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        if observation.live_keys <= observation.capacity {
            RebuildDecision::Keep
        } else if observation.overflow_len >= self.max_overflow {
            RebuildDecision::Rebuild {
                capacity: grown_capacity(observation.capacity, observation.live_keys),
            }
        } else {
            RebuildDecision::Defer
        }
    }

    fn on_filter_full(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        if observation.overflow_len >= self.max_overflow {
            RebuildDecision::Rebuild {
                capacity: grown_capacity(observation.capacity * 2, observation.live_keys),
            }
        } else {
            RebuildDecision::Defer
        }
    }

    fn on_delete(&self, _observation: &ShardObservation<'_>) -> RebuildDecision {
        RebuildDecision::Keep
    }

    fn on_maintain(&self, observation: &ShardObservation<'_>) -> RebuildDecision {
        if observation.overflow_len > 0 || observation.tombstones > 0 {
            RebuildDecision::Rebuild {
                capacity: grown_capacity(observation.capacity, observation.live_keys),
            }
        } else {
            RebuildDecision::Keep
        }
    }

    /// The overflow bound is this policy's contract: an exact side buffer
    /// that outgrows its cap is silently becoming a lookup table. A fold can
    /// still run in the background while the buffer is merely *at* the cap
    /// (fresh keys keep landing in the current filter meanwhile), but once
    /// it has ballooned to 4x — the shard saturated faster than the
    /// maintainer could fold — the rebuild goes inline to restore the bound.
    fn urgency(&self, observation: &ShardObservation<'_>) -> RebuildUrgency {
        if observation.overflow_len >= self.max_overflow.saturating_mul(4) {
            RebuildUrgency::Immediate
        } else {
            RebuildUrgency::Deferrable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pof_bloom::{Addressing, BloomConfig};

    fn observation<'a>(
        filter: &'a AnyFilter,
        config: &'a FilterConfig,
        live: usize,
        capacity: usize,
        overflow: usize,
        tombstones: usize,
    ) -> ShardObservation<'a> {
        ShardObservation {
            live_keys: live,
            capacity,
            overflow_len: overflow,
            tombstones,
            occupancy: live - overflow + tombstones,
            budget_fpr: config.modeled_fpr(capacity as f64, 12.0).unwrap_or(0.01),
            filter,
            config,
        }
    }

    fn bloom() -> (FilterConfig, AnyFilter) {
        let config = FilterConfig::Bloom(BloomConfig::cache_sectorized(
            512,
            64,
            2,
            8,
            Addressing::Magic,
        ));
        let filter = AnyFilter::build(&config, 1_000, 12.0);
        (config, filter)
    }

    #[test]
    fn saturation_doubling_matches_the_legacy_rules() {
        let (config, filter) = bloom();
        let policy = SaturationDoubling;
        let at_capacity = observation(&filter, &config, 1_000, 1_000, 0, 0);
        assert_eq!(policy.on_append(&at_capacity), RebuildDecision::Keep);
        let over = observation(&filter, &config, 1_001, 1_000, 0, 0);
        assert_eq!(
            policy.on_append(&over),
            RebuildDecision::Rebuild { capacity: 2_000 }
        );
        assert_eq!(
            policy.on_filter_full(&at_capacity),
            RebuildDecision::Rebuild { capacity: 2_000 }
        );
        // Deletes never rebuild inline; maintain purges tombstones in place.
        let tombstoned = observation(&filter, &config, 900, 1_000, 0, 100);
        assert_eq!(policy.on_delete(&tombstoned), RebuildDecision::Keep);
        assert_eq!(
            policy.on_maintain(&tombstoned),
            RebuildDecision::Rebuild { capacity: 1_000 }
        );
        let clean = observation(&filter, &config, 900, 1_000, 0, 0);
        assert_eq!(policy.on_maintain(&clean), RebuildDecision::Keep);
    }

    #[test]
    fn fpr_drift_refits_on_drift_and_shrinks_when_oversized() {
        let (config, filter) = bloom();
        // `filter` is empty, so its modeled FPR is ~0: no drift.
        let policy = FprDrift::new(2.0);
        let quiet = observation(&filter, &config, 500, 1_000, 0, 0);
        assert_eq!(policy.on_append(&quiet), RebuildDecision::Keep);
        // A shard whose capacity is >= 4x its refit target shrinks on delete.
        let oversized = observation(&filter, &config, 100, 4_096, 0, 0);
        assert_eq!(
            policy.on_delete(&oversized),
            RebuildDecision::Rebuild { capacity: 128 }
        );
        // Mostly-dead shards rebuild to purge tombstones.
        let dead = observation(&filter, &config, 100, 256, 0, 150);
        assert_eq!(
            policy.on_delete(&dead),
            RebuildDecision::Rebuild { capacity: 128 }
        );
        // Maintenance re-fits whenever the ladder step is off.
        let offstep = observation(&filter, &config, 100, 1_024, 0, 0);
        assert_eq!(
            policy.on_maintain(&offstep),
            RebuildDecision::Rebuild { capacity: 128 }
        );
    }

    #[test]
    fn deferred_batch_parks_overflow_until_maintain() {
        let (config, filter) = bloom();
        let policy = DeferredBatch::new(4);
        let saturated = observation(&filter, &config, 1_001, 1_000, 0, 0);
        assert_eq!(policy.on_append(&saturated), RebuildDecision::Defer);
        assert_eq!(policy.on_filter_full(&saturated), RebuildDecision::Defer);
        // The buffer is bounded: at the cap the shard rebuilds inline.
        let full_buffer = observation(&filter, &config, 1_005, 1_000, 4, 0);
        assert_eq!(
            policy.on_append(&full_buffer),
            RebuildDecision::Rebuild { capacity: 2_000 }
        );
        // Maintenance folds the overflow into a grown filter.
        let parked = observation(&filter, &config, 1_003, 1_000, 3, 0);
        assert_eq!(
            policy.on_maintain(&parked),
            RebuildDecision::Rebuild { capacity: 2_000 }
        );
        let clean = observation(&filter, &config, 900, 1_000, 0, 0);
        assert_eq!(policy.on_maintain(&clean), RebuildDecision::Keep);
        assert_eq!(policy.on_delete(&clean), RebuildDecision::Keep);
    }

    #[test]
    fn urgency_is_deferrable_except_for_runaway_overflow() {
        let (config, filter) = bloom();
        // Growth and drift decisions may always run off-lock.
        let saturated = observation(&filter, &config, 1_001, 1_000, 0, 0);
        assert_eq!(
            SaturationDoubling.urgency(&saturated),
            RebuildUrgency::Deferrable
        );
        assert_eq!(
            FprDrift::new(2.0).urgency(&saturated),
            RebuildUrgency::Deferrable
        );
        // DeferredBatch tolerates background folds at the cap, but a buffer
        // at 4x the cap must fold inline to restore its hard bound.
        let policy = DeferredBatch::new(4);
        let at_cap = observation(&filter, &config, 1_005, 1_000, 4, 0);
        assert_eq!(policy.urgency(&at_cap), RebuildUrgency::Deferrable);
        let runaway = observation(&filter, &config, 1_020, 1_000, 16, 0);
        assert_eq!(policy.urgency(&runaway), RebuildUrgency::Immediate);
    }

    #[test]
    fn capacity_ladders() {
        assert_eq!(ladder_capacity(0), 64);
        assert_eq!(ladder_capacity(64), 64);
        assert_eq!(ladder_capacity(65), 128);
        assert_eq!(ladder_capacity(1_000), 1_024);
        assert_eq!(grown_capacity(1_000, 900), 1_000);
        assert_eq!(grown_capacity(1_000, 1_001), 2_000);
        assert_eq!(grown_capacity(1_000, 4_001), 8_000);
    }
}
