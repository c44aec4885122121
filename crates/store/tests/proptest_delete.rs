//! Property-based delete correctness: random interleavings of
//! `insert_batch` / `delete_batch` / `contains_batch` / `maintain` against a
//! `HashSet` oracle, across all three rebuild policies and all three delete
//! families (Cuckoo in-place, Bloom tombstone, Bloom counting).
//!
//! Invariants asserted on every interleaving:
//! * the store's live key count equals the oracle's size (tombstone-aware
//!   bookkeeping),
//! * `delete_batch` reports exactly the oracle's removal count,
//! * **no false negatives, ever**: every oracle member answers positive via
//!   both the point and the batch read path, through rebuilds, tombstones,
//!   overflow parks and folds.
//!
//! Cuckoo-shard stores additionally match the oracle *exactly* after
//! delete-then-reinsert cycles: deletes physically remove signatures, so a
//! fully drained store answers negative for everything.
//!
//! The interleaved oracle test also pins the rebuild contract: an inline
//! store behaves exactly like a queued twin drained after every call.

use pof_bloom::{Addressing, BloomConfig};
use pof_core::FilterConfig;
use pof_cuckoo::{CuckooAddressing, CuckooConfig};
use pof_filter::SelectionVector;
use pof_store::{
    BloomDeleteMode, DeferredBatch, FprDrift, RebuildMode, RebuildPolicy, SaturationDoubling,
    ShardedFilterStore, StoreBuilder,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Every delete family the store supports: Cuckoo shards (in-place by
/// construction; the delete mode is ignored), Bloom shards in tombstone
/// mode, and Bloom shards in counting mode.
fn family_strategy() -> impl Strategy<Value = (FilterConfig, BloomDeleteMode)> {
    prop_oneof![
        Just((
            FilterConfig::Bloom(BloomConfig::cache_sectorized(
                512,
                64,
                2,
                8,
                Addressing::Magic
            )),
            BloomDeleteMode::Tombstone
        )),
        Just((
            FilterConfig::Bloom(BloomConfig::register_blocked(32, 4, Addressing::PowerOfTwo)),
            BloomDeleteMode::Tombstone
        )),
        Just((
            FilterConfig::Bloom(BloomConfig::cache_sectorized(
                512,
                64,
                2,
                8,
                Addressing::Magic
            )),
            BloomDeleteMode::Counting
        )),
        Just((
            FilterConfig::Bloom(BloomConfig::register_blocked(32, 4, Addressing::PowerOfTwo)),
            BloomDeleteMode::Counting
        )),
        Just((
            FilterConfig::Cuckoo(CuckooConfig::new(16, 2, CuckooAddressing::PowerOfTwo)),
            BloomDeleteMode::Tombstone
        )),
        Just((
            FilterConfig::Cuckoo(CuckooConfig::new(8, 4, CuckooAddressing::Magic)),
            BloomDeleteMode::Tombstone
        )),
    ]
}

fn policy_for(index: usize) -> Arc<dyn RebuildPolicy> {
    match index {
        0 => Arc::new(SaturationDoubling),
        1 => Arc::new(FprDrift::new(2.0)),
        _ => Arc::new(DeferredBatch::new(64)),
    }
}

/// An inline store and its queued twin (drained after every call) must be
/// indistinguishable: same answers, same footprint, same lifecycle counts.
fn assert_twins_agree(
    inline: &ShardedFilterStore,
    queued: &ShardedFilterStore,
    probes: &[u32],
    label: &str,
) -> Result<(), TestCaseError> {
    let (mut inline_sel, mut queued_sel) = (SelectionVector::new(), SelectionVector::new());
    inline.contains_batch(probes, &mut inline_sel);
    queued.contains_batch(probes, &mut queued_sel);
    prop_assert_eq!(
        inline_sel.as_slice(),
        queued_sel.as_slice(),
        "{}: selections",
        label
    );
    prop_assert_eq!(
        inline.size_bits(),
        queued.size_bits(),
        "{}: size_bits",
        label
    );
    prop_assert_eq!(
        inline.key_count(),
        queued.key_count(),
        "{}: key_count",
        label
    );
    let (a, b) = (inline.stats(), queued.stats());
    prop_assert_eq!(
        a.total_rebuilds(),
        b.total_rebuilds(),
        "{}: rebuilds",
        label
    );
    prop_assert_eq!(
        a.total_tombstones(),
        b.total_tombstones(),
        "{}: tombstones",
        label
    );
    prop_assert_eq!(
        a.total_overflow(),
        b.total_overflow(),
        "{}: overflow",
        label
    );
    Ok(())
}

/// Every oracle member must qualify through the batch read path.
fn assert_no_false_negatives(store: &ShardedFilterStore, oracle: &HashSet<u32>, label: &str) {
    let members: Vec<u32> = oracle.iter().copied().collect();
    let mut sel = SelectionVector::new();
    store.contains_batch(&members, &mut sel);
    assert_eq!(
        sel.len(),
        members.len(),
        "{label}: a live key went missing ({} of {} answered)",
        sel.len(),
        members.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn interleaved_inserts_and_deletes_match_a_hashset_oracle(
        family in family_strategy(),
        policy_index in 0usize..3,
        shard_pow in 0u32..3,
        ops in prop::collection::vec(
            (0u8..4, prop::collection::vec(any::<u32>(), 1..300)),
            1..14,
        ),
    ) {
        let (config, delete_mode) = family;
        let build = |mode: RebuildMode| {
            StoreBuilder::new()
                .shards(1usize << shard_pow)
                // Deliberately tiny: growth, drift and deferral all trigger.
                .expected_keys(256)
                .bits_per_key(16.0)
                .config(config)
                .rebuild_policy(policy_for(policy_index))
                .bloom_deletes(delete_mode)
                .rebuild_mode(mode)
                .build()
        };
        let store = build(RebuildMode::Inline);
        let twin = build(RebuildMode::Queued);
        let mut oracle: HashSet<u32> = HashSet::new();
        let label = format!("{} policy#{policy_index} {delete_mode:?}", config.label());

        for (op, keys) in &ops {
            match op % 4 {
                0 => {
                    store.insert_batch(keys);
                    twin.insert_batch(keys);
                    oracle.extend(keys.iter().copied());
                }
                1 => {
                    // The oracle replays the same per-key semantics: a key is
                    // removed once; a duplicate within the batch is a no-op.
                    let mut expected = 0usize;
                    for &key in keys {
                        if oracle.remove(&key) {
                            expected += 1;
                        }
                    }
                    let removed = store.delete_batch(keys);
                    prop_assert_eq!(removed, expected, "{}: delete count", &label);
                    prop_assert_eq!(twin.delete_batch(keys), expected, "{}: twin", &label);
                }
                2 => {
                    // Batch lookups: no member of the oracle that happens to
                    // be probed may answer negative.
                    let mut sel = SelectionVector::new();
                    store.contains_batch(keys, &mut sel);
                    let hits: HashSet<u32> = sel.as_slice().iter().map(|&i| keys[i as usize]).collect();
                    for &key in keys.iter().filter(|k| oracle.contains(k)) {
                        prop_assert!(hits.contains(&key), "{}: false negative for {key}", &label);
                    }
                }
                _ => {
                    store.maintain();
                    twin.maintain();
                }
            }
            twin.run_pending_rebuilds(usize::MAX);
            assert_twins_agree(&store, &twin, keys, &label)?;
            prop_assert_eq!(store.key_count(), oracle.len(), "{}: key_count", &label);
            if delete_mode == BloomDeleteMode::Counting {
                // Counting shards delete in place; tombstones never appear.
                prop_assert_eq!(store.stats().total_tombstones(), 0u64, "{}", &label);
            }
        }
        assert_no_false_negatives(&store, &oracle, &label);
        // And after a final fold/purge everything still holds.
        store.maintain();
        twin.maintain();
        let members: Vec<u32> = oracle.iter().copied().collect();
        assert_twins_agree(&store, &twin, &members, &label)?;
        prop_assert_eq!(store.key_count(), oracle.len());
        assert_no_false_negatives(&store, &oracle, &label);
    }

    /// The background-rebuild twin of the interleaved oracle test, with the
    /// delta-replay window under direct proptest control: the store runs in
    /// queued mode (rebuild jobs advance one phase — snapshot, then
    /// build+replay+swap — per explicit step), the tiny sizing forces every
    /// policy to keep requesting rebuilds, and the op stream interleaves
    /// `insert_batch`/`delete_batch` with rebuild phases at random. No
    /// oracle member may answer negative at *any* intermediate snapshot —
    /// before the key-set snapshot, inside the delta window, right after the
    /// swap — and the live count must track the oracle exactly.
    #[test]
    fn background_rebuilds_preserve_the_oracle_at_every_interleaving(
        family in family_strategy(),
        policy_index in 0usize..3,
        shard_pow in 0u32..3,
        ops in prop::collection::vec(
            (0u8..5, prop::collection::vec(any::<u32>(), 1..300)),
            1..16,
        ),
    ) {
        let (config, delete_mode) = family;
        let store = StoreBuilder::new()
            .shards(1usize << shard_pow)
            // Deliberately tiny: rebuild requests fire constantly, so the
            // delta-replay window is open for most of the op stream.
            .expected_keys(256)
            .bits_per_key(16.0)
            .config(config)
            .rebuild_policy(policy_for(policy_index))
            .rebuild_mode(RebuildMode::Queued)
            .bloom_deletes(delete_mode)
            .build();
        let mut oracle: HashSet<u32> = HashSet::new();
        let label = format!(
            "{} policy#{policy_index} {delete_mode:?} background",
            config.label()
        );

        for (op, keys) in &ops {
            match op % 5 {
                0 => {
                    store.insert_batch(keys);
                    oracle.extend(keys.iter().copied());
                }
                1 => {
                    let mut expected = 0usize;
                    for &key in keys {
                        if oracle.remove(&key) {
                            expected += 1;
                        }
                    }
                    let removed = store.delete_batch(keys);
                    prop_assert_eq!(removed, expected, "{}: delete count", &label);
                }
                2 => {
                    let mut sel = SelectionVector::new();
                    store.contains_batch(keys, &mut sel);
                    let hits: HashSet<u32> = sel.as_slice().iter().map(|&i| keys[i as usize]).collect();
                    for &key in keys.iter().filter(|k| oracle.contains(k)) {
                        prop_assert!(hits.contains(&key), "{}: false negative for {key}", &label);
                    }
                }
                3 => {
                    // Advance one rebuild phase: a snapshot (opening the
                    // delta window) or a build+replay+swap, whichever is
                    // next in the queue. The key count (batch length) adds
                    // schedule variety for free.
                    store.run_pending_rebuilds(keys.len() % 2 + 1);
                }
                _ => {
                    // Drain barrier: every requested rebuild lands.
                    store.maintain();
                    prop_assert_eq!(store.pending_rebuilds(), 0usize);
                }
            }
            prop_assert_eq!(store.key_count(), oracle.len(), "{}: key_count", &label);
            assert_no_false_negatives(&store, &oracle, &label);
        }
        // Settle all in-flight work; the contract must hold exactly.
        store.maintain();
        prop_assert_eq!(store.key_count(), oracle.len());
        assert_no_false_negatives(&store, &oracle, &label);
    }

    /// Cuckoo shards delete physically: after arbitrary delete-then-reinsert
    /// cycles the store matches the oracle exactly — a fully drained store
    /// answers negative for *every* probe (no residue), and reinserted keys
    /// are indistinguishable from never-deleted ones.
    #[test]
    fn cuckoo_stores_match_the_oracle_exactly_through_delete_reinsert_cycles(
        policy_index in 0usize..3,
        keys in prop::collection::hash_set(any::<u32>(), 64..1_500),
        cycles in 1usize..4,
    ) {
        let keys: Vec<u32> = keys.into_iter().collect();
        let config = FilterConfig::Cuckoo(CuckooConfig::new(16, 2, CuckooAddressing::PowerOfTwo));
        let store = StoreBuilder::new()
            .shards(4)
            .expected_keys(keys.len())
            .bits_per_key(20.0)
            .config(config)
            .rebuild_policy(policy_for(policy_index))
            .build();
        let mut oracle: HashSet<u32> = HashSet::new();

        store.insert_batch(&keys);
        oracle.extend(keys.iter().copied());
        for cycle in 0..cycles {
            // Delete a rotating half, verify, reinsert it.
            let half: Vec<u32> = keys
                .iter()
                .copied()
                .filter(|k| (*k as usize + cycle).is_multiple_of(2))
                .collect();
            for key in &half {
                oracle.remove(key);
            }
            prop_assert_eq!(store.delete_batch(&half), half.len());
            prop_assert_eq!(store.key_count(), oracle.len());
            assert_no_false_negatives(&store, &oracle, "cuckoo cycle");
            store.insert_batch(&half);
            oracle.extend(half.iter().copied());
            prop_assert_eq!(store.key_count(), oracle.len());
        }
        assert_no_false_negatives(&store, &oracle, "cuckoo final");

        // Drain completely: an emptied Cuckoo store holds zero signatures,
        // so every former member must now answer negative — exact agreement
        // with the empty oracle, not just "no false negatives".
        prop_assert_eq!(store.delete_batch(&keys), keys.len());
        prop_assert_eq!(store.key_count(), 0);
        store.maintain();
        let mut sel = SelectionVector::new();
        store.contains_batch(&keys, &mut sel);
        prop_assert_eq!(sel.len(), 0, "drained cuckoo store still answers positive");
        prop_assert_eq!(store.stats().total_tombstones(), 0u64);
    }

    /// Deletes of absent keys, double-deletes and re-inserts after delete:
    /// one op stream over a deliberately tiny key domain (0..400, so the
    /// collisions actually happen) applied side by side to all three delete
    /// families — Cuckoo in-place, Bloom tombstone, Bloom counting — against
    /// a single `HashSet` oracle. Every family must report the oracle's
    /// removal counts, track its live count, and stay false-negative-free;
    /// the counting store must additionally never mint a tombstone.
    #[test]
    fn absent_double_and_reinserted_deletes_agree_across_delete_modes(
        policy_index in 0usize..3,
        ops in prop::collection::vec(
            (0u8..3, prop::collection::vec(0u32..400, 1..120)),
            1..18,
        ),
    ) {
        let families: Vec<(&str, FilterConfig, BloomDeleteMode)> = vec![
            (
                "cuckoo-in-place",
                FilterConfig::Cuckoo(CuckooConfig::new(16, 2, CuckooAddressing::PowerOfTwo)),
                BloomDeleteMode::Tombstone,
            ),
            (
                "bloom-tombstone",
                FilterConfig::Bloom(BloomConfig::cache_sectorized(
                    512,
                    64,
                    2,
                    8,
                    Addressing::Magic,
                )),
                BloomDeleteMode::Tombstone,
            ),
            (
                "bloom-counting",
                FilterConfig::Bloom(BloomConfig::cache_sectorized(
                    512,
                    64,
                    2,
                    8,
                    Addressing::Magic,
                )),
                BloomDeleteMode::Counting,
            ),
        ];
        let stores: Vec<(&str, BloomDeleteMode, ShardedFilterStore)> = families
            .into_iter()
            .map(|(name, config, mode)| {
                let store = StoreBuilder::new()
                    .shards(2)
                    .expected_keys(128)
                    .bits_per_key(18.0)
                    .config(config)
                    .rebuild_policy(policy_for(policy_index))
                    .bloom_deletes(mode)
                    .build();
                (name, mode, store)
            })
            .collect();
        let mut oracle: HashSet<u32> = HashSet::new();

        for (op, keys) in &ops {
            match op % 3 {
                0 => {
                    // With a 400-key domain most inserts are re-inserts of
                    // previously deleted keys.
                    for (_, _, store) in &stores {
                        store.insert_batch(keys);
                    }
                    oracle.extend(keys.iter().copied());
                }
                1 => {
                    // The batch mixes live keys, absent keys (never inserted
                    // or already deleted) and duplicates; every family must
                    // report exactly the oracle's removal count.
                    let mut expected = 0usize;
                    for &key in keys {
                        if oracle.remove(&key) {
                            expected += 1;
                        }
                    }
                    for (name, _, store) in &stores {
                        prop_assert_eq!(
                            store.delete_batch(keys), expected,
                            "{}: removal count", name
                        );
                        // An immediate double-delete of the very same batch
                        // removes nothing and corrupts nothing.
                        prop_assert_eq!(
                            store.delete_batch(keys), 0,
                            "{}: double-delete", name
                        );
                    }
                }
                _ => {
                    for (_, _, store) in &stores {
                        store.maintain();
                    }
                }
            }
            for (name, mode, store) in &stores {
                prop_assert_eq!(store.key_count(), oracle.len(), "{}: key_count", name);
                assert_no_false_negatives(store, &oracle, name);
                if *mode == BloomDeleteMode::Counting {
                    prop_assert_eq!(
                        store.stats().total_tombstones(), 0u64,
                        "{}: counting minted tombstones", name
                    );
                }
            }
        }
        // A final reinsert-everything wave: previously deleted keys must be
        // indistinguishable from fresh ones in every family.
        let all: Vec<u32> = (0..400).collect();
        for (_, _, store) in &stores {
            store.insert_batch(&all);
        }
        oracle.extend(all.iter().copied());
        for (name, _, store) in &stores {
            store.maintain();
            prop_assert_eq!(store.key_count(), oracle.len(), "{}: final key_count", name);
            assert_no_false_negatives(store, &oracle, name);
        }
    }
}
