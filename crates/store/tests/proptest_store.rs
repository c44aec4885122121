//! Property-based equivalence of the sharded store against unsharded
//! `AnyFilter` oracles.

use pof_bloom::{Addressing, BloomConfig};
use pof_core::{AnyFilter, FilterConfig};
use pof_cuckoo::{CuckooAddressing, CuckooConfig};
use pof_filter::{Filter, SelectionVector};
use pof_store::ShardedFilterStore;
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = FilterConfig> {
    prop_oneof![
        Just(FilterConfig::Bloom(BloomConfig::cache_sectorized(
            512,
            64,
            2,
            8,
            Addressing::Magic
        ))),
        Just(FilterConfig::Bloom(BloomConfig::register_blocked(
            32,
            4,
            Addressing::PowerOfTwo
        ))),
        Just(FilterConfig::Bloom(BloomConfig::blocked(
            512,
            6,
            Addressing::PowerOfTwo
        ))),
        Just(FilterConfig::Cuckoo(CuckooConfig::new(
            16,
            2,
            CuckooAddressing::PowerOfTwo
        ))),
        Just(FilterConfig::Cuckoo(CuckooConfig::new(
            8,
            4,
            CuckooAddressing::Magic
        ))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A single-shard store built like a bare `AnyFilter` must return
    /// *identical* batch results: same filter, same sizing, no routing — the
    /// store layer adds nothing but plumbing, and the plumbing must be
    /// invisible.
    #[test]
    fn single_shard_store_equals_bare_filter(
        config in config_strategy(),
        keys in prop::collection::hash_set(any::<u32>(), 1..2_000),
        probes in prop::collection::vec(any::<u32>(), 1..4_000),
        capacity in 64usize..4_096,
    ) {
        let keys: Vec<u32> = keys.into_iter().collect();
        let store = ShardedFilterStore::new(config, 1, capacity, 20.0);
        store.insert_batch(&keys);

        // The oracle replays the exact same build: same capacity-based
        // sizing, same growth schedule (one rebuild of the sorted key set
        // from twice `capacity` once the batch overflows it or a Cuckoo
        // insert fails).
        let oracle = oracle_for(&config, &keys, capacity);

        let mut store_sel = SelectionVector::new();
        store.contains_batch(&probes, &mut store_sel);
        let mut oracle_sel = SelectionVector::new();
        oracle.contains_batch(&probes, &mut oracle_sel);
        prop_assert_eq!(
            store_sel.as_slice(),
            oracle_sel.as_slice(),
            "config {}",
            config.label()
        );
    }

    /// A multi-shard store must agree with a bank of per-shard oracles, each
    /// built by replaying exactly the keys routed to that shard: the store's
    /// batch path (route → per-shard batch kernel → offset merge) may not
    /// change a single membership answer.
    #[test]
    fn sharded_store_equals_per_shard_oracles(
        config in config_strategy(),
        shard_pow in 0u32..4,
        keys in prop::collection::hash_set(any::<u32>(), 1..2_000),
        probes in prop::collection::vec(any::<u32>(), 1..4_000),
    ) {
        let keys: Vec<u32> = keys.into_iter().collect();
        let shard_count = 1usize << shard_pow;
        let capacity = (keys.len() / shard_count).max(64);
        let store = ShardedFilterStore::new(config, shard_count, capacity, 20.0);
        store.insert_batch(&keys);

        // Reconstruct each shard independently through the same growth rules.
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        for &key in &keys {
            routed[store.shard_of(key)].push(key);
        }
        let oracles: Vec<AnyFilter> = routed
            .iter()
            .map(|shard_keys| oracle_for(&config, shard_keys, capacity))
            .collect();

        let mut store_sel = SelectionVector::new();
        store.contains_batch(&probes, &mut store_sel);

        let oracle_hits: Vec<u32> = probes
            .iter()
            .enumerate()
            .filter(|(_, &key)| oracles[store.shard_of(key)].contains(key))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(
            store_sel.as_slice(),
            oracle_hits.as_slice(),
            "config {} shards {}",
            config.label(),
            shard_count
        );

        // And the semantic floor regardless of oracles: no false negatives.
        let mut member_sel = SelectionVector::new();
        store.contains_batch(&keys, &mut member_sel);
        prop_assert_eq!(member_sel.len(), keys.len());
    }
}

/// Replay the store's shard-growth schedule on a bare `AnyFilter`: a batch
/// that fits the initial `capacity` lands in batch order; otherwise the
/// first key past capacity (or the first refused insert) requests one
/// rebuild, which inserts the whole key set ascending from twice the
/// capacity, doubling until every key fits (mirrors `pof-store`'s shard
/// writer).
fn oracle_for(config: &FilterConfig, keys: &[u32], capacity: usize) -> AnyFilter {
    let capacity = capacity.max(64);
    if keys.len() <= capacity {
        let mut filter = AnyFilter::build(config, capacity, 20.0);
        if keys.iter().all(|&key| filter.insert(key)) {
            return filter;
        }
    }
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    let mut capacity = capacity * 2;
    while capacity < sorted.len() {
        capacity *= 2;
    }
    'grow: loop {
        let mut filter = AnyFilter::build(config, capacity, 20.0);
        for &key in &sorted {
            if !filter.insert(key) {
                capacity *= 2;
                continue 'grow;
            }
        }
        return filter;
    }
}
