//! Compact writer-side key bookkeeping: one copy of every live key.
//!
//! Each shard must remember every live key it holds, for two reasons: every
//! rebuild of the shard's filter is built from the live key set, and
//! duplicate inserts must be detected so the store keeps *set* semantics.
//!
//! [`CompactKeySet`] holds each key exactly once — a sorted run plus a short
//! unsorted tail of recent inserts — so the bookkeeping costs one `u32` per
//! live key. Membership is a binary search of the run plus a linear scan of
//! the tail; the tail is folded into the run whenever it outgrows
//! [`LOG_LIMIT`], and fully before anything reads the whole set. Rebuilds,
//! checkpoints and key listings all read the folded run, so a rebuilt filter
//! is a function of the key set alone, never of the order keys arrived in.

/// Maximum length of the unsorted tail before it is folded into the sorted
/// run. Bounds the linear-scan cost of a membership check. Each fold
/// re-sorts the whole run, so folding costs O(n / `LOG_LIMIT`) per inserted
/// key.
const LOG_LIMIT: usize = 256;

/// A set of `u32` keys, each held once.
///
/// Invariants: `sorted` is strictly ascending; `tail` holds no key of
/// `sorted` and no key twice; `tail` is at most [`LOG_LIMIT`] long between
/// folds.
#[derive(Debug, Default)]
pub(crate) struct CompactKeySet {
    /// Folded keys, strictly ascending.
    sorted: Vec<u32>,
    /// Recent inserts not yet folded, unsorted.
    tail: Vec<u32>,
}

impl CompactKeySet {
    /// Rebuild a set from a persisted key log in any order (sorting is linear
    /// on an already sorted log). Returns `None` if the log repeats a key.
    pub(crate) fn from_log(mut keys: Vec<u32>) -> Option<Self> {
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        Some(Self {
            sorted: keys,
            tail: Vec::new(),
        })
    }

    /// Number of live keys.
    pub(crate) fn len(&self) -> usize {
        self.sorted.len() + self.tail.len()
    }

    /// Fold the tail, then borrow every live key in ascending order.
    pub(crate) fn folded(&mut self) -> &[u32] {
        self.fold();
        &self.sorted
    }

    /// Membership test: binary search of the sorted run, then a linear scan
    /// of the bounded tail.
    pub(crate) fn contains(&self, key: u32) -> bool {
        self.sorted.binary_search(&key).is_ok() || self.tail.contains(&key)
    }

    /// Insert a key; returns `true` if it was not already present.
    pub(crate) fn insert(&mut self, key: u32) -> bool {
        if self.contains(key) {
            return false;
        }
        self.tail.push(key);
        if self.tail.len() > LOG_LIMIT {
            self.fold();
        }
        true
    }

    /// Insert a whole batch with one sort of the batch and one refold of the
    /// run, instead of a membership probe and a [`LOG_LIMIT`]-cadence refold
    /// per key — the difference between O(n log n) and effectively quadratic
    /// work for a multi-million-key cold-tier bulk load. Returns the fresh
    /// keys, ascending.
    pub(crate) fn insert_bulk(&mut self, keys: &[u32]) -> Vec<u32> {
        self.fold();
        let mut fresh = keys.to_vec();
        fresh.sort_unstable();
        fresh.dedup();
        fresh.retain(|key| self.sorted.binary_search(key).is_err());
        self.sorted.extend_from_slice(&fresh);
        self.sorted.sort_unstable();
        fresh
    }

    /// Remove every live key of `keys` (duplicates and absent keys are
    /// ignored) with one compacting pass over the set. Returns the removed
    /// keys, ascending.
    pub(crate) fn remove_batch(&mut self, keys: &[u32]) -> Vec<u32> {
        let mut removed: Vec<u32> = keys
            .iter()
            .copied()
            .filter(|&key| self.contains(key))
            .collect();
        removed.sort_unstable();
        removed.dedup();
        if !removed.is_empty() {
            let live = |key: &u32| removed.binary_search(key).is_err();
            self.sorted.retain(live);
            self.tail.retain(live);
        }
        removed
    }

    /// Fold the tail into the sorted run: append it and re-sort the whole run.
    fn fold(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.sorted.append(&mut self.tail);
        self.sorted.sort_unstable();
    }

    /// Bytes of key payload held by the bookkeeping: one `u32` per live key.
    /// Excludes `Vec` growth slack.
    pub(crate) fn bookkeeping_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_spans_the_fold_boundary() {
        // Insert enough keys to force several folds, then re-insert every one
        // of them: all re-inserts must be rejected whether the key sits in
        // the sorted run or in the unsorted tail.
        let mut set = CompactKeySet::default();
        let keys: Vec<u32> = (0..(LOG_LIMIT as u32 * 3 + 17))
            .map(|i| (i * 7 + 1).wrapping_mul(2_654_435_769))
            .collect();
        for &key in &keys {
            assert!(set.insert(key));
        }
        for &key in &keys {
            assert!(!set.insert(key), "duplicate accepted for {key}");
        }
        assert!(!set.contains(2));
        assert_eq!(set.len(), keys.len());
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(set.folded(), sorted.as_slice());
    }

    #[test]
    fn insert_bulk_agrees_with_per_key_inserts() {
        // Batches with intra-batch duplicates, keys already resident (in
        // both the sorted run and the unsorted tail), and fresh keys: the
        // bulk path must leave exactly the set the per-key path would.
        let mut bulk = CompactKeySet::default();
        let mut per_key = CompactKeySet::default();
        let resident: Vec<u32> = (0..(LOG_LIMIT as u32 + 40)).map(|i| i * 11).collect();
        for &key in &resident {
            bulk.insert(key);
            per_key.insert(key);
        }
        let large: Vec<u32> = (0..(LOG_LIMIT as u32 * 4))
            .map(|i| i.wrapping_mul(2_654_435_769) % 7_000)
            .collect();
        let small: Vec<u32> = (0..40u32).map(|i| 100_000 + i * 3).chain([7, 7]).collect();
        for batch in [large, small] {
            let fresh = bulk.insert_bulk(&batch);
            let mut fresh_per_key: Vec<u32> = batch
                .iter()
                .copied()
                .filter(|&key| per_key.insert(key))
                .collect();
            fresh_per_key.sort_unstable();
            assert_eq!(fresh, fresh_per_key);
            assert_eq!(bulk.folded(), per_key.folded());
            for &key in &batch {
                assert!(!bulk.insert(key), "bulk-inserted {key} accepted again");
            }
        }
    }

    #[test]
    fn remove_batch_drops_live_keys_once() {
        let mut set = CompactKeySet::default();
        let keys: Vec<u32> = (0..(LOG_LIMIT as u32 * 2)).map(|i| i * 3).collect();
        for &key in &keys {
            set.insert(key);
        }
        // Remove from the sorted run and from the fresh tail in one batch;
        // duplicates count once, absent keys are ignored.
        set.insert(1_000_003); // tail key (just appended)
        let removed = set.remove_batch(&[1_000_003, keys[0], 999_999, keys[0]]);
        assert_eq!(removed, vec![keys[0], 1_000_003]);
        assert!(!set.contains(keys[0]));
        assert!(!set.contains(1_000_003));
        assert_eq!(set.len(), keys.len() - 1);
        // A second batch with the same keys removes nothing further.
        assert!(set.remove_batch(&[keys[0], 1_000_003]).is_empty());
        assert_eq!(set.len(), keys.len() - 1);
        // Reinsert works, and dedup still spans the whole structure.
        assert!(set.insert(keys[0]));
        for key in set.folded().to_vec() {
            assert!(!set.insert(key));
        }
    }

    #[test]
    fn bookkeeping_is_one_word_per_key() {
        let mut set = CompactKeySet::default();
        for key in 0..10_000u32 {
            set.insert(key.wrapping_mul(2_654_435_769));
            // Exact before and after every fold.
            assert_eq!(set.bookkeeping_bytes(), 4 * set.len());
        }
        assert_eq!(set.bookkeeping_bytes(), 4 * 10_000);
    }
}
