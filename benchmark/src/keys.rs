//! Seeded inputs and the exact oracle.
//!
//! Keys are a seeded *bijection* of a dense index space, so the oracle needs
//! no hash set of its own: a key's index is recovered by inverting the
//! bijection, indices are handed out sequentially, and one flag per handed-out
//! index records whether that key is live. Indices from [`ABSENT_BASE`] up are
//! never inserted, which makes every key drawn from there a known non-member.
//! Nothing here calls the code under test.

/// First index of the never-inserted half of the key space.
pub const ABSENT_BASE: u32 = 0x8000_0000;

/// First index of the range the layer ladder draws its own keys from: above
/// anything a workload hands out, below the absent half.
pub const LADDER_BASE: u32 = 0x4000_0000;

/// SplitMix64: the seed stream every input is drawn from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; the bias is below 2^-32).
    pub fn below(&mut self, bound: usize) -> usize {
        (((self.next_u64() >> 32) * bound as u64) >> 32) as usize
    }
}

/// A seeded bijection between indices and `u32` keys (an invertible integer
/// mixer between two seeded XORs).
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    pre: u32,
    post: u32,
}

impl KeySpace {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x6B65_7973_7061_6365);
        let word = rng.next_u64();
        Self {
            pre: word as u32,
            post: (word >> 32) as u32,
        }
    }

    pub fn key(&self, index: u32) -> u32 {
        let mut x = index ^ self.pre;
        x ^= x >> 16;
        x = x.wrapping_mul(0x7FEB_352D);
        x ^= x >> 15;
        x = x.wrapping_mul(0x846C_A68B);
        x ^= x >> 16;
        x ^ self.post
    }

    pub fn index(&self, key: u32) -> u32 {
        let mut x = key ^ self.post;
        x ^= x >> 16;
        x = x.wrapping_mul(0x4302_1123);
        x ^= (x >> 15) ^ (x >> 30);
        x = x.wrapping_mul(0x1D69_E2A5);
        x ^= x >> 16;
        x ^ self.pre
    }

    /// The `ordinal`-th key that is never inserted.
    pub fn absent(&self, ordinal: u32) -> u32 {
        self.key(ABSENT_BASE + ordinal)
    }
}

/// Exact membership: which handed-out keys are live right now.
#[derive(Debug)]
pub struct Oracle {
    space: KeySpace,
    live: Vec<bool>,
    live_count: usize,
}

impl Oracle {
    pub fn new(space: KeySpace) -> Self {
        Self {
            space,
            live: Vec::new(),
            live_count: 0,
        }
    }

    /// Hand out `n` keys never handed out before (not live until
    /// [`Self::inserted`] acknowledges them).
    pub fn fresh(&mut self, n: usize) -> Vec<u32> {
        let start = self.live.len();
        assert!(start + n < LADDER_BASE as usize, "key space exhausted");
        self.live.resize(start + n, false);
        (start..start + n)
            .map(|index| self.space.key(index as u32))
            .collect()
    }

    /// An insert of `keys` was acknowledged.
    pub fn inserted(&mut self, keys: &[u32]) {
        for &key in keys {
            let slot = &mut self.live[self.space.index(key) as usize];
            self.live_count += usize::from(!*slot);
            *slot = true;
        }
    }

    /// A delete of `keys` was acknowledged.
    pub fn deleted(&mut self, keys: &[u32]) {
        for &key in keys {
            let slot = &mut self.live[self.space.index(key) as usize];
            self.live_count -= usize::from(*slot);
            *slot = false;
        }
    }

    /// Forget everything: the next lifecycle starts from an empty store and
    /// is handed the same keys again.
    pub fn reset(&mut self) {
        self.live.clear();
        self.live_count = 0;
    }

    pub fn is_live(&self, key: u32) -> bool {
        self.live
            .get(self.space.index(key) as usize)
            .copied()
            .unwrap_or(false)
    }

    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Every live key, in hand-out order.
    pub fn live_keys(&self) -> Vec<u32> {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, &live)| live)
            .map(|(index, _)| self.space.key(index as u32))
            .collect()
    }

    pub fn space(&self) -> KeySpace {
        self.space
    }
}

/// One probe call's input with its expected answer: `present` lists, in
/// ascending order, the positions whose key is live (and so must qualify).
#[derive(Debug, Clone, Default)]
pub struct ProbeBatch {
    pub keys: Vec<u32>,
    pub present: Vec<u32>,
}

/// Draws the absent keys of probe batches, each ordinal once.
#[derive(Debug)]
pub struct AbsentStream {
    space: KeySpace,
    next: u32,
}

impl AbsentStream {
    pub fn new(space: KeySpace) -> Self {
        Self { space, next: 0 }
    }

    pub fn next_key(&mut self) -> u32 {
        let key = self.space.absent(self.next);
        // Wrapping inside the absent half keeps every key a non-member.
        self.next = (self.next + 1) % ABSENT_BASE;
        key
    }

    /// A batch of `len` absent keys (nothing in it may qualify except as a
    /// false positive).
    pub fn batch(&mut self, len: usize) -> ProbeBatch {
        ProbeBatch {
            keys: (0..len).map(|_| self.next_key()).collect(),
            present: Vec::new(),
        }
    }

    /// A batch whose positions hold a live key with probability
    /// `present_permille`/1000 (drawn by `resident`) and an absent key
    /// otherwise.
    pub fn mixed_batch(
        &mut self,
        rng: &mut Rng,
        len: usize,
        present_permille: usize,
        mut resident: impl FnMut(&mut Rng) -> u32,
    ) -> ProbeBatch {
        let mut batch = ProbeBatch {
            keys: Vec::with_capacity(len),
            present: Vec::new(),
        };
        for position in 0..len {
            if rng.below(1000) < present_permille {
                batch.keys.push(resident(rng));
                batch.present.push(position as u32);
            } else {
                batch.keys.push(self.next_key());
            }
        }
        batch
    }
}

/// What one probe call got wrong or spent: a live key that did not qualify
/// is a false negative (a failed operation); an absent key that qualified is
/// a false positive (allowed, counted for `fpr`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    pub false_negatives: u64,
    pub false_positives: u64,
}

/// Compare a call's selection (ascending positions) with the batch's
/// expected answer.
pub fn check(selected: &[u32], batch: &ProbeBatch) -> Verdict {
    let mut verdict = Verdict::default();
    let mut cursor = 0usize;
    for &position in &batch.present {
        while cursor < selected.len() && selected[cursor] < position {
            verdict.false_positives += 1;
            cursor += 1;
        }
        if cursor < selected.len() && selected[cursor] == position {
            cursor += 1;
        } else {
            verdict.false_negatives += 1;
        }
    }
    verdict.false_positives += (selected.len() - cursor) as u64;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyspace_round_trips_and_differs_by_seed() {
        let space = KeySpace::new(7);
        for index in [0u32, 1, 2, 12345, ABSENT_BASE, u32::MAX] {
            assert_eq!(space.index(space.key(index)), index);
        }
        let other = KeySpace::new(8);
        assert_ne!(space.key(0), other.key(0));
    }

    #[test]
    fn oracle_tracks_inserts_and_deletes_exactly() {
        let mut oracle = Oracle::new(KeySpace::new(1));
        let keys = oracle.fresh(100);
        assert_eq!(oracle.live_count(), 0);
        assert!(!oracle.is_live(keys[3]));
        oracle.inserted(&keys);
        oracle.inserted(&keys[..10]); // re-insert is a no-op
        assert_eq!(oracle.live_count(), 100);
        oracle.deleted(&keys[..40]);
        oracle.deleted(&keys[..5]); // double delete is a no-op
        assert_eq!(oracle.live_count(), 60);
        assert!(!oracle.is_live(keys[0]));
        assert!(oracle.is_live(keys[40]));
        assert_eq!(oracle.live_keys(), keys[40..].to_vec());
        assert!(!oracle.is_live(oracle.space().absent(0)));
    }

    #[test]
    fn check_counts_missing_members_and_extra_positions() {
        let batch = ProbeBatch {
            keys: vec![0; 8],
            present: vec![1, 4, 6],
        };
        assert_eq!(check(&[1, 4, 6], &batch), Verdict::default());
        let verdict = check(&[0, 1, 6, 7], &batch);
        assert_eq!(verdict.false_negatives, 1); // position 4 is missing
        assert_eq!(verdict.false_positives, 2); // positions 0 and 7
        assert_eq!(check(&[], &batch).false_negatives, 3);
    }

    #[test]
    fn mixed_batches_repeat_for_a_seed() {
        let space = KeySpace::new(3);
        let make = || {
            let mut stream = AbsentStream::new(space);
            let mut rng = Rng::new(99);
            stream.mixed_batch(&mut rng, 4096, 100, |rng| space.key(rng.below(1000) as u32))
        };
        let (a, b) = (make(), make());
        assert_eq!(a.keys, b.keys);
        assert_eq!(a.present, b.present);
        let share = a.present.len() as f64 / 4096.0;
        assert!((0.07..0.13).contains(&share), "{share}");
    }
}
