//! The blocked Bloom filter family: blocked, register-blocked, sectorized and
//! cache-sectorized variants behind a single runtime-configured implementation.
//!
//! The scalar lookup paths are direct transcriptions of Listing 1 (word-
//! addressed blocked lookup) and Listing 2 (register-blocked lookup with a
//! single comparison), generalised to sectors and sector groups as described
//! in §3.2. The batched lookup path dispatches to AVX2 kernels (the
//! crate-private `simd` module) when the CPU supports them and the configuration is
//! SIMD-friendly; the scalar and SIMD paths are bit-for-bit equivalent, which
//! the property tests assert.

use crate::config::{Addressing, BloomConfig, BloomVariant};
use crate::counting::CountingSidecar;
use crate::simd;
use crate::staged;
use pof_filter::probe::{self, ProbePlan};
use pof_filter::{DeleteOutcome, Filter, FilterKind, SelectionVector};
use pof_hash::Modulus;
use std::ops::{Deref, DerefMut};

/// Multiplier for the block-addressing hash (Knuth's constant).
pub(crate) const BLOCK_HASH_C: u32 = 0x9E37_79B1;
/// Seed multiplier for the bit-addressing stream (independent of the block hash).
pub(crate) const STREAM_SEED_C: u32 = 0x85EB_CA6B;
/// Per-step remix multiplier of the bit-addressing stream (MurmurHash3 c1).
pub(crate) const STREAM_STEP_C: u32 = 0xCC9E_2D51;

/// Maximum number of (sector, mask) probes a single lookup can produce:
/// the plain blocked variant performs `k ≤ 24` accesses.
const MAX_PROBES: usize = 24;

/// Advance the bit-addressing stream and return its top `nbits` bits.
///
/// Both the scalar and the SIMD kernels use exactly this sequence, so the two
/// paths agree on every probed position.
#[inline(always)]
pub(crate) fn next_bits(state: &mut u32, nbits: u32) -> u32 {
    debug_assert!(nbits <= 32);
    if nbits == 0 {
        return 0;
    }
    *state = state.wrapping_mul(STREAM_STEP_C);
    *state >> (32 - nbits)
}

/// `u64` words per 64-byte cache line.
const LINE_WORDS: usize = 8;

/// A word array that starts on a 64-byte cache-line boundary, so no 512-bit
/// block straddles two lines, wherever the allocator places the buffer. The
/// buffer over-allocates by up to `LINE_WORDS - 1` words and the array
/// starts at the first line boundary inside it; it derefs to exactly the
/// logical words, padding excluded.
#[derive(Debug)]
struct LineAligned {
    buf: Vec<u64>,
    start: usize,
}

impl LineAligned {
    /// A zeroed array of `len` words.
    fn zeroed(len: usize) -> Self {
        let mut buf = vec![0u64; len + LINE_WORDS - 1];
        let start = Self::line_offset(buf.as_ptr());
        buf.truncate(start + len);
        Self { buf, start }
    }

    /// Words from `allocation` to the first line boundary at or after it.
    fn line_offset(allocation: *const u64) -> usize {
        let misalignment = allocation as usize % (LINE_WORDS * 8);
        (LINE_WORDS * 8 - misalignment) % (LINE_WORDS * 8) / 8
    }
}

impl Clone for LineAligned {
    /// One copy of the words into a fresh aligned buffer, with no zero-fill
    /// pass: only the (at most 7) padding words are written besides.
    fn clone(&self) -> Self {
        let mut buf = Vec::with_capacity(self.len() + LINE_WORDS - 1);
        let start = Self::line_offset(buf.as_ptr());
        buf.resize(start, 0);
        buf.extend_from_slice(self);
        Self { buf, start }
    }
}

impl Deref for LineAligned {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.buf[self.start..]
    }
}

impl DerefMut for LineAligned {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.start..]
    }
}

/// A blocked Bloom filter (any of the four variants of Figure 12a).
#[derive(Debug, Clone)]
pub struct BlockedBloom {
    config: BloomConfig,
    modulus: Modulus,
    data: LineAligned,
    keys_inserted: u64,
    simd_kernel: simd::Kernel,
    /// Whether the staged (hash → prefetch → probe) kernel may serve large
    /// batches; cleared by [`Self::force_scalar`].
    staged_enabled: bool,
    /// Optional counting sidecar ([`Self::enable_counting`]): one saturating
    /// counter per bit, making [`Filter::try_delete`] clear bits in place.
    /// Boxed so the common (non-counting) filter pays one pointer.
    counting: Option<Box<CountingSidecar>>,
}

impl BlockedBloom {
    /// Create a filter of (at least) `m_bits` bits with the given
    /// configuration. The actual size is the requested size rounded up to the
    /// addressing granularity: the next power of two of blocks for
    /// [`Addressing::PowerOfTwo`], or the next "add-free magic" block count
    /// for [`Addressing::Magic`] (§5.2).
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`BloomConfig::validate`])
    /// or `m_bits` is zero.
    #[must_use]
    pub fn new(config: BloomConfig, m_bits: u64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid Bloom configuration: {e}"));
        assert!(m_bits > 0, "filter size must be positive");
        let modulus = config.addressing_for_bits(m_bits);
        let total_bits = u64::from(modulus.size()) * u64::from(config.block_bits);
        let words = usize::try_from(total_bits.div_ceil(64)).expect("filter too large");
        let simd_kernel = simd::Kernel::select(&config);
        Self {
            config,
            modulus,
            data: LineAligned::zeroed(words),
            keys_inserted: 0,
            simd_kernel,
            staged_enabled: true,
            counting: None,
        }
    }

    /// Create a filter sized for `n` keys at a bits-per-key budget.
    #[must_use]
    pub fn with_bits_per_key(config: BloomConfig, n: usize, bits_per_key: f64) -> Self {
        let m_bits = ((n as f64) * bits_per_key)
            .ceil()
            .max(f64::from(config.block_bits)) as u64;
        Self::new(config, m_bits)
    }

    /// The filter's configuration.
    #[must_use]
    pub fn config(&self) -> &BloomConfig {
        &self.config
    }

    /// Number of blocks in the filter.
    #[must_use]
    pub fn num_blocks(&self) -> u32 {
        self.modulus.size()
    }

    /// Number of keys inserted so far.
    #[must_use]
    pub fn keys_inserted(&self) -> u64 {
        self.keys_inserted
    }

    /// The analytical false-positive rate of this filter instance given the
    /// number of keys actually inserted.
    #[must_use]
    pub fn modeled_fpr(&self) -> f64 {
        self.config
            .modeled_fpr(self.size_bits() as f64, self.keys_inserted as f64)
    }

    /// Which batch-lookup kernel (scalar or SIMD) this instance uses.
    #[must_use]
    pub fn kernel_name(&self) -> &'static str {
        self.simd_kernel.name()
    }

    /// Force the scalar batch-lookup path (used by the SIMD-speedup benches
    /// and the equivalence tests). Also disables the automatic staged-kernel
    /// routing, so `contains_batch` really runs the scalar loop; the explicit
    /// [`Self::contains_batch_staged`] entry point stays available.
    pub fn force_scalar(&mut self) {
        self.simd_kernel = simd::Kernel::Scalar;
        self.staged_enabled = false;
    }

    /// Attach a [`CountingSidecar`] (one 4-bit saturating counter per filter
    /// bit, promoting to 8-bit on saturation), turning this filter into a
    /// counting Bloom filter: [`Filter::try_delete`] then clears bits in
    /// place instead of refusing. Costs 4 bits of sidecar memory per filter
    /// bit (8 after promotion) on the *write side only* — lookups never
    /// touch the counters, and [`Self::read_only_clone`] drops them.
    ///
    /// # Panics
    /// Panics if any key was already inserted: counters must witness every
    /// insert, or deletes would under-count shared bits and corrupt other
    /// members.
    pub fn enable_counting(&mut self) {
        assert_eq!(
            self.keys_inserted, 0,
            "counting must be enabled before the first insert"
        );
        self.counting = Some(Box::new(CountingSidecar::new(self.size_bits())));
    }

    /// Is a counting sidecar attached (i.e. does this filter delete)?
    #[must_use]
    pub fn counting_enabled(&self) -> bool {
        self.counting.is_some()
    }

    /// Heap bytes held by the counting sidecar (0 without one).
    #[must_use]
    pub fn counting_bytes(&self) -> usize {
        self.counting.as_ref().map_or(0, |c| c.bytes())
    }

    /// Clone the read side only: the bit array, configuration and kernel,
    /// *without* the counting sidecar. Lookups never consult the counters,
    /// so the clone answers every probe identically at a fraction of the
    /// copy cost — the right shape for published snapshots. The clone
    /// reports [`Filter::supports_delete`] `== false`.
    #[must_use]
    pub fn read_only_clone(&self) -> Self {
        Self {
            config: self.config,
            modulus: self.modulus,
            data: self.data.clone(),
            keys_inserted: self.keys_inserted,
            simd_kernel: self.simd_kernel,
            staged_enabled: self.staged_enabled,
            counting: None,
        }
    }

    /// Borrow the raw bit-array words for snapshot serialization: the words
    /// are the filter's entire probe-side state, stored little-endian on
    /// disk so a persisted snapshot is byte-identical to the live array.
    #[must_use]
    pub fn snapshot_words(&self) -> &[u64] {
        &self.data
    }

    /// Borrow the counting sidecar, if one is attached — snapshot
    /// serialization persists it alongside the bit array so counting shards
    /// keep deleting after recovery.
    #[must_use]
    pub fn counting_sidecar(&self) -> Option<&CountingSidecar> {
        self.counting.as_deref()
    }

    /// Rebuild a filter from persisted raw parts. `m_bits` must be the
    /// granular size a previous instance reported via `Filter::size_bits`
    /// (the addressing round-up is idempotent, so re-deriving the layout
    /// from it reproduces the original block count); `words` yields the bit
    /// array from [`Self::snapshot_words`], written straight into the new
    /// filter's cache-line-aligned array. Fails when the word count or
    /// sidecar width does not match the derived layout — the snapshot was
    /// written by a different configuration.
    pub fn restore(
        config: BloomConfig,
        m_bits: u64,
        keys_inserted: u64,
        words: impl ExactSizeIterator<Item = u64>,
        counting: Option<CountingSidecar>,
    ) -> Result<Self, &'static str> {
        let mut filter = Self::new(config, m_bits);
        if filter.size_bits() != m_bits {
            return Err("snapshot size is not a valid addressing layout");
        }
        if filter.data.len() != words.len() {
            return Err("bit-array word count does not match the addressing layout");
        }
        if let Some(sidecar) = &counting {
            if sidecar.len() != m_bits {
                return Err("counting sidecar width does not match the filter");
            }
        }
        for (slot, word) in filter.data.iter_mut().zip(words) {
            *slot = word;
        }
        filter.keys_inserted = keys_inserted;
        filter.counting = counting.map(Box::new);
        Ok(filter)
    }

    /// Raw block storage, exposed to the SIMD kernels.
    #[inline(always)]
    pub(crate) fn words(&self) -> &[u64] {
        &self.data
    }

    /// Block-index modulus, exposed to the SIMD kernels.
    #[inline(always)]
    pub(crate) fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// Compute the block index of a key.
    #[inline(always)]
    pub(crate) fn block_index(&self, key: u32) -> u32 {
        self.modulus.reduce(key.wrapping_mul(BLOCK_HASH_C))
    }

    /// Enumerate the (sector-start-bit, mask) probes of a key into `out`,
    /// returning how many were produced. Insert ORs the masks in, lookup
    /// requires every mask to be fully present.
    #[inline]
    fn probes(&self, key: u32, out: &mut [(u64, u64); MAX_PROBES]) -> usize {
        let block_start = u64::from(self.block_index(key)) * u64::from(self.config.block_bits);
        self.probes_at(key, block_start, out)
    }

    /// [`Self::probes`] with the key's block start already computed — the
    /// staged kernel hashes block addresses a chunk ahead of probing them,
    /// so the probe stage must not re-derive (or worse, re-disagree on) the
    /// block. The bit-addressing stream is seeded from the key alone and is
    /// unchanged.
    #[inline]
    fn probes_at(&self, key: u32, block_start: u64, out: &mut [(u64, u64); MAX_PROBES]) -> usize {
        let cfg = &self.config;
        let mut state = key.wrapping_mul(STREAM_SEED_C);
        match cfg.variant() {
            BloomVariant::RegisterBlocked => {
                // Listing 2: one word, k bits ORed into one search mask.
                let bits = cfg.block_bits;
                let mut mask = 0u64;
                for _ in 0..cfg.k {
                    let bit = next_bits(&mut state, bits.trailing_zeros());
                    mask |= 1u64 << bit;
                }
                out[0] = (block_start, mask);
                1
            }
            BloomVariant::Blocked => {
                // Listing 1: per bit, pick a 32-bit word within the block and
                // a bit within that word (random access pattern).
                let words_per_block = cfg.block_bits / 32;
                for slot in out.iter_mut().take(cfg.k as usize) {
                    let word = next_bits(&mut state, words_per_block.trailing_zeros());
                    let bit = next_bits(&mut state, 5);
                    *slot = (block_start + u64::from(word) * 32, 1u64 << bit);
                }
                cfg.k as usize
            }
            BloomVariant::Sectorized => {
                // §3.2: k/s bits in each of the s sectors, sequential access.
                let sectors = cfg.sectors();
                let per_sector = cfg.k / sectors;
                let sector_bits = cfg.sector_bits;
                for (sector, slot) in out.iter_mut().enumerate().take(sectors as usize) {
                    let mut mask = 0u64;
                    for _ in 0..per_sector {
                        let bit = next_bits(&mut state, sector_bits.trailing_zeros());
                        mask |= 1u64 << bit;
                    }
                    *slot = (block_start + sector as u64 * u64::from(sector_bits), mask);
                }
                sectors as usize
            }
            BloomVariant::CacheSectorized => {
                // §3.2 / Figure 6: z groups; in each group one hash-chosen
                // sector receives k/z bits.
                let sectors = cfg.sectors();
                let groups = cfg.groups;
                let sectors_per_group = sectors / groups;
                let per_group = cfg.k / groups;
                let sector_bits = cfg.sector_bits;
                for (group, slot) in out.iter_mut().enumerate().take(groups as usize) {
                    let sector_in_group = next_bits(&mut state, sectors_per_group.trailing_zeros());
                    let sector =
                        group as u64 * u64::from(sectors_per_group) + u64::from(sector_in_group);
                    let mut mask = 0u64;
                    for _ in 0..per_group {
                        let bit = next_bits(&mut state, sector_bits.trailing_zeros());
                        mask |= 1u64 << bit;
                    }
                    *slot = (block_start + sector * u64::from(sector_bits), mask);
                }
                groups as usize
            }
        }
    }

    /// Load up to 64 bits starting at `bit_start` (which never crosses a
    /// 64-bit word boundary for valid configurations).
    #[inline(always)]
    fn load(&self, bit_start: u64) -> u64 {
        let word = self.data[(bit_start / 64) as usize];
        word >> (bit_start % 64)
    }

    /// OR `mask` into the bits starting at `bit_start`.
    #[inline(always)]
    fn store(&mut self, bit_start: u64, mask: u64) {
        self.data[(bit_start / 64) as usize] |= mask << (bit_start % 64);
    }

    /// Membership probe with the block start bit offset already computed
    /// (used by the staged kernel's probe stage, which resolves from
    /// addresses hashed a chunk earlier).
    #[inline]
    pub(crate) fn contains_at(&self, key: u32, block_start: u64) -> bool {
        let mut probes = [(0u64, 0u64); MAX_PROBES];
        let n = self.probes_at(key, block_start, &mut probes);
        let mut all_present = true;
        for &(bit_start, mask) in &probes[..n] {
            all_present &= self.load(bit_start) & mask == mask;
        }
        all_present
    }

    /// Scalar batched lookup (used as the fallback and by the equivalence tests).
    pub fn contains_batch_scalar(&self, keys: &[u32], sel: &mut SelectionVector) {
        for (i, &key) in keys.iter().enumerate() {
            sel.push_if(i as u32, self.contains(key));
        }
    }

    /// Staged (hash → prefetch → probe) batched lookup through a caller-owned
    /// [`ProbePlan`]: block addresses for a chunk of `plan.distance()` keys
    /// are hashed and prefetched while the previous chunk probes, hiding the
    /// per-block miss latency that dominates once the filter outgrows the
    /// cache. Selections are bit-for-bit identical to
    /// [`Self::contains_batch_scalar`]. [`Filter::contains_batch`] routes
    /// here automatically for large batches against large filters.
    pub fn contains_batch_staged(
        &self,
        keys: &[u32],
        sel: &mut SelectionVector,
        plan: &mut ProbePlan,
    ) {
        staged::contains_batch_staged(self, keys, sel, plan);
    }

    /// Prefetch the first cache lines of the filter's bit array. Used by the
    /// sharded store to stream the *next* shard's filter in while the
    /// current shard's slice is being probed.
    #[inline]
    pub fn prefetch_storage(&self) {
        probe::prefetch_lines(self.words());
    }
}

/// Visit every absolute bit position of a probe list, in probe order.
#[inline]
fn for_each_probe_bit(probes: &[(u64, u64)], mut visit: impl FnMut(u64)) {
    for &(bit_start, mask) in probes {
        let mut remaining = mask;
        while remaining != 0 {
            visit(bit_start + u64::from(remaining.trailing_zeros()));
            remaining &= remaining - 1;
        }
    }
}

impl Filter for BlockedBloom {
    fn insert(&mut self, key: u32) -> bool {
        let mut probes = [(0u64, 0u64); MAX_PROBES];
        let n = self.probes(key, &mut probes);
        for &(bit_start, mask) in &probes[..n] {
            self.store(bit_start, mask);
        }
        if let Some(counting) = self.counting.as_mut() {
            for_each_probe_bit(&probes[..n], |bit| counting.increment(bit));
        }
        self.keys_inserted += 1;
        true
    }

    fn contains(&self, key: u32) -> bool {
        let mut probes = [(0u64, 0u64); MAX_PROBES];
        let n = self.probes(key, &mut probes);
        // All variants perform the full amount of work for positive and
        // negative lookups alike (t⁺ = t⁻, §2); the accumulator keeps the
        // loop branch-free.
        let mut all_present = true;
        for &(bit_start, mask) in &probes[..n] {
            all_present &= self.load(bit_start) & mask == mask;
        }
        all_present
    }

    fn contains_batch(&self, keys: &[u32], sel: &mut SelectionVector) {
        // Large batches against filters past the cache-footprint floor go
        // through the staged kernel, which hides the per-block miss latency;
        // everything else stays on the SIMD/scalar paths.
        if self.staged_enabled && probe::staged_worthwhile(keys.len(), self.data.len() as u64 * 8) {
            probe::with_thread_plan(|plan| staged::contains_batch_staged(self, keys, sel, plan));
            return;
        }
        if !simd::dispatch(self, keys, sel, self.simd_kernel) {
            self.contains_batch_scalar(keys, sel);
        }
    }

    /// With a counting sidecar ([`Self::enable_counting`]): decrement the
    /// key's probe counters and clear every bit whose counter returns to
    /// zero. As with every shared-bit delete, removing a key that was never
    /// inserted (a false positive passes the membership pre-check) can
    /// corrupt other members — only delete keys known to be present.
    /// Without a sidecar the default refusal stands.
    fn try_delete(&mut self, key: u32) -> DeleteOutcome {
        if self.counting.is_none() {
            return DeleteOutcome::Unsupported;
        }
        let mut probes = [(0u64, 0u64); MAX_PROBES];
        let n = self.probes(key, &mut probes);
        let present = probes[..n]
            .iter()
            .all(|&(bit_start, mask)| self.load(bit_start) & mask == mask);
        if !present {
            return DeleteOutcome::NotFound;
        }
        let mut counting = self.counting.take().expect("checked above");
        for_each_probe_bit(&probes[..n], |bit| {
            if counting.decrement(bit) {
                self.data[(bit / 64) as usize] &= !(1u64 << (bit % 64));
            }
        });
        self.counting = Some(counting);
        // Saturating: a false-positive delete on a filter whose keys all
        // left already must not wrap the occupancy estimate.
        self.keys_inserted = self.keys_inserted.saturating_sub(1);
        DeleteOutcome::Removed
    }

    fn supports_delete(&self) -> bool {
        self.counting.is_some()
    }

    fn size_bits(&self) -> u64 {
        u64::from(self.modulus.size()) * u64::from(self.config.block_bits)
    }

    fn kind(&self) -> FilterKind {
        FilterKind::Bloom
    }

    fn config_label(&self) -> String {
        self.config.label()
    }
}

/// Convenience constructors for the representative configurations used
/// throughout the paper's figures.
impl BlockedBloom {
    /// Register-blocked filter with 32-bit blocks (Figure 14/15's
    /// `B = 32, k = 4` uses `register_blocked32(n, bpk, 4)`).
    #[must_use]
    pub fn register_blocked32(n: usize, bits_per_key: f64, k: u32) -> Self {
        Self::with_bits_per_key(
            BloomConfig::register_blocked(32, k, Addressing::PowerOfTwo),
            n,
            bits_per_key,
        )
    }

    /// Cache-sectorized filter with 512-bit blocks and 64-bit sectors
    /// (Figure 14/15's `B = 512, k = 8, z = 2`).
    #[must_use]
    pub fn cache_sectorized512(n: usize, bits_per_key: f64, k: u32, z: u32) -> Self {
        Self::with_bits_per_key(
            BloomConfig::cache_sectorized(512, 64, z, k, Addressing::PowerOfTwo),
            n,
            bits_per_key,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pof_filter::{measured_fpr, KeyGen};

    fn representative_configs() -> Vec<BloomConfig> {
        vec![
            BloomConfig::register_blocked(32, 4, Addressing::PowerOfTwo),
            BloomConfig::register_blocked(32, 5, Addressing::Magic),
            BloomConfig::register_blocked(64, 6, Addressing::PowerOfTwo),
            BloomConfig::blocked(512, 8, Addressing::PowerOfTwo),
            BloomConfig::blocked(128, 3, Addressing::Magic),
            BloomConfig::sectorized(512, 64, 8, Addressing::PowerOfTwo),
            BloomConfig::sectorized(256, 32, 8, Addressing::Magic),
            BloomConfig::cache_sectorized(512, 64, 2, 8, Addressing::PowerOfTwo),
            BloomConfig::cache_sectorized(512, 64, 2, 8, Addressing::Magic),
            BloomConfig::cache_sectorized(512, 64, 4, 8, Addressing::PowerOfTwo),
            BloomConfig::cache_sectorized(1024, 64, 2, 6, Addressing::Magic),
            BloomConfig::sectorized(64, 8, 8, Addressing::PowerOfTwo),
        ]
    }

    #[test]
    fn no_false_negatives_across_variants() {
        let mut gen = KeyGen::new(11);
        let keys = gen.distinct_keys(20_000);
        for config in representative_configs() {
            let mut filter = BlockedBloom::with_bits_per_key(config, keys.len(), 12.0);
            for &key in &keys {
                assert!(filter.insert(key));
            }
            for &key in &keys {
                assert!(
                    filter.contains(key),
                    "false negative for {key} in {}",
                    config.label()
                );
            }
        }
    }

    #[test]
    fn empty_filter_rejects_everything() {
        for config in representative_configs() {
            let filter = BlockedBloom::with_bits_per_key(config, 1000, 10.0);
            let mut positives = 0;
            for key in 0..10_000u32 {
                if filter.contains(key) {
                    positives += 1;
                }
            }
            assert_eq!(positives, 0, "{}", config.label());
        }
    }

    #[test]
    fn batch_lookup_equals_point_lookup() {
        let mut gen = KeyGen::new(12);
        let keys = gen.distinct_keys(8_192);
        let probes = gen.keys(16_384);
        for config in representative_configs() {
            let mut filter = BlockedBloom::with_bits_per_key(config, keys.len(), 10.0);
            for &key in &keys {
                filter.insert(key);
            }
            let mut batch = SelectionVector::new();
            filter.contains_batch(&probes, &mut batch);
            let mut scalar = SelectionVector::new();
            filter.contains_batch_scalar(&probes, &mut scalar);
            assert_eq!(
                batch.as_slice(),
                scalar.as_slice(),
                "batch != scalar for {} (kernel {})",
                config.label(),
                filter.kernel_name()
            );
        }
    }

    #[test]
    fn measured_fpr_tracks_model() {
        let mut gen = KeyGen::new(13);
        let keys = gen.distinct_keys(60_000);
        for (config, rel_tol) in [
            (
                BloomConfig::register_blocked(32, 4, Addressing::PowerOfTwo),
                0.35,
            ),
            (BloomConfig::blocked(512, 6, Addressing::PowerOfTwo), 0.35),
            (BloomConfig::sectorized(512, 64, 8, Addressing::Magic), 0.35),
            (
                BloomConfig::cache_sectorized(512, 64, 2, 8, Addressing::Magic),
                0.35,
            ),
        ] {
            let mut filter = BlockedBloom::with_bits_per_key(config, keys.len(), 12.0);
            for &key in &keys {
                filter.insert(key);
            }
            let measured = measured_fpr(&filter, &keys, 400_000, 17).fpr;
            let modeled = filter.modeled_fpr();
            let rel = (measured - modeled).abs() / modeled;
            assert!(
                rel < rel_tol,
                "{}: measured {measured}, modeled {modeled}, rel {rel}",
                config.label()
            );
        }
    }

    #[test]
    fn magic_addressing_gives_requested_size() {
        let config = BloomConfig::cache_sectorized(512, 64, 2, 8, Addressing::Magic);
        let requested_bits = 10_000_000u64;
        let filter = BlockedBloom::new(config, requested_bits);
        let actual = filter.size_bits();
        // Magic sizing must stay within a fraction of a percent of the request
        // (§5.2: at most 0.0134 % more blocks), unlike power-of-two sizing.
        assert!(actual >= requested_bits);
        let overshoot = (actual - requested_bits) as f64 / requested_bits as f64;
        assert!(
            overshoot < 0.01,
            "actual {actual} vs requested {requested_bits}"
        );

        let pow2 = BlockedBloom::new(
            BloomConfig::cache_sectorized(512, 64, 2, 8, Addressing::PowerOfTwo),
            requested_bits,
        );
        // Power-of-two rounds up to 16 Mi blocks ⇒ ~1.67x the requested size.
        assert!(pow2.size_bits() > requested_bits * 13 / 10);
    }

    #[test]
    fn size_accounting_and_labels() {
        let filter = BlockedBloom::register_blocked32(1000, 10.0, 4);
        assert_eq!(filter.kind(), FilterKind::Bloom);
        assert!(filter.config_label().contains("register-blocked"));
        assert_eq!(filter.size_bits() % 32, 0);
        assert_eq!(filter.num_blocks(), (filter.size_bits() / 32) as u32);

        let filter = BlockedBloom::cache_sectorized512(1000, 16.0, 8, 2);
        assert_eq!(filter.size_bits() % 512, 0);
    }

    #[test]
    fn duplicate_inserts_are_idempotent_for_membership() {
        let config = BloomConfig::cache_sectorized(512, 64, 2, 8, Addressing::PowerOfTwo);
        let mut filter = BlockedBloom::with_bits_per_key(config, 100, 10.0);
        for _ in 0..10 {
            filter.insert(42);
        }
        assert!(filter.contains(42));
        assert_eq!(filter.keys_inserted(), 10);
    }

    #[test]
    fn counting_deletes_clear_bits_without_false_negatives() {
        let mut gen = KeyGen::new(21);
        let keys = gen.distinct_keys(20_000);
        for config in representative_configs() {
            let mut filter = BlockedBloom::with_bits_per_key(config, keys.len(), 12.0);
            assert!(!filter.supports_delete());
            filter.enable_counting();
            assert!(filter.supports_delete() && filter.counting_enabled());
            assert!(filter.counting_bytes() >= (filter.size_bits() / 2) as usize);
            for &key in &keys {
                assert!(filter.insert(key));
            }
            let (gone, kept) = keys.split_at(keys.len() / 2);
            for &key in gone {
                assert_eq!(filter.try_delete(key), DeleteOutcome::Removed, "{key}");
            }
            assert_eq!(filter.keys_inserted(), kept.len() as u64);
            // The no-false-negative contract survives every delete...
            for &key in kept {
                assert!(
                    filter.contains(key),
                    "delete corrupted {key} in {}",
                    config.label()
                );
            }
            // ...and the deleted keys physically left (modulo the FPR at the
            // halved occupancy).
            let still = gone.iter().filter(|&&k| filter.contains(k)).count();
            assert!(
                (still as f64) < gone.len() as f64 * 0.05,
                "{still} of {} deleted keys still positive in {}",
                gone.len(),
                config.label()
            );
            // SIMD and scalar kernels agree on the post-delete bit array.
            let probes = KeyGen::new(22).keys(16_384);
            let mut batch = SelectionVector::new();
            filter.contains_batch(&probes, &mut batch);
            let mut scalar = SelectionVector::new();
            filter.contains_batch_scalar(&probes, &mut scalar);
            assert_eq!(batch.as_slice(), scalar.as_slice(), "{}", config.label());
        }
    }

    #[test]
    fn counting_delete_of_absent_key_is_not_found_and_harmless() {
        let config = BloomConfig::cache_sectorized(512, 64, 2, 8, Addressing::Magic);
        let mut filter = BlockedBloom::with_bits_per_key(config, 1_000, 16.0);
        filter.enable_counting();
        let mut gen = KeyGen::new(23);
        let keys = gen.distinct_keys(1_000);
        for &key in &keys {
            filter.insert(key);
        }
        let absent: Vec<u32> = gen
            .distinct_keys(2_000)
            .into_iter()
            .filter(|k| !filter.contains(*k))
            .collect();
        for &key in absent.iter().take(500) {
            assert_eq!(filter.try_delete(key), DeleteOutcome::NotFound);
        }
        // Double-delete: the second call finds nothing.
        assert_eq!(filter.try_delete(keys[0]), DeleteOutcome::Removed);
        assert_eq!(filter.try_delete(keys[0]), DeleteOutcome::NotFound);
        for &key in &keys[1..] {
            assert!(filter.contains(key), "absent-key deletes corrupted {key}");
        }
    }

    #[test]
    fn read_only_clone_answers_identically_without_the_sidecar() {
        let config = BloomConfig::register_blocked(32, 4, Addressing::PowerOfTwo);
        let mut filter = BlockedBloom::with_bits_per_key(config, 2_000, 12.0);
        filter.enable_counting();
        let mut gen = KeyGen::new(24);
        let keys = gen.distinct_keys(2_000);
        for &key in &keys {
            filter.insert(key);
        }
        let clone = filter.read_only_clone();
        assert!(!clone.counting_enabled());
        assert_eq!(clone.counting_bytes(), 0);
        assert!(!clone.supports_delete());
        assert_eq!(clone.keys_inserted(), filter.keys_inserted());
        for key in keys.iter().copied().chain(gen.keys(4_000)) {
            assert_eq!(clone.contains(key), filter.contains(key));
        }
    }

    /// The bit array starts on a cache line however it was made, so a
    /// 512-bit block is one line, not two. Covers sizes past the allocator's
    /// mmap threshold, where a plain `Vec<u64>` lands 16 bytes into a page.
    #[test]
    fn words_are_cache_line_aligned() {
        let config = BloomConfig::cache_sectorized(512, 64, 2, 8, Addressing::PowerOfTwo);
        let aligned = |filter: &BlockedBloom| (filter.words().as_ptr() as usize).is_multiple_of(64);
        for m_bits in [512u64, 4_096, 1 << 16, 1 << 23, 12 << 23] {
            let mut filter = BlockedBloom::new(config, m_bits);
            for key in 0..1_000u32 {
                filter.insert(key.wrapping_mul(2_654_435_769));
            }
            let restored = BlockedBloom::restore(
                config,
                filter.size_bits(),
                filter.keys_inserted(),
                filter.snapshot_words().iter().copied(),
                None,
            )
            .expect("own words restore");
            let clone = filter.clone();
            let read_only = filter.read_only_clone();
            for copy in [&filter, &clone, &read_only, &restored] {
                assert!(aligned(copy), "{m_bits}-bit filter misaligned");
                assert_eq!(copy.words(), filter.words());
                assert_eq!(copy.words().len() as u64 * 64, filter.size_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "counting must be enabled before the first insert")]
    fn counting_cannot_be_enabled_late() {
        let config = BloomConfig::register_blocked(32, 4, Addressing::PowerOfTwo);
        let mut filter = BlockedBloom::with_bits_per_key(config, 100, 12.0);
        filter.insert(1);
        filter.enable_counting();
    }

    #[test]
    #[should_panic(expected = "invalid Bloom configuration")]
    fn invalid_configuration_panics() {
        let bad = BloomConfig {
            block_bits: 64,
            sector_bits: 512,
            groups: 1,
            k: 8,
            addressing: Addressing::PowerOfTwo,
        };
        let _ = BlockedBloom::new(bad, 1 << 20);
    }
}
