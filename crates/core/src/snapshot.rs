//! Snapshot codec for [`AnyFilter`]: every family serialized to plain
//! little-endian pages and rebuilt from them via the family crates'
//! raw-parts `restore` constructors.
//!
//! The wire format mirrors the in-memory layout one-to-one — a Bloom bit
//! array, a Cuckoo packed-signature array or a fuse fingerprint array is
//! written as its backing words, little-endian — so a persisted shard
//! snapshot "deserializes" as a straight page-cache copy, and the scalar
//! state around it (configuration, key counts, the Cuckoo victim RNG, a
//! counting sidecar) is a handful of fixed-width fields. Layout geometry
//! (block counts, bucket counts, fuse segments) is *re-derived* from the
//! persisted logical size through the same constructors a live build uses;
//! the restore constructors reject any disagreement with the persisted array
//! lengths, so a snapshot written by a different configuration can never be
//! silently misinterpreted.

use crate::anyfilter::AnyFilter;
use crate::configspace::FilterConfig;
use pof_bloom::{Addressing, BlockedBloom, BloomConfig, ClassicBloom, CountingSidecar};
use pof_cuckoo::{CuckooAddressing, CuckooConfig, CuckooFilter};
use pof_filter::Filter;
use pof_persist::codec::{put_bytes, put_u32, put_u64, put_u64_words, put_u8, CodecError, Cursor};
use pof_xorfuse::{Fuse16, Fuse8, FuseFilter};

const TAG_BLOOM: u8 = 1;
const TAG_CLASSIC: u8 = 2;
const TAG_CUCKOO: u8 = 3;
const TAG_FUSE: u8 = 4;

fn invalid(what: &'static str) -> CodecError {
    CodecError::Invalid(what)
}

fn encode_sidecar(out: &mut Vec<u8>, sidecar: Option<&CountingSidecar>) {
    match sidecar {
        None => put_u8(out, 0),
        Some(sidecar) => {
            let (promoted, counters, stuck) = sidecar.snapshot_parts();
            put_u8(out, 1);
            put_u8(out, u8::from(promoted));
            put_bytes(out, counters);
            put_u64_words(out, &stuck);
        }
    }
}

fn decode_sidecar(cur: &mut Cursor<'_>, bits: u64) -> Result<Option<CountingSidecar>, CodecError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => {
            let promoted = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(invalid("sidecar promotion flag")),
            };
            let counters = cur.byte_slice()?;
            let stuck = cur.u64_words()?;
            CountingSidecar::restore(bits, promoted, counters, stuck)
                .map(Some)
                .map_err(CodecError::Invalid)
        }
        _ => Err(invalid("sidecar presence flag")),
    }
}

fn encode_bloom_addressing(out: &mut Vec<u8>, addressing: Addressing) {
    put_u8(
        out,
        match addressing {
            Addressing::PowerOfTwo => 0,
            Addressing::Magic => 1,
        },
    );
}

fn decode_bloom_addressing(cur: &mut Cursor<'_>) -> Result<Addressing, CodecError> {
    match cur.u8()? {
        0 => Ok(Addressing::PowerOfTwo),
        1 => Ok(Addressing::Magic),
        _ => Err(invalid("Bloom addressing tag")),
    }
}

/// Serialize `filter` — configuration, scalar state and raw storage words —
/// onto `out`. The inverse of [`decode_filter`].
pub fn encode_filter(filter: &AnyFilter, out: &mut Vec<u8>) {
    match filter {
        AnyFilter::Bloom(f) => {
            let config = *f.config();
            put_u8(out, TAG_BLOOM);
            put_u32(out, config.block_bits);
            put_u32(out, config.sector_bits);
            put_u32(out, config.groups);
            put_u32(out, config.k);
            encode_bloom_addressing(out, config.addressing);
            put_u64(out, f.size_bits());
            put_u64(out, f.keys_inserted());
            put_u64_words(out, f.snapshot_words());
            encode_sidecar(out, f.counting_sidecar());
        }
        AnyFilter::ClassicBloom(f) => {
            put_u8(out, TAG_CLASSIC);
            put_u32(out, f.k());
            put_u64(out, f.size_bits());
            put_u64(out, f.keys_inserted());
            put_u64_words(out, f.snapshot_words());
            encode_sidecar(out, f.counting_sidecar());
        }
        AnyFilter::Cuckoo(f) => {
            let config = *f.config();
            let (occupied, keys_inserted, victim_rng, stash) = f.snapshot_parts();
            put_u8(out, TAG_CUCKOO);
            put_u32(out, config.signature_bits);
            put_u32(out, config.bucket_size);
            put_u8(
                out,
                match config.addressing {
                    CuckooAddressing::PowerOfTwo => 0,
                    CuckooAddressing::Magic => 1,
                },
            );
            put_u32(out, f.num_buckets());
            put_u64(out, occupied);
            put_u64(out, keys_inserted);
            put_u32(out, victim_rng);
            match stash {
                None => put_u8(out, 0),
                Some((bucket, signature)) => {
                    put_u8(out, 1);
                    put_u32(out, bucket);
                    put_u32(out, signature);
                }
            }
            put_u64_words(out, f.snapshot_words());
        }
        AnyFilter::Fuse(f) => {
            put_u8(out, TAG_FUSE);
            put_u32(out, f.fingerprint_bits());
            match f {
                FuseFilter::Fp8(f) => {
                    let (seed, keys, retries) = f.snapshot_parts();
                    put_u64(out, seed);
                    put_u64(out, keys as u64);
                    put_u32(out, retries);
                    put_bytes(out, f.snapshot_fingerprints());
                }
                FuseFilter::Fp16(f) => {
                    let (seed, keys, retries) = f.snapshot_parts();
                    put_u64(out, seed);
                    put_u64(out, keys as u64);
                    put_u32(out, retries);
                    let fingerprints = f.snapshot_fingerprints();
                    put_u64(out, fingerprints.len() as u64 * 2);
                    out.reserve(fingerprints.len() * 2);
                    for &fp in fingerprints {
                        out.extend_from_slice(&fp.to_le_bytes());
                    }
                }
            }
        }
    }
}

fn decode_usize(v: u64, what: &'static str) -> Result<usize, CodecError> {
    usize::try_from(v).map_err(|_| invalid(what))
}

/// Rebuild a filter from the bytes [`encode_filter`] wrote, advancing `cur`
/// past them. Every geometry and length claim in the payload is re-derived
/// and cross-checked before any array is trusted.
pub fn decode_filter(cur: &mut Cursor<'_>) -> Result<AnyFilter, CodecError> {
    match cur.u8()? {
        TAG_BLOOM => {
            let config = BloomConfig {
                block_bits: cur.u32()?,
                sector_bits: cur.u32()?,
                groups: cur.u32()?,
                k: cur.u32()?,
                addressing: decode_bloom_addressing(cur)?,
            };
            config
                .validate()
                .map_err(|_| invalid("Bloom configuration"))?;
            let m_bits = cur.u64()?;
            let keys_inserted = cur.u64()?;
            let words = cur
                .u64_word_bytes()?
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")));
            let counting = decode_sidecar(cur, m_bits)?;
            BlockedBloom::restore(config, m_bits, keys_inserted, words, counting)
                .map(AnyFilter::Bloom)
                .map_err(CodecError::Invalid)
        }
        TAG_CLASSIC => {
            let k = cur.u32()?;
            if !(1..=32).contains(&k) {
                return Err(invalid("classic Bloom hash count"));
            }
            let m_bits = cur.u64()?;
            if m_bits == 0 {
                return Err(invalid("classic Bloom size"));
            }
            let keys_inserted = cur.u64()?;
            let words = cur.u64_words()?;
            let counting = decode_sidecar(cur, m_bits)?;
            ClassicBloom::restore(m_bits, k, keys_inserted, words, counting)
                .map(AnyFilter::ClassicBloom)
                .map_err(CodecError::Invalid)
        }
        TAG_CUCKOO => {
            let signature_bits = cur.u32()?;
            let bucket_size = cur.u32()?;
            let addressing = match cur.u8()? {
                0 => CuckooAddressing::PowerOfTwo,
                1 => CuckooAddressing::Magic,
                _ => return Err(invalid("Cuckoo addressing tag")),
            };
            let config = CuckooConfig::new(signature_bits, bucket_size, addressing);
            config
                .validate()
                .map_err(|_| invalid("Cuckoo configuration"))?;
            let num_buckets = cur.u32()?;
            if num_buckets == 0 {
                return Err(invalid("Cuckoo bucket count"));
            }
            let occupied = cur.u64()?;
            let keys_inserted = cur.u64()?;
            let victim_rng = cur.u32()?;
            let stash = match cur.u8()? {
                0 => None,
                1 => Some((cur.u32()?, cur.u32()?)),
                _ => return Err(invalid("Cuckoo stash flag")),
            };
            let words = cur.u64_words()?;
            CuckooFilter::restore(
                config,
                num_buckets,
                words,
                (occupied, keys_inserted, victim_rng, stash),
            )
            .map(AnyFilter::Cuckoo)
            .map_err(CodecError::Invalid)
        }
        TAG_FUSE => {
            let bits = cur.u32()?;
            let seed = cur.u64()?;
            let keys = decode_usize(cur.u64()?, "fuse key count")?;
            let retries = cur.u32()?;
            let raw = cur.byte_slice()?;
            match bits {
                8 => Fuse8::restore(seed, keys, retries, raw.into_boxed_slice())
                    .map(|f| AnyFilter::Fuse(FuseFilter::Fp8(f)))
                    .map_err(CodecError::Invalid),
                16 => {
                    if raw.len() % 2 != 0 {
                        return Err(invalid("fuse16 fingerprint byte count"));
                    }
                    let fingerprints: Box<[u16]> = raw
                        .chunks_exact(2)
                        .map(|c| u16::from_le_bytes(c.try_into().expect("2 bytes")))
                        .collect();
                    Fuse16::restore(seed, keys, retries, fingerprints)
                        .map(|f| AnyFilter::Fuse(FuseFilter::Fp16(f)))
                        .map_err(CodecError::Invalid)
                }
                _ => Err(invalid("fuse fingerprint width")),
            }
        }
        _ => Err(invalid("filter family tag")),
    }
}

/// Serialize just a [`FilterConfig`] (used where a persisted store must
/// remember the configuration of a shard that currently has no snapshot).
pub fn encode_config(config: &FilterConfig, out: &mut Vec<u8>) {
    match config {
        FilterConfig::Bloom(c) => {
            put_u8(out, TAG_BLOOM);
            put_u32(out, c.block_bits);
            put_u32(out, c.sector_bits);
            put_u32(out, c.groups);
            put_u32(out, c.k);
            encode_bloom_addressing(out, c.addressing);
        }
        FilterConfig::ClassicBloom { k } => {
            put_u8(out, TAG_CLASSIC);
            put_u32(out, *k);
        }
        FilterConfig::Cuckoo(c) => {
            put_u8(out, TAG_CUCKOO);
            put_u32(out, c.signature_bits);
            put_u32(out, c.bucket_size);
            put_u8(
                out,
                match c.addressing {
                    CuckooAddressing::PowerOfTwo => 0,
                    CuckooAddressing::Magic => 1,
                },
            );
        }
        FilterConfig::Fuse(c) => {
            put_u8(out, TAG_FUSE);
            put_u32(out, c.fingerprint_bits());
        }
    }
}

/// Inverse of [`encode_config`].
pub fn decode_config(cur: &mut Cursor<'_>) -> Result<FilterConfig, CodecError> {
    match cur.u8()? {
        TAG_BLOOM => {
            let config = BloomConfig {
                block_bits: cur.u32()?,
                sector_bits: cur.u32()?,
                groups: cur.u32()?,
                k: cur.u32()?,
                addressing: decode_bloom_addressing(cur)?,
            };
            config
                .validate()
                .map_err(|_| invalid("Bloom configuration"))?;
            Ok(FilterConfig::Bloom(config))
        }
        TAG_CLASSIC => {
            let k = cur.u32()?;
            if !(1..=32).contains(&k) {
                return Err(invalid("classic Bloom hash count"));
            }
            Ok(FilterConfig::ClassicBloom { k })
        }
        TAG_CUCKOO => {
            let signature_bits = cur.u32()?;
            let bucket_size = cur.u32()?;
            let addressing = match cur.u8()? {
                0 => CuckooAddressing::PowerOfTwo,
                1 => CuckooAddressing::Magic,
                _ => return Err(invalid("Cuckoo addressing tag")),
            };
            let config = CuckooConfig::new(signature_bits, bucket_size, addressing);
            config
                .validate()
                .map_err(|_| invalid("Cuckoo configuration"))?;
            Ok(FilterConfig::Cuckoo(config))
        }
        TAG_FUSE => {
            let bits = cur.u32()?;
            if bits != 8 && bits != 16 {
                return Err(invalid("fuse fingerprint width"));
            }
            Ok(FilterConfig::Fuse(pof_xorfuse::FuseConfig::new(bits)))
        }
        _ => Err(invalid("filter family tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pof_filter::{DeleteOutcome, KeyGen, SelectionVector};

    fn sample_configs() -> Vec<FilterConfig> {
        vec![
            FilterConfig::Bloom(BloomConfig::register_blocked(32, 4, Addressing::Magic)),
            FilterConfig::Bloom(BloomConfig::cache_sectorized(
                512,
                64,
                2,
                8,
                Addressing::PowerOfTwo,
            )),
            FilterConfig::ClassicBloom { k: 7 },
            FilterConfig::Cuckoo(CuckooConfig::new(16, 2, CuckooAddressing::Magic)),
            FilterConfig::Cuckoo(CuckooConfig::new(8, 4, CuckooAddressing::PowerOfTwo)),
            FilterConfig::Fuse(pof_xorfuse::FuseConfig::fuse8()),
            FilterConfig::Fuse(pof_xorfuse::FuseConfig::fuse16()),
        ]
    }

    fn roundtrip(filter: &AnyFilter) -> AnyFilter {
        let mut bytes = Vec::new();
        encode_filter(filter, &mut bytes);
        let mut cur = Cursor::new(&bytes);
        let restored = decode_filter(&mut cur).expect("decode");
        cur.finish().expect("codec consumed exactly its bytes");
        restored
    }

    #[test]
    fn every_family_roundtrips_probe_identically() {
        let mut gen = KeyGen::new(7);
        let keys = gen.distinct_keys(4_000);
        let probes = gen.keys(20_000);
        for config in sample_configs() {
            let filter =
                AnyFilter::build_with_keys(&config, &keys, 24.0).expect("construction succeeds");
            let restored = roundtrip(&filter);
            assert_eq!(restored.config(), filter.config(), "{}", config.label());
            assert_eq!(restored.size_bits(), filter.size_bits());
            let mut sel_a = SelectionVector::new();
            let mut sel_b = SelectionVector::new();
            filter.contains_batch_scalar(&probes, &mut sel_a);
            restored.contains_batch_scalar(&probes, &mut sel_b);
            assert_eq!(
                sel_a.as_slice(),
                sel_b.as_slice(),
                "restored filter must answer bit-for-bit identically ({})",
                config.label()
            );
        }
    }

    #[test]
    fn counting_sidecar_survives_the_roundtrip() {
        let mut gen = KeyGen::new(8);
        let keys = gen.distinct_keys(2_000);
        let config = FilterConfig::Bloom(BloomConfig::register_blocked(64, 5, Addressing::Magic));
        let mut filter = AnyFilter::build(&config, keys.len(), 16.0);
        filter.enable_counting();
        for &key in &keys {
            assert!(filter.insert(key));
        }
        let mut restored = roundtrip(&filter);
        assert!(restored.supports_delete(), "sidecar must survive");
        // Deletes keep working after restore, with no false negatives.
        for &key in &keys[..500] {
            assert_eq!(restored.try_delete(key), DeleteOutcome::Removed);
        }
        for &key in &keys[500..] {
            assert!(restored.contains(key));
        }
    }

    #[test]
    fn cuckoo_deletes_and_eviction_state_survive() {
        let mut gen = KeyGen::new(9);
        let keys = gen.distinct_keys(3_000);
        let config = FilterConfig::Cuckoo(CuckooConfig::representative());
        let mut filter = AnyFilter::build_with_keys(&config, &keys, 24.0).unwrap();
        for &key in &keys[..100] {
            assert_eq!(filter.try_delete(key), DeleteOutcome::Removed);
        }
        let mut restored = roundtrip(&filter);
        for &key in &keys[100..] {
            assert!(restored.contains(key));
        }
        for &key in &keys[100..200] {
            assert_eq!(restored.try_delete(key), DeleteOutcome::Removed);
        }
        // Restored filters accept further inserts.
        for &key in &keys[..100] {
            assert!(restored.insert(key));
        }
        for &key in keys[..100].iter().chain(&keys[200..]) {
            assert!(restored.contains(key));
        }
    }

    #[test]
    fn config_codec_roundtrips() {
        for config in sample_configs() {
            let mut bytes = Vec::new();
            encode_config(&config, &mut bytes);
            let mut cur = Cursor::new(&bytes);
            assert_eq!(decode_config(&mut cur).unwrap(), config);
            cur.finish().unwrap();
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected_not_misread() {
        let mut gen = KeyGen::new(10);
        let keys = gen.distinct_keys(1_000);
        let filter = AnyFilter::build_with_keys(
            &FilterConfig::Bloom(BloomConfig::register_blocked(32, 4, Addressing::Magic)),
            &keys,
            16.0,
        )
        .unwrap();
        let mut bytes = Vec::new();
        encode_filter(&filter, &mut bytes);

        // Unknown family tag.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(decode_filter(&mut Cursor::new(&bad)).is_err());
        // Truncation anywhere must surface as an error.
        for cut in [1usize, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_filter(&mut Cursor::new(&bytes[..cut])).is_err());
        }
    }
}
