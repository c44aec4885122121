//! Little-endian byte codec helpers shared by the snapshot payload formats.
//!
//! Everything on disk is plain little-endian — no varints, no alignment
//! games — so the encoder is `extend_from_slice` of `to_le_bytes` and the
//! decoder is a bounds-checked cursor. Word arrays go through
//! [`Cursor::u64_words`] / [`put_u64_words`], which chunk through
//! `from_le_bytes`; on little-endian hardware the compiler lowers both
//! directions to `memcpy`, so "deserializing" a mapped bit array is a
//! straight page-cache copy.

use std::fmt;

/// Decoding failed: the payload ended early or held an impossible value.
/// Snapshot payloads are CRC-guarded, so in practice this means a version
/// skew or an encoder bug, not silent disk corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The cursor ran off the end of the payload.
    Truncated,
    /// A tag or length field held a value the reader does not understand.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => f.write_str("payload truncated"),
            Self::Invalid(what) => write!(f, "invalid payload field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern, little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a length-prefixed (`u64` count) array of `u32` keys.
pub fn put_u32_slice(out: &mut Vec<u8>, keys: &[u32]) {
    put_u64(out, keys.len() as u64);
    out.reserve(keys.len() * 4);
    for &k in keys {
        out.extend_from_slice(&k.to_le_bytes());
    }
}

/// Append a length-prefixed (`u64` count) array of `u64` words — the wire
/// form of every filter bit/bucket array.
pub fn put_u64_words(out: &mut Vec<u8>, words: &[u64]) {
    put_u64(out, words.len() as u64);
    out.reserve(words.len() * 8);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Append a length-prefixed (`u64` count) raw byte array.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Bounds-checked forward reader over a payload slice.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start reading `buf` from the front.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `len` raw bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length as `usize`, rejecting counts that could not possibly
    /// fit in the remaining payload (defends against a corrupt length field
    /// driving a huge allocation before the bounds check would trip).
    fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let count = self.u64()?;
        let count = usize::try_from(count).map_err(|_| CodecError::Invalid("length overflow"))?;
        if count
            .checked_mul(elem_bytes)
            .is_none_or(|b| b > self.remaining())
        {
            return Err(CodecError::Truncated);
        }
        Ok(count)
    }

    /// Read a length-prefixed `u32` array (see [`put_u32_slice`]).
    pub fn u32_slice(&mut self) -> Result<Vec<u32>, CodecError> {
        let count = self.len_prefix(4)?;
        let raw = self.bytes(count * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Read a length-prefixed `u64` word array (see [`put_u64_words`])
    /// without copying it: the words' little-endian bytes, borrowed from the
    /// payload, for a caller that decodes them straight into its own buffer.
    pub fn u64_word_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let count = self.len_prefix(8)?;
        self.bytes(count * 8)
    }

    /// Read a length-prefixed `u64` word array (see [`put_u64_words`]).
    pub fn u64_words(&mut self) -> Result<Vec<u64>, CodecError> {
        Ok(self
            .u64_word_bytes()?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Read a length-prefixed raw byte array (see [`put_bytes`]).
    pub fn byte_slice(&mut self) -> Result<Vec<u8>, CodecError> {
        let count = self.len_prefix(1)?;
        Ok(self.bytes(count)?.to_vec())
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes after payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, 11.5);
        put_u32_slice(&mut out, &[1, 2, 3]);
        put_u64_words(&mut out, &[u64::MAX, 0, 42]);
        put_bytes(&mut out, b"sidecar");

        let mut cur = Cursor::new(&out);
        assert_eq!(cur.u8().unwrap(), 7);
        assert_eq!(cur.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(cur.u64().unwrap(), u64::MAX - 1);
        assert!((cur.f64().unwrap() - 11.5).abs() < f64::EPSILON);
        assert_eq!(cur.u32_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(cur.u64_words().unwrap(), vec![u64::MAX, 0, 42]);
        assert_eq!(cur.byte_slice().unwrap(), b"sidecar");
        cur.finish().unwrap();

        let mut out = Vec::new();
        put_u64_words(&mut out, &[7, u64::MAX]);
        let mut cur = Cursor::new(&out);
        let raw = cur.u64_word_bytes().unwrap();
        assert_eq!(raw.len(), 16);
        assert_eq!(raw[..8], 7u64.to_le_bytes());
        cur.finish().unwrap();
    }

    #[test]
    fn truncation_and_bogus_lengths_are_errors() {
        let mut out = Vec::new();
        put_u32(&mut out, 5);
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.u64(), Err(CodecError::Truncated));

        // A length prefix promising more elements than the payload holds
        // must fail fast instead of allocating.
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        let mut cur = Cursor::new(&out);
        assert_eq!(cur.u64_words(), Err(CodecError::Truncated));

        let mut out = Vec::new();
        put_u8(&mut out, 1);
        let cur = Cursor::new(&out);
        assert!(cur.finish().is_err());
    }
}
