//! A tiny, explicit binary wire format for cached artifacts.
//!
//! The prepared-workload engine persists compiled programs, block traces
//! and encoded images on disk so warm runs skip the compile/emulate/
//! encode pipeline entirely. Every artifact payload is written through
//! [`WireWriter`] and read back through [`WireReader`]: little-endian
//! fixed-width integers, length-prefixed byte strings, no padding, no
//! implicit layout — the format is the documentation.
//!
//! The module also hosts the stable content hashes ([`fnv1a64`],
//! [`Fnv128`]) used to derive cache keys. They are defined here, at the
//! bottom of the crate graph, so every layer fingerprints data the same
//! way.

use std::fmt;

/// Failure while decoding a wire payload. Cache readers treat any
/// variant as "entry corrupt": the artifact is discarded and rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Eos,
    /// A tag byte had no defined meaning.
    BadTag(u8),
    /// The payload's embedded format version is not the one this build
    /// writes.
    BadVersion(u32),
    /// A length-prefixed string was not valid UTF-8.
    Utf8,
    /// The decoded structure failed semantic validation.
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eos => write!(f, "payload truncated"),
            WireError::BadTag(t) => write!(f, "undefined tag byte {t:#04x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Utf8 => write!(f, "string field is not UTF-8"),
            WireError::Invalid(why) => write!(f, "decoded structure invalid: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder for an artifact payload.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Consumes the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit regardless of
    /// host width).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Sequential decoder over an artifact payload.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload for reading.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// True when every byte has been consumed — decoders check this to
    /// reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Eos)?;
        if end > self.buf.len() {
            return Err(WireError::Eos);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length written by [`WireWriter::put_len`], bounds-checked
    /// against the bytes actually remaining so corrupt lengths fail
    /// instead of allocating absurd buffers.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        if v > (self.buf.len() - self.pos) as u64 && v > u32::MAX as u64 {
            return Err(WireError::Eos);
        }
        usize::try_from(v).map_err(|_| WireError::Eos)
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::Utf8)
    }
}

/// FNV-1a 64-bit hash — the stable source fingerprint.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Streaming FNV-1a 128-bit hash — the content-addressed cache key.
///
/// 128 bits keeps accidental collisions out of reach for any plausible
/// artifact population; the multiply uses the standard 128-bit FNV prime.
#[derive(Debug, Clone)]
pub struct Fnv128 {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }
}

impl Fnv128 {
    /// Creates a hasher at the FNV offset basis.
    pub fn new() -> Fnv128 {
        Fnv128::default()
    }

    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Fnv128 {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
        self
    }

    /// Absorbs a length-delimited field (the length is hashed first so
    /// `"ab","c"` and `"a","bc"` produce different keys).
    pub fn update_field(&mut self, bytes: &[u8]) -> &mut Fnv128 {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes)
    }

    /// Absorbs a string field.
    pub fn update_str(&mut self, s: &str) -> &mut Fnv128 {
        self.update_field(s.as_bytes())
    }

    /// Absorbs a `u32`.
    pub fn update_u32(&mut self, v: u32) -> &mut Fnv128 {
        self.update(&v.to_le_bytes())
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_field_kind() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_len(12);
        w.put_bytes(b"hello");
        w.put_str("caf\u{e9}");
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_len().unwrap(), 12);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "caf\u{e9}");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_fail() {
        let mut w = WireWriter::new();
        w.put_u32(1);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf[..2]);
        assert_eq!(r.get_u32(), Err(WireError::Eos));
    }

    #[test]
    fn absurd_length_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_len(), Err(WireError::Eos));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = WireWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_str(), Err(WireError::Utf8));
    }

    #[test]
    fn hashes_are_stable_and_field_delimited() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        let a = {
            let mut h = Fnv128::new();
            h.update_str("ab").update_str("c");
            h.finish()
        };
        let b = {
            let mut h = Fnv128::new();
            h.update_str("a").update_str("bc");
            h.finish()
        };
        assert_ne!(a, b, "field boundaries must be part of the key");
        let again = {
            let mut h = Fnv128::new();
            h.update_str("ab").update_str("c");
            h.finish()
        };
        assert_eq!(a, again);
    }
}
