//! Wire serialization of encoded images (artifact-cache format).
//!
//! The prepared-workload engine caches each `(workload, scheme)` cell of
//! the preparation matrix as one [`EncodedProgram`] payload. The layout
//! is explicit (see [`tepic_isa::wire`]); [`CODEC_VERSION`] stamps it,
//! and cache keys include it, so changing any scheme's output or this
//! byte format invalidates every stale entry.

use crate::encoded::{DecoderCost, EncodedProgram, SchemeKind};
use tepic_isa::wire::{WireError, WireReader, WireWriter};
use tinker_huffman::DecoderComplexity;

/// Version stamp covering the compression codecs *and* the wire layouts
/// below. Bump whenever any scheme's emitted bytes, the ATT layout, the
/// decoder cost model, or these serializers change.
pub const CODEC_VERSION: u32 = 1;

const KIND_BASE: u8 = 0;
const KIND_BYTE: u8 = 1;
const KIND_STREAM: u8 = 2;
const KIND_FULL: u8 = 3;
const KIND_TAILORED: u8 = 4;

const DEC_NONE: u8 = 0;
const DEC_HUFFMAN: u8 = 1;
const DEC_PLA: u8 = 2;

/// Serializes an encoded image into the artifact-cache wire format.
pub fn encoded_to_bytes(e: &EncodedProgram) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(CODEC_VERSION);
    match &e.kind {
        SchemeKind::Base => w.put_u8(KIND_BASE),
        SchemeKind::Byte => w.put_u8(KIND_BYTE),
        SchemeKind::Stream(name) => {
            w.put_u8(KIND_STREAM);
            w.put_str(name);
        }
        SchemeKind::Full => w.put_u8(KIND_FULL),
        SchemeKind::Tailored => w.put_u8(KIND_TAILORED),
    }
    w.put_bytes(&e.bytes);
    w.put_len(e.block_start.len());
    for &s in &e.block_start {
        w.put_u64(s);
    }
    for &b in &e.block_bytes {
        w.put_u32(b);
    }
    match &e.decoder {
        DecoderCost::None => w.put_u8(DEC_NONE),
        DecoderCost::Huffman(parts) => {
            w.put_u8(DEC_HUFFMAN);
            w.put_len(parts.len());
            for p in parts {
                w.put_u32(p.n);
                w.put_len(p.k);
                w.put_u32(p.m);
            }
        }
        DecoderCost::Pla {
            inputs,
            terms,
            outputs,
        } => {
            w.put_u8(DEC_PLA);
            w.put_u32(*inputs);
            w.put_u32(*terms);
            w.put_u32(*outputs);
        }
    }
    w.into_bytes()
}

/// Deserializes an image written by [`encoded_to_bytes`].
///
/// # Errors
///
/// [`WireError`] on truncation, bad tags, version mismatch, or a block
/// table that fails [`EncodedProgram::check_layout`].
pub fn encoded_from_bytes(bytes: &[u8]) -> Result<EncodedProgram, WireError> {
    let mut r = WireReader::new(bytes);
    let version = r.get_u32()?;
    if version != CODEC_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = match r.get_u8()? {
        KIND_BASE => SchemeKind::Base,
        KIND_BYTE => SchemeKind::Byte,
        KIND_STREAM => SchemeKind::Stream(r.get_str()?.to_string()),
        KIND_FULL => SchemeKind::Full,
        KIND_TAILORED => SchemeKind::Tailored,
        t => return Err(WireError::BadTag(t)),
    };
    let payload = r.get_bytes()?.to_vec();
    let nblocks = r.get_len()?;
    let mut block_start = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        block_start.push(r.get_u64()?);
    }
    let mut block_bytes = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        block_bytes.push(r.get_u32()?);
    }
    let decoder = match r.get_u8()? {
        DEC_NONE => DecoderCost::None,
        DEC_HUFFMAN => {
            let n = r.get_len()?;
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(DecoderComplexity {
                    n: r.get_u32()?,
                    k: r.get_len()?,
                    m: r.get_u32()?,
                });
            }
            DecoderCost::Huffman(parts)
        }
        DEC_PLA => DecoderCost::Pla {
            inputs: r.get_u32()?,
            terms: r.get_u32()?,
            outputs: r.get_u32()?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    if !r.is_exhausted() {
        return Err(WireError::Invalid("trailing bytes after image".into()));
    }
    let e = EncodedProgram {
        kind,
        bytes: payload,
        block_start,
        block_bytes,
        decoder,
    };
    if !e.check_layout() {
        return Err(WireError::Invalid("block layout check failed".into()));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> EncodedProgram {
        EncodedProgram {
            kind: SchemeKind::Stream("stream_1".into()),
            bytes: vec![1, 2, 3, 4, 5, 6, 7],
            block_start: vec![0, 3],
            block_bytes: vec![3, 4],
            decoder: DecoderCost::Huffman(vec![
                DecoderComplexity { n: 9, k: 120, m: 8 },
                DecoderComplexity { n: 4, k: 9, m: 16 },
            ]),
        }
    }

    #[test]
    fn encoded_roundtrip_identity() {
        for img in [
            sample_image(),
            EncodedProgram {
                kind: SchemeKind::Tailored,
                bytes: vec![0xAA; 11],
                block_start: vec![0],
                block_bytes: vec![11],
                decoder: DecoderCost::Pla {
                    inputs: 10,
                    terms: 70,
                    outputs: 33,
                },
            },
            EncodedProgram {
                kind: SchemeKind::Base,
                bytes: vec![],
                block_start: vec![],
                block_bytes: vec![],
                decoder: DecoderCost::None,
            },
        ] {
            let bytes = encoded_to_bytes(&img);
            assert_eq!(encoded_from_bytes(&bytes).unwrap(), img);
        }
    }

    #[test]
    fn encoded_rejects_truncation_and_garbage() {
        let bytes = encoded_to_bytes(&sample_image());
        assert!(encoded_from_bytes(&bytes[..bytes.len() - 2]).is_err());
        let mut extra = bytes.clone();
        extra.push(7);
        assert!(encoded_from_bytes(&extra).is_err());
        let mut vers = bytes;
        vers[0] = 0xEE;
        assert!(matches!(
            encoded_from_bytes(&vers),
            Err(WireError::BadVersion(_))
        ));
    }

    #[test]
    fn encoded_rejects_bad_layout() {
        let mut img = sample_image();
        img.block_start = vec![0, 2]; // overlaps block 0 (3 bytes)
        let bytes = encoded_to_bytes(&img);
        assert!(matches!(
            encoded_from_bytes(&bytes),
            Err(WireError::Invalid(_))
        ));
    }
}
