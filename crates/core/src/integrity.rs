//! Integrity primitives for compressed ROM images (fault-model support).
//!
//! Embedded ROMs see real bit errors — radiation upsets, cell wear,
//! marginal supply voltages — and a compressed image amplifies them: one
//! flipped bit desynchronizes every later Huffman symbol in its block.
//! Three cheap checks bound the damage:
//!
//! * **CRC32 (IEEE)** over each decode dictionary / codebook image —
//!   dictionaries are tiny next to the code segment, so a word-wide CRC
//!   costs nothing and catches every burst up to 32 bits;
//! * **CRC-8** self-check inside each ATT entry — the ATB consults the
//!   entry before every fetch, so a corrupt compressed address or block
//!   length is caught before it misdirects the fetch;
//! * **XOR-fold parity** over each block's payload bytes, stored in the
//!   ATT entry — one byte per block, verified when the block's lines
//!   arrive from memory.
//!
//! All three are table-less bitwise implementations: this models ROM
//! checker *hardware*, where a 32-entry XOR tree is the natural shape.
//! The CRC32 loop lives in `ccc_telemetry::ledger`, which also seals
//! ledger records with it.

use std::fmt;

/// CRC32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`): the run
/// ledger's implementation, shared so the workspace has one.
pub use ccc_telemetry::ledger::crc32;

/// CRC-8 (polynomial `0x07`, MSB-first, zero init) — the ATT entry
/// self-check. Detects all single-bit errors and every burst up to 8
/// bits in the packed entry.
pub fn crc8(bytes: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in bytes {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// XOR-fold of a byte slice — the per-block payload parity byte. Any
/// single-bit error, and any burst shorter than 16 bits, changes it.
pub fn parity_fold(bytes: &[u8]) -> u8 {
    bytes.iter().fold(0, |acc, &b| acc ^ b)
}

/// An integrity check failed on the fetch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityError {
    /// A decode dictionary's CRC32 no longer matches its recorded value.
    DictionaryCrc {
        /// CRC recorded at compression time.
        expected: u32,
        /// CRC of the dictionary as read back.
        actual: u32,
    },
    /// An ATT entry failed its CRC-8 self-check.
    AttEntryCheck {
        /// Block whose entry is corrupt.
        block: usize,
    },
    /// A block's payload bytes disagree with the parity stored in its
    /// ATT entry.
    BlockParity {
        /// The mismatching block.
        block: usize,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::DictionaryCrc { expected, actual } => write!(
                f,
                "dictionary CRC mismatch: expected {expected:#010x}, got {actual:#010x}"
            ),
            IntegrityError::AttEntryCheck { block } => {
                write!(f, "ATT entry for block {block} failed its self-check")
            }
            IntegrityError::BlockParity { block } => {
                write!(f, "payload parity mismatch in block {block}")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_catches_every_single_bit_flip() {
        let data = b"compressed rom image payload".to_vec();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), good, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn crc8_known_vector_and_single_bits() {
        // CRC-8/SMBUS check value for "123456789".
        assert_eq!(crc8(b"123456789"), 0xF4);
        let data = [0x12u8, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0];
        let good = crc8(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data;
                bad[byte] ^= 1 << bit;
                assert_ne!(crc8(&bad), good, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn crc8_catches_all_bursts_up_to_8_bits() {
        let data = [0xA5u8; 16];
        let good = crc8(&data);
        let total_bits = data.len() * 8;
        for len in 1..=8usize {
            for start in 0..=(total_bits - len) {
                let mut bad = data;
                for b in start..start + len {
                    bad[b / 8] ^= 0x80 >> (b % 8);
                }
                assert_ne!(crc8(&bad), good, "burst len {len} at {start} undetected");
            }
        }
    }

    #[test]
    fn parity_fold_flags_single_bit() {
        let data = [1u8, 2, 3, 4];
        let p = parity_fold(&data);
        let mut bad = data;
        bad[2] ^= 0x10;
        assert_ne!(parity_fold(&bad), p);
        assert_eq!(parity_fold(&[]), 0);
    }

    #[test]
    fn errors_display() {
        let e = IntegrityError::DictionaryCrc {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("CRC mismatch"));
        assert!(IntegrityError::AttEntryCheck { block: 3 }
            .to_string()
            .contains("block 3"));
        assert!(IntegrityError::BlockParity { block: 7 }
            .to_string()
            .contains("block 7"));
    }
}
