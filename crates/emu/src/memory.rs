//! The emulated address space: [`MEM_SIZE`] zero-initialised bytes, of
//! which only the two ends a program writes are backed.
//!
//! Programs touch the bottom (the data segment at the compiler's
//! `DATA_BASE` and anything stored above it) and the top (the stack,
//! growing down from [`crate::STACK_TOP`]). So the space is two growable
//! contiguous regions split at the midpoint: `low` backs `[0, low.len())`
//! and grows up; `high` backs `[MEM_SIZE - high.len(), MEM_SIZE)` and
//! grows down. Bytes neither region backs read as zero. An access that
//! lies inside one region is one bounds check and one slice copy, as on
//! a flat array; only the first store past a region's edge (and the
//! rare access straddling both) takes the slow path.

use crate::machine::{EmuError, MEM_SIZE};

const MEM: usize = MEM_SIZE as usize;
/// Where `low`'s reach ends and `high`'s begins.
const SPLIT: usize = MEM / 2;
/// Growth granularity.
const PAGE: usize = 4096;

#[derive(Debug, Default)]
pub(crate) struct Memory {
    low: Vec<u8>,
    high: Vec<u8>,
}

impl Memory {
    /// The space with `data` stored at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `data` extends past [`MEM_SIZE`].
    pub(crate) fn with_data(base: u32, data: &[u8]) -> Memory {
        let mut mem = Memory::default();
        mem.write(base as usize, data);
        mem
    }

    /// First address `high` backs.
    fn high_base(&self) -> usize {
        MEM - self.high.len()
    }

    /// Loads `n` (≤ 4) little-endian bytes at `addr`.
    pub(crate) fn load(&self, block: u32, addr: u32, n: usize) -> Result<u32, EmuError> {
        let a = addr as usize;
        let mut buf = [0u8; 4];
        if a + n <= self.low.len() {
            buf[..n].copy_from_slice(&self.low[a..a + n]);
        } else if a + n > MEM {
            return Err(EmuError::BadAddress { addr, block });
        } else if a >= self.high_base() {
            let h = a - self.high_base();
            buf[..n].copy_from_slice(&self.high[h..h + n]);
        } else {
            for (i, b) in buf[..n].iter_mut().enumerate() {
                *b = self.byte(a + i);
            }
        }
        Ok(u32::from_le_bytes(buf))
    }

    /// Stores the low `n` (≤ 4) bytes of `value` at `addr`, little-endian.
    pub(crate) fn store(
        &mut self,
        block: u32,
        addr: u32,
        n: usize,
        value: u32,
    ) -> Result<(), EmuError> {
        let a = addr as usize;
        let bytes = &value.to_le_bytes()[..n];
        if a + n <= self.low.len() {
            self.low[a..a + n].copy_from_slice(bytes);
        } else if a + n > MEM {
            return Err(EmuError::BadAddress { addr, block });
        } else if a >= self.high_base() {
            let h = a - self.high_base();
            self.high[h..h + n].copy_from_slice(bytes);
        } else {
            self.write(a, bytes);
        }
        Ok(())
    }

    fn byte(&self, a: usize) -> u8 {
        if a < self.low.len() {
            self.low[a]
        } else if a >= self.high_base() {
            self.high[a - self.high_base()]
        } else {
            0
        }
    }

    /// Grows whichever regions `[a, a + bytes.len())` reaches past, then
    /// writes `bytes` there. `low` grows in place (the `Vec` amortises);
    /// `high` at least doubles, since growing down moves its contents.
    fn write(&mut self, a: usize, bytes: &[u8]) {
        let end = a + bytes.len();
        if a < SPLIT && end > self.low.len() {
            self.low.resize(end.min(SPLIT).next_multiple_of(PAGE), 0);
        }
        if end > SPLIT && a.max(SPLIT) < self.high_base() {
            let len = (MEM - a.max(SPLIT))
                .next_multiple_of(PAGE)
                .max(2 * self.high.len())
                .min(MEM - SPLIT);
            let mut high = vec![0u8; len];
            high[len - self.high.len()..].copy_from_slice(&self.high);
            self.high = high;
        }
        let cut = SPLIT.clamp(a, end) - a;
        if cut > 0 {
            self.low[a..a + cut].copy_from_slice(&bytes[..cut]);
        }
        if cut < bytes.len() {
            let h = a + cut - self.high_base();
            self.high[h..h + bytes.len() - cut].copy_from_slice(&bytes[cut..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The flat model the regions replace: the whole space as one array.
    struct Flat(Vec<u8>);

    impl Flat {
        fn load(&self, block: u32, addr: u32, n: usize) -> Result<u32, EmuError> {
            if addr as usize + n > self.0.len() {
                return Err(EmuError::BadAddress { addr, block });
            }
            let mut buf = [0u8; 4];
            buf[..n].copy_from_slice(&self.0[addr as usize..addr as usize + n]);
            Ok(u32::from_le_bytes(buf))
        }

        fn store(&mut self, block: u32, addr: u32, n: usize, value: u32) -> Result<(), EmuError> {
            if addr as usize + n > self.0.len() {
                return Err(EmuError::BadAddress { addr, block });
            }
            self.0[addr as usize..addr as usize + n].copy_from_slice(&value.to_le_bytes()[..n]);
            Ok(())
        }
    }

    /// Addresses near where the regions begin, end and grow: page edges
    /// above the data segment and below the stack, the split, and the
    /// top of the space; plus arbitrary `u32`s (mostly out of range).
    fn addr() -> BoxedStrategy<u32> {
        let mut anchors = vec![0, MEM as u32, SPLIT as u32];
        for k in 0..4u32 {
            anchors.push(0x1_0000 + k * PAGE as u32);
            anchors.push(SPLIT as u32 - k * PAGE as u32);
            anchors.push(SPLIT as u32 + k * PAGE as u32);
            anchors.push(MEM as u32 - k * PAGE as u32);
            anchors.push(MEM as u32 - (4 << k) * PAGE as u32);
        }
        prop_oneof![
            (prop::sample::select(anchors), 0u32..16).prop_map(|(a, d)| (a + d).saturating_sub(8)),
            any::<u32>(),
        ]
        .boxed()
    }

    /// One access: store or load, width, address, stored value.
    fn access() -> impl Strategy<Value = (bool, usize, u32, u32)> {
        (
            any::<bool>(),
            prop::sample::select(vec![1usize, 2, 4]),
            addr(),
            any::<u32>(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every load returns what the flat array holds, untouched bytes
        /// read as zero, and every out-of-range access fails with the
        /// flat array's exact `BadAddress`.
        #[test]
        fn regions_match_a_flat_array(
            data_at in addr(),
            data in prop::collection::vec(any::<u8>(), 0..64usize),
            accesses in prop::collection::vec(access(), 1..96usize),
        ) {
            let base = data_at.min(MEM_SIZE - data.len() as u32);
            let mut mem = Memory::with_data(base, &data);
            let mut flat = Flat(vec![0; MEM]);
            flat.0[base as usize..base as usize + data.len()].copy_from_slice(&data);
            for (block, &(is_store, n, a, v)) in accesses.iter().enumerate() {
                let block = block as u32;
                if is_store {
                    prop_assert_eq!(mem.store(block, a, n, v), flat.store(block, a, n, v));
                } else {
                    prop_assert_eq!(mem.load(block, a, n), flat.load(block, a, n));
                }
            }
            // Read back everything stored, at every width.
            for &(_, _, a, _) in &accesses {
                for n in [1, 2, 4] {
                    prop_assert_eq!(mem.load(7, a, n), flat.load(7, a, n));
                }
            }
        }
    }

    #[test]
    fn a_fresh_space_backs_only_its_data() {
        let mem = Memory::with_data(0x1_0000, &[1, 2, 3]);
        assert_eq!(mem.low.len(), 0x1_1000);
        assert!(mem.high.is_empty());
        assert_eq!(mem.load(0, 0x1_0000, 4), Ok(0x0003_0201));
        assert_eq!(mem.load(0, MEM_SIZE - 4, 4), Ok(0));
        assert_eq!(
            mem.load(3, MEM_SIZE - 3, 4),
            Err(EmuError::BadAddress {
                addr: MEM_SIZE - 3,
                block: 3
            })
        );
    }
}
