//! A hash map keyed by small integers without SipHash's cost.
//!
//! The optimizer's block-local tables (constants per vreg, copies per
//! vreg, available expressions) are probed once or more per instruction
//! and never see adversarial keys, so the standard library's
//! DoS-resistant hasher is pure overhead there. [`FxHasher`] is the
//! multiply-rotate word hash rustc uses for its own tables. Lookups
//! only: no pass's output depends on a map's iteration order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] hashed with [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Word-at-a-time multiply-rotate hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}
