//! Dense per-block register sets and the backward liveness solver that
//! both liveness analyses share: the optimizer's [`crate::opt::dce`]
//! over IR vregs and the backend's [`crate::liveness`] over machine
//! vregs.
//!
//! A set holds one bit per register id of the function, and a
//! [`VRegSets`] keeps one such set per block in a single allocation.
//! The transfer `gen | (out & !kill)` is then a word-wise loop and a
//! change test a word compare: no hashing, and no allocation once the
//! sets exist.

/// One set of register ids in `0..capacity` per block, stored row-major
/// in one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VRegSets {
    /// Words per set.
    words: usize,
    bits: Vec<u64>,
}

impl VRegSets {
    /// `blocks` empty sets, each able to hold ids `0..capacity`.
    pub fn new(blocks: usize, capacity: usize) -> VRegSets {
        let words = capacity.div_ceil(64);
        VRegSets {
            words,
            bits: vec![0; blocks * words],
        }
    }

    fn row(&self, b: usize) -> &[u64] {
        &self.bits[b * self.words..(b + 1) * self.words]
    }

    /// The word of set `b` holding `v`, and `v`'s bit in it.
    fn slot(&self, b: usize, v: u32) -> (usize, u64) {
        let word = v as usize / 64;
        debug_assert!(word < self.words, "v{v} is outside the sets' capacity");
        (b * self.words + word, 1 << (v % 64))
    }

    /// Adds `v` to set `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` names no set. `v` must be below the capacity.
    pub fn insert(&mut self, b: usize, v: u32) {
        let (i, bit) = self.slot(b, v);
        self.bits[i] |= bit;
    }

    /// Removes `v` from set `b`.
    pub fn remove(&mut self, b: usize, v: u32) {
        let (i, bit) = self.slot(b, v);
        self.bits[i] &= !bit;
    }

    /// True when set `b` holds `v`.
    pub fn contains(&self, b: usize, v: u32) -> bool {
        let (i, bit) = self.slot(b, v);
        self.bits[i] & bit != 0
    }

    /// True when set `b` has no members.
    pub fn is_empty(&self, b: usize) -> bool {
        self.row(b).iter().all(|&w| w == 0)
    }

    /// The members of set `b` in increasing order.
    pub fn iter(&self, b: usize) -> impl Iterator<Item = u32> + '_ {
        self.row(b).iter().enumerate().flat_map(|(i, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                Some(i as u32 * 64 + bit)
            })
        })
    }
}

/// Solves backward liveness: `out[b]` is the union of `in[s]` over the
/// successors `s` of `b`, and `in[b] = gen[b] | (out[b] & !kill[b])`,
/// iterated in reverse block order until no `in` set changes. `gen` and
/// `kill` hold one set per block; `succs[b]` names at most two
/// successors. Returns `(live_in, live_out)`.
pub fn solve_backward(
    gen: &VRegSets,
    kill: &VRegSets,
    succs: &[[Option<u32>; 2]],
) -> (VRegSets, VRegSets) {
    let words = gen.words;
    let mut live_in = VRegSets {
        words,
        bits: vec![0; gen.bits.len()],
    };
    let mut live_out = live_in.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for (b, succs) in succs.iter().enumerate().rev() {
            let at = b * words;
            let out = &mut live_out.bits[at..at + words];
            match *succs {
                [Some(s), None] | [None, Some(s)] => out.copy_from_slice(live_in.row(s as usize)),
                [Some(s), Some(t)] => {
                    let (s, t) = (live_in.row(s as usize), live_in.row(t as usize));
                    for ((o, s), t) in out.iter_mut().zip(s).zip(t) {
                        *o = s | t;
                    }
                }
                [None, None] => out.fill(0),
            }
            let transfer = gen.row(b).iter().zip(&kill.bits[at..]).zip(out.iter());
            for (w, ((g, k), o)) in live_in.bits[at..at + words].iter_mut().zip(transfer) {
                let next = g | (o & !k);
                changed |= *w != next;
                *w = next;
            }
        }
    }
    (live_in, live_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_iter() {
        let mut s = VRegSets::new(2, 130);
        assert!(s.is_empty(0) && s.is_empty(1));
        for v in [0, 63, 64, 129, 5] {
            s.insert(1, v);
        }
        assert!(s.contains(1, 64) && !s.contains(1, 65) && !s.contains(0, 64));
        s.remove(1, 63);
        assert_eq!(s.iter(1).collect::<Vec<_>>(), vec![0, 5, 64, 129]);
        assert!(s.is_empty(0));
    }

    #[test]
    fn loop_carried_register_is_live_around_the_loop() {
        // 0 → 1 ⇄ 2, 1 → 3. Block 0 defines v0, block 2 uses and
        // redefines it, block 3 uses v1 (defined nowhere: live in
        // everywhere above it).
        let mut gen = VRegSets::new(4, 70);
        let mut kill = VRegSets::new(4, 70);
        kill.insert(0, 0);
        gen.insert(2, 0);
        kill.insert(2, 0);
        gen.insert(3, 69);
        let succs = [
            [Some(1), None],
            [Some(2), Some(3)],
            [Some(1), None],
            [None, None],
        ];
        let (live_in, live_out) = solve_backward(&gen, &kill, &succs);
        let members = |s: &VRegSets, b| s.iter(b).collect::<Vec<_>>();
        assert_eq!(members(&live_in, 0), vec![69]);
        assert_eq!(members(&live_out, 0), vec![0, 69]);
        assert_eq!(members(&live_in, 1), vec![0, 69]);
        assert_eq!(members(&live_in, 2), vec![0, 69]);
        assert_eq!(members(&live_out, 2), vec![0, 69]);
        assert_eq!(members(&live_in, 3), vec![69]);
        assert!(live_out.is_empty(3));
    }
}
