//! Length-limited Huffman code lengths via the package–merge algorithm
//! (Larmore & Hirschberg, 1990).
//!
//! The paper bounds Huffman code lengths so that codes remain compatible
//! with the fetch hardware ("the compiler keeps track of such events and
//! either alternates the compression process … similar to the Bounded
//! Huffman code described by Wolfe", §2.2). Package–merge produces the
//! *optimal* code subject to a maximum length `L` in `O(kL)` time and
//! space for `k` coded symbols: each of the `L` levels keeps only its
//! merged weights and one leaf/package flag per item, and the lengths are
//! read back by walking down from the top level.

use crate::code::HuffmanError;

/// Computes optimal code lengths bounded by `max_len`.
///
/// Returns a vector parallel to `freqs`; zero-frequency symbols get
/// length 0 (no code).
///
/// # Errors
///
/// * [`HuffmanError::EmptyAlphabet`] if every frequency is zero.
/// * [`HuffmanError::BoundTooTight`] if `2^max_len` < number of coded
///   symbols.
pub fn package_merge(freqs: &[u64], max_len: u8) -> Result<Vec<u8>, HuffmanError> {
    let coded: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
    let k = coded.len();
    if k == 0 {
        return Err(HuffmanError::EmptyAlphabet);
    }
    let mut lengths = vec![0u8; freqs.len()];
    if k == 1 {
        lengths[coded[0]] = 1;
        return Ok(lengths);
    }
    if (max_len as u32 >= 64 || (1u128 << max_len) < k as u128)
        && (1u128 << max_len.min(63)) < k as u128
    {
        return Err(HuffmanError::BoundTooTight {
            max_len,
            symbols: k,
        });
    }

    // Coded symbols in frequency order: every level merges its leaves in
    // this order.
    let mut sorted: Vec<usize> = coded.clone();
    sorted.sort_by_key(|&s| freqs[s]);

    // Levels from the deepest (L) up to 1. Each merges the sorted leaves
    // with the packages (adjacent pairs) of the level below, cheapest
    // first, a leaf winning ties. Only the weights of the level just
    // built are kept; every level keeps which of its items are packages.
    let mut is_package: Vec<Vec<bool>> = Vec::with_capacity(max_len as usize);
    let mut below: Vec<u64> = Vec::new();
    for _ in 0..max_len {
        let mut weights = Vec::with_capacity(k + below.len() / 2);
        let mut flags = Vec::with_capacity(k + below.len() / 2);
        let (mut li, mut pi) = (0usize, 0usize);
        loop {
            let leaf_w = (li < k).then(|| freqs[sorted[li]]);
            let pack_w = (pi + 1 < below.len()).then(|| below[pi].saturating_add(below[pi + 1]));
            let (w, package) = match (leaf_w, pack_w) {
                (None, None) => break,
                (Some(lw), Some(pw)) if lw <= pw => (lw, false),
                (Some(lw), None) => (lw, false),
                (_, Some(pw)) => (pw, true),
            };
            if package {
                pi += 2;
            } else {
                li += 1;
            }
            weights.push(w);
            flags.push(package);
        }
        is_package.push(flags);
        below = weights;
    }

    // Select the cheapest 2k-2 items at the top level and walk down. The
    // leaves among a level's first `n` items are the `n - p` cheapest
    // symbols, and each gains one bit; its `p` packages are built from
    // the first `2p` items of the level below.
    let mut by_rank = vec![0u8; k];
    let mut n = 2 * k - 2;
    for flags in is_package.iter().rev() {
        debug_assert!(flags.len() >= n, "package-merge invariant violated");
        let packages = flags[..n].iter().filter(|&&p| p).count();
        for len in &mut by_rank[..n - packages] {
            *len += 1;
        }
        n = 2 * packages;
    }
    for (&sym, &len) in sorted.iter().zip(&by_rank) {
        debug_assert!(len >= 1 && len <= max_len);
        lengths[sym] = len;
    }
    Ok(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense package–merge this module used to run: every package
    /// carries a count per leaf, which makes it O(k²L). Kept as the
    /// oracle the O(kL) walk-back must match exactly.
    fn dense_package_merge(freqs: &[u64], max_len: u8) -> Result<Vec<u8>, HuffmanError> {
        let coded: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        let k = coded.len();
        if k == 0 {
            return Err(HuffmanError::EmptyAlphabet);
        }
        let mut lengths = vec![0u8; freqs.len()];
        if k == 1 {
            lengths[coded[0]] = 1;
            return Ok(lengths);
        }
        if (max_len as u32 >= 64 || (1u128 << max_len) < k as u128)
            && (1u128 << max_len.min(63)) < k as u128
        {
            return Err(HuffmanError::BoundTooTight {
                max_len,
                symbols: k,
            });
        }

        // Items sorted by frequency. Each package at level l is a set of leaf
        // symbols; we track, for every leaf, how many of the first (2k-2)
        // selected packages contain it — that count is its code length.
        #[derive(Clone)]
        struct Item {
            weight: u64,
            /// Count of each coded-leaf (by index into `coded`) in this package.
            leaves: Vec<u32>,
        }

        let mut sorted: Vec<usize> = (0..k).collect();
        sorted.sort_by_key(|&i| (freqs[coded[i]], i));

        let make_leaf_row = |leaf: usize| -> Item {
            let mut leaves = vec![0u32; k];
            leaves[leaf] = 1;
            Item {
                weight: freqs[coded[leaf]],
                leaves,
            }
        };

        // prev = packages available from the previous (deeper) level.
        let mut prev: Vec<Item> = Vec::new();
        for _ in 0..max_len {
            // Merge leaf items with packages of pairs from prev.
            let mut merged: Vec<Item> = Vec::with_capacity(k + prev.len() / 2);
            let mut li = 0usize; // leaf cursor (over sorted)
            let mut pi = 0usize; // package-pair cursor
            loop {
                let leaf_w = (li < k).then(|| freqs[coded[sorted[li]]]);
                let pack_w = (pi + 1 < prev.len())
                    .then(|| prev[pi].weight.saturating_add(prev[pi + 1].weight));
                match (leaf_w, pack_w) {
                    (None, None) => break,
                    (Some(_), None) => {
                        merged.push(make_leaf_row(sorted[li]));
                        li += 1;
                    }
                    (None, Some(_)) => {
                        let mut leaves = prev[pi].leaves.clone();
                        for (a, b) in leaves.iter_mut().zip(&prev[pi + 1].leaves) {
                            *a += b;
                        }
                        merged.push(Item {
                            weight: prev[pi].weight.saturating_add(prev[pi + 1].weight),
                            leaves,
                        });
                        pi += 2;
                    }
                    (Some(lw), Some(pw)) => {
                        if lw <= pw {
                            merged.push(make_leaf_row(sorted[li]));
                            li += 1;
                        } else {
                            let mut leaves = prev[pi].leaves.clone();
                            for (a, b) in leaves.iter_mut().zip(&prev[pi + 1].leaves) {
                                *a += b;
                            }
                            merged.push(Item {
                                weight: prev[pi].weight.saturating_add(prev[pi + 1].weight),
                                leaves,
                            });
                            pi += 2;
                        }
                    }
                }
            }
            prev = merged;
        }

        // Select the cheapest 2k-2 packages at the top level.
        let need = 2 * k - 2;
        debug_assert!(prev.len() >= need, "package-merge invariant violated");
        let mut counts = vec![0u32; k];
        for item in prev.iter().take(need) {
            for (c, n) in counts.iter_mut().zip(&item.leaves) {
                *c += n;
            }
        }
        for (i, &sym) in coded.iter().enumerate() {
            debug_assert!(counts[i] >= 1 && counts[i] <= max_len as u32);
            lengths[sym] = counts[i] as u8;
        }
        Ok(lengths)
    }

    fn kraft_ok(lengths: &[u8]) -> bool {
        let sum: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| (0.5f64).powi(l as i32))
            .sum();
        sum <= 1.0 + 1e-12
    }

    fn total_bits(freqs: &[u64], lengths: &[u8]) -> u64 {
        freqs.iter().zip(lengths).map(|(&f, &l)| f * l as u64).sum()
    }

    #[test]
    fn unconstrained_bound_matches_huffman() {
        let freqs = [45u64, 13, 12, 16, 9, 5];
        let lens = package_merge(&freqs, 32).unwrap();
        let huff = crate::code::CodeBook::from_freqs(&freqs).unwrap();
        assert_eq!(total_bits(&freqs, &lens), huff.total_bits(&freqs));
    }

    #[test]
    fn respects_tight_bound() {
        let freqs: Vec<u64> = (0..16).map(|i| 1u64 << i).collect();
        let lens = package_merge(&freqs, 5).unwrap();
        assert!(lens.iter().all(|&l| l > 0 && l <= 5));
        assert!(kraft_ok(&lens));
    }

    #[test]
    fn exact_bound_gives_fixed_length_code() {
        let freqs = [1u64, 2, 3, 4];
        let lens = package_merge(&freqs, 2).unwrap();
        assert_eq!(lens, vec![2, 2, 2, 2]);
    }

    #[test]
    fn bound_of_one_with_two_symbols() {
        let lens = package_merge(&[7, 3], 1).unwrap();
        assert_eq!(lens, vec![1, 1]);
    }

    #[test]
    fn too_tight_rejected() {
        assert!(matches!(
            package_merge(&[1, 1, 1], 1),
            Err(HuffmanError::BoundTooTight { .. })
        ));
    }

    #[test]
    fn zero_frequency_symbols_uncoded() {
        let freqs = [4u64, 0, 2, 0, 1];
        let lens = package_merge(&freqs, 8).unwrap();
        assert_eq!(lens[1], 0);
        assert_eq!(lens[3], 0);
        assert!(lens[0] > 0 && lens[2] > 0 && lens[4] > 0);
    }

    #[test]
    fn single_symbol() {
        let lens = package_merge(&[0, 9], 8).unwrap();
        assert_eq!(lens, vec![0, 1]);
    }

    #[test]
    fn optimality_under_bound_beats_naive_truncation() {
        // Package-merge total must be <= any other valid bounded assignment;
        // compare with the fixed-length code as a trivial valid competitor.
        let freqs: Vec<u64> = vec![100, 50, 20, 10, 5, 2, 1, 1];
        let lens = package_merge(&freqs, 4).unwrap();
        assert!(kraft_ok(&lens));
        let fixed_total: u64 = freqs.iter().map(|f| f * 3).sum();
        assert!(total_bits(&freqs, &lens) <= fixed_total);
    }

    #[test]
    fn deterministic() {
        let freqs: Vec<u64> = vec![9, 9, 9, 9, 1, 1, 1, 1];
        assert_eq!(
            package_merge(&freqs, 6).unwrap(),
            package_merge(&freqs, 6).unwrap()
        );
    }

    /// Every frequency vector over `{0, 1, 2, 3}` of length ≤ 5 — so
    /// empty, k = 1, k = 2, ties and zeros — under every bound 1–4 gives
    /// the oracle's lengths or its error.
    #[test]
    fn matches_the_dense_oracle_on_every_small_case() {
        for n in 0..=5u32 {
            for code in 0..4u32.pow(n) {
                let freqs: Vec<u64> = (0..n).map(|i| u64::from(code / 4u32.pow(i) % 4)).collect();
                for max_len in 1..=4 {
                    assert_eq!(
                        package_merge(&freqs, max_len),
                        dense_package_merge(&freqs, max_len),
                        "{freqs:?} bound {max_len}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random alphabets (with zeros and ties, small, skewed or near
        /// `u64::MAX` so package weights saturate) under bounds 1–24 give
        /// the oracle's lengths, or its `BoundTooTight`/`EmptyAlphabet`.
        #[test]
        fn matches_the_dense_oracle(
            raw in prop::collection::vec(any::<u64>(), 0..96),
            shape in 0u8..4,
            max_len in 1u8..=24,
        ) {
            let freqs: Vec<u64> = raw
                .iter()
                .map(|&r| match shape {
                    0 => r % 4,
                    1 => r % 1000,
                    2 => (r >> 61) << (r % 48),
                    _ => r,
                })
                .collect();
            prop_assert_eq!(package_merge(&freqs, max_len), dense_package_merge(&freqs, max_len));
        }
    }
}
