//! Shape-level reproduction checks of the paper's headline results.
//!
//! These assert the *qualitative* claims — who wins, roughly by how much,
//! where crossovers fall — not the authors' absolute numbers (our
//! workloads are synthetic stand-ins; see DESIGN.md §4 and
//! EXPERIMENTS.md for measured-vs-paper values).

use tepic_ccc::bench::{mean, median};
use tepic_ccc::ccc::schemes::{standard_schemes, Scheme};
use tepic_ccc::ccc::{AddressTranslationTable, CompressionReport};
use tepic_ccc::prelude::*;

fn reports() -> Vec<CompressionReport> {
    workloads::ALL
        .iter()
        .map(|w| CompressionReport::build(w.name, &w.compile().unwrap()))
        .collect()
}

/// Figure 5: Full compresses best on every benchmark; every scheme beats
/// the original; the tailored ISA sits in the middle of the field.
#[test]
fn fig5_full_wins_compression_everywhere() {
    for rep in reports() {
        let full = rep.row("full").unwrap().code_ratio;
        for s in ["byte", "stream", "stream_1", "tailored"] {
            let r = rep.row(s).unwrap().code_ratio;
            assert!(full < r, "{}: full {full} !< {s} {r}", rep.name);
            assert!(r < 1.0, "{}: {s} fails to compress", rep.name);
        }
    }
}

/// §2.2: combining strategies approaches the entropy limit — the Full
/// scheme's output cannot be far below the op-level entropy bound.
#[test]
fn full_compression_respects_entropy_bound() {
    use tinker_huffman::{entropy_bits, Dictionary};
    for w in &workloads::ALL {
        let p = w.compile().unwrap();
        let dict: Dictionary<u64> = p.op_words().into_iter().collect();
        let h = entropy_bits(dict.freqs());
        let out = tepic_ccc::ccc::schemes::full::FullScheme::default()
            .compress(&p)
            .unwrap();
        let bits_per_op = out.image.total_bytes() as f64 * 8.0 / p.num_ops() as f64;
        // Byte-aligned block starts add padding, so allow slack above the
        // entropy; but the encoded stream can never beat entropy by more
        // than the rounding noise.
        assert!(
            bits_per_op > h - 0.01,
            "{}: {bits_per_op:.2} bits/op below entropy {h:.2}",
            w.name
        );
        assert!(
            bits_per_op < h + 4.0,
            "{}: {bits_per_op:.2} bits/op far above entropy {h:.2}",
            w.name
        );
    }
}

/// Figure 10: the Full decoder is the largest of the Huffman family;
/// byte-wise has the smallest dictionary-bearing decoder; the tailored
/// PLA is orders smaller than the Full tree.
#[test]
fn fig10_decoder_complexity_ordering() {
    for rep in reports() {
        let full = rep.row("full").unwrap().decoder_transistors;
        let byte = rep.row("byte").unwrap().decoder_transistors;
        let tailored = rep.row("tailored").unwrap().decoder_transistors;
        assert!(full > byte, "{}: full {full} !> byte {byte}", rep.name);
        assert!(tailored * 10 < full, "{}: tailored not ≪ full", rep.name);
        assert!(tailored > 0, "{}: tailored decoder can't be free", rep.name);
    }
}

/// §3.3: the ATT adds a modest fraction to the image (paper: ≈15.5%).
#[test]
fn att_overhead_is_modest() {
    let mut fracs = Vec::new();
    for w in &workloads::ALL {
        let p = w.compile().unwrap();
        for scheme in standard_schemes() {
            let out = scheme.compress(&p).unwrap();
            let att = AddressTranslationTable::build(&p, &out.image);
            fracs.push(att.stored_bytes() as f64 / out.image.total_bytes() as f64);
        }
    }
    let avg = mean(&fracs);
    assert!(
        avg > 0.05 && avg < 0.30,
        "mean ATT overhead {avg} outside the plausible band"
    );
}

fn scaled_ipcs() -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    use tepic_ccc::ccc::schemes;
    let (mut ideal, mut base, mut comp, mut tail) = (vec![], vec![], vec![], vec![]);
    for w in &workloads::ALL {
        let (p, run) = w.compile_and_run().unwrap();
        let base_img = schemes::base::encode_base(&p);
        let tail_img = schemes::tailored::TailoredScheme
            .compress(&p)
            .unwrap()
            .image;
        let comp_img = schemes::full::FullScheme::default()
            .compress(&p)
            .unwrap()
            .image;
        let code = base_img.total_bytes();
        ideal.push(simulate(&p, &base_img, &run.trace, &FetchConfig::ideal()).ipc());
        base.push(
            simulate(
                &p,
                &base_img,
                &run.trace,
                &FetchConfig::scaled(EncodingClass::Base, code),
            )
            .ipc(),
        );
        comp.push(
            simulate(
                &p,
                &comp_img,
                &run.trace,
                &FetchConfig::scaled(EncodingClass::Compressed, code),
            )
            .ipc(),
        );
        tail.push(
            simulate(
                &p,
                &tail_img,
                &run.trace,
                &FetchConfig::scaled(EncodingClass::Tailored, code),
            )
            .ipc(),
        );
    }
    (ideal, base, comp, tail)
}

/// Figure 13's headline shape: Ideal bounds everything; Tailored beats
/// Base on average; Compressed achieves a median advantage over Base yet
/// loses on at least one benchmark (the misprediction-penalty story);
/// and Tailored's average exceeds Compressed's (the paper's conclusion).
#[test]
fn fig13_cache_study_shape() {
    let (ideal, base, comp, tail) = scaled_ipcs();
    for i in 0..ideal.len() {
        assert!(ideal[i] >= base[i] - 1e-9);
        assert!(ideal[i] >= comp[i] - 1e-9);
        assert!(ideal[i] >= tail[i] - 1e-9);
    }
    assert!(
        mean(&tail) > mean(&base),
        "tailored mean {} must beat base mean {}",
        mean(&tail),
        mean(&base)
    );
    assert!(
        median(&comp) > median(&base),
        "compressed median {} must beat base median {}",
        median(&comp),
        median(&base)
    );
    let comp_losses = comp.iter().zip(&base).filter(|(c, b)| c < b).count();
    assert!(
        comp_losses >= 1,
        "compressed should lose somewhere (mispredict penalty)"
    );
    assert!(
        mean(&tail) >= mean(&comp),
        "the paper's conclusion: tailored {} ≥ compressed {} on average",
        mean(&tail),
        mean(&comp)
    );
}

/// Figure 14: bus activity savings track the degree of compression.
#[test]
fn fig14_bus_flips_track_compression() {
    use tepic_ccc::ccc::schemes;
    let mut base_flips = 0u64;
    let mut comp_flips = 0u64;
    let mut tail_flips = 0u64;
    for w in &workloads::ALL {
        let (p, run) = w.compile_and_run().unwrap();
        let base_img = schemes::base::encode_base(&p);
        let tail_img = schemes::tailored::TailoredScheme
            .compress(&p)
            .unwrap()
            .image;
        let comp_img = schemes::full::FullScheme::default()
            .compress(&p)
            .unwrap()
            .image;
        let code = base_img.total_bytes();
        base_flips += simulate(
            &p,
            &base_img,
            &run.trace,
            &FetchConfig::scaled(EncodingClass::Base, code),
        )
        .bus_bit_flips;
        comp_flips += simulate(
            &p,
            &comp_img,
            &run.trace,
            &FetchConfig::scaled(EncodingClass::Compressed, code),
        )
        .bus_bit_flips;
        tail_flips += simulate(
            &p,
            &tail_img,
            &run.trace,
            &FetchConfig::scaled(EncodingClass::Tailored, code),
        )
        .bus_bit_flips;
    }
    assert!(
        comp_flips < base_flips,
        "compressed {comp_flips} !< base {base_flips}"
    );
    assert!(
        tail_flips < base_flips,
        "tailored {tail_flips} !< base {base_flips}"
    );
    // Stronger: the *most* compressed encoding saves the most.
    assert!(
        comp_flips < tail_flips,
        "compressed {comp_flips} !< tailored {tail_flips}"
    );
}

/// §2.3 in-text: tailored ops never exceed the original, and popular
/// full-scheme ops shrink drastically ("ADD went from 40 to 6 bits").
#[test]
fn intext_op_size_claims() {
    use tinker_huffman::{CodeBook, Dictionary};
    for w in workloads::ALL.iter().take(4) {
        let p = w.compile().unwrap();
        let spec = tepic_ccc::ccc::schemes::tailored::TailoredSpec::compute(&p);
        for op in p.ops() {
            assert!(spec.op_bits(op) <= 40, "{}: tailored op grew", w.name);
        }
        let dict: Dictionary<u64> = p.op_words().into_iter().collect();
        let book = CodeBook::bounded_from_freqs(dict.freqs(), 24).unwrap();
        let shortest = (0..dict.len() as u32)
            .map(|s| book.len_of(s))
            .min()
            .unwrap();
        assert!(
            shortest <= 8,
            "{}: hottest op code is {} bits",
            w.name,
            shortest
        );
    }
}
