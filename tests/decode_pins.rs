//! Pins what whole-image decoding produces, clean and corrupted.
//!
//! For the eight paper programs and the seed-42 tiny corpus under every
//! Huffman scheme (byte, stream, stream_1, full, pair), each line of
//! `tests/decode_pins.txt` records `batch_decode_image`'s `DecodeStats`
//! and a CRC-32 of every decoded op word. The same is recorded for a
//! seeded set of corrupted images (one and four flipped bits, and a
//! truncation), together with each failing block's error from the LUT
//! path and from the bit-serial reference path: the first failure in
//! clear, all of them as a CRC. An `overrun` line decodes every clean
//! block as one op longer than it is, through both paths, which drives
//! each codec's loop into errors at every block boundary. Figure goldens only see decode through
//! rounded numbers, so a decoder rewrite that moved an error's `at_bit`
//! or a stall-bit count would otherwise pass unseen.
//!
//! On an *intentional* change to decode behaviour, the test writes the
//! list it computed to `target/tmp/decode_pins.txt`; review the drift
//! it reports and copy that file over `tests/decode_pins.txt`.

use tepic_ccc::ccc::schemes::{by_name, BlockCodec};
use tepic_ccc::ccc::EncodedProgram;
use tepic_ccc::fetch::{batch_decode_image, DecodeStats};
use tepic_ccc::huffman::DecodeCounters;
use tepic_ccc::isa::Program;
use tepic_ccc::telemetry::ledger::crc32;
use tepic_ccc::workgen::{generate_corpus, Flavor, Tier};

/// The Huffman schemes whose decode the pins cover.
const SCHEMES: [&str; 5] = ["byte", "stream", "stream_1", "full", "pair"];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The eight paper programs, then the seed-42 tiny corpus.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = tepic_ccc::workloads::ALL
        .iter()
        .map(|w| (w.name.to_string(), w.compile().expect("paper program")))
        .collect();
    let corpus = generate_corpus(42, Tier::Tiny, Flavor::Tepic).expect("tiny corpus");
    for gp in corpus.programs {
        let p = lego::compile(&gp.source, &lego::Options::default()).expect("corpus program");
        out.push((gp.name, p));
    }
    out
}

fn stats_text(s: &DecodeStats) -> String {
    format!(
        "blocks={} ops={} errors={} long={} stall={} reffb={}",
        s.blocks_decoded,
        s.ops_decoded,
        s.decode_errors,
        s.long_fallbacks,
        s.stall_bits,
        s.reference_fallbacks
    )
}

/// One pin line: the stats, the CRC of every decoded word, and the
/// failing blocks (`block:lut-error|reference-error`).
fn pin(label: &str, program: &Program, image: &EncodedProgram, codec: &dyn BlockCodec) -> String {
    let (results, stats) = batch_decode_image(program, image, codec, None);
    let mut words = Vec::new();
    let mut fails = Vec::new();
    for (b, res) in results.iter().enumerate() {
        match res {
            Ok(ws) => ws
                .iter()
                .for_each(|w| words.extend_from_slice(&w.to_le_bytes())),
            Err(reference) => {
                let n = program.blocks()[b].num_ops;
                let lut = codec.decode_block(image, b, n).err();
                fails.push(format!("{b}:{lut:?}|{reference:?}"));
            }
        }
    }
    let mut line = format!("{label} {} words={:08x}", stats_text(&stats), crc32(&words));
    if let Some(first) = fails.first() {
        line.push_str(&format!(
            " fails={} first={first} all={:08x}",
            fails.len(),
            crc32(fails.join(",").as_bytes())
        ));
    }
    line
}

/// Every block of the clean image decoded as one op longer than it
/// is, so each block's decode runs into the next block's bits or off
/// the end of the image: the LUT path's results and counters and the
/// reference path's results, as a CRC, with the error count in clear.
fn overrun(
    label: &str,
    program: &Program,
    image: &EncodedProgram,
    codec: &dyn BlockCodec,
) -> String {
    let mut text = String::new();
    let mut errors = 0;
    for (b, info) in program.blocks().iter().enumerate() {
        let mut counts = DecodeCounters::default();
        let lut = codec.decode_block_counted(image, b, info.num_ops + 1, &mut counts);
        let reference = codec.decode_block_reference(image, b, info.num_ops + 1);
        errors += usize::from(lut.is_err()) + usize::from(reference.is_err());
        text.push_str(&format!("{b}:{lut:?}{counts:?}|{reference:?}\n"));
    }
    format!("{label} errors={errors} all={:08x}", crc32(text.as_bytes()))
}

fn compute() -> String {
    let mut out = String::new();
    for (name, program) in programs() {
        for scheme in SCHEMES {
            let built = by_name(scheme)
                .expect("known scheme")
                .compress(&program)
                .unwrap_or_else(|e| panic!("{name}/{scheme}: {e}"));
            let codec = built.codec.as_ref();
            let clean = &built.image;
            out.push_str(&pin(
                &format!("{name} {scheme} clean"),
                &program,
                clean,
                codec,
            ));
            out.push('\n');
            let mut rng = crc32(format!("{name}/{scheme}").as_bytes()) as u64;
            let bits = clean.bytes.len() as u64 * 8;
            for flips in [1, 4] {
                let mut image = clean.clone();
                let mut at = Vec::new();
                for _ in 0..flips {
                    let bit = splitmix(&mut rng) % bits;
                    image.bytes[(bit / 8) as usize] ^= 0x80 >> (bit % 8);
                    at.push(bit.to_string());
                }
                let label = format!("{name} {scheme} flip@{}", at.join("+"));
                out.push_str(&pin(&label, &program, &image, codec));
                out.push('\n');
            }
            out.push_str(&overrun(
                &format!("{name} {scheme} overrun"),
                &program,
                clean,
                codec,
            ));
            out.push('\n');
            let mut image = clean.clone();
            let keep = (splitmix(&mut rng) % clean.bytes.len() as u64) as usize;
            image.bytes.truncate(keep);
            let label = format!("{name} {scheme} trunc@{keep}");
            out.push_str(&pin(&label, &program, &image, codec));
            out.push('\n');
        }
    }
    out
}

#[test]
fn decode_matches_its_pins() {
    let actual = compute();
    let path = format!("{}/tests/decode_pins.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_default();
    if actual == golden {
        return;
    }
    let fresh = format!("{}/decode_pins.txt", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&fresh, &actual).unwrap_or_else(|e| panic!("{fresh}: {e}"));
    let drifted: Vec<&str> = actual
        .lines()
        .filter(|l| !golden.lines().any(|g| g == *l))
        .take(20)
        .collect();
    panic!(
        "decode drifted from {path} (first {} drifted lines below; the full \
         list is in {fresh}):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
