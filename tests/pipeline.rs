//! End-to-end pipeline integration: for every workload, the compiler,
//! emulator, every compression scheme, the ATT and the fetch simulator
//! must agree with each other.

use tepic_ccc::ccc::schemes::{self, standard_schemes, Scheme};
use tepic_ccc::ccc::AddressTranslationTable;
use tepic_ccc::prelude::*;

#[test]
fn every_workload_round_trips_every_scheme() {
    for w in &workloads::ALL {
        let program = w.compile().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for scheme in standard_schemes() {
            let out = scheme
                .compress(&program)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, scheme.name()));
            assert!(
                out.image.check_layout(),
                "{}/{}: bad layout",
                w.name,
                scheme.name()
            );
            assert!(
                out.verify_roundtrip(&program),
                "{}/{}: round trip failed",
                w.name,
                scheme.name()
            );
        }
    }
}

#[test]
fn every_scheme_maps_to_its_fetch_class() {
    let program = workloads::by_name("li").unwrap().compile().unwrap();
    for (name, class, decodes) in [
        ("base", EncodingClass::Base, false),
        ("tailored", EncodingClass::Tailored, false),
        ("byte", EncodingClass::Compressed, true),
        ("stream", EncodingClass::Compressed, true),
        ("stream_1", EncodingClass::Compressed, true),
        ("full", EncodingClass::Compressed, true),
    ] {
        let image = schemes::by_name(name)
            .unwrap()
            .compress(&program)
            .unwrap()
            .image;
        assert_eq!(EncodingClass::of(&image.kind), class, "{name}");
        assert_eq!(class.decodes_on_hit(), decodes, "{name}");
        assert_eq!(FetchConfig::of_class(class).class, class, "{name}");
    }
}

#[test]
fn att_entries_match_images() {
    for w in &workloads::ALL {
        let program = w.compile().unwrap();
        for scheme in standard_schemes() {
            let out = scheme.compress(&program).unwrap();
            let att = AddressTranslationTable::build(&program, &out.image);
            assert_eq!(att.entries().len(), program.num_blocks());
            for (b, e) in att.entries().iter().enumerate() {
                assert_eq!(e.compressed_addr, out.image.block_start[b]);
                assert_eq!(e.num_ops as usize, program.blocks()[b].num_ops);
                assert_eq!(e.num_mops as usize, program.blocks()[b].num_mops);
            }
        }
    }
}

#[test]
fn fetch_simulation_conserves_the_instruction_stream() {
    // Every configuration must deliver exactly the ops of the trace.
    for w in workloads::ALL.iter().take(3) {
        let (program, run) = w.compile_and_run().unwrap();
        let expected_ops = run.stats.ops;
        let base_img = schemes::base::encode_base(&program);
        let tail = schemes::tailored::TailoredScheme
            .compress(&program)
            .unwrap()
            .image;
        let full = schemes::full::FullScheme::default()
            .compress(&program)
            .unwrap()
            .image;
        for (img, cfg) in [
            (&base_img, FetchConfig::ideal()),
            (&base_img, FetchConfig::base()),
            (&tail, FetchConfig::tailored()),
            (&full, FetchConfig::compressed()),
        ] {
            let r = simulate(&program, img, &run.trace, &cfg);
            assert_eq!(
                r.ops, expected_ops,
                "{}: {:?} dropped ops",
                w.name, cfg.class
            );
            assert!(r.cycles >= r.mops, "{}: cycles below MOP count", w.name);
            assert!(r.ipc() <= 6.0 + 1e-9, "{}: IPC above issue width", w.name);
        }
    }
}

#[test]
fn disassembly_lists_every_block() {
    let w = workloads::by_name("compress").unwrap();
    let program = w.compile().unwrap();
    let listing = program.listing();
    for b in 0..program.num_blocks() {
        assert!(listing.contains(&format!(".b{b}:")), "missing label .b{b}");
    }
    for f in program.funcs() {
        assert!(listing.contains(&f.name), "missing function {}", f.name);
    }
}

#[test]
fn tailored_verilog_emits_for_every_workload() {
    use tepic_ccc::ccc::pla::emit_tailored_decoder_verilog;
    use tepic_ccc::ccc::schemes::tailored::TailoredSpec;
    for w in &workloads::ALL {
        let program = w.compile().unwrap();
        let spec = TailoredSpec::compute(&program);
        let v = emit_tailored_decoder_verilog(&spec, &format!("{}_decoder", w.name));
        assert!(v.contains(&format!("module {}_decoder", w.name)));
        assert!(v.matches("// opt=").count() == spec.opsel.len());
        assert!(v.contains("endmodule"));
    }
}

#[test]
fn tailored_verilog_op_len_is_each_opcodes_encoded_size() {
    use std::collections::HashMap;
    use tepic_ccc::ccc::pla::emit_tailored_decoder_verilog;
    use tepic_ccc::ccc::schemes::tailored::TailoredSpec;
    for w in &workloads::ALL {
        let program = w.compile().unwrap();
        let spec = TailoredSpec::compute(&program);
        let v = emit_tailored_decoder_verilog(&spec, "d");
        // Dense opsel code of each case arm -> the op_len the arm sets.
        let mut op_len = HashMap::new();
        let mut arm = None;
        for line in v.lines().map(str::trim) {
            if let Some((sel, _)) = line.split_once(": begin // opt=") {
                arm = Some(sel.split_once("'d").unwrap().1.parse::<u32>().unwrap());
            } else if let (Some(a), Some(rest)) = (arm, line.strip_prefix("op_len = 6'd")) {
                op_len.insert(a, rest.split(';').next().unwrap().parse::<u32>().unwrap());
                arm = None;
            }
        }
        assert_eq!(op_len.len(), spec.opsel.len(), "{}", w.name);
        for op in program.ops() {
            let (opt, opc) = op.opt_opcode();
            let dense = spec.opsel.enc(opt as u32 * 32 + opc as u32);
            assert_eq!(op_len[&dense], spec.op_bits(op), "{}: {op:?}", w.name);
        }
    }
}

#[test]
fn emulator_agrees_across_encodings_by_construction() {
    // The compressed images decode to the very words the emulator runs;
    // spot-check by decoding one block of each scheme and disassembling.
    let w = workloads::by_name("li").unwrap();
    let program = w.compile().unwrap();
    for scheme in standard_schemes() {
        let out = scheme.compress(&program).unwrap();
        let words = out
            .codec
            .decode_block(&out.image, 0, program.blocks()[0].num_ops)
            .expect("block 0 decodes");
        for (i, word) in words.iter().enumerate() {
            let op = tepic_ccc::isa::Operation::decode(*word)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert_eq!(op, program.block_ops(0)[i]);
        }
    }
}
