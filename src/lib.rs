//! # tepic-ccc — compiler-driven cached code compression for embedded VLIW
//!
//! A full reproduction of Larin & Conte, *Compiler-Driven Cached Code
//! Compression Schemes for Embedded ILP Processors* (MICRO-32, 1999), as
//! a Rust workspace. This facade crate re-exports every layer:
//!
//! * [`isa`] — the TEPIC 40-bit VLIW instruction set (formats, MOPs,
//!   program images);
//! * [`huffman`] — canonical + length-limited Huffman coding and the
//!   decoder-complexity model;
//! * [`ir`] / [`lego`] — the LEGO optimizing compiler (Tink frontend,
//!   optimizer, treegions, linear-scan allocation, VLIW scheduling);
//! * [`yula`] — the emulator producing dynamic block traces;
//! * [`ccc`] — the paper's contribution: byte/stream/full Huffman
//!   compression, the tailored encoder, ATT generation, decoder cost
//!   models and Verilog emission;
//! * [`fetch`] — the IFetch simulator (banked ICache, ATB + branch
//!   prediction, L0 buffer, Table-1 cycle model, bus power);
//! * [`workloads`] — eight SPECint95-class benchmark stand-ins;
//! * [`bench`] — the experiment harness: the parallel prepared-workload
//!   engine with its content-addressed artifact cache, and the pure
//!   figure renderers;
//! * [`telemetry`] — the unified observability layer: metrics registry,
//!   structured trace sinks, Chrome-trace/JSON exporters and clock
//!   injection (DESIGN.md §12);
//! * [`workgen`] — the seeded synthetic Tink workload generator with
//!   op-mix calibration against the real corpus and scalable corpus
//!   tiers (DESIGN.md §14);
//! * [`cli`] — the `tepic-cc` subcommands and the `tepic-ccd` daemon's
//!   setup, with their one flag parser and engine builder.
//!
//! # Quickstart
//!
//! ```
//! use tepic_ccc::prelude::*;
//!
//! // Compile a Tink program, run it, compress it, and measure.
//! let program = lego::compile(
//!     "fn main() { var i; for (i = 0; i < 100; i = i + 1) { print(i); } }",
//!     &lego::Options::default(),
//! ).unwrap();
//! let run = Emulator::new(&program).run(&Limits::default()).unwrap();
//! let full = schemes::full::FullScheme::default().compress(&program).unwrap();
//! assert!(full.image.total_bytes() < program.code_size());
//! let ipc = simulate(&program, &full.image, &run.trace, &FetchConfig::compressed()).ipc();
//! assert!(ipc > 0.0 && ipc <= 6.0);
//! ```

pub use ccc_bench as bench;
pub use ccc_core as ccc;
pub use ccc_telemetry as telemetry;
pub use ccc_workgen as workgen;
pub use ifetch_sim as fetch;
pub use lego;
pub use tepic_isa as isa;
pub use tinker_huffman as huffman;
pub use tinker_ir as ir;
pub use tinker_workloads as workloads;
pub use yula;

pub mod cli;

/// Convenient top-level imports for examples and downstream users.
pub mod prelude {
    pub use ccc_core::{
        fault::{run_campaign, CampaignConfig, CampaignReport},
        schemes::{self, Scheme},
        AddressTranslationTable, CompressionReport, EncodedProgram,
    };
    pub use ccc_telemetry::{MetricsRegistry, RingSink, SharedSink, TraceSink};
    pub use ifetch_sim::{
        simulate, simulate_with, DecodeStats, EncodingClass, FetchConfig, FetchResult,
        PenaltyTable, Probes,
    };
    pub use lego;
    pub use tepic_isa::Program;
    pub use tinker_huffman::CodeBook;
    pub use tinker_workloads as workloads;
    pub use yula::{Emulator, Limits};
}
