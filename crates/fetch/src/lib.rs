//! # ifetch-sim — instruction fetch simulation for cached code compression
//!
//! Trace-driven models of the three IFetch organizations of Larin & Conte
//! (MICRO-32, 1999, §3–§5) plus the Ideal machine:
//!
//! * **Base** — uncompressed code in a dual-banked ICache (20KB 2-way,
//!   30-byte bank lines: a multiple of the 40-bit op size) with an
//!   alignment stage and ATB-coupled branch prediction;
//! * **Tailored** — tailored code in a 16KB 2-way banked cache; the miss
//!   path gains one stage (block extraction/placement), the hit path
//!   stays one-cycle;
//! * **Compressed** — Huffman-compressed code cached *compressed*;
//!   decompression sits on the hit path behind a 32-op L0 buffer, adding
//!   a pipeline stage that deepens the misprediction penalty;
//! * **Ideal** — perfect cache and predictor (one MultiOp per cycle).
//!
//! The cycle accounting is exactly the paper's Table 1
//! ([`penalty::PenaltyTable`]); the ATB ([`atb`]) holds one entry per
//! block with a 2-bit/last-target predictor; the bus power model
//! ([`power`]) counts bit flips on the 64-bit memory bus.
//!
//! The metric of Figure 13 is **operations delivered per cycle**
//! ([`engine::FetchResult::ipc`]) at issue width 6.

pub mod atb;
pub mod buffer;
pub mod cache;
pub mod engine;
pub mod gshare;
pub mod penalty;
pub mod power;
pub mod units;

pub use engine::{
    batch_decode_image, simulate, simulate_decoded, simulate_decoded_injected, simulate_with,
    DecodeStats, EncodingClass, FetchConfig, FetchResult, PredictorKind, Probes,
};
pub use penalty::{Outcome, Penalty, PenaltyTable};
pub use units::FetchUnits;
