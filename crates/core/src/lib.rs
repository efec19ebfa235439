//! # ccc-core — compiler-driven cached code compression
//!
//! The primary contribution of Larin & Conte (MICRO-32, 1999): program-
//! specific re-encodings of TEPIC code images that shrink the embedded
//! system ROM while remaining executable through a redesigned instruction
//! fetch path.
//!
//! Two families are implemented, exactly as in the paper §2:
//!
//! * **Huffman compression** of the original 40-bit encoding with three
//!   alphabet choices — [`schemes::byte`] (the code segment as a byte
//!   stream), [`schemes::stream`] (independent Huffman streams split at
//!   fixed field boundaries, Figure 3; six configurations including the
//!   paper's `stream` and `stream_1`), and [`schemes::full`] (one whole
//!   operation per symbol — best compression, biggest decoder);
//! * **Tailored encoding** ([`schemes::tailored`]) — every field shrunk
//!   to the minimum width the program needs, opcodes/registers densely
//!   renumbered, reserved fields dropped; *uncompressed but compact*, so
//!   the pipeline decoder consumes it directly (§2.3).
//!
//! Supporting machinery: byte-aligned block layout ([`EncodedProgram`]),
//! the Address Translation Table ([`att`]), decoder hardware cost models
//! ([`DecoderCost`], paper §3.5 Figures 9–10) with synthesizable-Verilog
//! emission for the tailored decoder ([`pla`]), and a comparison report
//! over all schemes ([`report`], Figures 5 and 7). The robustness
//! substrate lives here too: deterministic fault-injection sites
//! ([`failpoint`]) and the bounded retry/backoff policy ([`retry`]) the
//! self-healing bench engine runs on (DESIGN.md §13).
//!
//! # Example
//!
//! ```
//! use ccc_core::schemes::{self, Scheme};
//!
//! let p = lego::compile(
//!     "fn main() { var i; for (i = 0; i < 9; i = i + 1) { print(i); } }",
//!     &lego::Options::default(),
//! ).unwrap();
//! let full = schemes::full::FullScheme::default().compress(&p).unwrap();
//! assert!(full.image.total_bytes() < p.code_size());
//! assert!(full.verify_roundtrip(&p));
//! ```

pub mod att;
pub mod encoded;
pub mod failpoint;
pub mod fault;
pub mod integrity;
pub mod pla;
pub mod report;
pub mod retry;
pub mod schemes;
pub mod serialize;

pub use att::{AddressTranslationTable, AttEntry, ATT_ENTRY_BYTES};
pub use encoded::{DecoderCost, EncodedProgram, SchemeKind};
pub use failpoint::{FailMode, Failpoints, Injection};
pub use fault::{CampaignConfig, CampaignReport, FaultInjector, FaultKind, FaultTarget, Outcome};
pub use integrity::{crc32, crc8, parity_fold, IntegrityError};
pub use report::{CompressionReport, SchemeRow};
pub use retry::{RetryPolicy, RetryTrace};
pub use serialize::{encoded_from_bytes, encoded_to_bytes, CODEC_VERSION};
