//! `tepic-ccd`, the serving daemon: see `tepic_ccc::cli` (its `serve` module).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    tepic_ccc::cli::tepic_ccd(&args, &|key| std::env::var(key).ok())
}
