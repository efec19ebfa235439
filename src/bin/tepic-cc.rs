//! `tepic-cc`, the command-line driver: see [`tepic_ccc::cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    tepic_ccc::cli::tepic_cc(&args, &|key| std::env::var(key).ok())
}
