//! End-to-end runs of the `tepic-cc` and `tepic-ccd` binaries: exit
//! codes, stdin input and the `perf` sentinel over a scratch ledger.
//! Every run is uncached and off the default ledger, so nothing under
//! the working tree is read or written.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use tepic_ccc::bench::history;
use tepic_ccc::telemetry::ledger;

/// Runs `bin` with `args`, feeding it `stdin`.
fn run(bin: &str, args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .env("CCC_NO_LEDGER", "1")
        .env("CCC_NO_CACHE", "1")
        .env_remove("CCC_LEDGER")
        .env_remove("CCC_FAILPOINTS")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    child.wait_with_output().expect("binary finishes")
}

fn cc(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_tepic-cc"), args, "")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccc-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn disasm_of_stdin_prints_the_compiled_listing() {
    let src = "fn main() { var i; for (i = 0; i < 4; i = i + 1) { print(i * 3); } }";
    let out = run(env!("CARGO_BIN_EXE_tepic-cc"), &["disasm", "-"], src);
    assert!(out.status.success(), "{out:?}");
    let expected = lego::compile(src, &lego::Options::default())
        .unwrap()
        .listing();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
}

#[test]
fn bad_command_lines_exit_2_and_name_the_flag() {
    for (args, says) in [
        (
            &["bench", "--jobs", "0"][..],
            "tepic-cc bench: --jobs wants",
        ),
        (&["bench", "--lut-bits", "8"], "unknown option --lut-bits"),
        (&["run", "x.tink", "--seed", "nope"], "--seed wants"),
        (&["nosuch"], "unknown subcommand nosuch"),
    ] {
        let out = cc(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(says), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: tepic-cc"), "{stderr}");
    }
    let out = run(env!("CARGO_BIN_EXE_tepic-ccd"), &["--jobs", "0"], "");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tepic-ccd: --jobs wants"), "{stderr}");
}

#[test]
fn perf_check_passes_then_catches_an_injected_slowdown() {
    let dir = scratch("perf");
    let path = dir.join("ledger.jsonl");
    for wall_ns in [100_000, 104_000] {
        ledger::append(&path, &history::base_record("bench/fig05", 0, 0, wall_ns)).unwrap();
    }
    let ledger_arg = path.to_str().unwrap();
    let check = || cc(&["perf", "--check", "--ledger", ledger_arg]);

    let out = check();
    assert!(out.status.success(), "{out:?}");
    let out = cc(&["perf", "--inject-slowdown", "2.0", "--ledger", ledger_arg]);
    assert!(out.status.success(), "{out:?}");
    let out = check();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("REGRESSION"));
    let _ = std::fs::remove_dir_all(&dir);
}
