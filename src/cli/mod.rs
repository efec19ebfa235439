//! The command-line front end: `tepic-cc`, the driver for the
//! LEGO/TEPIC tool suite, and `tepic-ccd`, the serving daemon.
//!
//! ```text
//! tepic-cc run <file.tink>            compile and execute
//! tepic-cc disasm <file.tink>         compile and print the TEPIC listing
//! tepic-cc report <file.tink>         compression report (Fig 5/7/10 rows)
//! tepic-cc verilog <file.tink>        emit the tailored-decoder Verilog
//! tepic-cc sim <file.tink>            fetch-pipeline study (Fig 13 row)
//! tepic-cc stats <file.tink>          static + dynamic statistics
//! tepic-cc faultsim <file.tink>       fault-injection campaign over all schemes
//! tepic-cc bench [options]            the whole figure suite in one invocation
//! tepic-cc trace [options]            Chrome-trace + metrics snapshot of one run
//! tepic-cc chaos [options]            self-healing audit under injected faults
//! tepic-cc gen [options]              seeded synthetic workload corpus + calibration
//! tepic-cc perf [options]             run-ledger sentinel + cost attribution
//! tepic-cc loadgen [options]          hammer a running tepic-ccd daemon
//! tepic-ccd [options]                 the compression-as-a-service daemon
//! ```
//!
//! Each subcommand family is one module here; its options are declared
//! once, in a `flags::Command` table that drives parsing, errors and
//! the usage line. A command line it cannot accept (an unknown option,
//! a bad value, a missing argument) prints `tepic-cc <cmd>: <why>` and
//! the usage line and exits 2; a failed run exits 1.
//!
//! Every engine is built by `EngineArgs`, the one place that reads
//! the engine's flags and environment. For each setting the flag wins,
//! then the environment variable, then the default:
//!
//! ```text
//! --jobs <N>        CCC_JOBS        worker threads (default: all cores)
//! --no-cache        CCC_NO_CACHE=1  rebuild everything, skip the artifact cache
//! --cache-dir <d>   CCC_CACHE_DIR   cache location (default target/ccc-artifacts)
//!                   CCC_FAILPOINTS, CCC_FAILPOINT_SEED   arm fault injection
//! ```
//!
//! `tepic-cc` and `tepic-ccd` honour the same variables, so both open
//! the same cache. A cache directory that cannot be opened is reported
//! on stderr and the run goes on uncached; a malformed variable is
//! reported and ignored.
//!
//! Every `tepic-cc` subcommand appends one CRC-framed JSONL record
//! (host/build fingerprint, counters, per-stage rollups, wall-clock
//! samples) to the run ledger on success; `CCC_NO_LEDGER=1` disables
//! the append, `CCC_LEDGER` relocates the file.

mod bench;
mod chaos;
mod file;
mod flags;
mod gen;
mod loadgen;
mod perf;
mod serve;
mod trace;

use crate::bench::engine::{default_jobs, Engine};
use crate::ccc::failpoint::Failpoints;
use flags::{parsed, positive, Flag, PATH, POSITIVE};
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// The environment, as a lookup: `std::env::var(k).ok()` in the
/// binaries, a fixed table in tests.
pub type Env<'a> = &'a dyn Fn(&str) -> Option<String>;

/// Whether an environment switch such as `CCC_TRACE_SMOKE` is set to 1.
pub(crate) fn env_on(env: Env, key: &str) -> bool {
    env(key).is_some_and(|v| v == "1")
}

/// Why a subcommand stopped early.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Exit {
    /// A command line it cannot accept: exit 2, with the usage line.
    Usage(String),
    /// A run that failed: exit 1.
    Failed(String),
}

/// What a subcommand returns.
pub(crate) type Outcome = Result<(), Exit>;

/// A failed run with `msg` as its reason.
pub(crate) fn fail(msg: impl Display) -> Exit {
    Exit::Failed(msg.to_string())
}

/// A subcommand: the names it answers to, its usage line and its entry
/// point, which takes the name it was called by.
type Sub = (
    &'static [&'static str],
    fn() -> String,
    fn(&str, &[String], Env) -> Outcome,
);

const SUBCOMMANDS: [Sub; 7] = [
    (&file::COMMANDS, || file::command().usage(), file::run),
    (&["bench"], || bench::command().usage(), bench::run),
    (&["trace"], || trace::command().usage(), trace::run),
    (&["chaos"], || chaos::command().usage(), chaos::run),
    (&["gen"], || gen::command().usage(), gen::run),
    (&["perf"], || perf::command().usage(), perf::run),
    (&["loadgen"], || loadgen::command().usage(), loadgen::run),
];

/// `tepic-cc <subcommand> [args..]`.
pub fn tepic_cc(args: &[String], env: Env) -> ExitCode {
    let usage = || SUBCOMMANDS.map(|(_, usage, _)| usage()).join("\n");
    let Some((cmd, rest)) = args.split_first() else {
        return finish("tepic-cc", Err(Exit::Usage("no subcommand".into())), usage);
    };
    match SUBCOMMANDS
        .iter()
        .find(|(names, ..)| names.contains(&cmd.as_str()))
    {
        Some((_, usage, run)) => finish(&format!("tepic-cc {cmd}"), run(cmd, rest, env), usage),
        None => finish(
            "tepic-cc",
            Err(Exit::Usage(format!("unknown subcommand {cmd}"))),
            usage,
        ),
    }
}

/// `tepic-ccd [options]`.
pub fn tepic_ccd(args: &[String], env: Env) -> ExitCode {
    finish("tepic-ccd", serve::run(args, env), || {
        serve::command().usage()
    })
}

/// Prints how a subcommand ended and turns it into its exit code.
fn finish(name: &str, outcome: Outcome, usage: impl FnOnce() -> String) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(Exit::Usage(msg)) => {
            eprintln!("{name}: {msg}");
            eprintln!("usage: {}", usage().replace('\n', "\n       "));
            ExitCode::from(2)
        }
        Err(Exit::Failed(msg)) => {
            eprintln!("{name}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The engine's settings as a command line gives them. Each field that
/// is unset falls back to its environment variable, then its default.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct EngineArgs {
    /// `--jobs`, else `CCC_JOBS`, else all cores.
    pub(crate) jobs: Option<usize>,
    /// `--no-cache`, or `CCC_NO_CACHE=1`.
    pub(crate) no_cache: bool,
    /// `--cache-dir`, else `CCC_CACHE_DIR`, else `target/ccc-artifacts`.
    pub(crate) cache_dir: Option<PathBuf>,
}

/// The default artifact cache: under the build tree, so `cargo clean`
/// clears it.
pub(crate) const DEFAULT_CACHE_DIR: &str = "target/ccc-artifacts";

/// What an [`EngineArgs`] resolves to against the environment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EngineSetup {
    /// Worker threads.
    pub(crate) jobs: usize,
    /// The artifact cache's directory; `None` runs uncached.
    pub(crate) cache_dir: Option<PathBuf>,
    /// `CCC_FAILPOINTS`'s spec and `CCC_FAILPOINT_SEED` (default 0).
    pub(crate) failpoints: Option<(String, u64)>,
}

impl EngineArgs {
    /// `--jobs <N>`, `--no-cache` and `--cache-dir <dir>`, for options
    /// that hold an `EngineArgs` where `get` points.
    pub(crate) fn flags<T: 'static>(get: fn(&mut T) -> &mut EngineArgs) -> [Flag<T>; 3] {
        [
            Flag::some("--jobs", "<N>", POSITIVE, positive, move |o| {
                &mut get(o).jobs
            }),
            Flag::switch("--no-cache", move |o| &mut get(o).no_cache),
            Flag::some("--cache-dir", "<dir>", PATH, parsed, move |o| {
                &mut get(o).cache_dir
            }),
        ]
    }

    /// The only reader of `CCC_JOBS`, `CCC_NO_CACHE`, `CCC_CACHE_DIR`,
    /// `CCC_FAILPOINTS` and `CCC_FAILPOINT_SEED`: flag, then
    /// environment, then default. An invalid `CCC_JOBS` is reported on
    /// stderr and ignored.
    pub(crate) fn resolve(&self, env: Env) -> EngineSetup {
        let env_jobs = env("CCC_JOBS").and_then(|v| {
            let n = positive(&v);
            if n.is_none() {
                eprintln!("warning: CCC_JOBS={v} ignored: wants a positive integer");
            }
            n
        });
        let cached = !self.no_cache && !env_on(env, "CCC_NO_CACHE");
        let cache_dir = cached.then(|| {
            self.cache_dir
                .clone()
                .or_else(|| env("CCC_CACHE_DIR").map(PathBuf::from))
                .unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR))
        });
        let failpoints = env("CCC_FAILPOINTS")
            .filter(|spec| !spec.trim().is_empty())
            .map(|spec| {
                let seed = env("CCC_FAILPOINT_SEED").and_then(|v| v.parse().ok());
                (spec, seed.unwrap_or(0))
            });
        EngineSetup {
            jobs: self.jobs.or(env_jobs).unwrap_or_else(default_jobs),
            cache_dir,
            failpoints,
        }
    }

    /// [`EngineArgs::resolve`], then [`EngineSetup::build`].
    pub(crate) fn build(&self, env: Env) -> Engine {
        self.resolve(env).build()
    }
}

impl EngineSetup {
    /// Opens the engine. Degrade, don't fail: a cache directory that
    /// cannot be opened is reported on stderr and the engine runs
    /// uncached; a malformed failpoint spec is reported and ignored.
    pub(crate) fn build(&self) -> Engine {
        let engine = match &self.cache_dir {
            None => Engine::uncached(self.jobs),
            Some(dir) => Engine::with_cache_dir(self.jobs, dir).unwrap_or_else(|err| {
                eprintln!(
                    "warning: artifact cache unavailable at {}: {err}; running uncached",
                    dir.display()
                );
                Engine::uncached(self.jobs)
            }),
        };
        match &self.failpoints {
            None => engine,
            Some((spec, seed)) => match Failpoints::from_spec(spec, *seed) {
                Ok(fp) => engine.with_failpoints(Arc::new(fp)),
                Err(err) => {
                    eprintln!("warning: CCC_FAILPOINTS ignored: {err}");
                    engine
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::flags::Command;
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    /// A fixed environment.
    fn env_of(vars: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<String> {
        move |k| {
            vars.iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| v.to_string())
        }
    }

    /// A valid value for each placeholder the subcommands declare.
    fn example(placeholder: &str) -> &'static str {
        match placeholder {
            "<N>" => "3",
            "<u64>" => "7",
            "<f>" | "<frac>" => "0.5",
            "<file>" | "<dir>" => "some/path",
            "<host:port>" => "127.0.0.1:1",
            "<figures>" => "fig05,fig13",
            "<spec>" => "cache.read:0.2:io",
            "<tier>" => "10x",
            "<flavor>" => "foreign",
            "<workload>" => "li",
            "<scheme>" => "stream_1",
            other => panic!("no example for placeholder {other}"),
        }
    }

    /// Placeholders whose values are checked, so "nope" must fail.
    const CHECKED: [&str; 8] = [
        "<N>",
        "<u64>",
        "<f>",
        "<frac>",
        "<tier>",
        "<flavor>",
        "<workload>",
        "<scheme>",
    ];

    /// The table-driven checks every subcommand's grammar must pass.
    fn check_grammar<T: Default>(c: &Command<T>) {
        // The smallest valid command line: its positional and every
        // required flag.
        let mut base: Vec<String> = c.positional.map(|_| "-".to_string()).into_iter().collect();
        for f in c.flags.iter().filter(|f| f.required) {
            base.extend([f.name.to_string(), example(f.value).to_string()]);
        }
        let with = |extra: &[&str]| {
            let mut line = base.clone();
            line.extend(extra.iter().map(|s| s.to_string()));
            c.parse(&line).map(|_| ())
        };
        assert_eq!(with(&[]), Ok(()), "{}: {base:?}", c.name);
        assert_eq!(
            with(&["--no-such-flag"]),
            Err("unknown option --no-such-flag".to_string())
        );
        let usage = c.usage();
        for f in &c.flags {
            assert!(usage.contains(f.name), "{}: usage lacks {}", c.name, f.name);
            if f.value.is_empty() {
                assert_eq!(with(&[f.name]), Ok(()), "{} {}", c.name, f.name);
                continue;
            }
            let good = example(f.value);
            assert_eq!(with(&[f.name, good]), Ok(()), "{} {}", c.name, f.name);
            let missing = with(&[f.name]).unwrap_err();
            assert!(
                missing.starts_with(&format!("{} wants ", f.name)),
                "{missing}"
            );
            if CHECKED.contains(&f.value) {
                let bad = with(&[f.name, "nope"]).unwrap_err();
                assert_eq!(bad, missing, "{} {}", c.name, f.name);
            }
        }
    }

    #[test]
    fn every_subcommand_grammar_accepts_its_flags_and_names_bad_ones() {
        check_grammar(&file::command());
        check_grammar(&bench::command());
        check_grammar(&trace::command());
        check_grammar(&chaos::command());
        check_grammar(&gen::command());
        check_grammar(&perf::command());
        check_grammar(&loadgen::command());
        check_grammar(&serve::command());
    }

    #[test]
    fn a_file_command_takes_its_file_before_or_after_its_flags() {
        for line in [
            &["prog.tink", "--seed", "9", "--no-opt"][..],
            &["--seed", "9", "prog.tink", "--no-opt"],
        ] {
            let (o, file) = file::command().parse(&args(line)).unwrap();
            assert_eq!((o.seed, o.no_opt), (9, true));
            assert_eq!(file.as_deref(), Some("prog.tink"));
        }
        let (o, _) = file::command().parse(&args(&["-"])).unwrap();
        assert_eq!((o.seed, o.no_opt), (42, false));
        assert_eq!(
            file::command().parse(&args(&["--no-opt"])).err(),
            Some("missing <file.tink|->".to_string())
        );
    }

    #[test]
    fn rejected_command_lines_exit_2_and_failed_runs_exit_1() {
        let env = env_of(&[]);
        for line in [
            &[][..],
            &["bogus", "x.tink"],
            &["run"],
            &["bench", "--jobs", "0"],
            &["bench", "--lut-bits", "8"],
            &["trace"],
            &["trace", "--workload", "nope"],
            &["gen", "--tier", "huge"],
            &["loadgen", "--requests", "5"],
            &["disasm", "-", "--bogus"],
        ] {
            assert_eq!(tepic_cc(&args(line), &env), ExitCode::from(2), "{line:?}");
        }
        assert_eq!(tepic_ccd(&args(&["--jobs", "0"]), &env), ExitCode::from(2));
        assert_eq!(
            tepic_cc(&args(&["run", "/no/such/file.tink"]), &env),
            ExitCode::FAILURE
        );
    }

    #[test]
    fn engine_settings_take_the_flag_then_the_environment_then_the_default() {
        let none = env_of(&[]);
        let setup = EngineArgs::default().resolve(&none);
        assert_eq!(setup.jobs, default_jobs());
        assert_eq!(setup.cache_dir, Some(PathBuf::from(DEFAULT_CACHE_DIR)));
        assert_eq!(setup.failpoints, None);

        let env = env_of(&[
            ("CCC_JOBS", "3"),
            ("CCC_CACHE_DIR", "/env/cache"),
            ("CCC_FAILPOINTS", "cache.read:0.5:io"),
            ("CCC_FAILPOINT_SEED", "9"),
        ]);
        let setup = EngineArgs::default().resolve(&env);
        assert_eq!(setup.jobs, 3);
        assert_eq!(setup.cache_dir, Some(PathBuf::from("/env/cache")));
        assert_eq!(setup.failpoints, Some(("cache.read:0.5:io".to_string(), 9)));
        let flagged = EngineArgs {
            jobs: Some(5),
            no_cache: false,
            cache_dir: Some("/flag/cache".into()),
        };
        let setup = flagged.resolve(&env);
        assert_eq!(setup.jobs, 5);
        assert_eq!(setup.cache_dir, Some(PathBuf::from("/flag/cache")));

        // An invalid CCC_JOBS falls back to the default.
        let bad = env_of(&[("CCC_JOBS", "0")]);
        assert_eq!(EngineArgs::default().resolve(&bad).jobs, default_jobs());
    }

    #[test]
    fn ccc_no_cache_turns_the_cache_off_for_bench() {
        let env = env_of(&[("CCC_NO_CACHE", "1"), ("CCC_CACHE_DIR", "/env/cache")]);
        let (o, _) = bench::command()
            .parse(&args(&["--figures", "fig05"]))
            .unwrap();
        assert_eq!(o.engine.resolve(&env).cache_dir, None);
        assert!(!o.engine.build(&env).is_cached());
        // --cache-dir does not turn it back on.
        let (o, _) = bench::command()
            .parse(&args(&["--cache-dir", "/flag/cache"]))
            .unwrap();
        assert_eq!(o.engine.resolve(&env).cache_dir, None);
    }

    #[test]
    fn the_daemon_opens_the_cache_the_cli_opens() {
        let env = env_of(&[("CCC_CACHE_DIR", "/shared/cache"), ("CCC_JOBS", "2")]);
        let (daemon, _) = serve::command()
            .parse(&args(&["--queue-depth", "4", "--port-file", "p"]))
            .unwrap();
        let (cli, _) = bench::command().parse(&[]).unwrap();
        let daemon = daemon.engine.resolve(&env);
        assert_eq!(daemon, cli.engine.resolve(&env));
        assert_eq!(daemon.cache_dir, Some(PathBuf::from("/shared/cache")));
        assert_eq!(daemon.jobs, 2);
    }

    #[test]
    fn an_unopenable_cache_runs_uncached() {
        let dir = std::env::temp_dir().join(format!("ccc-cli-file-{}", std::process::id()));
        std::fs::write(&dir, b"a file, not a directory").unwrap();
        let setup = EngineSetup {
            jobs: 1,
            cache_dir: Some(dir.join("cache")),
            failpoints: Some(("not a spec".to_string(), 0)),
        };
        let engine = setup.build();
        assert!(!engine.is_cached());
        assert!(!engine.failpoints().is_active());
        let _ = std::fs::remove_file(&dir);
    }
}
