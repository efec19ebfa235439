//! The repository benchmark: one command, one workload per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-mix|figures-cold|decode-image> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. It drives the library in-process,
//! checks every output, and prints as its last line one JSON object with
//! the operations attempted and failed and either the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) that
//! `BENCHMARK.json` declares. See `perfbench/README.md`.

mod decode_image;
mod figures_cold;
mod serve_mix;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ccc_telemetry::{parse_json, JsonValue};

use spans::Spans;

/// Where runs keep their scratch files, span logs and last results,
/// relative to the repository root.
const OUT_DIR: &str = "perfbench/out";

const WORKLOADS: [&str; 3] = ["serve-mix", "figures-cold", "decode-image"];

/// What a workload run needs.
pub struct Ctx<'a> {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    /// The span log (recording only in traced mode).
    pub spans: &'a Spans,
    /// A fresh directory for this run, removed at exit.
    pub tmp: &'a Path,
}

/// What a workload run measured.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Median set-up time.
    pub setup_s: f64,
    /// End-to-end metrics besides `setup_s` and `peak_rss_mb`.
    pub e2e: Vec<(&'static str, f64)>,
    /// The same numbers under the workload's own names, for the log.
    pub named: Vec<(&'static str, f64)>,
    /// Per-layer metrics of the layers this workload runs through.
    pub layers: Vec<(String, f64)>,
    /// Log lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome with its set-up time.
    pub fn new(setup_s: f64) -> Outcome {
        Outcome {
            attempted: 0,
            failures: Vec::new(),
            setup_s,
            e2e: Vec::new(),
            named: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve-mix|figures-cold|decode-image> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => out.seconds = s,
                _ => return Err(bad()),
            },
            "--trace" => match value.as_str() {
                "0" => out.trace = false,
                "1" => out.trace = true,
                _ => return Err(bad()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// A metric `BENCHMARK.json` declares.
struct Declared {
    name: String,
    unit: String,
}

/// The end-to-end and per-layer metrics `BENCHMARK.json` declares, the
/// one list of names and units this program prints.
fn declared_metrics() -> Result<(Vec<Declared>, Vec<Declared>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        json.get(key)
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks {key}"))?
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("BENCHMARK.json {key} entry lacks {f}"))
                };
                Ok(Declared {
                    name: field("name")?,
                    unit: field("unit")?,
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Removes the run's scratch directory however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Fixed reference kernels, each timed as the median of five repeats:
/// an ALU chain (`alu`) and a dependent walk over a 4 MiB random cycle
/// (`mem`), which feels the shared-cache contention an ALU loop does
/// not. Timed at the start and end of every run so that two sets of runs
/// that disagree can be traced to a host speed phase; they rescale
/// nothing. The walk's table lives for the whole run, so it adds a
/// constant 4 MiB to `peak_rss_mb` and leaves the allocator's state
/// during the workload as it would be without it.
struct HostRef {
    /// One random cycle through every slot (Sattolo's shuffle).
    next: Vec<u32>,
}

impl HostRef {
    fn new() -> HostRef {
        let n = 1 << 20;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        HostRef { next }
    }

    /// `(alu_ms, mem_ms)`.
    fn time(&self) -> (f64, f64) {
        fn median_of_5(mut f: impl FnMut() -> u64) -> f64 {
            let mut reps: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(f());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            reps.sort_by(f64::total_cmp);
            reps[2]
        }
        let alu = median_of_5(|| {
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..10_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        });
        let mem = median_of_5(|| {
            let mut at = 0u32;
            for _ in 0..300_000 {
                at = self.next[at as usize];
            }
            u64::from(at)
        });
        (alu, mem)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its result; `Ok(false)` when an output
/// check failed.
fn run(args: &Args) -> Result<bool, String> {
    let (e2e_declared, layer_declared) = declared_metrics()?;
    let out_dir = PathBuf::from(OUT_DIR);
    let tmp = TempDir(out_dir.join(format!("tmp-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0).map_err(|e| format!("{}: {e}", tmp.0.display()))?;

    let host_ref = HostRef::new();
    let host_start = host_ref.time();
    let spans = Spans::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        spans: &spans,
        tmp: &tmp.0,
    };
    let outcome = match args.workload.as_str() {
        "serve-mix" => serve_mix::run(&ctx)?,
        "figures-cold" => figures_cold::run(&ctx)?,
        "decode-image" => decode_image::run(&ctx)?,
        w => unreachable!("workload {w} passed argument checks"),
    };
    let host_end = host_ref.time();
    let rss = peak_rss_mb()?;
    drop(host_ref);
    drop(tmp);

    let mut e2e: Vec<(&str, f64)> = vec![("setup_s", outcome.setup_s), ("peak_rss_mb", rss)];
    e2e.extend(outcome.e2e.iter().copied());
    let tag = format!("{}-seed{}", args.workload, args.seed);

    for note in &outcome.notes {
        println!("{note}");
    }
    let mut line = format!("{}:", args.workload);
    for (name, v) in &outcome.named {
        let _ = write!(line, " {name}={v:.4}");
    }
    println!("{line}");
    println!(
        "host_ref_ms: alu {:.3} -> {:.3}, mem {:.3} -> {:.3} (start -> end)",
        host_start.0, host_end.0, host_start.1, host_end.1
    );
    for f in outcome.failures.iter().take(20) {
        println!("FAILED: {f}");
    }

    let metrics: Vec<(&Declared, f64)> = if args.trace {
        // Every measured layer goes to the log, including those of a
        // workload BENCHMARK.json does not run (figures-cold).
        for (name, v) in &outcome.layers {
            println!("layer {name} = {v:.4}");
        }
        // A layer this workload does not run through did no work in it.
        layer_declared
            .iter()
            .map(|d| {
                let v = outcome.layers.iter().find(|(n, _)| *n == d.name);
                (d, v.map_or(0.0, |(_, v)| *v))
            })
            .collect()
    } else {
        e2e_declared
            .iter()
            .map(|d| {
                e2e.iter()
                    .find(|(n, _)| *n == d.name)
                    .map(|(_, v)| (d, *v))
                    .ok_or_else(|| format!("{} measured no {}", args.workload, d.name))
            })
            .collect::<Result<_, _>>()?
    };

    if args.trace {
        let path = out_dir.join(format!("spans-{tag}.jsonl"));
        std::fs::write(&path, spans.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        let (kept, dropped) = spans.counts();
        println!(
            "spans: {kept} written to {} ({dropped} dropped past the cap)",
            path.display()
        );
        print_overhead(&out_dir.join(format!("e2e-{tag}.txt")), &e2e);
    } else {
        let saved: String = e2e.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
        let path = out_dir.join(format!("e2e-{tag}.txt"));
        std::fs::write(&path, saved).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let correct = outcome.failures.is_empty();
    let mut json = format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{"#,
        outcome.attempted,
        outcome.failures.len()
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        if !v.is_finite() {
            return Err(format!("{} is not a finite number: {v}", d.name));
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            r#"{sep}"{}":{{"value":{v},"unit":"{}"}}"#,
            d.name, d.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

/// Tracing overhead: this traced run's end-to-end numbers against the
/// last untraced run of the same workload and seed, when there is one.
fn print_overhead(untraced: &Path, traced: &[(&str, f64)]) {
    let Ok(text) = std::fs::read_to_string(untraced) else {
        println!("tracing overhead: no untraced run of this workload and seed to compare");
        return;
    };
    let mut line = String::from("tracing overhead (traced vs untraced):");
    for l in text.lines() {
        let mut parts = l.split_whitespace();
        let (Some(name), Some(Ok(base))) = (parts.next(), parts.next().map(str::parse::<f64>))
        else {
            continue;
        };
        if let Some((_, v)) = traced.iter().find(|(n, _)| *n == name) {
            let _ = write!(line, " {name} {:+.1}%", (v / base - 1.0) * 100.0);
        }
    }
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args("--workload serve-mix --seed 7 --seconds 3 --trace 1"))
            .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mix", 7, 3, true)
        );
        let d = parse_args(&args("--workload decode-image")).expect("defaults");
        assert_eq!((d.seed, d.trace), (42, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload serve-mix --trace 2",
            "--workload serve-mix --seed x",
            "--workload serve-mix --seconds 0",
            "--workload serve-mix --seed",
            "--workload serve-mix --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
