//! `tepic-cc loadgen`: hammer a running `tepic-ccd` daemon (DESIGN.md §17).
//!
//! ```text
//! --addr <host:port>   a running tepic-ccd daemon (required)
//! --requests <N>       total requests across all connections (default 2000)
//! --conns <N>          concurrent client connections (default 8)
//! --seed <u64>         request-mix seed (default 42)
//! --hot-frac <f>       hot-pool draw fraction (default 0.8)
//! --hot-pool <N>       distinct hot (program, op, scheme) combos (default 8)
//! --out <file>         results JSON (default results/BENCH_serve.json)
//! --verify             recompute a sample of encode responses locally and
//!                      re-request every hot combo, asserting the daemon's
//!                      bytes are identical to one-shot CLI artifacts
//! --shutdown           send a shutdown op after the run and verify the
//!                      daemon drains (new connections refused)
//! --min-rps <f>        fail under this aggregate ok-throughput floor
//! --max-hot-p99-ns <N> fail over this warm-hit p99 latency ceiling
//! ```
//!
//! `loadgen` appends a `serve/loadgen` ledger record whose
//! `throughput_per_s` / `*_ns` samples feed the regression sentinel,
//! so serve-path slowdowns fail `perf --check` like any other group.

use super::flags::{parsed, positive, Command, Flag, PATH, POSITIVE, U64};
use super::{fail, Env, Exit, Outcome};
use crate::bench::engine::cache::write_atomic;
use crate::bench::engine::scheme_by_name;
use crate::bench::history;
use crate::bench::serve::proto::{from_hex, read_frame, write_frame, JobOp, JobRequest, Request};
use crate::workgen::{request_mix, MixParams, ServeRequest};
use std::collections::{HashMap, HashSet};
use std::net::TcpStream;
use std::time::Instant;

#[derive(Debug)]
pub(crate) struct LoadgenOpts {
    addr: String,
    requests: usize,
    conns: usize,
    seed: u64,
    hot_frac: f64,
    hot_pool: usize,
    out: String,
    verify: bool,
    shutdown: bool,
    min_rps: f64,
    max_hot_p99_ns: u64,
}

impl Default for LoadgenOpts {
    fn default() -> LoadgenOpts {
        LoadgenOpts {
            addr: String::new(),
            requests: 2000,
            conns: 8,
            seed: 42,
            hot_frac: 0.8,
            hot_pool: 8,
            out: "results/BENCH_serve.json".to_string(),
            verify: false,
            shutdown: false,
            min_rps: 0.0,
            max_hot_p99_ns: u64::MAX,
        }
    }
}

type F = Flag<LoadgenOpts>;

pub(crate) fn command() -> Command<LoadgenOpts> {
    let daemon = "a running tepic-ccd's address";
    let (count, number) = ("a non-negative integer", "a number");
    Command {
        name: "tepic-cc loadgen",
        positional: None,
        flags: vec![
            F::value("--addr", "<host:port>", daemon, parsed, |o| &mut o.addr).required(),
            F::value("--requests", "<N>", count, parsed, |o| &mut o.requests),
            F::value("--conns", "<N>", POSITIVE, positive, |o| &mut o.conns),
            F::value("--seed", "<u64>", U64, parsed, |o| &mut o.seed),
            F::value("--hot-frac", "<f>", number, parsed, |o| &mut o.hot_frac),
            F::value("--hot-pool", "<N>", POSITIVE, positive, |o| &mut o.hot_pool),
            F::value("--out", "<file>", PATH, parsed, |o| &mut o.out),
            F::switch("--verify", |o| &mut o.verify),
            F::switch("--shutdown", |o| &mut o.shutdown),
            F::value("--min-rps", "<f>", number, parsed, |o| &mut o.min_rps),
            F::value("--max-hot-p99-ns", "<N>", count, parsed, |o| {
                &mut o.max_hot_p99_ns
            }),
        ],
    }
}

/// One loadgen connection's view of a request/response exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeOutcome {
    Ok,
    Busy,
    Error,
}

/// Sends one canonical job request over `stream` and classifies the
/// response. Returns the response bytes alongside so callers can check
/// byte-identity.
fn serve_roundtrip(
    stream: &mut TcpStream,
    req: &Request,
) -> std::io::Result<(ServeOutcome, Vec<u8>)> {
    write_frame(stream, req.canonical().as_bytes())?;
    let resp = read_frame(stream)
        .map_err(|e| std::io::Error::other(e.to_string()))?
        .ok_or_else(|| std::io::Error::other("daemon closed mid-exchange"))?;
    let text = String::from_utf8_lossy(&resp);
    let outcome = if text.contains("\"ok\":true") {
        ServeOutcome::Ok
    } else if text.contains("\"kind\":\"busy\"") {
        ServeOutcome::Busy
    } else {
        ServeOutcome::Error
    };
    Ok((outcome, resp))
}

fn mix_request(r: &ServeRequest) -> Request {
    Request::Job(JobRequest {
        op: JobOp::by_name(r.op).expect("servemix ops are valid"),
        name: r.name.clone(),
        scheme: r.scheme.to_string(),
        seed: r.seed,
        source: r.source.clone(),
    })
}

/// The latencies of `samples`, sorted.
fn sorted_ns(samples: Vec<(bool, u64)>) -> Vec<u64> {
    let mut ns: Vec<u64> = samples.into_iter().map(|(_, ns)| ns).collect();
    ns.sort_unstable();
    ns
}

/// Exact percentile over a sorted latency slice (nearest-rank).
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs `tepic-cc loadgen`: hammers a running `tepic-ccd` with a
/// seeded mixed hot/cold request stream, records p50/p99 latency and
/// req/s to `--out`, and appends a `serve/loadgen` ledger record for
/// the regression sentinel.
pub(crate) fn run(_: &str, args: &[String], _env: Env) -> Outcome {
    let t0 = Instant::now();
    let (o, _) = command().parse(args).map_err(Exit::Usage)?;
    let (addr, conns, seed) = (o.addr.as_str(), o.conns, o.seed);
    let (requests, hot_frac) = (o.requests, o.hot_frac);

    let params = MixParams {
        hot_fraction: hot_frac,
        hot_pool: o.hot_pool,
        ..MixParams::default()
    };
    let mix = request_mix(seed, requests, &params);
    let hot_combos: Vec<_> = {
        let mut seen = HashSet::new();
        mix.iter()
            .filter(|r| r.hot && seen.insert(r.name.clone()))
            .cloned()
            .collect()
    };

    // Warmup: build every hot artifact once, serially, and keep the
    // response bytes — the measured phase then exercises the *warm*
    // path for hot requests, and --verify re-checks these exact bytes.
    let mut warm_bytes: HashMap<String, Vec<u8>> = HashMap::new();
    {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| fail(format!("cannot connect to {addr}: {e}")))?;
        for r in &hot_combos {
            match serve_roundtrip(&mut stream, &mix_request(r)) {
                Ok((ServeOutcome::Ok, bytes)) => {
                    warm_bytes.insert(r.name.clone(), bytes);
                }
                Ok((outcome, bytes)) => {
                    return Err(fail(format!(
                        "warmup {} failed ({outcome:?}): {}",
                        r.name,
                        String::from_utf8_lossy(&bytes)
                    )));
                }
                Err(e) => return Err(fail(format!("warmup i/o error: {e}"))),
            }
        }
    }
    println!(
        "loadgen: warmed {} hot combo(s) on {addr}; firing {} request(s) over {} connection(s)",
        hot_combos.len(),
        mix.len(),
        conns
    );

    // Measured phase: the mix split round-robin across `conns`
    // synchronous connections, each timing every exchange.
    let chunks: Vec<Vec<ServeRequest>> = {
        let mut cs: Vec<Vec<_>> = (0..conns).map(|_| Vec::new()).collect();
        for (i, r) in mix.iter().enumerate() {
            cs[i % conns].push(r.clone());
        }
        cs
    };
    let measure_start = Instant::now();
    // Per connection: (hot?, latency-ns) per ok response, busy count,
    // error count.
    type ConnStats = (Vec<(bool, u64)>, usize, usize);
    let per_conn: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut lat: Vec<(bool, u64)> = Vec::with_capacity(chunk.len());
                    let (mut busy, mut errors) = (0usize, 0usize);
                    let Ok(mut stream) = TcpStream::connect(addr) else {
                        return (lat, busy, chunk.len());
                    };
                    for r in chunk {
                        let req = mix_request(r);
                        let t = Instant::now();
                        match serve_roundtrip(&mut stream, &req) {
                            Ok((ServeOutcome::Ok, _)) => {
                                lat.push((r.hot, t.elapsed().as_nanos() as u64));
                            }
                            Ok((ServeOutcome::Busy, _)) => busy += 1,
                            Ok((ServeOutcome::Error, _)) => errors += 1,
                            Err(_) => {
                                errors += 1;
                                break;
                            }
                        }
                    }
                    (lat, busy, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread"))
            .collect()
    });
    let wall_ns = measure_start.elapsed().as_nanos() as u64;

    let busy: usize = per_conn.iter().map(|c| c.1).sum();
    let errors: usize = per_conn.iter().map(|c| c.2).sum();
    let (hot, cold): (Vec<(bool, u64)>, _) = per_conn.iter().flat_map(|c| &c.0).partition(|l| l.0);
    let (hot_lat, cold_lat) = (sorted_ns(hot), sorted_ns(cold));
    let (n_hot, n_cold) = (hot_lat.len(), cold_lat.len());
    let ok = n_hot + n_cold;
    let throughput = ok as f64 / (wall_ns.max(1) as f64 / 1e9);
    let (hot_p50, hot_p99) = (percentile_ns(&hot_lat, 0.5), percentile_ns(&hot_lat, 0.99));
    let (cold_p50, cold_p99) = (
        percentile_ns(&cold_lat, 0.5),
        percentile_ns(&cold_lat, 0.99),
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "loadgen: {ok} ok / {busy} busy / {errors} error(s) in {:.2}s -> {throughput:.1} req/s",
        wall_ns as f64 / 1e9
    );
    println!(
        "latency: hot p50 {:.3} ms p99 {:.3} ms ({n_hot} reqs); cold p50 {:.3} ms p99 {:.3} ms ({n_cold} reqs)",
        ms(hot_p50),
        ms(hot_p99),
        ms(cold_p50),
        ms(cold_p99),
    );

    // --verify: warm hits must be byte-identical to the warmup
    // responses, and encode responses must carry exactly the image
    // bytes a one-shot CLI pipeline produces for the same source.
    if o.verify {
        let mut stream =
            TcpStream::connect(addr).map_err(|e| fail(format!("verify connect failed: {e}")))?;
        for r in &hot_combos {
            match serve_roundtrip(&mut stream, &mix_request(r)) {
                Ok((ServeOutcome::Ok, bytes)) if warm_bytes.get(&r.name) == Some(&bytes) => {}
                Ok((ServeOutcome::Ok, _)) => {
                    return Err(fail(format!(
                        "VERIFY FAILED: warm re-request of {} returned different bytes \
                         than its first build",
                        r.name
                    )));
                }
                _ => return Err(fail(format!("verify re-request of {} failed", r.name))),
            }
        }
        let mut checked = 0usize;
        for r in hot_combos.iter().filter(|r| r.op == "encode").take(3) {
            let Some(bytes) = warm_bytes.get(&r.name) else {
                continue;
            };
            verify_encode_response(r, bytes)
                .map_err(|e| fail(format!("VERIFY FAILED: {}: {e}", r.name)))?;
            checked += 1;
        }
        println!(
            "verify: {} warm re-request(s) byte-identical; {checked} encode image(s) match \
             one-shot CLI artifacts",
            hot_combos.len()
        );
    }

    // Results JSON + ledger record (the sentinel's serve/* group).
    let json = format!(
        "{{\"requests\":{requests},\"conns\":{conns},\"seed\":{seed},\"hot_fraction\":{hot_frac},\
         \"ok\":{ok},\"busy\":{busy},\"errors\":{errors},\"wall_ns\":{wall_ns},\
         \"throughput_per_s\":{throughput:.3},\
         \"hot\":{{\"count\":{n_hot},\"p50_ns\":{hot_p50},\"p99_ns\":{hot_p99}}},\
         \"cold\":{{\"count\":{n_cold},\"p50_ns\":{cold_p50},\"p99_ns\":{cold_p99}}}}}"
    );
    let out_path = &o.out;
    write_atomic(out_path, json.as_bytes())
        .map_err(|e| fail(format!("cannot write {out_path}: {e}")))?;
    println!("results -> {out_path}");

    let mut rec = history::base_record("serve/loadgen", seed, 0, t0.elapsed().as_nanos() as u64);
    for (name, v) in [
        ("throughput_per_s", throughput),
        ("hot_p50_ns", hot_p50 as f64),
        ("hot_p99_ns", hot_p99 as f64),
        ("cold_p50_ns", cold_p50 as f64),
        ("cold_p99_ns", cold_p99 as f64),
    ] {
        rec.samples.insert(name.to_string(), v);
    }
    for (name, v) in [
        ("serve.ok", ok as u64),
        ("serve.busy", busy as u64),
        ("serve.errors", errors as u64),
    ] {
        rec.counters.insert(name.to_string(), v);
    }
    history::append_best_effort(&rec);

    // --shutdown: graceful drain — the daemon acks, finishes admitted
    // jobs, and stops accepting; new connections must be refused.
    if o.shutdown {
        let drained = (|| -> std::io::Result<()> {
            let mut stream = TcpStream::connect(addr)?;
            let (outcome, _) = serve_roundtrip(&mut stream, &Request::Shutdown)?;
            if outcome != ServeOutcome::Ok {
                return Err(std::io::Error::other("shutdown op rejected"));
            }
            // A fresh job on the already-open connection must be
            // refused — either a typed draining error, or an i/o error
            // because the drained daemon already exited and tore the
            // connection down. Both prove no new job was served; only
            // an Ok response is a failure.
            let probe = mix_request(&mix[0]);
            match serve_roundtrip(&mut stream, &probe) {
                Ok((ServeOutcome::Ok, _)) => Err(std::io::Error::other(
                    "daemon accepted a job while draining",
                )),
                Ok(_) | Err(_) => Ok(()),
            }
        })();
        drained.map_err(|e| fail(format!("drain verification failed: {e}")))?;
        println!("shutdown: daemon draining; no new jobs accepted");
    }

    let (min_rps, max_p99) = (o.min_rps, o.max_hot_p99_ns);
    let failures = [
        (throughput < min_rps)
            .then(|| format!("FLOOR: {throughput:.1} req/s under --min-rps {min_rps:.1}")),
        (hot_p99 > max_p99)
            .then(|| format!("FLOOR: hot p99 {hot_p99} ns over --max-hot-p99-ns {max_p99}")),
        (errors > 0).then(|| format!("{errors} request(s) failed")),
    ];
    let failures: Vec<String> = failures.into_iter().flatten().collect();
    match failures.is_empty() {
        true => Ok(()),
        false => Err(fail(failures.join("; "))),
    }
}

/// Recomputes an encode response's image locally (compile + compress,
/// the exact one-shot CLI pipeline) and compares it byte for byte with
/// what the daemon served.
fn verify_encode_response(r: &ServeRequest, resp: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(resp);
    let parsed =
        crate::telemetry::parse_json(&text).map_err(|e| format!("unparseable response: {e}"))?;
    let hex = parsed
        .get("image_hex")
        .and_then(|v| v.as_str())
        .ok_or("encode response lacks image_hex")?;
    let served = from_hex(hex).ok_or("bad image_hex")?;
    let program = lego::compile(&r.source, &lego::Options::default())
        .map_err(|e| format!("local compile: {e}"))?;
    let out = scheme_by_name(r.scheme)
        .expect("mix schemes are valid")
        .compress(&program)
        .map_err(|e| format!("local compress: {e}"))?;
    let local = crate::ccc::encoded_to_bytes(&out.image);
    if local != served {
        return Err(format!(
            "daemon image ({} bytes) differs from one-shot CLI image ({} bytes)",
            served.len(),
            local.len()
        ));
    }
    Ok(())
}
