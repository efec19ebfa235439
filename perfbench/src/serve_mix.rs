//! `serve-mix`: an in-process `tepic-ccd` daemon on `127.0.0.1:0` with
//! its default jobs and a fresh cache, driven closed-loop by two client
//! threads (one connection each) over the seeded `servemix` stream: 80%
//! hot over an 8-combo pool, ops drawn 5:3:1:1
//! encode:simulate:compile:faultsim.
//!
//! The only workload through `serve` and the warm `engine` probe. The
//! traced mode splits each request's client latency into wire (client
//! minus daemon handler time), queue (handler minus the job replayed
//! in-process) and job, and the job into its engine, scheme and fetch
//! calls.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ccc_bench::engine::{scheme_by_name, Engine};
use ccc_bench::serve::proto::{self, read_frame, write_frame, JobOp, JobRequest, Request};
use ccc_bench::serve::{ServeConfig, ServerHandle};
use ccc_core::schemes::BlockCodec;
use ccc_core::{crc32, encoded_to_bytes, Failpoints};
use ccc_telemetry::{parse_json, JsonValue};
use ccc_workgen::{request_mix, MixParams, ServeRequest};
use ifetch_sim::{
    simulate, simulate_decoded, simulate_decoded_injected, DecodeStats, FetchConfig, FetchResult,
};
use tepic_isa::Program;
use yula::{BlockTrace, Emulator, Limits};

use crate::stats::{self, percentile, Tally};
use crate::{Ctx, Outcome};

/// Client threads, one connection each. The protocol allows one
/// outstanding request per connection and clients wait for each reply,
/// so this is a closed loop of two callers.
const CLIENTS: usize = 2;

/// Set-ups per run; `setup_s` is their median and the last one serves.
const SETUPS: usize = 3;

/// Mix length per measured second: ~1.1x the rate of a daemon on the
/// 88 ms delayed-ACK floor. A faster daemon drains the mix and the
/// measured phase ends early; generating a cold program costs ~25 ms,
/// so a longer mix would mostly lengthen set-up.
const MIX_PER_SECOND: usize = 25;

/// The decode-fault mix the daemon applies to `faultsim` jobs, seeded
/// per request (`serve::FAULTSIM_SPEC`); the checks replay it.
const FAULTSIM_SPEC: &str = "decode.lut:0.3:error";

/// The job ops whose handler times the daemon records.
const JOB_OPS: [&str; 4] = ["compile", "encode", "simulate", "faultsim"];

/// A running daemon and the directory it caches into.
struct Daemon {
    handle: ServerHandle,
    addr: SocketAddr,
    cache: PathBuf,
}

impl Daemon {
    fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// One measured request.
struct Sample {
    /// Index into the mix.
    idx: usize,
    ns: u64,
    /// The reply, kept for cold requests (hot ones are compared with
    /// their warm-up reply on arrival).
    reply: Option<Vec<u8>>,
    /// Why the request failed, if it did.
    failure: Option<String>,
}

/// Everything the set-up builds.
struct Setup {
    daemon: Daemon,
    mix: Vec<ServeRequest>,
    /// Warm-up reply of each hot combo, by program name.
    warm: BTreeMap<String, Vec<u8>>,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept: Option<Setup> = None;
    for i in 0..SETUPS {
        if let Some(old) = kept.take() {
            old.daemon.stop();
        }
        let t = Instant::now();
        kept = Some(set_up(ctx, i)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Setup { daemon, mix, warm } = kept.expect("at least one set-up");

    let before = registry_view(&daemon)?;
    let start = Instant::now();
    let samples = measure(ctx, &daemon.addr, &mix, &warm);
    let wall_s = start.elapsed().as_secs_f64();
    let after = registry_view(&daemon)?;
    let cache = daemon.cache.clone();
    daemon.stop();

    let mut out = Outcome::new(stats::median(&setup_s));
    out.attempted = samples.len() as u64;
    let exhausted = samples.len() == mix.len();

    // Output checks: warm-up replies of the hot pool, then every cold
    // reply, against an in-process run of the same request.
    let mut cold = ColdStages::default();
    for (name, reply) in &warm {
        let idx = mix.iter().position(|r| &r.name == name).expect("hot combo");
        if let Err(e) = check_reply(ctx, &mix[idx], reply, idx as u64, None) {
            out.failures.push(format!("warm-up {name}: {e}"));
        }
    }
    for s in &samples {
        let req = &mix[s.idx];
        if let Some(f) = &s.failure {
            out.failures
                .push(format!("request {} ({}): {f}", s.idx, req.name));
        } else if let Some(reply) = &s.reply {
            if let Err(e) = check_reply(ctx, req, reply, s.idx as u64, Some(&mut cold)) {
                out.failures
                    .push(format!("request {} ({}): {e}", s.idx, req.name));
            }
        }
    }

    let mut hot_ns: Vec<u64> = Vec::new();
    let mut cold_ns: Vec<u64> = Vec::new();
    for s in samples.iter().filter(|s| s.failure.is_none()) {
        if mix[s.idx].hot {
            hot_ns.push(s.ns);
        } else {
            cold_ns.push(s.ns);
        }
    }
    hot_ns.sort_unstable();
    cold_ns.sort_unstable();
    let ok = hot_ns.len() + cold_ns.len();
    let pct = |v: &[u64], p: usize, what: &str| {
        percentile(v, p)
            .map(|ns| stats::ms(ns as f64))
            .ok_or_else(|| format!("{what}: {} samples, too few for p{p}", v.len()))
    };
    let hot_p50 = pct(&hot_ns, 50, "hot requests")?;
    let hot_p90 = pct(&hot_ns, 90, "hot requests")?;
    let cold_p50 = pct(&cold_ns, 50, "cold requests")?;
    let throughput = ok as f64 / wall_s;

    out.e2e = vec![("primary_ms", hot_p50), ("secondary_ms", cold_p50)];
    out.named = vec![
        ("hot_p50_ms", hot_p50),
        ("hot_p90_ms", hot_p90),
        ("cold_p50_ms", cold_p50),
        ("throughput_per_s", throughput),
    ];
    out.notes.push(format!(
        "serve-mix: {} hot + {} cold ok of {} sent over {wall_s:.2} s, {CLIENTS} connections{}",
        hot_ns.len(),
        cold_ns.len(),
        samples.len(),
        if exhausted { " (mix exhausted)" } else { "" }
    ));

    // Daemon-side counters over the measured phase.
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name));
    let image_hits =
        after.gauge("serve.engine.image_hits") - before.gauge("serve.engine.image_hits");
    let image_misses =
        after.gauge("serve.engine.image_misses") - before.gauge("serve.engine.image_misses");
    let memo_hits = delta("decode.codec_memo_hits");
    let memo_misses = delta("decode.codec_memo_misses");
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    out.layers = vec![
        (
            "serve.jobs_executed".into(),
            delta("serve.jobs_executed") as f64,
        ),
        (
            "serve.coalesced_waits".into(),
            delta("serve.coalesced_waits") as f64,
        ),
        (
            "serve.busy_rejections".into(),
            delta("serve.busy_rejections") as f64,
        ),
        (
            "engine.image_hit_ratio".into(),
            ratio(image_hits as f64, image_misses as f64),
        ),
        (
            "codec.memo_hit_ratio".into(),
            ratio(memo_hits as f64, memo_misses as f64),
        ),
        ("lego.compile_ms".into(), cold.compile.mean_ms()),
        ("yula.emulate_ms".into(), cold.emulate.mean_ms()),
        ("schemes.encode_ms".into(), cold.encode.mean_ms()),
    ];

    if ctx.spans.on() {
        let mut handler = Tally::default();
        for op in JOB_OPS {
            let name = format!("serve.latency_ns.{op}");
            let (s1, c1) = after.histogram(&name);
            let (s0, c0) = before.histogram(&name);
            handler.sum_ns += s1 - s0;
            handler.count += c1 - c0;
        }
        let mut client = Tally::default();
        samples.iter().for_each(|s| client.add(s.ns));
        let replay = replay(ctx, &cache, &mix, &warm, &samples)?;
        let split = stats::serve_split(client, handler, replay.job)?;
        out.layers.extend([
            ("serve.wire_ms".into(), split.wire_ms),
            ("serve.queue_ms".into(), split.queue_ms),
            ("engine.probe_ms".into(), replay.probe.mean_ms()),
            (
                "engine.cold_overhead_ms".into(),
                replay.cold_overhead.mean_ms(),
            ),
            (
                "schemes.codec_build_ms".into(),
                replay.codec_build.mean_ms(),
            ),
            ("fetch.simulate_ms".into(), replay.simulate.mean_ms()),
        ]);
        out.notes.push(format!(
            "serve-mix split over {} requests: client mean {:.3} ms = wire {:.3} + queue {:.3} + job {:.3} (residual {:.2e} ms)",
            client.count,
            client.mean_ms(),
            split.wire_ms,
            split.queue_ms,
            split.job_ms,
            client.mean_ms() - split.total_ms(),
        ));
    }
    Ok(out)
}

/// Starts a daemon on a fresh cache, generates the mix and warms every
/// hot combo once, keeping its reply.
fn set_up(ctx: &Ctx, i: usize) -> Result<Setup, String> {
    let cache = ctx.tmp.join(format!("serve-cache-{i}"));
    let cfg = ServeConfig::default();
    let engine = Engine::with_cache_dir(cfg.jobs, &cache)
        .map_err(|e| format!("cache dir {}: {e}", cache.display()))?;
    let handle = ServerHandle::start(engine, cfg).map_err(|e| format!("daemon start: {e}"))?;
    let daemon = Daemon {
        addr: handle.local_addr(),
        handle,
        cache,
    };
    let len = MIX_PER_SECOND * ctx.seconds as usize;
    let mix = request_mix(ctx.seed, len, &MixParams::default());
    let mut warm = BTreeMap::new();
    let mut stream = connect(&daemon.addr)?;
    for r in mix.iter().filter(|r| r.hot) {
        if warm.contains_key(&r.name) {
            continue;
        }
        match roundtrip(&mut stream, r) {
            Ok(reply) if is_ok(&reply) => {
                warm.insert(r.name.clone(), reply);
            }
            failed => {
                daemon.stop();
                let why = failed.map(|reply| String::from_utf8_lossy(&reply).into_owned());
                return Err(format!(
                    "warm-up of {} failed: {}",
                    r.name,
                    why.unwrap_or_else(|e| e)
                ));
            }
        }
    }
    Ok(Setup { daemon, mix, warm })
}

/// The closed loop: each client takes the next request of the mix,
/// sends it and waits for the reply, until the time is up or the mix
/// runs out.
fn measure(
    ctx: &Ctx,
    addr: &SocketAddr,
    mix: &[ServeRequest],
    warm: &BTreeMap<String, Vec<u8>>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(mix.len()));
    let deadline = Instant::now() + std::time::Duration::from_secs(ctx.seconds);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut stream = connect(addr).ok();
                while Instant::now() < deadline {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = mix.get(idx) else { break };
                    let Some(conn) = stream.as_mut() else {
                        mine.push(failed(idx, "no connection".into()));
                        continue;
                    };
                    let (reply, ns) = ctx
                        .spans
                        .time("client.request", 0, idx as u64, |_| roundtrip(conn, req));
                    let sample = match reply {
                        Err(e) => {
                            stream = None;
                            failed(idx, e)
                        }
                        Ok(reply) => {
                            let failure = if !is_ok(&reply) {
                                Some(format!("reply {}", String::from_utf8_lossy(&reply)))
                            } else if req.hot && warm.get(&req.name) != Some(&reply) {
                                Some("hot reply differs from its warm-up reply".into())
                            } else {
                                None
                            };
                            Sample {
                                idx,
                                ns,
                                reply: (!req.hot).then_some(reply),
                                failure,
                            }
                        }
                    };
                    mine.push(sample);
                }
                samples.lock().expect("samples poisoned").extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("samples poisoned");
    samples.sort_by_key(|s| s.idx);
    samples
}

fn failed(idx: usize, why: String) -> Sample {
    Sample {
        idx,
        ns: 0,
        reply: None,
        failure: Some(why),
    }
}

fn connect(addr: &SocketAddr) -> Result<TcpStream, String> {
    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn job_request(r: &ServeRequest) -> Request {
    Request::Job(JobRequest {
        op: JobOp::by_name(r.op).expect("servemix ops are valid"),
        name: r.name.clone(),
        scheme: r.scheme.to_string(),
        seed: r.seed,
        source: r.source.clone(),
    })
}

/// One framed exchange, exactly as `tepic-cc loadgen` does it.
fn roundtrip(stream: &mut TcpStream, r: &ServeRequest) -> Result<Vec<u8>, String> {
    exchange(stream, &job_request(r))
}

fn exchange(stream: &mut TcpStream, req: &Request) -> Result<Vec<u8>, String> {
    write_frame(stream, req.canonical().as_bytes()).map_err(|e| format!("send: {e}"))?;
    read_frame(stream)
        .map_err(|e| format!("receive: {e}"))?
        .ok_or_else(|| "daemon closed the connection".to_string())
}

fn is_ok(reply: &[u8]) -> bool {
    reply.starts_with(br#"{"ok":true"#)
}

/// Counters, gauges and histogram sums of the daemon's registry.
struct RegistryView {
    json: JsonValue,
}

impl RegistryView {
    fn section(&self, s: &str, name: &str) -> Option<&JsonValue> {
        self.json.get(s).and_then(|v| v.get(name))
    }

    fn counter(&self, name: &str) -> u64 {
        self.section("counters", name)
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as u64
    }

    fn gauge(&self, name: &str) -> i64 {
        self.section("gauges", name)
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0) as i64
    }

    /// `(sum_ns, count)` of a histogram, zeros when it does not exist.
    fn histogram(&self, name: &str) -> (f64, u64) {
        let h = self.section("histograms", name);
        let field = |f: &str| h.and_then(|h| h.get(f)).and_then(JsonValue::as_f64);
        (
            field("sum").unwrap_or(0.0),
            field("count").unwrap_or(0.0) as u64,
        )
    }
}

/// Refreshes the daemon's `serve.engine.*` gauges with a `metrics`
/// request, then reads its registry.
fn registry_view(daemon: &Daemon) -> Result<RegistryView, String> {
    let mut stream = connect(&daemon.addr)?;
    let reply = exchange(&mut stream, &Request::Metrics)?;
    if !is_ok(&reply) {
        return Err("metrics request failed".into());
    }
    let json = parse_json(&daemon.handle.registry().to_json())
        .map_err(|e| format!("registry JSON: {e}"))?;
    Ok(RegistryView { json })
}

/// Mean per-request stage times of the cold class, from the checks'
/// direct layer calls.
#[derive(Default)]
struct ColdStages {
    compile: Tally,
    emulate: Tally,
    encode: Tally,
}

/// Checks a reply against an in-process run of the same request through
/// the layers directly: `lego::compile`, `Scheme::compress`, the yula
/// emulator and the fetch simulation `execute_job` would pick.
fn check_reply(
    ctx: &Ctx,
    r: &ServeRequest,
    reply: &[u8],
    request: u64,
    mut cold: Option<&mut ColdStages>,
) -> Result<(), String> {
    let spans = ctx.spans;
    let text = std::str::from_utf8(reply).map_err(|_| "reply is not UTF-8")?;
    let v = parse_json(text).map_err(|e| format!("reply JSON: {e}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("reply lacks {k}"))
    };
    let (program, ns) = spans.time("lego.compile", 0, request, |_| {
        lego::compile(&r.source, &lego::Options::default())
    });
    let program = program.map_err(|e| format!("local compile: {e}"))?;
    if let Some(c) = cold.as_deref_mut() {
        c.compile.add(ns);
    }
    let op = JobOp::by_name(r.op).expect("servemix ops are valid");
    if op == JobOp::Compile {
        let code = program.code_bytes();
        if num("num_ops")? as usize != program.num_ops() || num("code_crc")? as u32 != crc32(&code)
        {
            return Err("compile reply differs from the local compile".into());
        }
        return Ok(());
    }
    let scheme = scheme_by_name(r.scheme).ok_or("unknown scheme")?;
    let (compressed, ns) = spans.time("schemes.encode", 0, request, |_| scheme.compress(&program));
    let compressed = compressed.map_err(|e| format!("local compress: {e}"))?;
    if let Some(c) = cold.as_deref_mut() {
        c.encode.add(ns);
    }
    if op == JobOp::Encode {
        let hex = v.get("image_hex").and_then(JsonValue::as_str);
        let served = hex
            .and_then(proto::from_hex)
            .ok_or("reply lacks image_hex")?;
        if served != encoded_to_bytes(&compressed.image) {
            return Err("encoded image differs from the local compress".into());
        }
        return Ok(());
    }
    let (trace, ns) = spans.time("yula.emulate", 0, request, |_| {
        Emulator::new(&program).run(&Limits::default())
    });
    let trace = trace.map_err(|e| format!("local emulate: {e}"))?.trace;
    if let Some(c) = cold {
        c.emulate.add(ns);
    }
    let (result, _) = simulate_like_daemon(
        r,
        &program,
        &compressed.image,
        &trace,
        Some(compressed.codec.as_ref()),
    )?;
    if num("cycles")? as u64 != result.cycles || num("ops")? as u64 != result.ops {
        return Err(format!(
            "simulate reply cycles/ops differ from the local run ({}/{})",
            result.cycles, result.ops
        ));
    }
    Ok(())
}

/// The fetch simulation `serve::execute_job` runs for a request: plain
/// `simulate` for base and tailored, else `simulate_decoded`, under the
/// seeded fault mix for `faultsim`.
fn simulate_like_daemon(
    r: &ServeRequest,
    program: &Program,
    image: &ccc_core::EncodedProgram,
    trace: &BlockTrace,
    codec: Option<&dyn BlockCodec>,
) -> Result<(FetchResult, DecodeStats), String> {
    let codec = match (r.scheme, codec) {
        ("base" | "tailored", _) => None,
        (_, None) => return Err(format!("{} needs a codec", r.scheme)),
        (_, codec) => codec,
    };
    Ok(match codec {
        None => {
            let cfg = if r.scheme == "base" {
                FetchConfig::base()
            } else {
                FetchConfig::tailored()
            };
            (
                simulate(program, image, trace, &cfg),
                DecodeStats::default(),
            )
        }
        Some(codec) => {
            let cfg = FetchConfig::compressed();
            if r.op == "faultsim" {
                let fp = Failpoints::from_spec(FAULTSIM_SPEC, r.seed).map_err(|e| e.to_string())?;
                simulate_decoded_injected(program, image, trace, &cfg, codec, &fp)
            } else {
                simulate_decoded(program, image, trace, &cfg, codec)
            }
        }
    })
}

/// Per-layer tallies of the in-process job replay.
#[derive(Default)]
struct Replay {
    /// Whole replayed job, one sample per measured request.
    job: Tally,
    /// Warm engine calls of a hot request.
    probe: Tally,
    /// Cold engine calls minus the stage each ran: serialize and store.
    cold_overhead: Tally,
    /// `Scheme::compress` per codec key the daemon memoizes.
    codec_build: Tally,
    /// The fetch simulation of simulate and faultsim requests.
    simulate: Tally,
}

/// Replays every measured request's job in-process: hot ones on a
/// second engine over the daemon's cache (warm, as the daemon saw
/// them), cold ones on an engine over an empty cache. Codecs are
/// memoized per (scheme, program) like the daemon's `CodecCache`,
/// pre-built for the hot pool as the daemon's warm-up did.
fn replay(
    ctx: &Ctx,
    daemon_cache: &Path,
    mix: &[ServeRequest],
    warm: &BTreeMap<String, Vec<u8>>,
    samples: &[Sample],
) -> Result<Replay, String> {
    let cold_dir = ctx.tmp.join("replay-cold");
    let open = |dir: &Path| {
        Engine::with_cache_dir(1, dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))
    };
    let (warm_engine, cold_engine) = (open(daemon_cache)?, open(&cold_dir)?);
    let mut memo: HashMap<(String, &'static str), Arc<dyn BlockCodec>> = HashMap::new();
    let mut out = Replay::default();
    for name in warm.keys() {
        let r = mix.iter().find(|r| &r.name == name).expect("hot combo");
        if matches!(r.op, "simulate" | "faultsim") && !matches!(r.scheme, "base" | "tailored") {
            let program = warm_engine
                .program(&r.name, &r.source, &lego::Options::default())
                .map_err(|e| e.to_string())?;
            memo_codec(ctx, &mut memo, r, &program, 0, &mut out)?;
        }
    }
    for s in samples {
        let r = &mix[s.idx];
        let engine = if r.hot { &warm_engine } else { &cold_engine };
        let (job, ns) = ctx.spans.time("serve.job", 0, s.idx as u64, |id| {
            replay_job(ctx, engine, r, &mut memo, id, s.idx as u64, &mut out)
        });
        job?;
        out.job.add(ns);
    }
    Ok(out)
}

/// One job as `serve::execute_job` runs it, each layer call timed.
fn replay_job(
    ctx: &Ctx,
    engine: &Engine,
    r: &ServeRequest,
    memo: &mut HashMap<(String, &'static str), Arc<dyn BlockCodec>>,
    parent: u64,
    request: u64,
    out: &mut Replay,
) -> Result<(), String> {
    let opts = lego::Options::default();
    // (wall, wall minus the stage the engine's own timers saw) summed
    // over this job's engine calls.
    let mut engine_ns = (0, 0);
    let program = engine_call(
        ctx,
        engine,
        "engine.program",
        parent,
        request,
        &mut engine_ns,
        || engine.program(&r.name, &r.source, &opts),
    )?;
    let trace = if matches!(r.op, "simulate" | "faultsim") {
        Some(engine_call(
            ctx,
            engine,
            "engine.trace",
            parent,
            request,
            &mut engine_ns,
            || engine.trace(&r.name, &r.source, &opts, &program),
        )?)
    } else {
        None
    };
    let image = if r.op == "compile" {
        None
    } else {
        Some(engine_call(
            ctx,
            engine,
            "engine.image",
            parent,
            request,
            &mut engine_ns,
            || engine.image(&r.name, &r.source, &opts, r.scheme, &program),
        )?)
    };
    if r.hot {
        out.probe.add(engine_ns.0);
    } else {
        out.cold_overhead.add(engine_ns.1);
    }
    let (image, trace) = match (image, trace) {
        (Some(image), Some(trace)) => (image, trace),
        (Some(image), None) => {
            // Encode: the reply carries the image as hex.
            ctx.spans.time("serve.render", parent, request, |_| {
                std::hint::black_box(proto::to_hex(&encoded_to_bytes(&image)))
            });
            return Ok(());
        }
        _ => return Ok(()),
    };
    let codec = if matches!(r.scheme, "base" | "tailored") {
        None
    } else {
        Some(memo_codec(ctx, memo, r, &program, request, out)?)
    };
    let (sim, ns) = ctx.spans.time("fetch.simulate", parent, request, |_| {
        simulate_like_daemon(r, &program, &image, &trace, codec.as_deref())
    });
    sim?;
    out.simulate.add(ns);
    Ok(())
}

/// Times one engine call, adding its wall time and its wall time minus
/// the compile/emulate/encode stage it ran (zero when warm) to `acc`.
fn engine_call<T>(
    ctx: &Ctx,
    engine: &Engine,
    name: &'static str,
    parent: u64,
    request: u64,
    acc: &mut (u64, u64),
    f: impl FnOnce() -> Result<T, ccc_bench::engine::PrepareError>,
) -> Result<T, String> {
    let stage_ns = |e: &Engine| {
        let s = e.snapshot();
        s.compile_ns + s.emulate_ns + s.encode_ns
    };
    let before = stage_ns(engine);
    let (res, ns) = ctx.spans.time(name, parent, request, |_| f());
    let stage = stage_ns(engine) - before;
    acc.0 += ns;
    acc.1 += ns.saturating_sub(stage);
    res.map_err(|e| e.to_string())
}

/// The daemon's codec memo: one `Scheme::compress` per (program,
/// scheme), timed on a miss.
fn memo_codec(
    ctx: &Ctx,
    memo: &mut HashMap<(String, &'static str), Arc<dyn BlockCodec>>,
    r: &ServeRequest,
    program: &Program,
    request: u64,
    out: &mut Replay,
) -> Result<Arc<dyn BlockCodec>, String> {
    let key = (r.name.clone(), r.scheme);
    if let Some(c) = memo.get(&key) {
        return Ok(Arc::clone(c));
    }
    let scheme = scheme_by_name(r.scheme).ok_or("unknown scheme")?;
    let (built, ns) = ctx.spans.time("schemes.codec_build", 0, request, |_| {
        scheme.compress(program)
    });
    let codec: Arc<dyn BlockCodec> = Arc::from(built.map_err(|e| e.to_string())?.codec);
    out.codec_build.add(ns);
    memo.insert(key, Arc::clone(&codec));
    Ok(codec)
}
