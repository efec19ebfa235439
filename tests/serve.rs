//! End-to-end tests of the `tepic-ccd` serving layer (DESIGN.md §17):
//! protocol round-trips against a live in-process server, single-flight
//! coalescing under a cold-key stampede, bounded-admission
//! backpressure, graceful drain, warm-path byte-identity against the
//! one-shot pipeline, the bounded response memo, panic isolation, and
//! work-conserving workers.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tepic_ccc::bench::engine::{scheme_by_name, Engine};
use tepic_ccc::bench::serve::proto::{
    read_frame, write_frame, JobOp, JobRequest, Request, MAX_FRAME,
};
use tepic_ccc::bench::serve::{DispatchGate, ServeConfig, ServerHandle, MEMO_BUDGET};
use tepic_ccc::ccc::Failpoints;
use tepic_ccc::telemetry::parse_json;
use tepic_ccc::workgen::{generate_program, Flavor, GenParams};

/// A scratch cache dir unique to this test, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!(
            "ccc-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_source(tag: u64) -> String {
    generate_program(
        tag,
        &GenParams::for_flavor(Flavor::Tepic),
        &format!("serve-test-{tag}"),
    )
    .source
}

fn job(op: JobOp, name: &str, source: &str, scheme: &str, seed: u64) -> Request {
    Request::Job(JobRequest {
        op,
        name: name.to_string(),
        scheme: scheme.to_string(),
        seed,
        source: source.to_string(),
    })
}

fn roundtrip(stream: &mut TcpStream, req: &Request) -> Vec<u8> {
    write_frame(stream, req.canonical().as_bytes()).expect("write frame");
    read_frame(stream)
        .expect("read frame")
        .expect("server responded")
}

fn connect(addr: SocketAddr) -> TcpStream {
    TcpStream::connect(addr).expect("connect to in-process daemon")
}

fn poll_until(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn start_uncached(cfg: ServeConfig) -> ServerHandle {
    ServerHandle::start(Engine::uncached(2), cfg).expect("bind ephemeral port")
}

/// A gauge as the `metrics` op reports it (the op refreshes the
/// engine and memo gauges first).
fn gauge(addr: SocketAddr, name: &str) -> Option<f64> {
    let m = roundtrip(&mut connect(addr), &Request::Metrics);
    let v = parse_json(std::str::from_utf8(&m).unwrap()).unwrap();
    v.get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get(name))
        .and_then(|g| g.as_f64())
}

/// Jobs pushed onto the admission queue so far: the `metrics` op's
/// `serve.queue_depth` histogram observes every push.
fn enqueued(addr: SocketAddr) -> u64 {
    let m = roundtrip(&mut connect(addr), &Request::Metrics);
    let v = parse_json(std::str::from_utf8(&m).unwrap()).unwrap();
    v.get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("serve.queue_depth"))
        .and_then(|h| h.get("count"))
        .and_then(|c| c.as_f64())
        .map_or(0, |c| c as u64)
}

/// The bytes a reply's memo entry holds: the reply plus its request's
/// flight text.
fn memo_entry_bytes(req: &Request, reply: &[u8]) -> usize {
    let Request::Job(j) = req else {
        panic!("only jobs are memoized")
    };
    j.flight_text().len() + reply.len()
}

fn error_kind(reply: &[u8]) -> Option<String> {
    let v = parse_json(std::str::from_utf8(reply).unwrap()).unwrap();
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .map(str::to_string)
}

#[test]
fn ping_and_metrics_round_trip() {
    let server = start_uncached(ServeConfig::default());
    let mut c = connect(server.local_addr());

    let pong = roundtrip(&mut c, &Request::Ping);
    let v = parse_json(std::str::from_utf8(&pong).unwrap()).expect("ping response is JSON");
    assert_eq!(v.get("msg").and_then(|m| m.as_str()), Some("pong"));

    let metrics = roundtrip(&mut c, &Request::Metrics);
    let v = parse_json(std::str::from_utf8(&metrics).unwrap()).expect("metrics response is JSON");
    let counters = v
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("metrics.counters present");
    assert!(
        counters.get("serve.requests").is_some(),
        "request counter exported"
    );

    server.shutdown();
    server.join();
}

#[test]
fn warm_hits_are_byte_identical_to_one_shot_artifacts() {
    let scratch = ScratchDir::new("warm");
    let start = || {
        let engine = Engine::with_cache_dir(2, &scratch.0).expect("open scratch cache");
        ServerHandle::start(engine, ServeConfig::default()).expect("start")
    };
    let source = small_source(11);
    let req = job(JobOp::Encode, "warmcheck", &source, "full", 0);

    // The cold build runs on one daemon; the warm request goes to a
    // second daemon over the same cache dir, whose response memo starts
    // empty, so it is answered from the disk tier.
    let cold_server = start();
    let cold = roundtrip(&mut connect(cold_server.local_addr()), &req);
    let cold_misses = gauge(cold_server.local_addr(), "serve.engine.image_misses");
    cold_server.shutdown();
    cold_server.join();
    let server = start();
    let warm = roundtrip(&mut connect(server.local_addr()), &req);
    assert_eq!(cold, warm, "warm response must be byte-identical to cold");

    // The daemon's image must be exactly the one-shot CLI pipeline's.
    let v = parse_json(std::str::from_utf8(&cold).unwrap()).expect("encode response is JSON");
    let hex = v
        .get("image_hex")
        .and_then(|h| h.as_str())
        .expect("image_hex present");
    let served = tepic_ccc::bench::serve::proto::from_hex(hex).expect("valid hex");
    let program = lego::compile(&source, &lego::Options::default()).expect("compiles");
    let local = tepic_ccc::ccc::encoded_to_bytes(
        &scheme_by_name("full")
            .unwrap()
            .compress(&program)
            .expect("compresses")
            .image,
    );
    assert_eq!(served, local, "daemon image differs from one-shot artifact");

    // And the warm request was really served from the disk cache: one
    // miss (the cold build), one hit (the warm one).
    assert_eq!(cold_misses, Some(1.0));
    let addr = server.local_addr();
    assert_eq!(gauge(addr, "serve.engine.image_misses"), Some(0.0));
    assert_eq!(gauge(addr, "serve.engine.image_hits"), Some(1.0));

    server.shutdown();
    server.join();
}

#[test]
fn cold_stampede_coalesces_to_one_build() {
    let gate = DispatchGate::closed();
    let cfg = ServeConfig {
        jobs: 4,
        gate: Some(Arc::clone(&gate)),
        ..ServeConfig::default()
    };
    let server = start_uncached(cfg);
    let source = small_source(22);
    let req = job(JobOp::Encode, "stampede", &source, "byte", 0);

    const N: usize = 6;
    let responses: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let req = req.clone();
                let addr = server.local_addr();
                scope.spawn(move || roundtrip(&mut connect(addr), &req))
            })
            .collect();
        // All requests but the leader must be parked on the leader's
        // flight before the build is allowed to run.
        poll_until("N-1 coalesced waiters", || {
            server.registry().counter("serve.coalesced_waits").get() == (N - 1) as u64
        });
        gate.open();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one build ran; the waiter counter reconciles 1:1 with
    // the stampede size; every response is byte-identical.
    assert_eq!(server.registry().counter("serve.jobs_executed").get(), 1);
    assert_eq!(
        server.registry().counter("serve.coalesced_waits").get(),
        (N - 1) as u64
    );
    for r in &responses[1..] {
        assert_eq!(r, &responses[0], "coalesced responses must be identical");
    }
    let v = parse_json(std::str::from_utf8(&responses[0]).unwrap()).unwrap();
    assert_eq!(
        v.get("ok")
            .map(|o| o == &tepic_ccc::telemetry::JsonValue::Bool(true)),
        Some(true)
    );

    // A later identical request finds the finished flight memoized:
    // the same bytes, and no second job.
    let again = roundtrip(&mut connect(server.local_addr()), &req);
    assert_eq!(again, responses[0]);
    assert_eq!(server.registry().counter("serve.jobs_executed").get(), 1);
    assert_eq!(server.registry().counter("serve.memo_hits").get(), 1);

    server.shutdown();
    server.join();
}

#[test]
fn full_admission_queue_answers_busy() {
    let gate = DispatchGate::closed();
    let cfg = ServeConfig {
        jobs: 1,
        queue_depth: 1,
        gate: Some(Arc::clone(&gate)),
        ..ServeConfig::default()
    };
    let server = start_uncached(cfg);
    let addr = server.local_addr();
    let src_a = small_source(31);
    let src_b = small_source(32);
    let src_c = small_source(33);

    std::thread::scope(|scope| {
        // A is dequeued by the dispatcher and parked at the gate. Wait
        // for A's push first, then for the empty queue: an empty queue
        // seen before the push would let C in ahead of B (and C would
        // then wait at the closed gate forever).
        let a = scope.spawn({
            let req = job(JobOp::Encode, "busy-a", &src_a, "byte", 0);
            move || roundtrip(&mut connect(addr), &req)
        });
        poll_until("job A to enter the queue", || enqueued(addr) >= 1);
        poll_until("dispatcher to claim job A", || {
            gauge(addr, "serve.queue_len") == Some(0.0)
        });
        // B fills the queue (depth 1).
        let b = scope.spawn({
            let req = job(JobOp::Encode, "busy-b", &src_b, "byte", 0);
            move || roundtrip(&mut connect(addr), &req)
        });
        poll_until("job B to occupy the queue", || {
            gauge(addr, "serve.queue_len") == Some(1.0)
        });
        // C must bounce immediately with a typed busy error.
        let req_c = job(JobOp::Encode, "busy-c", &src_c, "byte", 0);
        let c_resp = roundtrip(&mut connect(addr), &req_c);
        assert_eq!(
            error_kind(&c_resp).as_deref(),
            Some("busy"),
            "third job must be rejected: {}",
            String::from_utf8_lossy(&c_resp)
        );
        assert_eq!(server.registry().counter("serve.busy_rejections").get(), 1);

        // Opening the gate lets A and B finish normally.
        gate.open();
        let va = parse_json(std::str::from_utf8(&a.join().unwrap()).unwrap()).unwrap();
        let vb = parse_json(std::str::from_utf8(&b.join().unwrap()).unwrap()).unwrap();
        for v in [va, vb] {
            assert_eq!(
                v.get("ok"),
                Some(&tepic_ccc::telemetry::JsonValue::Bool(true))
            );
        }
    });

    server.shutdown();
    server.join();
}

#[test]
fn graceful_drain_finishes_jobs_and_refuses_new_connections() {
    let server = start_uncached(ServeConfig::default());
    let addr = server.local_addr();
    let source = small_source(44);

    let mut c = connect(addr);
    let before = roundtrip(&mut c, &job(JobOp::Compile, "drainer", &source, "full", 0));
    assert!(String::from_utf8_lossy(&before).contains("\"ok\":true"));

    // Shutdown over the wire; the ack must arrive on this connection.
    let ack = roundtrip(&mut c, &Request::Shutdown);
    assert!(String::from_utf8_lossy(&ack).contains("\"draining\":true"));

    // A job on the still-open connection gets a typed draining error.
    let rejected = roundtrip(&mut c, &job(JobOp::Compile, "late", &source, "full", 0));
    assert_eq!(error_kind(&rejected).as_deref(), Some("draining"));

    // join() returns (accept loop + dispatcher exit) and the port is
    // then refused for new connections.
    server.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained daemon must refuse new connections"
    );
}

#[test]
fn a_panicking_job_answers_internal_and_never_hangs_the_daemon() {
    let fp = Failpoints::from_spec("pool.job:1:panic", 7).expect("valid spec");
    let engine = Engine::uncached(2).with_failpoints(Arc::new(fp));
    let server = ServerHandle::start(engine, ServeConfig::default()).expect("start");
    let mut c = connect(server.local_addr());
    // A hang fails the test instead of stalling the suite.
    c.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let source = small_source(46);
    let req = job(JobOp::Compile, "poisoned", &source, "full", 0);

    let reply = roundtrip(&mut c, &req);
    assert_eq!(error_kind(&reply).as_deref(), Some("internal"));
    // The flight was deregistered and nothing was memoized, so the same
    // request runs again rather than waiting on a dead flight.
    let again = roundtrip(&mut c, &req);
    assert_eq!(error_kind(&again).as_deref(), Some("internal"));
    assert_eq!(server.registry().counter("serve.jobs_executed").get(), 2);
    // A failed flight leaves nothing behind: no flight, no memo entry.
    let addr = server.local_addr();
    for name in ["serve.flights", "serve.memo_entries", "serve.memo_bytes"] {
        assert_eq!(gauge(addr, name), Some(0.0), "{name}");
    }

    let pong = roundtrip(&mut c, &Request::Ping);
    assert!(String::from_utf8_lossy(&pong).contains("pong"));
    server.shutdown();
    server.join();
}

#[test]
fn memoized_requests_are_refused_during_drain() {
    let server = start_uncached(ServeConfig::default());
    let source = small_source(45);
    let req = job(JobOp::Compile, "memo-drain", &source, "full", 0);
    let mut c = connect(server.local_addr());

    let first = roundtrip(&mut c, &req);
    assert!(String::from_utf8_lossy(&first).contains("\"ok\":true"));
    assert_eq!(roundtrip(&mut c, &req), first, "memo hit before drain");
    assert_eq!(server.registry().counter("serve.memo_hits").get(), 1);

    roundtrip(&mut c, &Request::Shutdown);
    // The memo is consulted after the draining check, never before.
    let refused = roundtrip(&mut c, &req);
    assert_eq!(error_kind(&refused).as_deref(), Some("draining"));
    assert_eq!(server.registry().counter("serve.memo_hits").get(), 1);
    server.join();
}

#[test]
fn repeated_simulates_are_answered_from_the_response_memo() {
    let scratch = ScratchDir::new("memo");
    let engine = Engine::with_cache_dir(2, &scratch.0).expect("open scratch cache");
    let server = ServerHandle::start(engine, ServeConfig::default()).expect("start");
    let source = small_source(55);
    let req = job(JobOp::Simulate, "memo", &source, "stream", 0);

    let first = roundtrip(&mut connect(server.local_addr()), &req);
    assert!(String::from_utf8_lossy(&first).contains("\"blocks_decoded\""));
    let executed = server.registry().counter("serve.jobs_executed").get();
    let hits = server.registry().counter("serve.memo_hits").get();
    assert_eq!(executed, 1, "the first simulate runs a job");
    assert!(
        server.registry().counter("decode.blocks_decoded").get() > 0,
        "the first simulate really decoded blocks"
    );

    // The repeat is one memo lookup: the same bytes, no second job.
    let second = roundtrip(&mut connect(server.local_addr()), &req);
    assert_eq!(first, second, "memoized response must be byte-identical");
    assert_eq!(
        server.registry().counter("serve.jobs_executed").get(),
        executed
    );
    assert_eq!(server.registry().counter("serve.memo_hits").get(), hits + 1);
    let addr = server.local_addr();
    assert_eq!(gauge(addr, "serve.memo_entries"), Some(1.0));
    assert_eq!(
        gauge(addr, "serve.memo_bytes"),
        Some(memo_entry_bytes(&req, &first) as f64)
    );

    server.shutdown();
    server.join();
}

#[test]
fn simulate_echoes_each_requests_own_seed() {
    let server = start_uncached(ServeConfig::default());
    let source = small_source(56);
    let mut c = connect(server.local_addr());
    let mut replies = Vec::new();
    for seed in [3, 4, 3] {
        let reply = roundtrip(
            &mut c,
            &job(JobOp::Simulate, "seeds", &source, "full", seed),
        );
        let v = parse_json(std::str::from_utf8(&reply).unwrap()).unwrap();
        assert_eq!(v.get("seed").and_then(|s| s.as_f64()), Some(seed as f64));
        replies.push(reply);
    }
    // Seeds key separate responses; a repeated seed is a memo hit.
    assert_ne!(replies[0], replies[1]);
    assert_eq!(replies[0], replies[2]);
    assert_eq!(server.registry().counter("serve.jobs_executed").get(), 2);
    assert_eq!(server.registry().counter("serve.memo_hits").get(), 1);

    server.shutdown();
    server.join();
}

#[test]
fn response_memo_stays_within_its_byte_budget() {
    let server = start_uncached(ServeConfig::default());
    let addr = server.local_addr();
    let source = small_source(57);
    let mut c = connect(addr);
    // Compile replies and their request texts both echo the program
    // name, so long names make large memo entries from cheap jobs: just
    // over an eighth of the budget each, so the memo holds seven.
    let req = |i: usize| {
        let name = format!("{i}-{}", "n".repeat(MEMO_BUDGET / 16));
        job(JobOp::Compile, &name, &source, "full", 0)
    };
    let counter = |name: &str| server.registry().counter(name).get();
    let mut total = 0;
    for i in 0..7 {
        let reply = roundtrip(&mut c, &req(i));
        assert!(String::from_utf8_lossy(&reply[..16]).contains("\"ok\":true"));
        total += memo_entry_bytes(&req(i), &reply);
    }
    assert_eq!(counter("serve.memo_evictions"), 0, "seven fit");
    // A hit on 0 makes 1 the least recently used, so 7 evicts 1.
    roundtrip(&mut c, &req(0));
    assert_eq!(counter("serve.memo_hits"), 1);
    total += memo_entry_bytes(&req(7), &roundtrip(&mut c, &req(7)));
    assert!(total > MEMO_BUDGET, "the entries overflow the budget");
    assert_eq!(counter("serve.memo_evictions"), 1);
    let bytes = gauge(addr, "serve.memo_bytes").expect("memo_bytes gauge");
    assert!(
        bytes > 0.0 && bytes <= MEMO_BUDGET as f64,
        "memo_bytes {bytes}"
    );
    assert_eq!(gauge(addr, "serve.memo_entries"), Some(7.0));

    roundtrip(&mut c, &req(0));
    assert_eq!(counter("serve.memo_hits"), 2, "0 survived the eviction");
    roundtrip(&mut c, &req(1));
    assert_eq!(
        counter("serve.jobs_executed"),
        9,
        "1 was evicted and runs again"
    );

    server.shutdown();
    server.join();
}

#[test]
fn a_short_cold_job_never_waits_behind_a_long_one() {
    let server = start_uncached(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let go = tepic_ccc::workloads::by_name("go").expect("paper program");
    let long = job(JobOp::Simulate, "go", go.source(), "full", 0);
    let short = job(JobOp::Compile, "tiny", "fn main() { print(1); }", "full", 0);

    let (long_reply, short_reply, long_done, short_done) = std::thread::scope(|scope| {
        let long_client = scope.spawn(|| {
            let reply = roundtrip(&mut connect(addr), &long);
            (reply, Instant::now())
        });
        poll_until("the long job to start", || {
            server.registry().counter("serve.jobs_executed").get() == 1
        });
        // The second worker is free, so the short job starts at once
        // instead of waiting for the whole cold simulate.
        let short_reply = roundtrip(&mut connect(addr), &short);
        let short_done = Instant::now();
        let (long_reply, long_done) = long_client.join().unwrap();
        (long_reply, short_reply, long_done, short_done)
    });
    assert_eq!(error_kind(&long_reply), None);
    assert_eq!(error_kind(&short_reply), None);
    assert!(
        short_done < long_done,
        "the compile reply must arrive before the simulate reply"
    );
    assert_eq!(server.registry().counter("serve.jobs_executed").get(), 2);

    server.shutdown();
    server.join();
}

#[test]
fn drain_leaves_no_flight_queued_job_or_worker_behind() {
    let gate = DispatchGate::closed();
    let server = start_uncached(ServeConfig {
        jobs: 2,
        gate: Some(Arc::clone(&gate)),
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    // Gauge handles outlive the handle's `join`, which refreshes them.
    let flights = server.registry().gauge("serve.flights");
    let queue_len = server.registry().gauge("serve.queue_len");
    let workers = server.registry().gauge("serve.workers");
    assert_eq!(workers.get(), 2);
    let sources: Vec<String> = (0..4).map(|i| small_source(70 + i)).collect();

    let replies: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        // Two clients per program: four flights, four coalesced waiters.
        let clients: Vec<_> = (0..8)
            .map(|i| {
                let req = job(
                    JobOp::Encode,
                    &format!("drain-{}", i % 4),
                    &sources[i % 4],
                    "byte",
                    0,
                );
                scope.spawn(move || (i % 4, roundtrip(&mut connect(addr), &req)))
            })
            .collect();
        poll_until("every request to be admitted", || {
            enqueued(addr) == 4 && server.registry().counter("serve.coalesced_waits").get() == 4
        });
        assert_eq!(gauge(addr, "serve.flights"), Some(4.0));
        // The drain opens the gate: both workers run and then exit.
        server.shutdown();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (program, reply) in &replies {
        assert_eq!(error_kind(reply), None, "admitted jobs finish in a drain");
        let twin = replies.iter().find(|(p, r)| p == program && r != reply);
        assert!(twin.is_none(), "coalesced replies are identical");
    }
    server.join();
    assert_eq!(flights.get(), 0, "every flight deregistered");
    assert_eq!(queue_len.get(), 0, "the queue is empty");
    assert_eq!(workers.get(), 0, "every worker exited");
}

#[test]
fn faultsim_is_deterministic_per_seed_and_varies_across_seeds() {
    let scratch = ScratchDir::new("fault");
    let engine = Engine::with_cache_dir(2, &scratch.0).expect("open scratch cache");
    let server = ServerHandle::start(engine, ServeConfig::default()).expect("start");
    let source = small_source(66);

    let r7a = roundtrip(
        &mut connect(server.local_addr()),
        &job(JobOp::Faultsim, "fsim", &source, "full", 7),
    );
    let r7b = roundtrip(
        &mut connect(server.local_addr()),
        &job(JobOp::Faultsim, "fsim", &source, "full", 7),
    );
    assert_eq!(r7a, r7b, "equal seeds reproduce the fault campaign");
    let v = parse_json(std::str::from_utf8(&r7a).unwrap()).unwrap();
    assert_eq!(v.get("seed").and_then(|s| s.as_f64()), Some(7.0));

    server.shutdown();
    server.join();
}

#[test]
fn malformed_frames_get_typed_errors_and_never_kill_the_daemon() {
    let server = start_uncached(ServeConfig::default());
    let addr = server.local_addr();

    // Malformed JSON payload: typed bad_json error, connection stays up.
    let mut c = connect(addr);
    write_frame(&mut c, b"this is not json").unwrap();
    let resp = read_frame(&mut c).unwrap().expect("error response");
    assert_eq!(error_kind(&resp).as_deref(), Some("bad_json"));
    // Same connection still serves valid requests afterwards.
    let pong = roundtrip(&mut c, &Request::Ping);
    assert!(String::from_utf8_lossy(&pong).contains("pong"));

    // Valid JSON, invalid request: bad_request.
    write_frame(&mut c, br#"{"op":"transmogrify"}"#).unwrap();
    let resp = read_frame(&mut c).unwrap().expect("error response");
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"bad_request\""));

    // Unknown scheme on a job: unknown_scheme.
    let resp = roundtrip(
        &mut c,
        &job(JobOp::Encode, "x", "fn main() { print(1); }", "nope", 0),
    );
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"unknown_scheme\""));

    // Uncompilable source: typed compile_error, not a crash.
    let resp = roundtrip(&mut c, &job(JobOp::Compile, "x", "fn fn fn", "full", 0));
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"compile_error\""));

    // Oversized frame: typed error, then the server closes that
    // connection (it cannot resync past an unread payload).
    use std::io::Write as _;
    let mut over = connect(addr);
    over.write_all(&((MAX_FRAME + 1) as u32).to_be_bytes())
        .unwrap();
    let resp = read_frame(&mut over).unwrap().expect("oversized error");
    assert!(String::from_utf8_lossy(&resp).contains("\"kind\":\"oversized\""));

    // Truncated frame (client vanishes mid-payload): daemon survives.
    let mut trunc = connect(addr);
    trunc.write_all(&[0, 0, 0, 50, 1, 2, 3]).unwrap();
    drop(trunc);

    // After all that abuse a fresh connection still works.
    let pong = roundtrip(&mut connect(addr), &Request::Ping);
    assert!(String::from_utf8_lossy(&pong).contains("pong"));

    server.shutdown();
    server.join();
}

// ---------------------------------------------------------------------------
// Wire-protocol property tests (satellite 4): no payload may panic the
// parser, every rejection is a typed error whose body is itself valid
// JSON, and valid frames round-trip byte-exactly.
// ---------------------------------------------------------------------------

mod proto_props {
    use proptest::prelude::*;
    use std::io::Cursor;
    use tepic_ccc::bench::serve::proto::{
        read_frame, write_frame, FrameError, JobOp, JobRequest, Request, MAX_FRAME,
    };
    use tepic_ccc::telemetry::parse_json;

    fn ident() -> BoxedStrategy<String> {
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789_-./ \"\\{}"
            .chars()
            .collect();
        prop::collection::vec(prop::sample::select(alphabet), 1..24usize)
            .prop_map(|cs| cs.into_iter().collect())
            .boxed()
    }

    fn job_request() -> BoxedStrategy<Request> {
        (
            prop::sample::select(vec![
                JobOp::Compile,
                JobOp::Encode,
                JobOp::Simulate,
                JobOp::Faultsim,
            ]),
            ident(),
            ident(),
            0u64..1_000_000,
            ident(),
        )
            .prop_map(|(op, name, scheme, seed, source)| {
                Request::Job(JobRequest {
                    op,
                    name,
                    scheme,
                    seed,
                    source,
                })
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes never panic the parser; when they are
        /// rejected, the typed error body is itself well-formed JSON
        /// with a machine-readable kind.
        #[test]
        fn arbitrary_payloads_never_panic(payload in prop::collection::vec(any::<u8>(), 0..256usize)) {
            if let Err(e) = Request::parse(&payload) {
                let v = parse_json(&e.body()).expect("error body is valid JSON");
                let kind = v.get("error").and_then(|e| e.get("kind")).and_then(|k| k.as_str());
                prop_assert!(kind.is_some(), "typed kind present");
            }
        }

        /// A canonically-rendered job request parses back to exactly
        /// the request that produced it, hostile field contents (JSON
        /// metacharacters, backslashes) included.
        #[test]
        fn canonical_job_requests_round_trip(req in job_request()) {
            let rendered = req.canonical();
            let back = Request::parse(rendered.as_bytes())
                .expect("canonical form must parse");
            prop_assert_eq!(&back, &req);
            // Canonical rendering is a fixpoint: render(parse(render(r)))
            // is byte-identical, which is what single-flight keying and
            // the byte-identity acceptance check lean on.
            prop_assert_eq!(back.canonical(), rendered);
        }

        /// Any sequence of frames written back-to-back on one stream is
        /// read back in order, byte-exactly, with a clean EOF after.
        #[test]
        fn frame_streams_round_trip(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..128usize), 0..8usize)
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                write_frame(&mut wire, p).unwrap();
            }
            let mut r = Cursor::new(wire);
            for p in &payloads {
                let got = read_frame(&mut r).expect("frame reads").expect("frame present");
                prop_assert_eq!(&got, p);
            }
            prop_assert!(read_frame(&mut r).expect("clean eof").is_none());
        }

        /// Truncating a valid frame stream at any byte yields clean EOF
        /// (cut on a frame boundary) or a typed Truncated error — never
        /// a panic, never a phantom frame beyond the cut.
        #[test]
        fn truncated_streams_fail_typed(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64usize), 1..5usize),
            cut_seed in any::<u64>()
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                write_frame(&mut wire, p).unwrap();
            }
            let cut = (cut_seed % (wire.len() as u64 + 1)) as usize;
            let mut r = Cursor::new(&wire[..cut]);
            let mut seen = 0usize;
            loop {
                match read_frame(&mut r) {
                    Ok(Some(p)) => {
                        prop_assert_eq!(&p, &payloads[seen]);
                        seen += 1;
                    }
                    Ok(None) => break, // clean EOF on a frame boundary
                    Err(FrameError::Truncated) => break,
                    Err(e) => prop_assert!(false, "unexpected error: {e:?}"),
                }
            }
            prop_assert!(seen <= payloads.len());
        }

        /// Oversized length prefixes are rejected before any allocation
        /// of the advertised size.
        #[test]
        fn oversized_prefixes_rejected(extra in 1u64..1_000_000) {
            let len = (MAX_FRAME as u64 + extra).min(u32::MAX as u64) as u32;
            let mut wire = len.to_be_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 16]);
            match read_frame(&mut Cursor::new(wire)) {
                Err(FrameError::Oversized(n)) => prop_assert!(n > MAX_FRAME),
                other => prop_assert!(false, "expected Oversized, got {other:?}"),
            }
        }
    }
}
