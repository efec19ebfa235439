//! The `tepic-ccd` serving layer (DESIGN.md §17): a std-only TCP
//! daemon that accepts compile/encode/simulate/faultsim jobs over the
//! length-prefixed JSON protocol in [`proto`], shards them across
//! [`crate::engine::pool`], and serves warm artifacts straight from the
//! engine's content-addressed cache.
//!
//! The perf core is three mechanisms:
//!
//! * **Response memo** — a bounded LRU of successful response bodies
//!   by flight key ([`MEMO_BUDGET`] bytes). A repeated request is one
//!   lookup: no queue, no engine, no simulation.
//! * **Single-flight coalescing** — concurrent requests with equal
//!   [`proto::JobRequest::flight_key`]s share one builder; followers
//!   block on the leader's [`FlightSlot`] and receive the identical
//!   response bytes. A cold-key stampede runs exactly one build.
//! * **Bounded admission** — at most `queue_depth` jobs wait for the
//!   dispatcher; past that the daemon answers a typed `busy` error
//!   immediately instead of queueing unboundedly.
//!
//! Everything is observable through the `metrics` op, which dumps the
//! daemon's [`MetricsRegistry`] (serve counters, queue-depth and
//! per-op latency histograms, engine cache hit/miss gauges).

pub mod proto;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ccc_core::schemes::Scheme;
use ccc_core::{crc32, encoded_to_bytes, Failpoints};
use ccc_telemetry::{json, MetricsRegistry};
use ifetch_sim::{
    simulate, simulate_decoded, simulate_decoded_injected, DecodeStats, EncodingClass, FetchConfig,
    FetchResult,
};

use crate::engine::{pool, scheme_by_name, Engine};
use proto::{read_frame, write_frame, ErrKind, FrameError, JobOp, JobRequest, Request, WireError};

/// Decode-fault mix used by `faultsim` jobs (seeded per request).
const FAULTSIM_SPEC: &str = "decode.lut:0.3:error";

/// Total response-body bytes the response memo may hold.
pub const MEMO_BUDGET: usize = 4 << 20;

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker parallelism for the dispatch pool (and batch width).
    pub jobs: usize,
    /// Admission-queue depth beyond which jobs get `busy`.
    pub queue_depth: usize,
    /// Per-connection read timeout (an idle connection past this is
    /// closed; `None` blocks forever).
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout.
    pub write_timeout: Option<Duration>,
    /// Test hook: when set, the dispatcher blocks before running each
    /// batch until the gate opens. Lets tests pin jobs "in build" to
    /// observe coalescing and backpressure deterministically.
    pub gate: Option<Arc<DispatchGate>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: crate::engine::default_jobs(),
            queue_depth: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            gate: None,
        }
    }
}

/// A latch the dispatcher waits on before executing each batch —
/// closed at construction, opened once, never re-closes.
#[derive(Default)]
pub struct DispatchGate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl DispatchGate {
    /// A closed gate.
    pub fn closed() -> Arc<DispatchGate> {
        Arc::new(DispatchGate::default())
    }

    /// Opens the gate, releasing the dispatcher.
    pub fn open(&self) {
        *self.open.lock().expect("gate poisoned") = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().expect("gate poisoned");
        while !*open {
            open = self.cv.wait(open).expect("gate poisoned");
        }
    }
}

/// One in-flight build: the leader fills it once, every coalesced
/// follower clones the filled response.
struct FlightSlot {
    done: Mutex<Option<Result<Arc<str>, WireError>>>,
    cv: Condvar,
}

impl FlightSlot {
    fn new() -> Arc<FlightSlot> {
        Arc::new(FlightSlot {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fill(&self, result: Result<Arc<str>, WireError>) {
        let mut done = self.done.lock().expect("flight poisoned");
        *done = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<str>, WireError> {
        let mut done = self.done.lock().expect("flight poisoned");
        loop {
            if let Some(r) = done.as_ref() {
                return r.clone();
            }
            done = self.cv.wait(done).expect("flight poisoned");
        }
    }
}

/// A bounded LRU memo of successful response bodies by flight key. A
/// response is a pure function of its key (coalesced followers already
/// receive the leader's exact bytes), so a hit may skip the queue.
#[derive(Default)]
struct ResponseMemo {
    /// Body and last-use stamp per key.
    map: HashMap<u128, (Arc<str>, u64)>,
    /// Keys by last-use stamp, least recently used first.
    lru: BTreeMap<u64, u128>,
    clock: u64,
    bytes: usize,
}

impl ResponseMemo {
    fn get(&mut self, key: u128) -> Option<Arc<str>> {
        let (body, stamp) = self.map.get_mut(&key)?;
        self.lru.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.lru.insert(self.clock, key);
        Some(Arc::clone(body))
    }

    /// Stores `body` under `key`, then evicts least recently used
    /// entries until the total fits [`MEMO_BUDGET`]; returns how many
    /// it evicted. A body larger than the whole budget is not stored.
    fn insert(&mut self, key: u128, body: Arc<str>) -> u64 {
        if body.len() > MEMO_BUDGET {
            return 0;
        }
        self.clock += 1;
        self.bytes += body.len();
        if let Some((old, stamp)) = self.map.insert(key, (body, self.clock)) {
            self.bytes -= old.len();
            self.lru.remove(&stamp);
        }
        self.lru.insert(self.clock, key);
        let mut evicted = 0;
        while self.bytes > MEMO_BUDGET {
            let (_, oldest) = self.lru.pop_first().expect("over budget means non-empty");
            let (old, _) = self.map.remove(&oldest).expect("lru and map agree");
            self.bytes -= old.len();
            evicted += 1;
        }
        evicted
    }
}

/// One admitted job waiting for the dispatcher.
struct QueuedJob {
    req: JobRequest,
    slot: Arc<FlightSlot>,
    key: u128,
}

/// State shared by the accept loop, connection handlers and dispatcher.
struct Shared {
    engine: Engine,
    registry: MetricsRegistry,
    memo: Mutex<ResponseMemo>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    flights: Mutex<HashMap<u128, Arc<FlightSlot>>>,
    draining: AtomicBool,
    cfg: ServeConfig,
    local_addr: SocketAddr,
}

/// A running server: the bound address plus join/drain control.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `cfg.addr`, spawns the accept loop and dispatcher, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// The bind failure, if any.
    pub fn start(engine: Engine, cfg: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            registry: MetricsRegistry::new(),
            memo: Mutex::default(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            flights: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            cfg,
            local_addr,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ccd-accept".into())
                .spawn(move || accept_loop(&shared, &listener))
                .expect("spawn accept loop")
        };
        let dispatcher = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ccd-dispatch".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher")
        };
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            dispatcher: Some(dispatcher),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The daemon's metrics registry (shared with every handler).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.shared.registry
    }

    /// Begins a graceful drain, exactly as a `shutdown` request would.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Waits for the drain to complete: the accept loop exits, the
    /// dispatcher finishes every admitted job, and the listener closes.
    /// Per-connection handler threads are detached and exit on their
    /// own once their client closes or times out.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl Shared {
    fn begin_drain(&self) {
        {
            // Under the queue lock so the draining flag and the queue
            // contents change atomically with respect to admission and
            // the dispatcher's exit check — no job can be admitted
            // after drain starts yet never run.
            let _q = self.queue.lock().expect("queue poisoned");
            self.draining.store(true, Ordering::SeqCst);
        }
        self.queue_cv.notify_all();
        if let Some(gate) = &self.cfg.gate {
            gate.open();
        }
        // Unblock the accept loop's blocking accept().
        let _ = TcpStream::connect(self.local_addr);
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.draining() {
                return;
            }
            continue;
        };
        if shared.draining() {
            // New connections are refused during drain (the wake-up
            // connection from begin_drain lands here too).
            return;
        }
        shared.registry.counter("serve.connections").inc();
        let shared = Arc::clone(shared);
        // Handlers are detached: they hold only an Arc<Shared> and exit
        // when their client closes, errors, or idles past the timeout.
        let _ = thread::Builder::new()
            .name("ccd-conn".into())
            .spawn(move || handle_connection(&shared, stream));
    }
}

fn dispatch_loop(shared: &Arc<Shared>) {
    loop {
        let batch: Vec<QueuedJob> = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if !q.is_empty() {
                    let n = q.len().min(shared.cfg.jobs.max(1));
                    break q.drain(..n).collect();
                }
                if shared.draining() {
                    return;
                }
                q = shared.queue_cv.wait(q).expect("queue poisoned");
            }
        };
        if let Some(gate) = &shared.cfg.gate {
            gate.wait();
        }
        let tasks: Vec<Box<dyn FnOnce() + Send>> = batch
            .into_iter()
            .map(|job| {
                let shared = Arc::clone(shared);
                Box::new(move || {
                    shared.registry.counter("serve.jobs_executed").inc();
                    let result = execute_job(&shared, &job.req).map(Arc::<str>::from);
                    // Memoize (never an error), then deregister the
                    // flight, then fill the slot. Admission reads the
                    // memo under the flights lock, so a later request
                    // finds the flight or the memo entry, never neither.
                    if let Ok(body) = &result {
                        let evicted = shared
                            .memo
                            .lock()
                            .expect("memo poisoned")
                            .insert(job.key, Arc::clone(body));
                        shared.registry.counter("serve.memo_evictions").add(evicted);
                    }
                    shared
                        .flights
                        .lock()
                        .expect("flights poisoned")
                        .remove(&job.key);
                    job.slot.fill(result);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        pool::run_tasks(shared.cfg.jobs.max(1), tasks);
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    // Frames already leave in one write; this keeps a reply larger than
    // one segment from waiting on the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(shared.cfg.read_timeout);
    let _ = stream.set_write_timeout(shared.cfg.write_timeout);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(e @ FrameError::Oversized(_)) => {
                // The payload is still on the wire; we cannot resync,
                // so answer with the typed error and close.
                shared.registry.counter("serve.bad_frames").inc();
                let err = WireError::new(ErrKind::Oversized, e.to_string());
                let _ = write_frame(&mut stream, err.body().as_bytes());
                return;
            }
            Err(FrameError::Truncated) => {
                shared.registry.counter("serve.bad_frames").inc();
                return;
            }
            Err(e) if e.is_timeout() => return,
            Err(FrameError::Io(_)) => return,
        };
        shared.registry.counter("serve.requests").inc();
        let start = Instant::now();
        let (op_label, body): (_, Arc<str>) = match Request::parse(&payload) {
            Err(e) => {
                shared.registry.counter("serve.bad_frames").inc();
                ("error", e.body().into())
            }
            Ok(Request::Ping) => ("ping", r#"{"ok":true,"op":"ping","msg":"pong"}"#.into()),
            Ok(Request::Metrics) => ("metrics", metrics_body(shared).into()),
            Ok(Request::Shutdown) => {
                // Ack BEFORE starting the drain: once the drain begins,
                // `tepic-ccd`'s main may exit (killing this detached
                // handler) the moment the dispatcher runs dry, and the
                // requester must still see its acknowledgement.
                let body = r#"{"ok":true,"op":"shutdown","draining":true}"#;
                let sent = write_frame(&mut stream, body.as_bytes());
                shared.begin_drain();
                if sent.is_err() {
                    return;
                }
                continue;
            }
            Ok(Request::Job(req)) => {
                let label = req.op.name();
                let body = match admit_job(shared, req) {
                    Ok(body) => body,
                    Err(e) => e.body().into(),
                };
                (label, body)
            }
        };
        shared
            .registry
            .histogram(&format!("serve.latency_ns.{op_label}"), &LATENCY_BOUNDS)
            .observe(start.elapsed().as_nanos() as u64);
        if write_frame(&mut stream, body.as_bytes()).is_err() {
            return;
        }
    }
}

/// Latency histogram bounds: 1 µs to ~4.3 s in powers of four.
const LATENCY_BOUNDS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_294_967_000,
];

/// Admission, in tier order: refuse while draining (`draining`), answer
/// from the response memo, join an existing flight (coalesced), or
/// claim the flight and enqueue — unless the queue is full (`busy`).
/// Blocks until the flight's result is filled.
fn admit_job(shared: &Arc<Shared>, req: JobRequest) -> Result<Arc<str>, WireError> {
    if req.op != JobOp::Compile {
        scheme(&req.scheme)?;
    }
    if shared.draining() {
        return Err(draining_error(shared));
    }
    let key = req.flight_key();
    let slot = {
        let mut flights = shared.flights.lock().expect("flights poisoned");
        if let Some(body) = shared.memo.lock().expect("memo poisoned").get(key) {
            shared.registry.counter("serve.memo_hits").inc();
            return Ok(body);
        }
        shared.registry.counter("serve.memo_misses").inc();
        if let Some(slot) = flights.get(&key) {
            shared.registry.counter("serve.coalesced_waits").inc();
            Arc::clone(slot)
        } else {
            let mut q = shared.queue.lock().expect("queue poisoned");
            // Checked again under the queue lock: a drain that began
            // since the check above must not strand an enqueued job.
            if shared.draining() {
                return Err(draining_error(shared));
            }
            if q.len() >= shared.cfg.queue_depth {
                shared.registry.counter("serve.busy_rejections").inc();
                return Err(WireError::new(
                    ErrKind::Busy,
                    format!("admission queue full ({} jobs)", q.len()),
                ));
            }
            let slot = FlightSlot::new();
            flights.insert(key, Arc::clone(&slot));
            q.push_back(QueuedJob {
                req,
                slot: Arc::clone(&slot),
                key,
            });
            shared
                .registry
                .histogram("serve.queue_depth", &QUEUE_BOUNDS)
                .observe(q.len() as u64);
            shared.queue_cv.notify_all();
            slot
        }
    };
    slot.wait()
}

fn scheme(name: &str) -> Result<Box<dyn Scheme>, WireError> {
    scheme_by_name(name)
        .ok_or_else(|| WireError::new(ErrKind::UnknownScheme, format!("unknown scheme {name:?}")))
}

fn draining_error(shared: &Shared) -> WireError {
    shared.registry.counter("serve.draining_rejections").inc();
    WireError::new(
        ErrKind::Draining,
        "daemon is draining; no new jobs accepted",
    )
}

/// Queue-depth histogram bounds.
const QUEUE_BOUNDS: [u64; 9] = [0, 1, 2, 4, 8, 16, 32, 64, 128];

/// The `metrics` response: engine cache counters and the memo's size
/// refreshed into `serve.engine.*`/`serve.memo_*` gauges (gauges are
/// set, not added, so repeated metrics requests don't double-count),
/// then the whole registry as JSON.
fn metrics_body(shared: &Arc<Shared>) -> String {
    let snap = shared.engine.snapshot();
    let (memo_bytes, memo_entries) = {
        let memo = shared.memo.lock().expect("memo poisoned");
        (memo.bytes as u64, memo.map.len() as u64)
    };
    for (name, v) in [
        ("serve.engine.program_hits", snap.program_hits),
        ("serve.engine.program_misses", snap.program_misses),
        ("serve.engine.trace_hits", snap.trace_hits),
        ("serve.engine.trace_misses", snap.trace_misses),
        ("serve.engine.image_hits", snap.image_hits),
        ("serve.engine.image_misses", snap.image_misses),
        ("serve.engine.corrupt_entries", snap.corrupt_entries),
        ("serve.memo_bytes", memo_bytes),
        ("serve.memo_entries", memo_entries),
    ] {
        shared.registry.gauge(name).set(v as i64);
    }
    shared
        .registry
        .gauge("serve.queue_len")
        .set(shared.queue.lock().expect("queue poisoned").len() as i64);
    format!(
        r#"{{"ok":true,"op":"metrics","metrics":{}}}"#,
        shared.registry.to_json()
    )
}

/// Runs one job to completion on a pool worker and renders the
/// response body. Deterministic for a given flight key — coalesced
/// followers receive these exact bytes.
fn execute_job(shared: &Arc<Shared>, req: &JobRequest) -> Result<String, WireError> {
    let opts = lego::Options::default();
    let engine = &shared.engine;
    let program = engine
        .program(&req.name, &req.source, &opts)
        .map_err(|e| WireError::new(ErrKind::CompileError, e.to_string()))?;
    match req.op {
        JobOp::Compile => {
            let code = program.code_bytes();
            Ok(format!(
                r#"{{"ok":true,"op":"compile","name":{},"num_blocks":{},"num_ops":{},"code_bytes":{},"code_crc":{}}}"#,
                json::escape(&req.name),
                program.num_blocks(),
                program.num_ops(),
                code.len(),
                crc32(&code),
            ))
        }
        JobOp::Encode => {
            let image = engine
                .image(&req.name, &req.source, &opts, &req.scheme, &program)
                .map_err(|e| WireError::new(ErrKind::CompressError, e.to_string()))?;
            let bytes = encoded_to_bytes(&image);
            Ok(format!(
                r#"{{"ok":true,"op":"encode","name":{},"scheme":{},"total_bytes":{},"image_crc":{},"image_hex":{}}}"#,
                json::escape(&req.name),
                json::escape(&req.scheme),
                bytes.len(),
                crc32(&bytes),
                json::escape(&proto::to_hex(&bytes)),
            ))
        }
        JobOp::Simulate | JobOp::Faultsim => {
            let trace = engine
                .trace(&req.name, &req.source, &opts, &program)
                .map_err(|e| WireError::new(ErrKind::CompileError, e.to_string()))?;
            let image = engine
                .image(&req.name, &req.source, &opts, &req.scheme, &program)
                .map_err(|e| WireError::new(ErrKind::CompressError, e.to_string()))?;
            // The image's fetch class picks the configuration and whether
            // a codec rides the hit path (mirrors the CLI's trace cmd).
            let class = EncodingClass::of(&image.kind);
            let cfg = FetchConfig::of_class(class);
            let (result, dstats) = if class.decodes_on_hit() {
                let codec = scheme(&req.scheme)?
                    .compress(&program)
                    .map_err(|e| WireError::new(ErrKind::CompressError, e.to_string()))?
                    .codec;
                if req.op == JobOp::Faultsim {
                    let fp = Failpoints::from_spec(FAULTSIM_SPEC, req.seed)
                        .map_err(|e| WireError::new(ErrKind::Internal, e.to_string()))?;
                    simulate_decoded_injected(&program, &image, &trace, &cfg, codec.as_ref(), &fp)
                } else {
                    simulate_decoded(&program, &image, &trace, &cfg, codec.as_ref())
                }
            } else {
                (
                    simulate(&program, &image, &trace, &cfg),
                    DecodeStats::default(),
                )
            };
            dstats.record_metrics(&shared.registry);
            Ok(render_sim(req, &result, &dstats))
        }
    }
}

fn render_sim(req: &JobRequest, result: &FetchResult, dstats: &DecodeStats) -> String {
    format!(
        concat!(
            r#"{{"ok":true,"op":{},"name":{},"scheme":{},"seed":{},"#,
            r#""cycles":{},"ops":{},"pred_correct":{},"pred_wrong":{},"#,
            r#""cache_hits":{},"cache_misses":{},"bus_beats":{},"bus_bit_flips":{},"#,
            r#""blocks_decoded":{},"ops_decoded":{},"stall_bits":{},"#,
            r#""decode_errors":{},"long_fallbacks":{},"reference_fallbacks":{}}}"#
        ),
        json::escape(req.op.name()),
        json::escape(&req.name),
        json::escape(&req.scheme),
        req.seed,
        result.cycles,
        result.ops,
        result.pred_correct,
        result.pred_wrong,
        result.cache_hits,
        result.cache_misses,
        result.bus_beats,
        result.bus_bit_flips,
        dstats.blocks_decoded,
        dstats.ops_decoded,
        dstats.stall_bits,
        dstats.decode_errors,
        dstats.long_fallbacks,
        dstats.reference_fallbacks,
    )
}
