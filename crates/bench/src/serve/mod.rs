//! The `tepic-ccd` serving layer (DESIGN.md §17): a std-only TCP
//! daemon that accepts compile/encode/simulate/faultsim jobs over the
//! length-prefixed JSON protocol in [`proto`], runs them on `jobs`
//! long-lived workers, and serves warm artifacts straight from the
//! engine's content-addressed cache.
//!
//! The perf core is three mechanisms:
//!
//! * **Response memo** — a bounded LRU of successful response bodies
//!   by flight key ([`MEMO_BUDGET`] bytes, request texts included). A
//!   repeated request is one lookup: no queue, no engine, no simulation.
//! * **Single-flight coalescing** — concurrent requests with equal
//!   [`proto::JobRequest::flight_text`]s share one builder; followers
//!   block on the leader's [`FlightSlot`] and receive the identical
//!   response bytes. A cold-key stampede runs exactly one build.
//! * **Bounded admission** — at most `queue_depth` jobs wait for a
//!   worker; past that the daemon answers a typed `busy` error
//!   immediately instead of queueing unboundedly. A worker takes the
//!   next job as soon as it finishes its last, so a short job never
//!   waits for a long one it did not queue behind.
//!
//! Everything is observable through the `metrics` op, which dumps the
//! daemon's [`MetricsRegistry`] (serve counters, queue-depth and
//! per-op latency histograms, engine cache hit/miss gauges).

pub mod proto;

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ccc_core::{crc32, encoded_to_bytes, Failpoints};
use ccc_telemetry::{json, MetricsRegistry};
use ifetch_sim::{DecodeStats, FetchResult};

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
    /// Number of long-lived workers: how many jobs run at once.
    pub jobs: usize,
    /// Admission-queue depth beyond which jobs get `busy`.
    pub queue_depth: usize,
    /// Per-connection read timeout (an idle connection past this is
    /// closed; `None` blocks forever).
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout.
    pub write_timeout: Option<Duration>,
    /// Test hook: when set, each worker blocks before running a job
    /// until the gate opens. Lets tests pin jobs "in build" to observe
    /// coalescing and backpressure deterministically.
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

/// A latch every worker waits on before running a job — closed at
/// construction, opened once, never re-closes.
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

    /// Opens the gate, releasing the workers.
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
/// response is a pure function of its request's flight text (coalesced
/// followers already receive the leader's exact bytes), so a hit may
/// skip the queue. Each entry keeps its request text, and a lookup whose
/// text differs is a miss: flight keys are FNV, not collision-resistant.
#[derive(Default)]
struct ResponseMemo {
    /// Request text, body and last-use stamp per key.
    map: HashMap<u128, (Arc<str>, Arc<str>, u64)>,
    /// Keys by last-use stamp, least recently used first.
    lru: BTreeMap<u64, u128>,
    clock: u64,
    /// Request-text plus body bytes held.
    bytes: usize,
}

impl ResponseMemo {
    fn get(&mut self, key: u128, text: &str) -> Option<Arc<str>> {
        let (stored, body, stamp) = self.map.get_mut(&key)?;
        if **stored != *text {
            return None;
        }
        self.lru.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.lru.insert(self.clock, key);
        Some(Arc::clone(body))
    }

    /// Stores `body` for the request `text` under `key` (replacing any
    /// entry there), then evicts least recently used entries until the
    /// total fits [`MEMO_BUDGET`]; returns how many it evicted. An entry
    /// larger than the whole budget is not stored.
    fn insert(&mut self, key: u128, text: Arc<str>, body: Arc<str>) -> u64 {
        let size = text.len() + body.len();
        if size > MEMO_BUDGET {
            return 0;
        }
        self.clock += 1;
        self.bytes += size;
        if let Some((old_text, old, stamp)) = self.map.insert(key, (text, body, self.clock)) {
            self.bytes -= old_text.len() + old.len();
            self.lru.remove(&stamp);
        }
        self.lru.insert(self.clock, key);
        let mut evicted = 0;
        while self.bytes > MEMO_BUDGET {
            let (_, oldest) = self.lru.pop_first().expect("over budget means non-empty");
            let (text, old, _) = self.map.remove(&oldest).expect("lru and map agree");
            self.bytes -= text.len() + old.len();
            evicted += 1;
        }
        evicted
    }
}

/// One admitted job waiting for a worker.
struct QueuedJob {
    req: JobRequest,
    /// The request's flight text, memoized with the response.
    text: Arc<str>,
    slot: Arc<FlightSlot>,
    key: u128,
}

/// A registered flight: its request's flight text and its slot.
type Flight = (Arc<str>, Arc<FlightSlot>);

/// State shared by the accept loop, connection handlers and workers.
struct Shared {
    engine: Engine,
    registry: MetricsRegistry,
    memo: Mutex<ResponseMemo>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    flights: Mutex<HashMap<u128, Flight>>,
    draining: AtomicBool,
    cfg: ServeConfig,
    local_addr: SocketAddr,
}

/// A running server: the bound address plus join/drain control.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds `cfg.addr`, spawns the accept loop and `cfg.jobs` workers,
    /// and returns immediately.
    ///
    /// # Errors
    ///
    /// The bind failure, if any.
    pub fn start(engine: Engine, cfg: ServeConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let jobs = cfg.jobs.max(1);
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
        shared.registry.gauge("serve.workers").set(jobs as i64);
        let workers = (0..jobs)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ccd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Ok(ServerHandle {
            shared,
            accept,
            workers,
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
    /// workers finish every admitted job and exit, and the listener
    /// closes. The `metrics` gauges are refreshed last, so
    /// `serve.queue_len`, `serve.flights` and `serve.workers` then read
    /// 0. Per-connection handler threads are detached and exit on their
    /// own once their client closes or times out.
    pub fn join(self) {
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
        self.shared.refresh_gauges();
    }
}

impl Shared {
    fn begin_drain(&self) {
        {
            // Under the queue lock so the draining flag and the queue
            // contents change atomically with respect to admission and
            // the workers' exit check — no job can be admitted after
            // drain starts yet never run.
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

    /// Sets the gauges that mirror state rather than count events:
    /// engine cache counters, memo size, queue length and flights.
    /// Gauges are set, not added, so repeated refreshes don't
    /// double-count.
    fn refresh_gauges(&self) {
        let snap = self.engine.snapshot();
        let (memo_bytes, memo_entries) = {
            let memo = self.memo.lock().expect("memo poisoned");
            (memo.bytes, memo.map.len())
        };
        let queue_len = self.queue.lock().expect("queue poisoned").len();
        let flights = self.flights.lock().expect("flights poisoned").len();
        for (name, v) in [
            ("serve.engine.program_hits", snap.program_hits),
            ("serve.engine.program_misses", snap.program_misses),
            ("serve.engine.trace_hits", snap.trace_hits),
            ("serve.engine.trace_misses", snap.trace_misses),
            ("serve.engine.image_hits", snap.image_hits),
            ("serve.engine.image_misses", snap.image_misses),
            ("serve.engine.corrupt_entries", snap.corrupt_entries),
            ("serve.memo_bytes", memo_bytes as u64),
            ("serve.memo_entries", memo_entries as u64),
            ("serve.queue_len", queue_len as u64),
            ("serve.flights", flights as u64),
        ] {
            self.registry.gauge(name).set(v as i64);
        }
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

/// One worker: runs queued jobs one at a time, taking the next as soon
/// as it is free, until the daemon drains and the queue is empty.
fn worker_loop(shared: &Shared) {
    while let Some(job) = next_job(shared) {
        if let Some(gate) = &shared.cfg.gate {
            gate.wait();
        }
        run_job(shared, job);
    }
    shared.registry.gauge("serve.workers").add(-1);
}

/// The oldest queued job, or `None` once draining with nothing queued.
fn next_job(shared: &Shared) -> Option<QueuedJob> {
    let mut q = shared.queue.lock().expect("queue poisoned");
    loop {
        if let Some(job) = q.pop_front() {
            return Some(job);
        }
        if shared.draining() {
            return None;
        }
        q = shared.queue_cv.wait(q).expect("queue poisoned");
    }
}

fn run_job(shared: &Shared, job: QueuedJob) {
    shared.registry.counter("serve.jobs_executed").inc();
    // A panicking job must still deregister its flight and fill its
    // slot, or every coalesced waiter would hang on it.
    let result = catch_unwind(AssertUnwindSafe(|| {
        shared.engine.pool_job_admission();
        execute_job(shared, &job.req)
    }))
    .unwrap_or_else(|payload| {
        let msg = format!("job panicked: {}", pool::panic_message(&*payload));
        Err(WireError::new(ErrKind::Internal, msg))
    })
    .map(Arc::<str>::from);
    // Memoize (never an error), then deregister the flight, then fill
    // the slot. Admission reads the memo under the flights lock, so a
    // later request finds the flight or the memo entry, never neither.
    if let Ok(body) = &result {
        let evicted = shared.memo.lock().expect("memo poisoned").insert(
            job.key,
            Arc::clone(&job.text),
            Arc::clone(body),
        );
        shared.registry.counter("serve.memo_evictions").add(evicted);
    }
    {
        let mut flights = shared.flights.lock().expect("flights poisoned");
        // A job whose key collided with another request's flight ran
        // unregistered; that flight stays.
        if flights
            .get(&job.key)
            .is_some_and(|(_, slot)| Arc::ptr_eq(slot, &job.slot))
        {
            flights.remove(&job.key);
        }
    }
    job.slot.fill(result);
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
                // handler) the moment the workers run dry, and the
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
/// Memo and flight hits must match the request's flight text, not only
/// its key; a request whose key collides with another's flight runs as
/// its own, unregistered flight. Blocks until the flight's result is
/// filled.
fn admit_job(shared: &Arc<Shared>, req: JobRequest) -> Result<Arc<str>, WireError> {
    if req.op != JobOp::Compile && scheme_by_name(&req.scheme).is_none() {
        let msg = format!("unknown scheme {:?}", req.scheme);
        return Err(WireError::new(ErrKind::UnknownScheme, msg));
    }
    if shared.draining() {
        return Err(draining_error(shared));
    }
    let text = req.flight_text();
    let key = proto::flight_key_of(&text);
    let slot = {
        let mut flights = shared.flights.lock().expect("flights poisoned");
        if let Some(body) = shared.memo.lock().expect("memo poisoned").get(key, &text) {
            shared.registry.counter("serve.memo_hits").inc();
            return Ok(body);
        }
        shared.registry.counter("serve.memo_misses").inc();
        match flights.get(&key) {
            Some((leader, slot)) if **leader == *text => {
                shared.registry.counter("serve.coalesced_waits").inc();
                Arc::clone(slot)
            }
            taken => {
                let register = taken.is_none();
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
                let text: Arc<str> = text.into();
                if register {
                    flights.insert(key, (Arc::clone(&text), Arc::clone(&slot)));
                }
                q.push_back(QueuedJob {
                    req,
                    text,
                    slot: Arc::clone(&slot),
                    key,
                });
                shared
                    .registry
                    .histogram("serve.queue_depth", &QUEUE_BOUNDS)
                    .observe(q.len() as u64);
                shared.queue_cv.notify_one();
                slot
            }
        }
    };
    slot.wait()
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

/// The `metrics` response: the state gauges refreshed, then the whole
/// registry as JSON.
fn metrics_body(shared: &Shared) -> String {
    shared.refresh_gauges();
    format!(
        r#"{{"ok":true,"op":"metrics","metrics":{}}}"#,
        shared.registry.to_json()
    )
}

/// Runs one job to completion on a worker and renders the response
/// body. Deterministic for a given flight text — coalesced followers
/// receive these exact bytes.
fn execute_job(shared: &Shared, req: &JobRequest) -> Result<String, WireError> {
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
            let fp = (req.op == JobOp::Faultsim).then(|| {
                Failpoints::from_spec(FAULTSIM_SPEC, req.seed).expect("FAULTSIM_SPEC parses")
            });
            let (result, dstats) = engine
                .simulate(&req.name, &program, &image, &trace, fp.as_ref())
                .map_err(|e| WireError::new(ErrKind::CompressError, e.to_string()))?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_memo_entry_answers_only_its_own_request() {
        // Two requests forced under one key, as an FNV collision would.
        let a: Arc<str> = r#"{"op":"compile","name":"a"}"#.into();
        let b: Arc<str> = r#"{"op":"compile","name":"b"}"#.into();
        let mut memo = ResponseMemo::default();
        memo.insert(7, Arc::clone(&a), "body-a".into());
        assert_eq!(memo.get(7, &a).as_deref(), Some("body-a"));
        assert_eq!(memo.get(7, &b), None, "b must not get a's body");
        memo.insert(7, Arc::clone(&b), "body-b".into());
        assert_eq!(memo.get(7, &a), None, "a must not get b's body");
        assert_eq!(memo.get(7, &b).as_deref(), Some("body-b"));
        assert_eq!(memo.map.len(), 1);
        assert_eq!(memo.bytes, b.len() + "body-b".len(), "texts count");
    }
}
