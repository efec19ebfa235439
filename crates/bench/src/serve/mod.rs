//! The `tepic-ccd` serving layer (DESIGN.md §17): a std-only TCP
//! daemon that accepts compile/encode/simulate/faultsim jobs over the
//! length-prefixed JSON protocol in [`proto`], runs them on `jobs`
//! long-lived workers, and serves warm artifacts straight from the
//! engine's content-addressed cache.
//!
//! The perf core is one admission table, keyed by each request's
//! [`proto::JobRequest::flight_text`] and held under one lock with the
//! job queue and the drain flag:
//!
//! * **Response memo** — a `Done` row holds a successful response body,
//!   in a bounded LRU ([`MEMO_BUDGET`] bytes, request texts included).
//!   A repeated request is one lookup: no queue, no engine, no
//!   simulation.
//! * **Single-flight coalescing** — a `Flight` row holds the
//!   [`FlightSlot`] of the request being built; concurrent requests with
//!   the same text block on it and receive the identical response
//!   bytes. A cold-key stampede runs exactly one build. When the job
//!   ends, its row becomes `Done` or, on failure, goes away.
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// One request's row in the admission table.
enum Entry {
    /// Being built: followers wait on the leader's slot.
    Flight(Arc<FlightSlot>),
    /// Built: the memoized response body and its last-use stamp.
    Done { body: Arc<str>, stamp: u64 },
}

/// What admission decided for one request.
enum Admitted {
    /// The daemon is draining.
    Draining,
    /// A memo hit: the stored body.
    Hit(Arc<str>),
    /// Joined the flight already building this request.
    Joined(Arc<FlightSlot>),
    /// The queue is full.
    Busy,
    /// Claimed a new flight and queued its job; the queue's new length.
    Queued(Arc<FlightSlot>, usize),
}

/// All admission state, behind one lock: the table of flights and
/// memoized bodies keyed by flight text, the LRU order of the `Done`
/// rows, the job queue and the drain flag. A response is a pure
/// function of its request's flight text, so a `Done` row may answer
/// without the queue. A row is a flight until its job completes, then
/// a body or nothing, so a later request finds the flight or the body,
/// never neither.
#[derive(Default)]
struct Admission {
    table: HashMap<Arc<str>, Entry>,
    /// `Done` texts by last-use stamp, least recently used first.
    lru: BTreeMap<u64, Arc<str>>,
    clock: u64,
    /// Text plus body bytes over the `Done` rows.
    bytes: usize,
    queue: VecDeque<QueuedJob>,
    draining: bool,
}

impl Admission {
    /// Admission, in tier order: refuse while draining, answer from a
    /// `Done` row (refreshing its use), join a flight, answer busy when
    /// `depth` jobs already wait, or claim a flight and queue `req`.
    fn admit(&mut self, req: JobRequest, text: String, depth: usize) -> Admitted {
        if self.draining {
            return Admitted::Draining;
        }
        match self.table.get_mut(text.as_str()) {
            Some(Entry::Done { body, stamp }) => {
                let key = self.lru.remove(stamp).expect("lru and table agree");
                self.clock += 1;
                *stamp = self.clock;
                self.lru.insert(self.clock, key);
                Admitted::Hit(Arc::clone(body))
            }
            Some(Entry::Flight(slot)) => Admitted::Joined(Arc::clone(slot)),
            None if self.queue.len() >= depth => Admitted::Busy,
            None => {
                let slot = FlightSlot::new();
                let text: Arc<str> = text.into();
                let flight = Entry::Flight(Arc::clone(&slot));
                self.table.insert(Arc::clone(&text), flight);
                self.queue.push_back(QueuedJob {
                    req,
                    text,
                    slot: Arc::clone(&slot),
                });
                Admitted::Queued(slot, self.queue.len())
            }
        }
    }

    /// Ends the flight for `text`: a `body` turns it into a `Done` row,
    /// then least recently used rows are evicted until the total fits
    /// [`MEMO_BUDGET`]; returns how many were evicted. A failure, or a
    /// row larger than the whole budget, removes the flight instead.
    fn complete(&mut self, text: &Arc<str>, body: Option<&Arc<str>>) -> u64 {
        let Some(body) = body.filter(|b| text.len() + b.len() <= MEMO_BUDGET) else {
            self.table.remove(&**text);
            return 0;
        };
        self.clock += 1;
        self.bytes += text.len() + body.len();
        let done = Entry::Done {
            body: Arc::clone(body),
            stamp: self.clock,
        };
        self.table.insert(Arc::clone(text), done);
        self.lru.insert(self.clock, Arc::clone(text));
        let mut evicted = 0;
        while self.bytes > MEMO_BUDGET {
            let (_, oldest) = self.lru.pop_first().expect("over budget means non-empty");
            let Some(Entry::Done { body, .. }) = self.table.remove(&oldest) else {
                unreachable!("the lru lists only Done rows");
            };
            self.bytes -= oldest.len() + body.len();
            evicted += 1;
        }
        evicted
    }
}

/// One admitted job waiting for a worker.
struct QueuedJob {
    req: JobRequest,
    /// The request's flight text: its row in the admission table.
    text: Arc<str>,
    slot: Arc<FlightSlot>,
}

/// State shared by the accept loop, connection handlers and workers.
struct Shared {
    engine: Engine,
    registry: MetricsRegistry,
    admission: Mutex<Admission>,
    /// Wakes a worker when a job is queued, and all of them when the
    /// drain begins.
    work_cv: Condvar,
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
            admission: Mutex::default(),
            work_cv: Condvar::new(),
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
    fn admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().expect("admission poisoned")
    }

    fn begin_drain(&self) {
        // Under the admission lock, so no job is admitted after the
        // drain starts and then never run.
        self.admission().draining = true;
        self.work_cv.notify_all();
        if let Some(gate) = &self.cfg.gate {
            gate.open();
        }
        // Unblock the accept loop's blocking accept().
        let _ = TcpStream::connect(self.local_addr);
    }

    fn draining(&self) -> bool {
        self.admission().draining
    }

    /// Sets the gauges that mirror state rather than count events:
    /// engine cache counters, memo size, queue length and flights.
    /// Gauges are set, not added, so repeated refreshes don't
    /// double-count.
    fn refresh_gauges(&self) {
        let snap = self.engine.snapshot();
        let (memo_bytes, memo_entries, queue_len, flights) = {
            let adm = self.admission();
            let done = adm.lru.len();
            (adm.bytes, done, adm.queue.len(), adm.table.len() - done)
        };
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
    let mut adm = shared.admission();
    loop {
        if let Some(job) = adm.queue.pop_front() {
            return Some(job);
        }
        if adm.draining {
            return None;
        }
        adm = shared.work_cv.wait(adm).expect("admission poisoned");
    }
}

fn run_job(shared: &Shared, job: QueuedJob) {
    shared.registry.counter("serve.jobs_executed").inc();
    // A panicking job must still end its flight and fill its slot, or
    // every coalesced waiter would hang on it.
    let result = catch_unwind(AssertUnwindSafe(|| {
        shared.engine.pool_job_admission();
        execute_job(shared, &job.req)
    }))
    .unwrap_or_else(|payload| {
        let msg = format!("job panicked: {}", pool::panic_message(&*payload));
        Err(WireError::new(ErrKind::Internal, msg))
    })
    .map(Arc::<str>::from);
    let evicted = shared.admission().complete(&job.text, result.as_ref().ok());
    if result.is_ok() {
        shared.registry.counter("serve.memo_evictions").add(evicted);
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

/// Admits one job request (see [`Admission::admit`]) and blocks until
/// its flight's result is filled.
fn admit_job(shared: &Arc<Shared>, req: JobRequest) -> Result<Arc<str>, WireError> {
    if req.op != JobOp::Compile && scheme_by_name(&req.scheme).is_none() {
        let msg = format!("unknown scheme {:?}", req.scheme);
        return Err(WireError::new(ErrKind::UnknownScheme, msg));
    }
    let text = req.flight_text();
    let depth = shared.cfg.queue_depth;
    let admitted = shared.admission().admit(req, text, depth);
    let counter = |name: &str| shared.registry.counter(name).inc();
    let slot = match admitted {
        Admitted::Draining => return Err(draining_error(shared)),
        Admitted::Hit(body) => {
            counter("serve.memo_hits");
            return Ok(body);
        }
        Admitted::Joined(slot) => {
            counter("serve.memo_misses");
            counter("serve.coalesced_waits");
            slot
        }
        Admitted::Busy => {
            counter("serve.memo_misses");
            counter("serve.busy_rejections");
            let msg = format!("admission queue full ({depth} jobs)");
            return Err(WireError::new(ErrKind::Busy, msg));
        }
        Admitted::Queued(slot, len) => {
            shared.work_cv.notify_one();
            counter("serve.memo_misses");
            shared
                .registry
                .histogram("serve.queue_depth", &QUEUE_BOUNDS)
                .observe(len as u64);
            slot
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
    use proptest::prelude::*;

    /// Most jobs the model test lets wait at once.
    const DEPTH: usize = 3;

    fn dummy_job() -> JobRequest {
        JobRequest {
            op: JobOp::Compile,
            name: String::new(),
            scheme: String::new(),
            seed: 0,
            source: String::new(),
        }
    }

    /// The naive model of [`Admission`]: flights, and `Done` rows as
    /// `(text, body bytes)` with the least recently used first.
    #[derive(Default)]
    struct Model {
        flights: Vec<usize>,
        done: Vec<(usize, usize)>,
    }

    impl Model {
        fn bytes(&self, texts: &[String]) -> usize {
            self.done.iter().map(|&(t, b)| texts[t].len() + b).sum()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random admits and completions over five texts, with bodies
        /// near a quarter of the budget (or at its very edge), agree
        /// step by step with the naive model.
        #[test]
        fn admission_matches_a_naive_model(
            ops in prop::collection::vec(
                (0u8..5, 0usize..5, MEMO_BUDGET / 5..MEMO_BUDGET / 3, 0usize..8),
                1..48usize,
            )
        ) {
            let texts: Vec<String> = (0..5).map(|i| format!("text-{i}")).collect();
            let mut adm = Admission::default();
            let mut model = Model::default();
            for (kind, t, size, pick) in ops {
                if kind < 2 {
                    let got = adm.admit(dummy_job(), texts[t].clone(), DEPTH);
                    if let Some(i) = model.done.iter().position(|&(d, _)| d == t) {
                        // A hit is a use: it moves to the back of the LRU.
                        let row = model.done.remove(i);
                        model.done.push(row);
                        let Admitted::Hit(body) = got else {
                            return Err(TestCaseError::fail("expected a memo hit"));
                        };
                        prop_assert_eq!(body.len(), row.1);
                    } else if model.flights.contains(&t) {
                        prop_assert!(matches!(got, Admitted::Joined(_)), "expected a join");
                    } else if model.flights.len() >= DEPTH {
                        prop_assert!(matches!(got, Admitted::Busy), "expected busy");
                    } else {
                        model.flights.push(t);
                        let queued = matches!(got, Admitted::Queued(_, n) if n == model.flights.len());
                        prop_assert!(queued, "expected a queued flight");
                    }
                } else if !adm.queue.is_empty() {
                    let job = adm.queue.remove(pick % adm.queue.len()).expect("in range");
                    let t = texts.iter().position(|x| **x == *job.text).expect("known text");
                    // Kind 4 sizes the row to the whole budget, or one byte over.
                    let size = if kind == 4 { MEMO_BUDGET - texts[t].len() + pick % 2 } else { size };
                    let body: Option<Arc<str>> = (kind != 3).then(|| "b".repeat(size).into());
                    let evicted = adm.complete(&job.text, body.as_ref());
                    model.flights.retain(|&f| f != t);
                    let mut model_evicted = 0;
                    if body.is_some() && texts[t].len() + size <= MEMO_BUDGET {
                        model.done.push((t, size));
                        while model.bytes(&texts) > MEMO_BUDGET {
                            model.done.remove(0);
                            model_evicted += 1;
                        }
                    } else {
                        prop_assert!(!adm.table.contains_key(&*job.text), "a failed row is gone");
                    }
                    prop_assert_eq!(evicted, model_evicted);
                    prop_assert!(adm.bytes <= MEMO_BUDGET, "over budget: {}", adm.bytes);
                }

                let held: usize = adm
                    .table
                    .iter()
                    .filter_map(|(text, e)| match e {
                        Entry::Done { body, .. } => Some(text.len() + body.len()),
                        Entry::Flight(_) => None,
                    })
                    .sum();
                prop_assert_eq!(adm.bytes, held);
                prop_assert_eq!(adm.bytes, model.bytes(&texts));
                let lru: Vec<&str> = adm.lru.values().map(|t| &**t).collect();
                let want: Vec<&str> = model.done.iter().map(|&(t, _)| texts[t].as_str()).collect();
                prop_assert_eq!(lru, want);
                for &f in &model.flights {
                    let flying = matches!(adm.table.get(texts[f].as_str()), Some(Entry::Flight(_)));
                    prop_assert!(flying, "flight {} was evicted", f);
                }
                // The three gauges refresh_gauges reads.
                prop_assert_eq!(adm.lru.len(), model.done.len());
                prop_assert_eq!(adm.table.len() - adm.lru.len(), model.flights.len());
                prop_assert_eq!(adm.queue.len(), model.flights.len());
            }
        }
    }
}
