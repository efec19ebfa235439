//! The parallel prepared-workload engine.
//!
//! Every figure needs the same prepared state: each workload compiled,
//! traced, and encoded under each scheme. Before this engine existed,
//! every figure recomputed all of it serially; now preparation
//! fans out across cores through a worker pool ([`pool`]) and
//! each artifact is persisted in a content-addressed cache ([`cache`]),
//! so a warm run skips compile/emulate/encode entirely.
//!
//! ## Cache-key scheme
//!
//! A key is FNV-1a/128 over, in order: the engine schema version
//! ([`ENGINE_SCHEMA_VERSION`]), the artifact kind, the wire/codec
//! version the payload will be written with, the workload name, the
//! full workload source text, the compiler-options fingerprint and (for
//! images) the scheme name. Any input change — a `.tink` edit, a codec
//! change with its [`CODEC_VERSION`] bump, different `lego::Options` —
//! yields a different key, so entries are immutable and never
//! invalidated in place. See DESIGN.md §10.
//!
//! ## Self-healing (DESIGN.md §13)
//!
//! The engine assumes its infrastructure — disk, worker jobs, stage
//! builds — can fail *transiently*, and recovers instead of crashing:
//!
//! * transient cache-read errors are retried with bounded exponential
//!   backoff ([`ccc_core::RetryPolicy`]) and then degrade to a rebuild;
//! * entries with damaged bytes are **quarantined** (moved to
//!   `<cache-dir>/quarantine/`, never deleted) and rebuilt;
//! * failed cache stores are retried, then dropped (the artifact is in
//!   memory; only warm-run speed is lost);
//! * pool jobs run panic-isolated ([`pool::run_tasks_isolated`]): a
//!   poisoned job never takes a worker down, and is re-run a bounded
//!   number of times before surfacing as a typed [`PrepareError::Job`];
//! * stage builds guarded by `stage.*` failpoints retry injected flaky
//!   failures and ultimately degrade to building anyway.
//!
//! Every recovery action is counted in a [`RecoverySnapshot`]
//! (`recover.*` metrics plus `cache.quarantined`), and every injected
//! fault is logged by the [`Failpoints`] registry, so the chaos harness
//! (`tepic-cc chaos`) can reconcile the two one for one. All backoff
//! timing flows through the injectable [`Clock`]/[`Sleeper`] pair;
//! tests pin it with a `FakeClock`.

pub mod cache;
pub mod pool;

use crate::Prepared;
use cache::{ArtifactCache, CacheKey, Lookup};
use ccc_core::failpoint::{sites, Failpoints};
use ccc_core::schemes::base::encode_base;
use ccc_core::schemes::{CompressError, SchemeOutput};
use ccc_core::{CompressionReport, EncodedProgram, RetryPolicy, CODEC_VERSION};
use ccc_telemetry::{
    Clock, MonotonicClock, SharedSink, Sleeper, ThreadSleeper, TraceEvent, TraceSink,
};
use ifetch_sim::{simulate_with, DecodeStats, EncodingClass, FetchConfig, FetchResult, Probes};
use pool::JobPanic;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tepic_isa::wire::{Fnv128, WireError};
use tepic_isa::{Program, PROGRAM_WIRE_VERSION};
use tinker_workloads::{Workload, WorkloadError};
use yula::{BlockTrace, Emulator, Limits, TRACE_WIRE_VERSION};

/// A timed part of a cold build, `(name, time, its own parts)`, laid out
/// as a child span of the build's stage span.
type SubStage = (&'static str, Duration, Vec<(&'static str, Duration)>);

/// Version of the engine's key derivation itself plus everything the
/// wire versions do *not* capture (compiler and emulator behaviour).
/// Bump to invalidate every artifact at once.
pub const ENGINE_SCHEMA_VERSION: u32 = 1;

/// The scheme axis of the preparation matrix, in figure order, and the
/// by-name constructor; both live in [`ccc_core::schemes`].
pub use ccc_core::schemes::{by_name as scheme_by_name, MATRIX as MATRIX_SCHEMES};

/// Why one workload failed to prepare.
#[derive(Debug)]
pub enum PrepareError {
    /// Compilation or emulation failed.
    Workload(WorkloadError),
    /// A scheme failed to encode the compiled program.
    Compress {
        /// Scheme name (`byte`, `full`, ...).
        scheme: String,
        /// The underlying codec failure.
        error: CompressError,
    },
    /// The pool job hosting this workload panicked on every attempt the
    /// retry budget allowed (the workers themselves survived).
    Job(JobPanic),
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareError::Workload(e) => write!(f, "{e}"),
            PrepareError::Compress { scheme, error } => write!(f, "{scheme}: {error}"),
            PrepareError::Job(p) => write!(f, "job panicked after retries: {}", p.message),
        }
    }
}

impl std::error::Error for PrepareError {}

impl From<WorkloadError> for PrepareError {
    fn from(e: WorkloadError) -> Self {
        PrepareError::Workload(e)
    }
}

/// One workload's failure, named.
#[derive(Debug)]
pub struct WorkloadFailure {
    /// The workload that failed.
    pub workload: String,
    /// What went wrong.
    pub error: PrepareError,
}

/// Aggregated preparation failures — one entry per failed workload, so
/// a broken suite reports every casualty in one pass instead of
/// panicking at the first. Sorted by workload name, so the report is
/// byte-stable across `--jobs` settings and pool interleavings.
#[derive(Debug)]
pub struct PrepareErrors {
    /// Per-workload failures, sorted by workload name.
    pub failures: Vec<WorkloadFailure>,
}

impl fmt::Display for PrepareErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} workload(s) failed to prepare:", self.failures.len())?;
        for fail in &self.failures {
            write!(f, "\n  {}: {}", fail.workload, fail.error)?;
        }
        Ok(())
    }
}

impl std::error::Error for PrepareErrors {}

/// Counter/timer snapshot of one engine's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Cache hits for compiled programs.
    pub program_hits: u64,
    /// Cache misses (artifact rebuilt) for compiled programs.
    pub program_misses: u64,
    /// Cache hits for block traces.
    pub trace_hits: u64,
    /// Cache misses for block traces.
    pub trace_misses: u64,
    /// Cache hits for encoded images (the preparation matrix).
    pub image_hits: u64,
    /// Cache misses for encoded images.
    pub image_misses: u64,
    /// Cache hits for compression reports.
    pub report_hits: u64,
    /// Cache misses for compression reports.
    pub report_misses: u64,
    /// Entries found damaged (bad CRC/magic/decode) and rebuilt.
    pub corrupt_entries: u64,
    /// Wall-clock nanoseconds spent compiling (cold path only).
    pub compile_ns: u64,
    /// Wall-clock nanoseconds spent emulating (cold path only).
    pub emulate_ns: u64,
    /// Wall-clock nanoseconds spent encoding images (cold path only).
    pub encode_ns: u64,
    /// Wall-clock nanoseconds spent building reports (cold path only).
    pub report_ns: u64,
}

impl EngineSnapshot {
    /// Total cache hits across artifact kinds.
    pub fn hits(&self) -> u64 {
        self.program_hits + self.trace_hits + self.image_hits + self.report_hits
    }

    /// Total cache misses across artifact kinds.
    pub fn misses(&self) -> u64 {
        self.program_misses + self.trace_misses + self.image_misses + self.report_misses
    }

    /// Renders the per-stage wall clock and hit/miss table the bench
    /// driver prints.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        out.push_str("engine: stage wall-clock (cold work only) and cache traffic\n");
        out.push_str(&format!(
            "  compile {:>9.1} ms   emulate {:>9.1} ms   encode {:>9.1} ms   report {:>9.1} ms\n",
            ms(self.compile_ns),
            ms(self.emulate_ns),
            ms(self.encode_ns),
            ms(self.report_ns),
        ));
        out.push_str(&format!(
            "  cache   program {}/{}   trace {}/{}   image {}/{}   report {}/{}   (hit/miss)\n",
            self.program_hits,
            self.program_misses,
            self.trace_hits,
            self.trace_misses,
            self.image_hits,
            self.image_misses,
            self.report_hits,
            self.report_misses,
        ));
        if self.corrupt_entries > 0 {
            out.push_str(&format!(
                "  corrupt entries detected and rebuilt: {}\n",
                self.corrupt_entries
            ));
        }
        out
    }

    /// Folds the cache-traffic counters into a metrics registry under
    /// `engine.*`, the same reporting path `tepic-cc` uses for fetch and
    /// fault metrics. The wall-clock stage timers stay out: they differ
    /// on every run, and the ledger records them itself
    /// (`history::engine_record`).
    pub fn record_metrics(&self, registry: &ccc_telemetry::MetricsRegistry) {
        let pairs: [(&str, u64); 9] = [
            ("engine.program_hits", self.program_hits),
            ("engine.program_misses", self.program_misses),
            ("engine.trace_hits", self.trace_hits),
            ("engine.trace_misses", self.trace_misses),
            ("engine.image_hits", self.image_hits),
            ("engine.image_misses", self.image_misses),
            ("engine.report_hits", self.report_hits),
            ("engine.report_misses", self.report_misses),
            ("engine.corrupt_entries", self.corrupt_entries),
        ];
        for (name, v) in pairs {
            registry.counter(name).add(v);
        }
    }
}

/// Counter snapshot of the engine's *recovery* activity: what it
/// retried, what it quarantined, what it gave up on. Kept separate from
/// [`EngineSnapshot`] (cache traffic and stage timers) because a healthy
/// run is all zeros here, and because the chaos harness reconciles this
/// family one-for-one against the failpoint injection log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySnapshot {
    /// Transient cache-read failures observed (each is one retry-loop
    /// attempt that failed; equals the injected `cache.read` I/O fault
    /// count when no real disk errors occur).
    pub cache_read_faults: u64,
    /// Cache probes that exhausted the retry budget and degraded to a
    /// rebuild.
    pub cache_read_giveups: u64,
    /// Damaged entries moved to `<cache-dir>/quarantine/` (metric
    /// `cache.quarantined`).
    pub quarantined: u64,
    /// Failed cache-store attempts (write or publish-rename).
    pub cache_write_faults: u64,
    /// Cache stores dropped after exhausting the retry budget (the
    /// artifact stays in memory; only warm-run speed is lost).
    pub cache_write_giveups: u64,
    /// Pool-job panics caught by the isolated pool (workers survived).
    pub job_panics: u64,
    /// Panicked pool jobs re-run.
    pub job_retries: u64,
    /// Pool jobs abandoned after exhausting the retry budget
    /// (surfaced as [`PrepareError::Job`]).
    pub job_giveups: u64,
    /// Injected flaky stage failures retried.
    pub stage_faults: u64,
    /// Stages that exhausted the flaky-retry budget and degraded to
    /// building anyway.
    pub stage_giveups: u64,
    /// Total nanoseconds of backoff slept (fake or real, per the
    /// engine's [`Sleeper`]).
    pub backoff_ns: u64,
}

impl RecoverySnapshot {
    /// Whether any recovery machinery engaged at all.
    pub fn is_clean(&self) -> bool {
        *self == RecoverySnapshot::default()
    }

    /// Folds the snapshot into a metrics registry: the `recover.*`
    /// family plus the `cache.quarantined` counter.
    pub fn record_metrics(&self, registry: &ccc_telemetry::MetricsRegistry) {
        let pairs: [(&str, u64); 11] = [
            ("recover.cache_read_faults", self.cache_read_faults),
            ("recover.cache_read_giveups", self.cache_read_giveups),
            ("cache.quarantined", self.quarantined),
            ("recover.cache_write_faults", self.cache_write_faults),
            ("recover.cache_write_giveups", self.cache_write_giveups),
            ("recover.job_panics", self.job_panics),
            ("recover.job_retries", self.job_retries),
            ("recover.job_giveups", self.job_giveups),
            ("recover.stage_faults", self.stage_faults),
            ("recover.stage_giveups", self.stage_giveups),
            ("recover.backoff_ns", self.backoff_ns),
        ];
        for (name, v) in pairs {
            registry.counter(name).add(v);
        }
    }

    /// Renders the recovery table the chaos driver prints (skipped by
    /// the bench driver when [`RecoverySnapshot::is_clean`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("recovery: faults survived and actions taken\n");
        out.push_str(&format!(
            "  cache-read  faults {:>4}  giveups {:>4}   quarantined {:>4}\n",
            self.cache_read_faults, self.cache_read_giveups, self.quarantined
        ));
        out.push_str(&format!(
            "  cache-write faults {:>4}  giveups {:>4}\n",
            self.cache_write_faults, self.cache_write_giveups
        ));
        out.push_str(&format!(
            "  pool-job    panics {:>4}  retries {:>4}   giveups {:>4}\n",
            self.job_panics, self.job_retries, self.job_giveups
        ));
        out.push_str(&format!(
            "  stage       faults {:>4}  giveups {:>4}\n",
            self.stage_faults, self.stage_giveups
        ));
        out.push_str(&format!(
            "  backoff     {:.3} ms total\n",
            self.backoff_ns as f64 / 1e6
        ));
        out
    }
}

#[derive(Debug, Default)]
struct RecoveryCounters {
    cache_read_faults: AtomicU64,
    cache_read_giveups: AtomicU64,
    quarantined: AtomicU64,
    cache_write_faults: AtomicU64,
    cache_write_giveups: AtomicU64,
    job_panics: AtomicU64,
    job_retries: AtomicU64,
    job_giveups: AtomicU64,
    stage_faults: AtomicU64,
    stage_giveups: AtomicU64,
    backoff_ns: AtomicU64,
}

#[derive(Debug, Default)]
struct Counters {
    program_hits: AtomicU64,
    program_misses: AtomicU64,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    image_hits: AtomicU64,
    image_misses: AtomicU64,
    report_hits: AtomicU64,
    report_misses: AtomicU64,
    corrupt_entries: AtomicU64,
    compile_ns: AtomicU64,
    emulate_ns: AtomicU64,
    encode_ns: AtomicU64,
    report_ns: AtomicU64,
}

#[derive(Clone, Copy)]
enum Kind {
    Program,
    Trace,
    Image,
    Report,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Program => "program",
            Kind::Trace => "trace",
            Kind::Image => "image",
            Kind::Report => "report",
        }
    }

    /// The pipeline-stage name used for span events (matches the
    /// [`EngineSnapshot`] timer the stage feeds).
    fn stage(self) -> &'static str {
        match self {
            Kind::Program => "compile",
            Kind::Trace => "emulate",
            Kind::Image => "encode",
            Kind::Report => "report",
        }
    }

    /// The failpoint site guarding this stage's build.
    fn site(self) -> &'static str {
        match self {
            Kind::Program => sites::STAGE_COMPILE,
            Kind::Trace => sites::STAGE_EMULATE,
            Kind::Image => sites::STAGE_ENCODE,
            Kind::Report => sites::STAGE_REPORT,
        }
    }
}

/// Sensible worker count for this host.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The prepared-workload engine: a worker pool plus an optional
/// content-addressed artifact cache. Shared by reference across worker
/// threads; all counters are atomic.
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    cache: Option<ArtifactCache>,
    counters: Counters,
    recovery: RecoveryCounters,
    clock: Arc<dyn Clock>,
    sleeper: Arc<dyn Sleeper>,
    failpoints: Arc<Failpoints>,
    retry: RetryPolicy,
    sink: Option<SharedSink>,
    /// Next causal span id (ids are engine-unique and non-zero; 0 is
    /// the "no span" parent sentinel).
    span_ids: AtomicU64,
}

/// Timing scope of one workload's spans during [`Engine::prepare`]:
/// the pre-allocated span id plus the min/max window over every task
/// that ran under it (across both stages and all retry attempts).
struct WorkloadScope {
    id: u64,
    min_start: AtomicU64,
    max_end: AtomicU64,
}

/// Span scaffolding for one [`Engine::prepare`] call (only built when a
/// sink is attached).
struct PrepareSpans {
    start_ns: u64,
    root: u64,
    scopes: Vec<WorkloadScope>,
}

impl Engine {
    /// An engine with no on-disk cache — every artifact is rebuilt.
    pub fn uncached(jobs: usize) -> Engine {
        Engine {
            jobs: jobs.max(1),
            cache: None,
            counters: Counters::default(),
            recovery: RecoveryCounters::default(),
            clock: Arc::new(MonotonicClock::new()),
            sleeper: Arc::new(ThreadSleeper),
            failpoints: Arc::new(Failpoints::disabled()),
            retry: RetryPolicy::default(),
            sink: None,
            span_ids: AtomicU64::new(1),
        }
    }

    /// Allocates a fresh non-zero causal span id.
    fn next_span_id(&self) -> u64 {
        self.span_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` under workload `wi`'s span context (when spans are on),
    /// folding the task's wall-clock window into the workload scope so
    /// the workload span recorded afterwards is guaranteed to enclose
    /// every child span the task emitted — the window close happens in
    /// a drop guard, so even a panicking attempt stays enclosed.
    fn in_workload_span<T>(
        &self,
        spans: &Option<PrepareSpans>,
        wi: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let Some(spans) = spans else { return f() };
        let scope = &spans.scopes[wi];
        scope
            .min_start
            .fetch_min(self.clock.now_ns(), Ordering::Relaxed);
        struct CloseWindow<'a> {
            scope: &'a WorkloadScope,
            clock: &'a dyn Clock,
        }
        impl Drop for CloseWindow<'_> {
            fn drop(&mut self) {
                self.scope
                    .max_end
                    .fetch_max(self.clock.now_ns(), Ordering::Relaxed);
            }
        }
        let _close = CloseWindow {
            scope,
            clock: &*self.clock,
        };
        pool::with_span(scope.id, f)
    }

    /// An engine caching under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create the cache directory.
    pub fn with_cache_dir(jobs: usize, dir: impl Into<PathBuf>) -> io::Result<Engine> {
        let cache = ArtifactCache::open(dir)?;
        let mut eng = Engine::uncached(jobs);
        eng.cache = Some(cache);
        Ok(eng)
    }

    /// Replaces the clock the stage timers read. Tests inject a
    /// [`ccc_telemetry::FakeClock`] to make timer values deterministic.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Engine {
        self.clock = clock;
        self
    }

    /// Replaces the sleeper backoff waits go through. Tests inject the
    /// same [`ccc_telemetry::FakeClock`] used for [`Engine::with_clock`]
    /// so retry schedules take zero wall-clock time.
    #[must_use]
    pub fn with_sleeper(mut self, sleeper: Arc<dyn Sleeper>) -> Engine {
        self.sleeper = sleeper;
        self
    }

    /// Arms the engine (and its cache, if any) with a failpoint
    /// registry. The chaos harness and robustness tests inject faults
    /// through this; the default registry is inactive.
    #[must_use]
    pub fn with_failpoints(mut self, failpoints: Arc<Failpoints>) -> Engine {
        self.cache = self
            .cache
            .map(|c| c.with_failpoints(Arc::clone(&failpoints)));
        self.failpoints = failpoints;
        self
    }

    /// Replaces the retry policy for transient-fault recovery.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Engine {
        self.retry = retry;
        self
    }

    /// The armed failpoint registry (inactive by default).
    pub fn failpoints(&self) -> &Arc<Failpoints> {
        &self.failpoints
    }

    /// The configured retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Attaches a span sink: every cold build and every cache probe is
    /// recorded as a [`TraceEvent::Span`] named after its pipeline stage
    /// (`compile`/`emulate`/`encode`/`report`, plus `cache-probe`).
    #[must_use]
    pub fn with_trace_sink(mut self, sink: SharedSink) -> Engine {
        self.sink = Some(sink);
        self
    }

    /// The attached span sink, if any.
    pub fn trace_sink(&self) -> Option<&SharedSink> {
        self.sink.as_ref()
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether an on-disk cache is attached.
    pub fn is_cached(&self) -> bool {
        self.cache.is_some()
    }

    /// Snapshot of counters and stage timers.
    pub fn snapshot(&self) -> EngineSnapshot {
        let c = &self.counters;
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        EngineSnapshot {
            program_hits: g(&c.program_hits),
            program_misses: g(&c.program_misses),
            trace_hits: g(&c.trace_hits),
            trace_misses: g(&c.trace_misses),
            image_hits: g(&c.image_hits),
            image_misses: g(&c.image_misses),
            report_hits: g(&c.report_hits),
            report_misses: g(&c.report_misses),
            corrupt_entries: g(&c.corrupt_entries),
            compile_ns: g(&c.compile_ns),
            emulate_ns: g(&c.emulate_ns),
            encode_ns: g(&c.encode_ns),
            report_ns: g(&c.report_ns),
        }
    }

    /// Snapshot of the recovery counters (all zeros on a healthy run).
    pub fn recovery(&self) -> RecoverySnapshot {
        let r = &self.recovery;
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        RecoverySnapshot {
            cache_read_faults: g(&r.cache_read_faults),
            cache_read_giveups: g(&r.cache_read_giveups),
            quarantined: g(&r.quarantined),
            cache_write_faults: g(&r.cache_write_faults),
            cache_write_giveups: g(&r.cache_write_giveups),
            job_panics: g(&r.job_panics),
            job_retries: g(&r.job_retries),
            job_giveups: g(&r.job_giveups),
            stage_faults: g(&r.stage_faults),
            stage_giveups: g(&r.stage_giveups),
            backoff_ns: g(&r.backoff_ns),
        }
    }

    fn bump(&self, kind: Kind, hit: bool) {
        let c = &self.counters;
        let ctr = match (kind, hit) {
            (Kind::Program, true) => &c.program_hits,
            (Kind::Program, false) => &c.program_misses,
            (Kind::Trace, true) => &c.trace_hits,
            (Kind::Trace, false) => &c.trace_misses,
            (Kind::Image, true) => &c.image_hits,
            (Kind::Image, false) => &c.image_misses,
            (Kind::Report, true) => &c.report_hits,
            (Kind::Report, false) => &c.report_misses,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    fn timer_of(&self, kind: Kind) -> &AtomicU64 {
        match kind {
            Kind::Program => &self.counters.compile_ns,
            Kind::Trace => &self.counters.emulate_ns,
            Kind::Image => &self.counters.encode_ns,
            Kind::Report => &self.counters.report_ns,
        }
    }

    /// Probes the cache under the retry policy: transient read errors
    /// are retried with backoff, then degrade to a miss (rebuild).
    fn probe_with_retry(&self, cache: &ArtifactCache, key: &CacheKey) -> Lookup {
        let (res, trace) =
            self.retry
                .run(&*self.clock, &*self.sleeper, |_| match cache.load(key) {
                    Lookup::Transient => {
                        self.recovery
                            .cache_read_faults
                            .fetch_add(1, Ordering::Relaxed);
                        Err(())
                    }
                    other => Ok(other),
                });
        self.recovery
            .backoff_ns
            .fetch_add(trace.slept_ns(), Ordering::Relaxed);
        match res {
            Ok(lookup) => lookup,
            Err(()) => {
                // Retry budget exhausted: degrade to a rebuild. The
                // entry on disk (if any) stays put for a later run.
                self.recovery
                    .cache_read_giveups
                    .fetch_add(1, Ordering::Relaxed);
                Lookup::Miss
            }
        }
    }

    /// Records a damaged entry and moves it to quarantine (never
    /// deleted; the rebuild will store a fresh entry alongside).
    fn quarantine_entry(&self, cache: &ArtifactCache, key: &CacheKey) {
        self.counters
            .corrupt_entries
            .fetch_add(1, Ordering::Relaxed);
        if cache.quarantine(key).is_ok() {
            self.recovery.quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stores under the retry policy; a store that keeps failing is
    /// dropped (the artifact is in memory, only warm-run speed is lost).
    fn store_with_retry(&self, cache: &ArtifactCache, key: &CacheKey, payload: &[u8]) {
        let (res, trace) = self.retry.run(&*self.clock, &*self.sleeper, |_| {
            cache.store(key, payload).map_err(|_| ())
        });
        let failed_attempts = u64::from(trace.attempts) - u64::from(res.is_ok());
        if failed_attempts > 0 {
            self.recovery
                .cache_write_faults
                .fetch_add(failed_attempts, Ordering::Relaxed);
        }
        self.recovery
            .backoff_ns
            .fetch_add(trace.slept_ns(), Ordering::Relaxed);
        if res.is_err() {
            self.recovery
                .cache_write_giveups
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Retries injected flaky failures at this stage's failpoint site,
    /// then degrades to proceeding anyway: an infrastructure fault must
    /// never change what the engine computes, only how long it takes.
    /// Costs one atomic load when no failpoints are armed.
    fn stage_admission(&self, kind: Kind) {
        if !self.failpoints.is_active() {
            return;
        }
        let site = kind.site();
        let (res, trace) = self.retry.run(&*self.clock, &*self.sleeper, |_| {
            if self.failpoints.check(site).is_some() {
                self.recovery.stage_faults.fetch_add(1, Ordering::Relaxed);
                Err(())
            } else {
                Ok(())
            }
        });
        self.recovery
            .backoff_ns
            .fetch_add(trace.slept_ns(), Ordering::Relaxed);
        if res.is_err() {
            self.recovery.stage_giveups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The shared cached-artifact path: probe (with retry and
    /// quarantine), decode, else build (behind the stage failpoint),
    /// store (with retry). A build may push its own sub-stages, in order,
    /// which become child spans of its stage span; a sub-stage's parts
    /// become child spans of the sub-stage's.
    fn cached<T>(
        &self,
        kind: Kind,
        key: &CacheKey,
        decode: impl Fn(&[u8]) -> Result<T, WireError>,
        encode: impl Fn(&T) -> Vec<u8>,
        build: impl FnOnce(&mut Vec<SubStage>) -> Result<T, PrepareError>,
    ) -> Result<T, PrepareError> {
        if let Some(cache) = &self.cache {
            let probe_start = self.span_start();
            let looked = self.probe_with_retry(cache, key);
            self.record_span("cache-probe", probe_start, || {
                format!("{}/{}", kind.name(), key.label)
            });
            match looked {
                Lookup::Hit(payload) => match decode(&payload) {
                    Ok(v) => {
                        self.bump(kind, true);
                        return Ok(v);
                    }
                    Err(_) => {
                        // CRC passed but the payload does not parse:
                        // treat exactly like a damaged entry.
                        self.quarantine_entry(cache, key);
                    }
                },
                Lookup::Corrupt => {
                    self.quarantine_entry(cache, key);
                }
                Lookup::Miss => {}
                Lookup::Transient => unreachable!("probe_with_retry resolves Transient"),
            }
        }
        self.stage_admission(kind);
        let mut sub_stages = Vec::new();
        let start = self.clock.now_ns();
        let value = build(&mut sub_stages)?;
        let dur = self.clock.now_ns().saturating_sub(start);
        self.timer_of(kind).fetch_add(dur, Ordering::Relaxed);
        self.bump(kind, false);
        if let Some(sink) = &self.sink {
            // The span and the stage timer above are fed the same
            // start/dur pair, so `perf --attr`'s per-stage rollups
            // reconcile *exactly* with the snapshot timers.
            let id = self.next_span_id();
            sink.record(TraceEvent::Span {
                name: kind.stage(),
                detail: key.label.clone(),
                id,
                parent: pool::current_span(),
                start_ns: start,
                dur_ns: dur,
            });
            // Sub-stages run one after another inside the build, so they
            // are laid end to end from its start, and their parts from
            // theirs. They were timed on the host's clock; clamping each
            // to its parent's window keeps them nested under any engine
            // clock.
            let stages = sub_stages.iter().map(|&(name, took, _)| (name, took));
            let windows = self.record_laid_out(sink, &key.label, (id, start, dur), stages);
            for (window, (_, _, parts)) in windows.into_iter().zip(sub_stages) {
                self.record_laid_out(sink, &key.label, window, parts);
            }
        }
        if let Some(cache) = &self.cache {
            self.store_with_retry(cache, key, &encode(&value));
        }
        Ok(value)
    }

    /// Records `parts` as child spans of the span `(id, start, dur)`,
    /// laid end to end from its start and clamped to its window; returns
    /// each child's `(id, start, dur)`.
    fn record_laid_out(
        &self,
        sink: &SharedSink,
        detail: &str,
        (parent, start, dur): (u64, u64, u64),
        parts: impl IntoIterator<Item = (&'static str, Duration)>,
    ) -> Vec<(u64, u64, u64)> {
        let mut at = 0;
        let mut windows = Vec::new();
        for (name, took) in parts {
            let took = (took.as_nanos() as u64).min(dur - at);
            let id = self.next_span_id();
            sink.record(TraceEvent::Span {
                name,
                detail: detail.to_string(),
                id,
                parent,
                start_ns: start + at,
                dur_ns: took,
            });
            windows.push((id, start + at, took));
            at += took;
        }
        windows
    }

    fn key(&self, kind: Kind, label: String, parts: &dyn Fn(&mut Fnv128)) -> CacheKey {
        let mut h = Fnv128::new();
        h.update_u32(ENGINE_SCHEMA_VERSION);
        h.update_str(kind.name());
        parts(&mut h);
        CacheKey::new(kind.name(), label, &h)
    }

    fn source_parts(h: &mut Fnv128, name: &str, source: &str, opts: &lego::Options) {
        h.update_str(name);
        h.update_str(source);
        h.update_str(&options_fingerprint(opts));
    }

    /// The compiled program for `source` (cached).
    ///
    /// # Errors
    ///
    /// [`PrepareError::Workload`] on compile failure.
    pub fn program(
        &self,
        name: &str,
        source: &str,
        opts: &lego::Options,
    ) -> Result<Program, PrepareError> {
        let key = self.key(Kind::Program, name.to_string(), &|h| {
            h.update_u32(PROGRAM_WIRE_VERSION);
            Self::source_parts(h, name, source, opts);
        });
        self.cached(
            Kind::Program,
            &key,
            tepic_isa::program_from_bytes,
            tepic_isa::program_to_bytes,
            |sub_stages| {
                let (program, times) = lego::compile_timed(source, opts)
                    .map_err(|e| PrepareError::Workload(WorkloadError::Compile(e)))?;
                let stages = times.stages().into_iter();
                sub_stages.extend(stages.map(|(name, took)| (name, took, times.parts_of(name))));
                Ok(program)
            },
        )
    }

    /// The dynamic block trace of `program` (cached). `program` must be
    /// the artifact [`Engine::program`] returns for the same inputs.
    ///
    /// # Errors
    ///
    /// [`PrepareError::Workload`] on emulation failure.
    pub fn trace(
        &self,
        name: &str,
        source: &str,
        opts: &lego::Options,
        program: &Program,
    ) -> Result<BlockTrace, PrepareError> {
        let key = self.key(Kind::Trace, name.to_string(), &|h| {
            h.update_u32(TRACE_WIRE_VERSION);
            Self::source_parts(h, name, source, opts);
        });
        self.cached(
            Kind::Trace,
            &key,
            BlockTrace::from_wire_bytes,
            BlockTrace::to_wire_bytes,
            |_| {
                Emulator::new(program)
                    .run(&Limits::default())
                    .map(|r| r.trace)
                    .map_err(|e| PrepareError::Workload(WorkloadError::Run(e)))
            },
        )
    }

    /// The encoded image of `program` under `scheme` (cached) — one cell
    /// of the preparation matrix.
    ///
    /// # Errors
    ///
    /// [`PrepareError::Compress`] when the scheme rejects the program;
    /// also if `scheme` names no known scheme.
    pub fn image(
        &self,
        name: &str,
        source: &str,
        opts: &lego::Options,
        scheme: &str,
        program: &Program,
    ) -> Result<EncodedProgram, PrepareError> {
        let key = self.key(Kind::Image, format!("{name}-{scheme}"), &|h| {
            h.update_u32(CODEC_VERSION);
            Self::source_parts(h, name, source, opts);
            h.update_str(scheme);
        });
        self.cached(
            Kind::Image,
            &key,
            ccc_core::encoded_from_bytes,
            ccc_core::encoded_to_bytes,
            |_| encode(scheme, program).map(|out| out.image),
        )
    }

    /// Runs the fetch simulation of `image`, the tail every simulate
    /// job shares. The image's own fetch class picks the configuration;
    /// only a class that decodes on hit gets a codec, rebuilt by
    /// re-encoding `program` under the image's scheme. `failpoints` arm
    /// that codec's LUT fast path. With a trace sink attached, the codec
    /// build and the simulation each record a span (`codec`, `simulate`;
    /// detail `<name>/<scheme>`) and the fetch loop records its events
    /// into the same sink.
    ///
    /// # Errors
    ///
    /// [`PrepareError::Compress`] when the codec cannot be rebuilt.
    pub fn simulate(
        &self,
        name: &str,
        program: &Program,
        image: &EncodedProgram,
        trace: &BlockTrace,
        failpoints: Option<&Failpoints>,
    ) -> Result<(FetchResult, DecodeStats), PrepareError> {
        let scheme = image.kind.name();
        let detail = || format!("{name}/{scheme}");
        let class = EncodingClass::of(&image.kind);
        let codec = if class.decodes_on_hit() {
            let start = self.span_start();
            let codec = encode(scheme, program)?.codec;
            self.record_span("codec", start, detail);
            Some(codec)
        } else {
            None
        };
        let mut sink = self.sink.clone();
        let probes = Probes {
            codec: codec.as_deref(),
            failpoints,
            sink: sink.as_mut().map(|s| s as &mut dyn TraceSink),
            ..Probes::default()
        };
        let start = self.span_start();
        let out = simulate_with(program, image, trace, &FetchConfig::of_class(class), probes);
        self.record_span("simulate", start, detail);
        Ok(out)
    }

    /// The start of a span: now, but only when a sink listens, so an
    /// untraced engine pays no clock reads.
    fn span_start(&self) -> Option<u64> {
        self.sink.as_ref().map(|_| self.clock.now_ns())
    }

    /// Records a span from `start` to now, parented to the running pool
    /// task's span; a no-op without a sink.
    fn record_span(&self, name: &'static str, start: Option<u64>, detail: impl FnOnce() -> String) {
        if let (Some(sink), Some(start)) = (&self.sink, start) {
            sink.record(TraceEvent::Span {
                name,
                detail: detail(),
                id: self.next_span_id(),
                parent: pool::current_span(),
                start_ns: start,
                dur_ns: self.clock.now_ns().saturating_sub(start),
            });
        }
    }

    /// The full cross-scheme [`CompressionReport`] for `program`
    /// (cached) — the data behind Figures 5, 7 and 10.
    pub fn report(
        &self,
        name: &str,
        source: &str,
        opts: &lego::Options,
        program: &Program,
    ) -> CompressionReport {
        let key = self.key(Kind::Report, name.to_string(), &|h| {
            h.update_u32(CODEC_VERSION);
            Self::source_parts(h, name, source, opts);
        });
        self.cached(
            Kind::Report,
            &key,
            ccc_core::report_from_bytes,
            ccc_core::report_to_bytes,
            |_| Ok(CompressionReport::build(name, program)),
        )
        .expect("report build is infallible")
    }

    /// Panics the current pool job if the `pool.job` failpoint fires.
    /// Called at the top of every task the engine dispatches, where the
    /// isolated pool catches the panic and the engine re-runs the job,
    /// and of every daemon job, which answers `internal` instead.
    pub(crate) fn pool_job_admission(&self) {
        if self.failpoints.check(sites::POOL_JOB).is_some() {
            panic!("injected failpoint: pool.job");
        }
    }

    /// Runs `tasks` on the panic-isolated pool, re-running panicked jobs
    /// (with backoff) up to the retry policy's attempt budget. Healthy
    /// workers are never lost to a poisoned job; a job that panics on
    /// every attempt surfaces as `Err(JobPanic)` in its original slot.
    fn run_jobs_healed<T, F>(&self, tasks: Vec<F>) -> Vec<Result<T, JobPanic>>
    where
        T: Send,
        F: Fn() -> T + Send + Sync,
    {
        let n = tasks.len();
        let mut results: Vec<Option<Result<T, JobPanic>>> = (0..n).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..n).collect();
        let mut attempt: u32 = 1;
        let max_attempts = self.retry.max_attempts.max(1);
        loop {
            let round: Vec<_> = pending
                .iter()
                .map(|&i| {
                    let task = &tasks[i];
                    move || task()
                })
                .collect();
            let out = pool::run_tasks_isolated(self.jobs, round);
            let mut panicked: Vec<(usize, JobPanic)> = Vec::new();
            for (&i, r) in pending.iter().zip(out) {
                match r {
                    Ok(v) => results[i] = Some(Ok(v)),
                    Err(p) => {
                        self.recovery.job_panics.fetch_add(1, Ordering::Relaxed);
                        panicked.push((i, p));
                    }
                }
            }
            if panicked.is_empty() {
                break;
            }
            if attempt >= max_attempts {
                for (i, p) in panicked {
                    self.recovery.job_giveups.fetch_add(1, Ordering::Relaxed);
                    results[i] = Some(Err(JobPanic {
                        task_index: i,
                        message: p.message,
                    }));
                }
                break;
            }
            let delay = self.retry.delay_after(attempt);
            self.sleeper.sleep_ns(delay);
            self.recovery.backoff_ns.fetch_add(delay, Ordering::Relaxed);
            self.recovery
                .job_retries
                .fetch_add(panicked.len() as u64, Ordering::Relaxed);
            pending = panicked.into_iter().map(|(i, _)| i).collect();
            attempt += 1;
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot resolved"))
            .collect()
    }

    /// Prepares `list` in parallel: compile + trace per workload, then
    /// the workload x scheme image matrix, all through the cache. Pool
    /// jobs are panic-isolated and re-run on injected panics.
    ///
    /// # Errors
    ///
    /// [`PrepareErrors`] aggregating every failed workload (the paper
    /// harness cannot proceed on partial data, but it *can* report all
    /// casualties at once instead of panicking at the first), sorted by
    /// workload name.
    pub fn prepare(&self, list: &[&'static Workload]) -> Result<Vec<Prepared>, PrepareErrors> {
        let opts = lego::Options::default();

        // Causal-span scaffolding (sink-gated, so the no-sink path does
        // not read the clock): one root `prepare` span, one `workload`
        // child per entry. Stage tasks below run under their workload's
        // span context, which travels with the job closure across the
        // worker pool — the span tree reflects which workload
        // *caused* a build, not which thread ran it.
        let spans = self.sink.as_ref().map(|_| PrepareSpans {
            start_ns: self.clock.now_ns(),
            root: self.next_span_id(),
            scopes: list
                .iter()
                .map(|_| WorkloadScope {
                    id: self.next_span_id(),
                    min_start: AtomicU64::new(u64::MAX),
                    max_end: AtomicU64::new(0),
                })
                .collect(),
        });

        // Stage 1: compile + trace, one task per workload.
        let stage1: Vec<Result<(Program, BlockTrace), PrepareError>> = self
            .run_jobs_healed(
                list.iter()
                    .enumerate()
                    .map(|(wi, w)| {
                        let opts = &opts;
                        let spans = &spans;
                        move || -> Result<(Program, BlockTrace), PrepareError> {
                            self.in_workload_span(spans, wi, || {
                                self.pool_job_admission();
                                let program = self.program(w.name, w.source(), opts)?;
                                let trace = self.trace(w.name, w.source(), opts, &program)?;
                                Ok((program, trace))
                            })
                        }
                    })
                    .collect(),
            )
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| Err(PrepareError::Job(p))))
            .collect();

        // Stage 2: the image matrix over every workload that compiled.
        let mut matrix_tasks: Vec<(usize, &'static str, &Program, &'static Workload)> = Vec::new();
        for (wi, (w, r)) in list.iter().zip(&stage1).enumerate() {
            if let Ok((program, _)) = r {
                for scheme in MATRIX_SCHEMES {
                    matrix_tasks.push((wi, scheme, program, w));
                }
            }
        }
        let images: Vec<Result<EncodedProgram, PrepareError>> = self
            .run_jobs_healed(
                matrix_tasks
                    .iter()
                    .map(|&(wi, scheme, program, w)| {
                        let opts = &opts;
                        let spans = &spans;
                        move || {
                            self.in_workload_span(spans, wi, || {
                                self.pool_job_admission();
                                self.image(w.name, w.source(), opts, scheme, program)
                            })
                        }
                    })
                    .collect(),
            )
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| Err(PrepareError::Job(p))))
            .collect();

        // Close the span scaffolding: each workload span's window is
        // the union of its task windows (so children are nested by
        // construction), and the root span brackets everything.
        if let (Some(sink), Some(spans)) = (&self.sink, &spans) {
            for (scope, w) in spans.scopes.iter().zip(list) {
                let min = scope.min_start.load(Ordering::Relaxed);
                let max = scope.max_end.load(Ordering::Relaxed);
                if max == 0 {
                    continue; // no task ran under this workload
                }
                sink.record(TraceEvent::Span {
                    name: "workload",
                    detail: w.name.to_string(),
                    id: scope.id,
                    parent: spans.root,
                    start_ns: min,
                    dur_ns: max.saturating_sub(min),
                });
            }
            sink.record(TraceEvent::Span {
                name: "prepare",
                detail: format!("{} workloads", list.len()),
                id: spans.root,
                parent: pool::current_span(),
                start_ns: spans.start_ns,
                dur_ns: self.clock.now_ns().saturating_sub(spans.start_ns),
            });
        }

        // Aggregate: pair matrix results back to workloads, keeping the
        // first error per workload (stage-1 errors already won above).
        let mut per_workload: Vec<Result<Vec<EncodedProgram>, PrepareError>> =
            list.iter().map(|_| Ok(Vec::new())).collect();
        for (&(wi, _, _, _), img) in matrix_tasks.iter().zip(images) {
            match (&mut per_workload[wi], img) {
                (Ok(v), Ok(img)) => v.push(img),
                (slot @ Ok(_), Err(e)) => *slot = Err(e),
                (Err(_), _) => {}
            }
        }

        let mut prepared = Vec::new();
        let mut failures = Vec::new();
        for ((w, stage1), images) in list.iter().zip(stage1).zip(per_workload) {
            match (stage1, images) {
                (Ok((program, trace)), Ok(images)) => {
                    let [byte_img, stream_img, stream1_img, compressed_img, tailored_img]: [EncodedProgram;
                        5] = images.try_into().expect("five matrix schemes");
                    let base_img = encode_base(&program);
                    prepared.push(Prepared {
                        workload: w,
                        program,
                        trace,
                        base_img,
                        byte_img,
                        stream_img,
                        stream1_img,
                        compressed_img,
                        tailored_img,
                    });
                }
                (Err(error), _) | (Ok(_), Err(error)) => failures.push(WorkloadFailure {
                    workload: w.name.to_string(),
                    error,
                }),
            }
        }
        if failures.is_empty() {
            Ok(prepared)
        } else {
            // Name order, not pool-completion order: the failure report
            // must be byte-stable across --jobs settings.
            failures.sort_by(|a, b| a.workload.cmp(&b.workload));
            Err(PrepareErrors { failures })
        }
    }

    /// Prepares the whole benchmark suite ([`tinker_workloads::ALL`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::prepare`].
    pub fn prepare_all(&self) -> Result<Vec<Prepared>, PrepareErrors> {
        let list: Vec<&'static Workload> = tinker_workloads::ALL.iter().collect();
        self.prepare(&list)
    }

    /// Builds (cached, in parallel) the per-workload compression reports
    /// for already-prepared workloads. Report building is infallible, so
    /// a job whose panic-retry budget runs out falls back to building
    /// inline on the caller's thread (outside the `pool.job` failpoint).
    pub fn reports(&self, prepared: &[Prepared]) -> Vec<CompressionReport> {
        let opts = lego::Options::default();
        // A root span bracketing the whole report pass; each report
        // task runs under it so its stage spans parent correctly.
        let root = self
            .sink
            .as_ref()
            .map(|_| (self.next_span_id(), self.clock.now_ns()));
        let root_id = root.map_or(0, |(id, _)| id);
        let out = self.run_jobs_healed(
            prepared
                .iter()
                .map(|p| {
                    let opts = &opts;
                    move || {
                        pool::with_span(root_id, || {
                            self.pool_job_admission();
                            self.report(p.workload.name, p.workload.source(), opts, &p.program)
                        })
                    }
                })
                .collect(),
        );
        let reports = out
            .into_iter()
            .zip(prepared)
            .map(|(r, p)| {
                r.unwrap_or_else(|_| {
                    pool::with_span(root_id, || {
                        self.report(p.workload.name, p.workload.source(), &opts, &p.program)
                    })
                })
            })
            .collect();
        if let (Some(sink), Some((id, start_ns))) = (&self.sink, root) {
            sink.record(TraceEvent::Span {
                name: "reports",
                detail: format!("{} workloads", prepared.len()),
                id,
                parent: pool::current_span(),
                start_ns,
                dur_ns: self.clock.now_ns().saturating_sub(start_ns),
            });
        }
        reports
    }
}

/// Encodes `program` under the scheme named `scheme`.
fn encode(scheme: &str, program: &Program) -> Result<SchemeOutput, PrepareError> {
    let compress_error = |error| PrepareError::Compress {
        scheme: scheme.to_string(),
        error,
    };
    scheme_by_name(scheme)
        .ok_or_else(|| {
            compress_error(CompressError::Integrity {
                detail: "unknown scheme name",
            })
        })?
        .compress(program)
        .map_err(compress_error)
}

/// Stable textual fingerprint of the compiler options that affect
/// generated code (part of every cache key).
fn options_fingerprint(o: &lego::Options) -> String {
    format!(
        "optimize={};opt_iters={};data_base={:#x};tail_duplicate={:?}",
        o.optimize, o.opt_iters, o.data_base, o.tail_duplicate
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &Workload = &Workload::custom(
        "engine-good",
        "tiny valid workload",
        "fn main() { var i; for (i = 0; i < 40; i = i + 1) { print(i * i); } }",
    );
    const ALSO_GOOD: &Workload = &Workload::custom(
        "engine-good-2",
        "another tiny valid workload",
        "fn main() { var i; var s = 0; for (i = 0; i < 30; i = i + 1) { s = s + i; } print(s); }",
    );
    const BAD: &Workload = &Workload::custom(
        "engine-bad",
        "does not even parse",
        "fn main( { this is not tink ",
    );

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ccc-engine-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn failures_are_aggregated_per_workload_not_panicked() {
        let eng = Engine::uncached(2);
        let err = eng
            .prepare(&[GOOD, BAD, ALSO_GOOD])
            .expect_err("bad workload must fail the batch");
        assert_eq!(err.failures.len(), 1, "only the bad workload fails");
        assert_eq!(err.failures[0].workload, "engine-bad");
        assert!(matches!(
            err.failures[0].error,
            PrepareError::Workload(WorkloadError::Compile(_))
        ));
        let msg = err.to_string();
        assert!(
            msg.contains("engine-bad"),
            "message names the workload: {msg}"
        );
    }

    #[test]
    fn good_workloads_prepare_fully() {
        let eng = Engine::uncached(4);
        let prepared = eng.prepare(&[GOOD]).unwrap();
        assert_eq!(prepared.len(), 1);
        let p = &prepared[0];
        assert!(p.program.num_ops() > 0);
        assert!(!p.trace.is_empty());
        for (name, img) in p.images() {
            assert!(img.check_layout(), "{name} layout");
            assert!(img.total_bytes() > 0, "{name} empty");
        }
        let snap = eng.snapshot();
        assert_eq!(snap.hits(), 0, "uncached engine never hits");
        assert_eq!(snap.image_misses, MATRIX_SCHEMES.len() as u64);
    }

    #[test]
    fn warm_run_serves_every_artifact_from_cache() {
        let dir = scratch("warm");
        let _ = std::fs::remove_dir_all(&dir);
        let cold = Engine::with_cache_dir(2, &dir).unwrap();
        let a = cold.prepare(&[GOOD]).unwrap();
        let snap = cold.snapshot();
        assert_eq!(snap.misses(), 2 + MATRIX_SCHEMES.len() as u64);
        assert_eq!(snap.hits(), 0);

        let warm = Engine::with_cache_dir(2, &dir).unwrap();
        let b = warm.prepare(&[GOOD]).unwrap();
        let snap = warm.snapshot();
        assert_eq!(snap.misses(), 0, "warm run must rebuild nothing");
        assert_eq!(snap.hits(), 2 + MATRIX_SCHEMES.len() as u64);

        assert_eq!(a[0].program, b[0].program);
        assert_eq!(a[0].trace, b[0].trace);
        for ((na, ia), (nb, ib)) in a[0].images().zip(b[0].images()) {
            assert_eq!(na, nb);
            assert_eq!(ia, ib, "{na}: warm image differs from cold");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fake_clock_makes_stage_timers_deterministic() {
        use ccc_telemetry::FakeClock;
        // jobs=1 serializes the builds; each cold build brackets exactly
        // two clock reads, so every stage timer is an exact multiple of
        // the fake clock's step.
        const STEP: u64 = 1_000;
        let eng = Engine::uncached(1).with_clock(Arc::new(FakeClock::with_step(STEP)));
        eng.prepare(&[GOOD]).unwrap();
        let snap = eng.snapshot();
        assert_eq!(snap.compile_ns, STEP, "one compile build");
        assert_eq!(snap.emulate_ns, STEP, "one emulate build");
        assert_eq!(
            snap.encode_ns,
            STEP * MATRIX_SCHEMES.len() as u64,
            "one encode build per matrix scheme"
        );
        assert_eq!(snap.report_ns, 0, "no report requested");
    }

    #[test]
    fn lego_stage_spans_stay_inside_a_fake_clock_compile() {
        use ccc_telemetry::spans::SpanForest;
        use ccc_telemetry::FakeClock;
        // The compile span lasts one 1 ns step; lego's stages, timed on
        // the host clock, take longer and must be clamped into it.
        let sink = SharedSink::new(1 << 12);
        let eng = Engine::uncached(1)
            .with_clock(Arc::new(FakeClock::with_step(1)))
            .with_trace_sink(sink.clone());
        eng.prepare(&[GOOD]).unwrap();
        let forest = SpanForest::build(&sink.drain()).expect("stage spans nest");
        let compile = forest.nodes().iter().find(|n| n.name == "compile").unwrap();
        let stages: u64 = forest.children_of(compile.id).map(|k| k.dur_ns).sum();
        assert_eq!((compile.dur_ns, stages), (1, 1));
    }

    #[test]
    fn sink_records_one_span_per_cold_build_and_probe() {
        use ccc_telemetry::{SharedSink, TraceEvent};
        let dir = scratch("spans");
        let _ = std::fs::remove_dir_all(&dir);
        let sink = SharedSink::new(1 << 12);
        let eng = Engine::with_cache_dir(2, &dir)
            .unwrap()
            .with_trace_sink(sink.clone());
        eng.prepare(&[GOOD]).unwrap();
        let events = eng.trace_sink().unwrap().drain();
        let count = |stage: &str| {
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Span { name, .. } if *name == stage))
                .count() as u64
        };
        assert_eq!(count("compile"), 1);
        assert_eq!(count("emulate"), 1);
        assert_eq!(count("encode"), MATRIX_SCHEMES.len() as u64);
        assert_eq!(
            count("cache-probe"),
            2 + MATRIX_SCHEMES.len() as u64,
            "every cached() call probes once"
        );
        // Span durations come from a monotonic clock.
        for e in &events {
            if let TraceEvent::Span { name, detail, .. } = e {
                assert!(!detail.is_empty(), "span {name} has an empty detail");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_decodes_only_on_hit_classes_and_records_its_spans() {
        let sink = SharedSink::new(1 << 20);
        let eng = Engine::uncached(1).with_trace_sink(sink.clone());
        let p = eng.prepare(&[GOOD]).unwrap().remove(0);
        sink.drain();
        for (scheme, img) in p.images().chain([("base", &p.base_img)]) {
            let (r, stats) = eng
                .simulate("good", &p.program, img, &p.trace, None)
                .unwrap();
            let class = EncodingClass::of(&img.kind);
            let cfg = FetchConfig::of_class(class);
            let plain = ifetch_sim::simulate(&p.program, img, &p.trace, &cfg);
            assert_eq!(r, plain, "{scheme}");
            assert_eq!(stats.blocks_decoded, r.buffer_misses, "{scheme}");
            assert_eq!(stats.decode_errors, 0, "{scheme}");
            let spans: Vec<_> = sink
                .drain()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Span { name, detail, .. } => Some((name, detail)),
                    TraceEvent::Fetch { .. } => None,
                })
                .collect();
            let detail = format!("good/{scheme}");
            let mut want = vec![("simulate", detail.clone())];
            if class.decodes_on_hit() {
                want.insert(0, ("codec", detail));
            }
            assert_eq!(spans, want, "{scheme}");
        }
    }

    #[test]
    fn prepare_spans_form_a_causal_forest_that_reconciles_with_timers() {
        use ccc_telemetry::spans::SpanForest;
        use ccc_telemetry::SharedSink;
        let sink = SharedSink::new(1 << 12);
        let eng = Engine::uncached(8).with_trace_sink(sink.clone());
        let prepared = eng.prepare(&[GOOD, ALSO_GOOD]).unwrap();
        eng.reports(&prepared);
        let events = sink.drain();
        let forest = SpanForest::build(&events).expect("well-formed span forest");

        // Exactly two roots: the prepare pass and the report pass.
        let root_names: Vec<_> = forest.roots().map(|r| r.name).collect();
        assert_eq!(root_names, vec!["prepare", "reports"]);

        // Every compile/emulate/encode span parents to a workload span
        // whose detail is its workload's name — across the worker pool
        // under jobs=8.
        let node_of = |id: u64| forest.nodes().iter().find(|n| n.id == id).unwrap();
        for n in forest.nodes() {
            match n.name {
                "compile" | "emulate" => {
                    let p = node_of(n.parent);
                    assert_eq!(p.name, "workload");
                    assert_eq!(p.detail, n.detail, "stage span under its workload");
                }
                "encode" => {
                    let p = node_of(n.parent);
                    assert_eq!(p.name, "workload");
                    assert!(
                        n.detail.starts_with(&p.detail),
                        "encode label {} under workload {}",
                        n.detail,
                        p.detail
                    );
                }
                "report" => assert_eq!(node_of(n.parent).name, "reports"),
                _ => {}
            }
        }

        // Per-stage span rollups reconcile *exactly* with the engine's
        // stage timers (both sides are fed the same start/dur pair).
        let roll = forest.stage_rollup();
        let snap = eng.snapshot();
        assert_eq!(roll["compile"].total_ns, snap.compile_ns);
        assert_eq!(roll["emulate"].total_ns, snap.emulate_ns);
        assert_eq!(roll["encode"].total_ns, snap.encode_ns);
        assert_eq!(roll["report"].total_ns, snap.report_ns);

        // Each compile span holds lego's stages, in pipeline order, end
        // to end and summing to at most the compile itself.
        let stage_names: Vec<_> = lego::StageTimes::default()
            .stages()
            .iter()
            .map(|&(name, _)| name)
            .collect();
        let mut compiles = 0;
        for c in forest.nodes().iter().filter(|n| n.name == "compile") {
            compiles += 1;
            let kids: Vec<_> = forest.children_of(c.id).collect();
            let names: Vec<_> = kids.iter().map(|k| k.name).collect();
            assert_eq!(names, stage_names, "compile {}", c.detail);
            let mut at = c.start_ns;
            for k in &kids {
                assert_eq!(
                    k.start_ns, at,
                    "{} {} starts where the last ended",
                    k.name, k.detail
                );
                assert_eq!(k.detail, c.detail);
                at = k.end_ns();
            }
            let sum: u64 = kids.iter().map(|k| k.dur_ns).sum();
            assert!(
                sum <= c.dur_ns,
                "compile {}: stages {sum} > {} ns",
                c.detail,
                c.dur_ns
            );
        }
        assert_eq!(compiles, 2, "one compile per workload");
        for (name, _) in lego::StageTimes::default().stages() {
            assert_eq!(roll[name].count, 2, "{name}: one span per compile");
        }

        // Each opt span holds the optimizer's passes, in pipeline order,
        // end to end inside it.
        let pass_names: Vec<_> = lego::opt::PassTimes::default()
            .passes()
            .iter()
            .map(|&(name, _)| name)
            .collect();
        for o in forest.nodes().iter().filter(|n| n.name == "opt") {
            let kids: Vec<_> = forest.children_of(o.id).collect();
            let names: Vec<_> = kids.iter().map(|k| k.name).collect();
            assert_eq!(names, pass_names, "opt {}", o.detail);
            let mut at = o.start_ns;
            for k in &kids {
                assert_eq!(k.start_ns, at, "{} {}", k.name, k.detail);
                at = k.end_ns();
            }
            assert!(at <= o.end_ns(), "opt {}: passes overrun it", o.detail);
        }
        for name in pass_names {
            assert_eq!(roll[name].count, 2, "{name}: one span per compile");
        }

        // The critical path descends from the latest-finishing root.
        let path = forest.critical_path();
        assert!(!path.is_empty());
        assert_eq!(path[0].parent, 0);
    }

    #[test]
    fn prepare_errors_sort_by_workload_name() {
        const Z_BAD: &Workload = &Workload::custom("z-bad", "bad", "fn main( {");
        const A_BAD: &Workload = &Workload::custom("a-bad", "bad", "fn main( {");
        let eng = Engine::uncached(4);
        // Submitted z before a: the report must still come out sorted.
        let err = eng.prepare(&[Z_BAD, GOOD, A_BAD]).unwrap_err();
        let names: Vec<_> = err.failures.iter().map(|f| f.workload.as_str()).collect();
        assert_eq!(names, ["a-bad", "z-bad"]);
    }

    fn fake_time_engine(dir: &PathBuf, spec: &str, seed: u64) -> Engine {
        use ccc_telemetry::FakeClock;
        let clock = Arc::new(FakeClock::with_step(0));
        Engine::with_cache_dir(2, dir)
            .unwrap()
            .with_clock(clock.clone())
            .with_sleeper(clock)
            .with_failpoints(Arc::new(Failpoints::from_spec(spec, seed).unwrap()))
    }

    #[test]
    fn corrupt_entry_is_quarantined_not_deleted() {
        let dir = scratch("quarantine");
        let _ = std::fs::remove_dir_all(&dir);
        let cold = Engine::with_cache_dir(2, &dir).unwrap();
        let a = cold.prepare(&[GOOD]).unwrap();

        // Damage the stored program entry on disk.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().starts_with("program-"))
            .expect("a program entry exists");
        let path = entry.path();
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();

        let warm = Engine::with_cache_dir(2, &dir).unwrap();
        let b = warm.prepare(&[GOOD]).unwrap();
        assert_eq!(a[0].program, b[0].program, "rebuild matches");
        assert_eq!(warm.snapshot().corrupt_entries, 1);
        let rec = warm.recovery();
        assert_eq!(rec.quarantined, 1);
        // The damaged bytes moved to quarantine/ under the same name.
        let qpath = dir
            .join(cache::QUARANTINE_DIR)
            .join(path.file_name().unwrap());
        assert_eq!(std::fs::read(&qpath).unwrap(), raw, "evidence preserved");
        assert!(path.exists(), "rebuild stored a fresh entry");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_read_faults_degrade_to_rebuild() {
        let dir = scratch("transient-read");
        let _ = std::fs::remove_dir_all(&dir);
        let clean = Engine::with_cache_dir(2, &dir).unwrap();
        let a = clean.prepare(&[GOOD]).unwrap();

        // Every read fails with an injected I/O error: the engine must
        // exhaust retries, give up, and rebuild — same results out.
        let eng = fake_time_engine(&dir, "cache.read:1.0:io", 42);
        let b = eng.prepare(&[GOOD]).unwrap();
        assert_eq!(a[0].program, b[0].program);
        assert_eq!(a[0].trace, b[0].trace);
        let rec = eng.recovery();
        let probes = 2 + MATRIX_SCHEMES.len() as u64;
        assert_eq!(rec.cache_read_giveups, probes, "every probe gave up");
        assert_eq!(
            rec.cache_read_faults,
            probes * u64::from(eng.retry_policy().max_attempts),
            "one fault per attempt per probe"
        );
        assert_eq!(
            rec.cache_read_faults,
            eng.failpoints().total_fired(),
            "recovery reconciles with the injection log"
        );
        assert!(rec.backoff_ns > 0, "backoff was (fake-)slept");
        assert_eq!(eng.snapshot().misses(), probes, "all rebuilt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_faults_are_retried_then_dropped() {
        let dir = scratch("write-fault");
        let _ = std::fs::remove_dir_all(&dir);
        let eng = fake_time_engine(&dir, "cache.write:1.0:io", 7);
        let prepared = eng.prepare(&[GOOD]).unwrap();
        assert_eq!(prepared.len(), 1, "stores are non-fatal");
        let rec = eng.recovery();
        let stores = 2 + MATRIX_SCHEMES.len() as u64;
        assert_eq!(rec.cache_write_giveups, stores);
        assert_eq!(
            rec.cache_write_faults,
            eng.failpoints().total_fired(),
            "every injected write fault is accounted for"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn poisoned_jobs_are_retried_then_typed() {
        let dir = scratch("poisoned");
        let _ = std::fs::remove_dir_all(&dir);
        // Every job panics on every attempt: prepare must survive the
        // pool, exhaust retries, and report typed per-workload errors.
        let eng = fake_time_engine(&dir, "pool.job:1.0:panic", 11);
        let err = quiet_panics(|| eng.prepare(&[ALSO_GOOD, GOOD]).unwrap_err());
        assert_eq!(err.failures.len(), 2);
        let names: Vec<_> = err.failures.iter().map(|f| f.workload.as_str()).collect();
        assert_eq!(names, ["engine-good", "engine-good-2"], "sorted by name");
        for f in &err.failures {
            assert!(matches!(f.error, PrepareError::Job(_)), "{}", f.error);
        }
        let rec = eng.recovery();
        let max = u64::from(eng.retry_policy().max_attempts);
        assert_eq!(rec.job_giveups, 2);
        assert_eq!(rec.job_panics, 2 * max);
        assert_eq!(rec.job_retries, 2 * (max - 1));
        assert_eq!(rec.job_panics, eng.failpoints().total_fired());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn intermittent_job_panics_heal_to_identical_results() {
        let dir = scratch("heal");
        let _ = std::fs::remove_dir_all(&dir);
        let clean = Engine::with_cache_dir(2, &dir).unwrap();
        let a = clean.prepare(&[GOOD]).unwrap();

        let eng = fake_time_engine(&dir, "pool.job:0.4:panic,cache.read:0.3:io", 1234);
        let b = quiet_panics(|| eng.prepare(&[GOOD]).unwrap());
        assert_eq!(a[0].program, b[0].program);
        assert_eq!(a[0].trace, b[0].trace);
        for ((na, ia), (nb, ib)) in a[0].images().zip(b[0].images()) {
            assert_eq!(na, nb);
            assert_eq!(ia, ib, "{na}: healed run differs");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flaky_stages_degrade_to_building() {
        let dir = scratch("flaky-stage");
        let _ = std::fs::remove_dir_all(&dir);
        // Flaky on every arrival: admission retries then waves the
        // build through; results must be unaffected.
        let eng = fake_time_engine(&dir, "stage.compile:1.0:flaky,stage.encode:1.0:flaky", 5);
        let prepared = eng.prepare(&[GOOD]).unwrap();
        assert_eq!(prepared.len(), 1);
        let rec = eng.recovery();
        let builds = 1 + MATRIX_SCHEMES.len() as u64; // compile + encodes
        assert_eq!(rec.stage_giveups, builds);
        assert_eq!(rec.stage_faults, eng.failpoints().total_fired());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
