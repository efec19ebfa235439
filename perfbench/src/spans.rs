//! Outside-in spans: the benchmark times every call it makes into a
//! library layer, and in traced mode also keeps each call as a span
//! (name, start, end, parent, request id) in memory, written out once
//! the run ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept per run; later ones are counted, not kept, so a
/// long decode run (~100 spans per millisecond) stays small.
const MAX_SPANS: usize = 100_000;

/// The span log of one run. Timing is always on (the metrics need it);
/// recording is on only in traced mode.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    log: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Spans {
    /// A log that records spans iff `on`.
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            log: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` as a call into layer `name`, under span `parent`
    /// (0 for a root) on behalf of `request`. `f` receives its own span
    /// id (0 when not recording) to parent nested calls. Returns `f`'s
    /// result and its wall time in nanoseconds.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, u64) {
        let id = if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        if self.on {
            let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            let mut log = self.log.lock().expect("span log poisoned");
            if log.len() < MAX_SPANS {
                log.push(Span {
                    id,
                    parent,
                    request,
                    name,
                    start_ns: at(start),
                    end_ns: at(end),
                });
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        (out, ns)
    }

    /// Spans kept and spans dropped past the cap, so far.
    pub fn counts(&self) -> (usize, u64) {
        (
            self.log.lock().expect("span log poisoned").len(),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// The recorded spans as JSON lines, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut spans = self.log.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in spans {
            let _ = writeln!(
                out,
                r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
