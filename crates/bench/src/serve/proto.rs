//! Wire protocol for `tepic-ccd` (DESIGN.md §17).
//!
//! Frames are a 4-byte big-endian length prefix followed by exactly
//! that many bytes of UTF-8 JSON. The framing layer is deliberately
//! dumb — no compression, no multiplexing — so a client in any
//! language is ~10 lines. Payloads above [`MAX_FRAME`] are rejected
//! before allocation; a clean close between frames reads as
//! `Ok(None)`, a close inside a frame as [`FrameError::Truncated`].
//!
//! Requests have a canonical serialization (fixed field order, every
//! field present) so `parse(canon(r)) == r` and `canon(parse(b)) == b`
//! for canonical `b` — the byte-exact round-trip the proptests pin.

use std::fmt;
use std::io::{self, Read, Write};

use ccc_telemetry::{json, parse_json, JsonValue};

/// Hard ceiling on a frame's payload length. Large enough for any
/// generated source plus an encoded image in hex; small enough that a
/// hostile length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 8 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed mid-frame (inside the header or the payload).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`]; the payload was not read.
    Oversized(usize),
    /// An underlying I/O error (including read timeouts, which surface
    /// as `WouldBlock`/`TimedOut`).
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds limit {MAX_FRAME}")
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// True when the error is a read timeout rather than a dead peer.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

/// Writes one length-prefixed frame in a single `write_all` and
/// flushes. One write, not header-then-payload: on a socket with
/// Nagle's algorithm on, a second small write waits for the ACK of the
/// first, which the peer delays (~40 ms per direction on Linux).
///
/// # Errors
///
/// Propagates the underlying write/flush error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean close at a frame boundary.
///
/// # Errors
///
/// [`FrameError::Truncated`] on close mid-frame, `Oversized` before
/// reading a payload whose declared length exceeds [`MAX_FRAME`], and
/// `Io` for everything else (timeouts included).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut hdr = [0u8; 4];
    // The first header byte distinguishes a clean close (Ok(0)) from a
    // close after partial data (Truncated below).
    match r.read(&mut hdr[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    fill(r, &mut hdr[1..])?;
    let len = u32::from_be_bytes(hdr) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut buf = vec![0u8; len];
    fill(r, &mut buf)?;
    Ok(Some(buf))
}

fn fill(r: &mut impl Read, mut buf: &mut [u8]) -> Result<(), FrameError> {
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// The four artifact-building operations a job request can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOp {
    /// Compile the source; respond with program shape + CRC.
    Compile,
    /// Compile + encode under a scheme; respond with the image bytes.
    Encode,
    /// Compile + trace + encode + fetch-simulate with full decode.
    Simulate,
    /// [`JobOp::Simulate`] under seeded decode fault injection.
    Faultsim,
}

impl JobOp {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobOp::Compile => "compile",
            JobOp::Encode => "encode",
            JobOp::Simulate => "simulate",
            JobOp::Faultsim => "faultsim",
        }
    }

    /// Inverse of [`JobOp::name`].
    pub fn by_name(name: &str) -> Option<JobOp> {
        Some(match name {
            "compile" => JobOp::Compile,
            "encode" => JobOp::Encode,
            "simulate" => JobOp::Simulate,
            "faultsim" => JobOp::Faultsim,
            _ => return None,
        })
    }
}

/// One artifact-building job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Which pipeline to run.
    pub op: JobOp,
    /// Program name (cache-key component, mirrors the CLI's stem).
    pub name: String,
    /// Scheme name (ignored by `compile` but still part of the frame).
    pub scheme: String,
    /// Fault seed (`faultsim` consumes it; `simulate` echoes it).
    pub seed: u64,
    /// Program source text.
    pub source: String,
}

impl JobRequest {
    /// The canonical text of exactly the fields the response depends
    /// on: `compile` ignores scheme and seed, `encode` ignores seed, and
    /// `simulate`/`faultsim` keep both because their responses echo the
    /// seed. Every free-text field is length-prefixed, so requests with
    /// equal texts have equal fields and produce byte-identical
    /// responses, which is why the daemon's admission table is keyed by
    /// it. It is built by copying, not escaping, because every request
    /// (memo hits too) builds it.
    pub fn flight_text(&self) -> String {
        let (scheme, seed) = match self.op {
            JobOp::Compile => ("", 0),
            JobOp::Encode => (self.scheme.as_str(), 0),
            JobOp::Simulate | JobOp::Faultsim => (self.scheme.as_str(), self.seed),
        };
        format!(
            "{} seed={seed} name={}:{} scheme={}:{scheme} source={}:{}",
            self.op.name(),
            self.name.len(),
            self.name,
            scheme.len(),
            self.source.len(),
            self.source,
        )
    }
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; response echoes `pong`.
    Ping,
    /// Dump the daemon's [`ccc_telemetry::MetricsRegistry`].
    Metrics,
    /// Begin graceful drain: finish queued jobs, then exit.
    Shutdown,
    /// An artifact-building job.
    Job(JobRequest),
}

impl Request {
    /// The canonical (byte-stable) serialization: fixed field order
    /// `op, name, scheme, seed, source`, every field present on job
    /// requests, no whitespace.
    pub fn canonical(&self) -> String {
        match self {
            Request::Ping => r#"{"op":"ping"}"#.to_string(),
            Request::Metrics => r#"{"op":"metrics"}"#.to_string(),
            Request::Shutdown => r#"{"op":"shutdown"}"#.to_string(),
            Request::Job(j) => format!(
                r#"{{"op":{},"name":{},"scheme":{},"seed":{},"source":{}}}"#,
                json::escape(j.op.name()),
                json::escape(&j.name),
                json::escape(&j.scheme),
                j.seed,
                json::escape(&j.source),
            ),
        }
    }

    /// Parses a request frame (field order is NOT significant on input).
    ///
    /// # Errors
    ///
    /// A typed [`WireError`]: `BadJson` for malformed text, `BadRequest`
    /// for well-formed JSON that is not a valid request.
    pub fn parse(payload: &[u8]) -> Result<Request, WireError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| WireError::new(ErrKind::BadJson, "payload is not UTF-8"))?;
        let v = parse_json(text)
            .map_err(|e| WireError::new(ErrKind::BadJson, format!("malformed JSON: {e}")))?;
        let op = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| WireError::new(ErrKind::BadRequest, "missing string field \"op\""))?;
        match op {
            "ping" => Ok(Request::Ping),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            _ => {
                let op = JobOp::by_name(op).ok_or_else(|| {
                    WireError::new(ErrKind::BadRequest, format!("unknown op {op:?}"))
                })?;
                let name = req_str(&v, "name")?;
                let source = req_str(&v, "source")?;
                let scheme = match v.get("scheme") {
                    None => "full".to_string(),
                    Some(s) => s
                        .as_str()
                        .ok_or_else(|| {
                            WireError::new(ErrKind::BadRequest, "field \"scheme\" must be a string")
                        })?
                        .to_string(),
                };
                let seed = match v.get("seed") {
                    None => 0,
                    Some(s) => {
                        let n = s.as_f64().ok_or_else(|| {
                            WireError::new(ErrKind::BadRequest, "field \"seed\" must be a number")
                        })?;
                        if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                            return Err(WireError::new(
                                ErrKind::BadRequest,
                                "field \"seed\" must be a non-negative integer",
                            ));
                        }
                        n as u64
                    }
                };
                Ok(Request::Job(JobRequest {
                    op,
                    name,
                    scheme,
                    seed,
                    source,
                }))
            }
        }
    }
}

fn req_str(v: &JsonValue, key: &str) -> Result<String, WireError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| WireError::new(ErrKind::BadRequest, format!("missing string field {key:?}")))
}

/// The closed set of error kinds an error response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// The payload was not well-formed JSON (or not UTF-8).
    BadJson,
    /// Well-formed JSON that is not a valid request.
    BadRequest,
    /// The frame's declared length exceeded [`MAX_FRAME`].
    Oversized,
    /// Admission queue full — retry later (backpressure, not failure).
    Busy,
    /// The daemon is draining and accepts no new jobs.
    Draining,
    /// The scheme name matched no registered scheme.
    UnknownScheme,
    /// Compilation failed.
    CompileError,
    /// Scheme compression failed.
    CompressError,
    /// Anything else (a builder panic, say).
    Internal,
}

impl ErrKind {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrKind::BadJson => "bad_json",
            ErrKind::BadRequest => "bad_request",
            ErrKind::Oversized => "oversized",
            ErrKind::Busy => "busy",
            ErrKind::Draining => "draining",
            ErrKind::UnknownScheme => "unknown_scheme",
            ErrKind::CompileError => "compile_error",
            ErrKind::CompressError => "compress_error",
            ErrKind::Internal => "internal",
        }
    }
}

/// A typed protocol-level error, rendered as
/// `{"ok":false,"error":{"kind":"...","detail":"..."}}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Which kind.
    pub kind: ErrKind,
    /// Human-readable detail.
    pub detail: String,
}

impl WireError {
    /// A new error.
    pub fn new(kind: ErrKind, detail: impl Into<String>) -> WireError {
        WireError {
            kind,
            detail: detail.into(),
        }
    }

    /// The response body.
    pub fn body(&self) -> String {
        format!(
            r#"{{"ok":false,"error":{{"kind":{},"detail":{}}}}}"#,
            json::escape(self.kind.name()),
            json::escape(&self.detail),
        )
    }
}

/// Lower-hex rendering of bytes.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`to_hex`]; `None` on odd length or non-hex bytes.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let b = s.as_bytes();
    let nib = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    (0..s.len() / 2)
        .map(|i| Some(nib(b[2 * i])? << 4 | nib(b[2 * i + 1])?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(op: JobOp) -> JobRequest {
        JobRequest {
            op,
            name: "li".into(),
            scheme: "full".into(),
            seed: 7,
            source: "x = 1\n".into(),
        }
    }

    #[test]
    fn canonical_round_trips_every_variant() {
        for r in [
            Request::Ping,
            Request::Metrics,
            Request::Shutdown,
            Request::Job(job(JobOp::Compile)),
            Request::Job(job(JobOp::Encode)),
            Request::Job(job(JobOp::Simulate)),
            Request::Job(job(JobOp::Faultsim)),
        ] {
            let bytes = r.canonical().into_bytes();
            let back = Request::parse(&bytes).expect("canonical parses");
            assert_eq!(back, r);
            assert_eq!(back.canonical().into_bytes(), bytes);
        }
    }

    #[test]
    fn parse_is_field_order_insensitive() {
        let shuffled =
            br#"{"source":"x = 1\n","seed":7,"op":"encode","name":"li","scheme":"full"}"#;
        assert_eq!(
            Request::parse(shuffled).unwrap(),
            Request::Job(job(JobOp::Encode))
        );
    }

    #[test]
    fn parse_rejects_garbage_with_typed_errors() {
        let cases: &[(&[u8], ErrKind)] = &[
            (b"not json", ErrKind::BadJson),
            (b"\xff\xfe", ErrKind::BadJson),
            (b"{}", ErrKind::BadRequest),
            (br#"{"op":"transmogrify"}"#, ErrKind::BadRequest),
            (br#"{"op":"encode"}"#, ErrKind::BadRequest),
            (
                br#"{"op":"encode","name":"a","source":3}"#,
                ErrKind::BadRequest,
            ),
            (
                br#"{"op":"encode","name":"a","source":"s","seed":-1}"#,
                ErrKind::BadRequest,
            ),
            (
                br#"{"op":"encode","name":"a","source":"s","seed":1.5}"#,
                ErrKind::BadRequest,
            ),
        ];
        for (payload, kind) in cases {
            let e = Request::parse(payload).expect_err("must reject");
            assert_eq!(
                e.kind,
                *kind,
                "payload {:?}",
                String::from_utf8_lossy(payload)
            );
            // Every error renders as a parseable typed response.
            let body = e.body();
            let v = parse_json(&body).expect("error body is valid JSON");
            assert_eq!(
                v.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(JsonValue::as_str),
                Some(kind.name())
            );
        }
    }

    #[test]
    fn flight_text_separates_ops_and_ignores_irrelevant_fields() {
        let base = job(JobOp::Compile);
        let mut other_scheme = base.clone();
        other_scheme.scheme = "byte".into();
        // compile ignores scheme and seed...
        assert_eq!(base.flight_text(), other_scheme.flight_text());
        // ...encode does not ignore scheme...
        let mut enc = base.clone();
        enc.op = JobOp::Encode;
        let mut enc_byte = other_scheme.clone();
        enc_byte.op = JobOp::Encode;
        assert_ne!(enc.flight_text(), enc_byte.flight_text());
        // ...encode ignores seed...
        let mut enc_seed = enc.clone();
        enc_seed.seed = 8;
        assert_eq!(enc.flight_text(), enc_seed.flight_text());
        // ...and simulate and faultsim keep it (both responses echo it).
        let mut sim_a = base.clone();
        sim_a.op = JobOp::Simulate;
        let mut sim_b = sim_a.clone();
        sim_b.seed = 8;
        assert_ne!(sim_a.flight_text(), sim_b.flight_text());
        sim_a.op = JobOp::Faultsim;
        sim_b.op = JobOp::Faultsim;
        assert_ne!(sim_a.flight_text(), sim_b.flight_text());
        // Length prefixes keep field boundaries: text moved from one
        // field to the next is a different request.
        let mut ab_c = base.clone();
        (ab_c.name, ab_c.source) = ("ab".into(), "c".into());
        let mut a_bc = base.clone();
        (a_bc.name, a_bc.source) = ("a".into(), "bc".into());
        assert_ne!(ab_c.flight_text(), a_bc.flight_text());
        // Distinct ops never share a text.
        let ops = [
            JobOp::Compile,
            JobOp::Encode,
            JobOp::Simulate,
            JobOp::Faultsim,
        ];
        for a in ops {
            for b in ops {
                if a != b {
                    let mut ja = base.clone();
                    ja.op = a;
                    let mut jb = base.clone();
                    jb.op = b;
                    assert_ne!(ja.flight_text(), jb.flight_text(), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn write_frame_makes_one_write_call() {
        /// Counts `write` calls (`write_all` loops over `write`).
        struct Counting(usize, Vec<u8>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                self.1.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(0, Vec::new());
        write_frame(&mut w, b"payload").unwrap();
        assert_eq!(w.0, 1, "header and payload leave in one write");
        assert_eq!(w.1, b"\0\0\0\x07payload");
    }

    #[test]
    fn frames_round_trip_and_read_sequentially() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"third").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"first"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"third"[..]));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed() {
        // Close inside the header.
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Close inside the payload.
        let mut full = Vec::new();
        write_frame(&mut full, b"payload").unwrap();
        let mut r = &full[..full.len() - 2];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Oversized length prefix: payload bytes are never read.
        let huge = ((MAX_FRAME + 1) as u32).to_be_bytes();
        let mut r = &huge[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Oversized(n)) if n == MAX_FRAME + 1
        ));
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
    }
}
