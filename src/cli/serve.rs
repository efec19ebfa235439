//! `tepic-ccd`: the compression-as-a-service daemon (DESIGN.md §17).
//!
//! A persistent std-only TCP server over the length-prefixed JSON
//! protocol: `compile`/`encode`/`simulate`/`faultsim` jobs from many
//! concurrent clients are coalesced per flight key, admitted through a
//! bounded queue (explicit `busy` past the depth threshold), run by
//! `--jobs` long-lived workers, and served straight from the engine's
//! content-addressed artifact cache when warm. `metrics` dumps the
//! daemon's registry; `shutdown` drains gracefully (admitted jobs
//! finish, new connections are refused, the process exits 0).
//!
//! ```text
//! --addr <host:port>   listen address (default 127.0.0.1:0, an ephemeral port)
//! --jobs <N>           worker threads (default: all cores; CCC_JOBS)
//! --queue-depth <N>    admitted jobs beyond which requests get `busy` (default 64)
//! --cache-dir <dir>    cache location (default target/ccc-artifacts; CCC_CACHE_DIR)
//! --no-cache           serve without the artifact cache (CCC_NO_CACHE=1)
//! --timeout-ms <N>     per-connection read and write timeout
//! --port-file <file>   write the bound address here, atomically
//! ```
//!
//! The bound address is printed on stdout and, with `--port-file`,
//! written to a file scripts can poll. The engine is built like the
//! one-shot CLI's ([`super::EngineArgs`]), so a daemon started after a
//! `tepic-cc bench` run serves those artifacts warm.

use super::flags::{parsed, positive, Command, Flag, PATH, POSITIVE};
use super::{fail, EngineArgs, Env, Exit, Outcome};
use crate::bench::engine::cache::write_atomic;
use crate::bench::serve::{ServeConfig, ServerHandle};
use std::time::Duration;

#[derive(Default)]
pub(crate) struct ServeOpts {
    config: ServeConfig,
    pub(crate) engine: EngineArgs,
    port_file: Option<String>,
}

type F = Flag<ServeOpts>;

pub(crate) fn command() -> Command<ServeOpts> {
    let timeout = |v: &str| parsed(v).filter(|&ms| ms > 0).map(Duration::from_millis);
    let mut flags = Vec::from(EngineArgs::flags(|o: &mut ServeOpts| &mut o.engine));
    flags.extend([
        F::value("--addr", "<host:port>", "an address", parsed, |o| {
            &mut o.config.addr
        }),
        F::value("--queue-depth", "<N>", POSITIVE, positive, |o| {
            &mut o.config.queue_depth
        }),
        F::some("--timeout-ms", "<N>", POSITIVE, timeout, |o| {
            &mut o.config.read_timeout
        }),
        F::some("--port-file", "<file>", PATH, parsed, |o| &mut o.port_file),
    ]);
    Command {
        name: "tepic-ccd",
        positional: None,
        flags,
    }
}

/// Runs `tepic-ccd` until a `shutdown` request drains it.
pub(crate) fn run(args: &[String], env: Env) -> Outcome {
    let (o, _) = command().parse(args).map_err(Exit::Usage)?;
    let engine = o.engine.build(env);
    let jobs = engine.jobs();
    // --timeout-ms sets both timeouts; their defaults are equal.
    let config = ServeConfig {
        jobs,
        write_timeout: o.config.read_timeout,
        ..o.config
    };
    let handle =
        ServerHandle::start(engine, config).map_err(|e| fail(format!("bind failed: {e}")))?;
    let addr = handle.local_addr();
    println!("tepic-ccd: listening on {addr} ({jobs} jobs)");
    if let Some(pf) = &o.port_file {
        write_atomic(pf, addr.to_string().as_bytes())
            .map_err(|e| fail(format!("cannot write {pf}: {e}")))?;
    }
    // Blocks until a shutdown request drains the daemon.
    handle.join();
    println!("tepic-ccd: drained; exiting");
    Ok(())
}
