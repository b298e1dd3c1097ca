//! `powerchop-serve`: a dependency-free TCP daemon for PowerChop runs.
//!
//! The daemon speaks newline-delimited JSON on a plain TCP socket —
//! `nc` is a complete client — and serves six ops: `run`, `sweep`,
//! `status`, `health`, `metrics` and `shutdown`. Simulations dispatch
//! onto the bounded [`powerchop_exec::WorkerPool`]; a full queue sheds
//! requests with an explicit 429-style reply instead of queueing
//! unboundedly, and a max-connections gate and per-socket timeouts shed
//! slow or excess clients with typed replies. A panicking run is a typed
//! 500 on a surviving worker; the daemon has no in-process restart path,
//! and `powerchop-cli serve --supervised` restarts a crashed process.
//! Completed reports land in an LRU cache keyed by the checkpoint
//! crate's program + configuration fingerprints, so repeated requests
//! are answered from memory, bit-identically. Every run has a wall-clock
//! deadline, fixed when it is queued and checked at the same step-chunk
//! boundaries the CLI `supervise` machinery uses, and a plain HTTP
//! `GET /metrics` on the same port serves the Prometheus text
//! exposition for `curl` and scrapers. The daemon runs on its event
//! loop thread and its pool workers only.
//!
//! With `--journal-dir` set the daemon is crash-consistent: accepted
//! requests are journaled to an fsync'd write-ahead log before
//! dispatch, in-flight runs spill periodic checkpoints, and cached
//! replies persist to a write-through log, so a `kill -9` loses no
//! accepted work — the restarted daemon replays the journal, resumes
//! interrupted sweeps from their last durable chunk and reports the
//! recovery in its `health` op (see `powerchop-durable`).
//!
//! Module map:
//! - [`json`] — strict RFC 8259 request parsing (re-exported from
//!   `powerchop-telemetry`, which owns both JSON sides).
//! - [`protocol`] — request validation and reply rendering.
//! - [`cache`] — the sharded LRU result cache.
//! - [`durability`] — the one run path (builder, resume, stepping
//!   loop, snapshot metadata) and the journal/spill/result-log glue over
//!   `powerchop-durable`, shared with the CLI.
//! - [`net`] — epoll/eventfd wrappers over libc (the only unsafe code).
//! - [`wheel`] — the timing wheel behind read/write deadlines.
//! - [`server`] — the epoll event loop, dispatch, drain.
//! - `report` — the shared run-report serializer the CLI re-exports.
//!
//! See `DESIGN.md` §9 for the protocol and backpressure policy, §11
//! for the durability model and §14 for the event-loop state machine.

// `deny` rather than `forbid`: the `net` module calls the libc epoll
// and eventfd functions (the workspace is dependency-free) and opts in
// explicitly; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod durability;
pub mod net;
pub mod protocol;
mod report;
pub mod server;
pub mod wheel;

pub use powerchop_telemetry::json;
pub use protocol::{
    error_reply, fault_config, parse_request, strip_trace_id, ReqError, Request, RunSpec,
    DEFAULT_FAULT_SEED,
};
pub use report::report_to_json;
pub use server::{Server, ServerConfig};
