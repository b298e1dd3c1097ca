//! The TCP daemon: epoll event loop, connection handling, job dispatch.
//!
//! One thread drives every connection through a raw epoll event loop
//! (see [`crate::net`]): non-blocking accepts, per-connection state
//! machines with incremental line framing, and EPOLLOUT-driven partial
//! writes. A connection is never owned by a thread; slow clients cost
//! one `Conn` struct, not a stack.
//!
//! Simulations dispatch onto the bounded [`WorkerPool`]; when the queue
//! is full a `run` is shed immediately with a 429 reply instead of
//! queueing unboundedly — explicit backpressure the client can see and
//! retry against. A dispatched run parks its connection in an in-flight
//! state (its socket stops being polled for input, so a pipelined flood
//! backs up into the kernel buffer). The job's completion callback
//! settles the outcome on the worker that ran it — counters, cache and
//! journal — then hands the row back to the loop over an
//! eventfd wakeup. Sweeps and boot recovery are loop-owned batches: the
//! loop submits their rows until the pool answers `Busy` and resubmits
//! when a completion arrives. The daemon runs on the loop thread and the
//! pool workers, and on no other thread. A run's panic becomes a typed
//! 500 on a surviving worker; anything worse aborts the process, and
//! `serve --supervised` plus boot recovery restart it (crash-only: there
//! is no in-process restart path).
//!
//! Every run gets a wall-clock deadline, fixed as an absolute instant
//! when its job is submitted, so time spent waiting for a worker can
//! never buy extra execution time past the client's deadline. The run
//! checks it at every step-chunk boundary, so a runaway request yields a
//! 408 reply instead of pinning a worker forever.
//!
//! Connections are hardened end to end. Each connection carries its own
//! read and write deadlines in place of per-socket kernel timeouts, and
//! the loop sleeps until the earliest one. A client that cannot produce
//! a request line within the read timeout of the daemon starting to wait
//! for it gets a typed 408 and is disconnected; one whose socket makes
//! no flush progress within the write timeout is disconnected outright.
//! `WouldBlock` is never treated as a timeout: on a non-blocking socket
//! it only means "no data yet", and timeouts are classified exclusively
//! by deadline expiry. A bounded per-connection outbox caps what a
//! non-reading client can queue; past the cap the connection is closed
//! with a typed 408 — replies are never truncated mid-line. A
//! max-connections gate sheds excess connections with a typed 503.
//!
//! Completed reports are cached in a sharded LRU keyed by
//! [`powerchop_checkpoint::run_key`] over the program and configuration
//! fingerprints, so a repeated request is served from memory —
//! bit-identical, visible in the `serve_cache_hits_total` counter.
//!
//! A plain HTTP `GET /metrics` on the same port returns the Prometheus
//! text exposition, so `curl` and a Prometheus scraper both work without
//! speaking the JSON protocol.
//!
//! Shutdown is in-protocol (`{"op":"shutdown"}`) because the workspace
//! is dependency-free and cannot install a SIGTERM handler: the daemon
//! stops accepting connections, replies 503 to new work, waits for
//! connected clients to finish, and drains the pool before exiting.
//! See `DESIGN.md` §14 for the event-loop state machine.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use powerchop::{RunConfig, RunReport, SimError};
use powerchop_exec::{JobPanic, SubmitError, WorkerPool};
use powerchop_telemetry::export::JsonWriter;
use powerchop_telemetry::{
    format_trace_id, trace_id, MetricsRegistry, Phase, SpanLedger, TelemetryConfig, Tracer,
};
use powerchop_workloads::Scale;

use crate::cache::{ResultCache, ShardedCache};
use crate::durability::{self, Durability, Prepared, SpillPlan};
use crate::net::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::protocol::{
    error_reply, parse_request, run_reply, sweep_reply, Limits, ReqError, Request, RunSpec,
    SweepOutcome,
};
use crate::report::report_to_json;

/// Everything that shapes a daemon instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to bind (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker thread count (`None` = `POWERCHOP_JOBS` or CPU count).
    /// Also the result-cache shard count.
    pub jobs: Option<usize>,
    /// Jobs that may wait in the queue before requests are shed with 429.
    pub queue_depth: usize,
    /// LRU result-cache capacity (0 disables caching).
    pub cache_entries: usize,
    /// Per-run wall-clock deadline cap in milliseconds.
    pub deadline_ms: u64,
    /// Largest accepted request line in bytes.
    pub max_request_bytes: usize,
    /// Largest accepted instruction budget per run.
    pub max_budget: u64,
    /// Concurrent connections admitted before new ones are shed with a
    /// typed 503 (`overloaded`).
    pub max_connections: usize,
    /// Read deadline in milliseconds (0 disables): a client that cannot
    /// produce a full request line within it gets a typed 408
    /// (`slow-client`) and is disconnected. The clock starts when the
    /// daemon starts waiting for the line (at accept, after the previous
    /// line, or after a run's reply) and partial input never restarts
    /// it. Enforced by the connection's own deadline, never by
    /// `WouldBlock` classification.
    pub read_timeout_ms: u64,
    /// Write deadline in milliseconds (0 disables): a client whose
    /// socket makes no flush progress within it is disconnected.
    pub write_timeout_ms: u64,
    /// Bytes of unflushed replies one connection may queue before it is
    /// declared a slow consumer and closed with a typed 408. A single
    /// reply into an empty outbox is always allowed, so the per-
    /// connection memory bound is `max(cap, largest single reply)`.
    pub max_outbox_bytes: usize,
    /// Directory for the write-ahead intent journal and checkpoint
    /// spills. `None` disables crash consistency entirely.
    pub journal_dir: Option<String>,
    /// Directory for the persistent result-cache log. `None` keeps the
    /// cache memory-only.
    pub cache_dir: Option<String>,
    /// Retired-instruction interval between checkpoint spills of
    /// in-flight runs (only meaningful with `journal_dir` set).
    pub spill_every: u64,
    /// Structured JSONL access-log path (`None` disables the log).
    /// One RFC 8259 record per request, carrying the trace id, op,
    /// status, cache outcome and the full span breakdown.
    pub access_log: Option<String>,
    /// Requests slower than this many milliseconds end to end are
    /// promoted to a detailed access-log record (`None` never
    /// promotes; `Some(0)` promotes everything).
    pub slow_ms: Option<u64>,
    /// Trace-id seed. `None` derives a random per-process seed; fixing
    /// it makes the trace-id sequence fully deterministic.
    pub seed: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7077".into(),
            jobs: None,
            queue_depth: 16,
            cache_entries: 64,
            deadline_ms: 120_000,
            max_request_bytes: 1 << 20,
            max_budget: 1_000_000_000,
            max_connections: 64,
            read_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            max_outbox_bytes: 1 << 20,
            journal_dir: None,
            cache_dir: None,
            spill_every: 2_000_000,
            access_log: None,
            slow_ms: None,
            seed: None,
        }
    }
}

/// Per-op latency histogram keys. Labels live inside the metric key;
/// the exporter splits them back out into Prometheus label syntax.
fn op_duration_metric(op: &str) -> &'static str {
    match op {
        "run" => r#"serve_request_duration_ms{op="run"}"#,
        "sweep" => r#"serve_request_duration_ms{op="sweep"}"#,
        "status" => r#"serve_request_duration_ms{op="status"}"#,
        "health" => r#"serve_request_duration_ms{op="health"}"#,
        "metrics" => r#"serve_request_duration_ms{op="metrics"}"#,
        "shutdown" => r#"serve_request_duration_ms{op="shutdown"}"#,
        _ => r#"serve_request_duration_ms{op="malformed"}"#,
    }
}

/// Quantile gauges derived from the latency histograms on every
/// exposition: (histogram key, gauge key, q). Only the two ops with
/// real compute behind them get quantile gauges; scrapers can derive
/// any quantile for the rest from the `_bucket` series.
const QUANTILE_GAUGES: [(&str, &str, f64); 8] = [
    (
        r#"serve_request_duration_ms{op="run"}"#,
        r#"serve_request_duration_ms_p50{op="run"}"#,
        0.50,
    ),
    (
        r#"serve_request_duration_ms{op="run"}"#,
        r#"serve_request_duration_ms_p90{op="run"}"#,
        0.90,
    ),
    (
        r#"serve_request_duration_ms{op="run"}"#,
        r#"serve_request_duration_ms_p99{op="run"}"#,
        0.99,
    ),
    (
        r#"serve_request_duration_ms{op="run"}"#,
        r#"serve_request_duration_ms_p999{op="run"}"#,
        0.999,
    ),
    (
        r#"serve_request_duration_ms{op="sweep"}"#,
        r#"serve_request_duration_ms_p50{op="sweep"}"#,
        0.50,
    ),
    (
        r#"serve_request_duration_ms{op="sweep"}"#,
        r#"serve_request_duration_ms_p90{op="sweep"}"#,
        0.90,
    ),
    (
        r#"serve_request_duration_ms{op="sweep"}"#,
        r#"serve_request_duration_ms_p99{op="sweep"}"#,
        0.99,
    ),
    (
        r#"serve_request_duration_ms{op="sweep"}"#,
        r#"serve_request_duration_ms_p999{op="sweep"}"#,
        0.999,
    ),
];

/// Nanoseconds elapsed since `t`, saturating instead of wrapping.
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A random-enough per-process trace seed without any new dependency:
/// `RandomState` is seeded from OS entropy once per process.
fn entropy_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

/// Everything one request accumulates on its way through the daemon:
/// the trace id minted at accept, the span ledger every phase records
/// into, and the classification the access log and histograms need.
struct RequestCtx {
    trace: u64,
    ledger: SpanLedger,
    op: &'static str,
    status: u16,
    cached: bool,
    bench: Option<String>,
    /// Flight-recorder events captured by the per-run tracer (only
    /// when the access log is enabled; surfaced on slow records).
    trace_events: u64,
}

impl RequestCtx {
    fn new(trace: u64) -> Self {
        Self {
            trace,
            ledger: SpanLedger::default(),
            op: "malformed",
            status: 200,
            cached: false,
            bench: None,
            trace_events: 0,
        }
    }
}

/// Locks a mutex, riding through poisoning: a panicked holder cannot
/// corrupt the metrics invariants we rely on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the workers' completion callbacks share with the event loop.
/// Everything else the daemon tracks is plain `EventLoop` data, owned
/// by the loop thread.
struct State {
    cache: ShardedCache,
    metrics: Mutex<MetricsRegistry>,
    /// Crash-consistency machinery (`None` when `--journal-dir` is
    /// unset: the daemon runs memory-only).
    durable: Option<Arc<Durability>>,
    /// Completion callbacks send settled rows here, then ring `wake`;
    /// the event loop owns the receiving end.
    done_tx: mpsc::Sender<Completion>,
    wake: WakeFd,
    /// Whether runs carry an attached flight recorder (only when
    /// someone can see the result: the access log is on).
    traced: bool,
}

impl State {
    fn count(&self, name: &'static str) {
        lock(&self.metrics).counter_add(name, 1);
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    addr: SocketAddr,
    el: EventLoop,
}

impl Server {
    /// Binds the listener and spins up the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (`EADDRINUSE`, bad address, ...).
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let jobs = powerchop_exec::resolve_jobs(cfg.jobs);
        let mut metrics = MetricsRegistry::new();
        // Seed the resilience and recovery counters at zero so a
        // metrics scrape sees them before the first
        // retry/shed/recovery ever happens.
        for name in [
            "serve_retries_total",
            "serve_slow_client_disconnects_total",
            "serve_conn_rejected_total",
            "serve_epoll_wakeups_total",
            "serve_backpressure_disconnects_total",
            "serve_recoveries_total",
            "serve_journal_replayed_total",
            "serve_torn_tail_discards_total",
            "serve_cache_reloads_total",
            // JIT counters aggregate across every completed run; seeded so
            // a scrape on a JIT-off (or freshly booted) daemon still shows
            // the full series shape.
            "jit_translations_compiled",
            "jit_exec_hits",
            "jit_fallbacks",
            "jit_code_bytes",
        ] {
            metrics.counter_add(name, 0);
        }
        // Pre-seed the per-op latency histograms and the in-flight
        // gauge too: a scrape right after boot sees every series at
        // zero, shape-complete, before the first request ever lands.
        for op in [
            "run",
            "sweep",
            "status",
            "health",
            "metrics",
            "shutdown",
            "malformed",
        ] {
            metrics.histogram_seed(op_duration_metric(op));
        }
        metrics.gauge_set("serve_inflight_requests", 0.0);
        metrics.gauge_set("serve_outbox_bytes", 0.0);
        metrics.set_help(
            "serve_request_duration_ms",
            "End-to-end request latency in milliseconds, by op.",
        );
        metrics.set_help(
            "serve_inflight_requests",
            "Requests currently inside dispatch.",
        );
        metrics.set_help("serve_requests_total", "Request lines received.");
        metrics.set_help("serve_runs_total", "Simulations completed successfully.");
        metrics.set_help(
            "serve_cache_hits_total",
            "Run requests answered bit-identically from the result cache.",
        );
        metrics.set_help(
            "serve_epoll_wakeups_total",
            "Event-loop wakeups that delivered at least one ready event.",
        );
        metrics.set_help(
            "serve_outbox_bytes",
            "Reply bytes queued for slow clients across all connections.",
        );
        metrics.set_help(
            "serve_backpressure_disconnects_total",
            "Slow consumers disconnected for exceeding the per-connection outbox cap.",
        );
        // The access log is append-opened at bind, before anything is
        // served: if the path is bad the daemon fails to boot loudly
        // instead of silently dropping every record.
        let access = match &cfg.access_log {
            Some(path) => Some(BufWriter::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        // Boot-time recovery: replay the journal and reload the
        // persistent cache before the listener serves anything, so the
        // first request already sees the recovered world. The reload
        // path fills a flat cache which is then redistributed across
        // the shards in recency order.
        let mut reloaded = ResultCache::new(cfg.cache_entries);
        let mut durable = None;
        let mut pending = Vec::new();
        if let Some(dir) = &cfg.journal_dir {
            let boot = durability::boot(
                std::path::Path::new(dir),
                cfg.cache_dir.as_deref().map(std::path::Path::new),
                cfg.spill_every,
                &mut reloaded,
            )?;
            let r = &boot.durability.recovery;
            metrics.counter_add("serve_recoveries_total", u64::from(!r.clean_boot));
            metrics.counter_add("serve_journal_replayed_total", r.journal_replayed);
            metrics.counter_add("serve_torn_tail_discards_total", r.torn_discards);
            metrics.counter_add("serve_cache_reloads_total", r.cache_reloaded);
            durable = Some(boot.durability);
            pending = boot.pending;
        }
        let cache = ShardedCache::new(cfg.cache_entries, jobs);
        cache.absorb(reloaded);
        let (done_tx, done_rx) = mpsc::channel();
        let state = Arc::new(State {
            cache,
            metrics: Mutex::new(metrics),
            durable,
            done_tx,
            wake: WakeFd::new()?,
            traced: access.is_some(),
        });
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)?;
        epoll.add(state.wake.raw(), EPOLLIN, TOK_WAKE)?;
        let mut el = EventLoop {
            cfg: ServerConfig {
                max_connections: cfg.max_connections.max(1),
                max_outbox_bytes: cfg.max_outbox_bytes.max(1),
                ..cfg.clone()
            },
            state,
            pool: WorkerPool::new(jobs, cfg.queue_depth),
            listener,
            epoll,
            done_rx,
            conns: BTreeMap::new(),
            next_token: TOK_FIRST_CONN,
            batches: HashMap::new(),
            next_batch: 0,
            recovery: 0..0,
            parked: BTreeSet::new(),
            draining: false,
            connections: 0,
            inflight_requests: 0,
            outbox_bytes: 0,
            epoch: Instant::now(),
            trace_seed: cfg.seed.unwrap_or_else(entropy_seed),
            traces: 0,
            access,
        };
        // Journaled intents with no completion record become loop-owned
        // batches, resumed once the loop runs.
        for intent in pending {
            let specs = intent
                .specs
                .iter()
                .filter_map(|rec| durability::record_to_spec(rec, cfg.deadline_ms))
                .collect();
            let owner = Owner::Recovery {
                trace: intent.trace,
                spilled: intent.spilled,
            };
            el.batches
                .insert(el.next_batch, Batch::new(owner, Some(intent.id), specs));
            el.next_batch += 1;
        }
        el.recovery = 0..el.next_batch;
        Ok(Self { addr, el })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a shutdown request drains the daemon.
    ///
    /// Blocks the calling thread. After a `{"op":"shutdown"}` request:
    /// no new connections are accepted, open connections are served
    /// until they close (clients still holding theirs get 503 for new
    /// work), and every run already on the pool lands before returning.
    ///
    /// # Errors
    ///
    /// Propagates event-loop I/O failures (epoll itself breaking);
    /// per-connection errors only terminate that connection.
    pub fn run(mut self) -> std::io::Result<()> {
        self.el.serve()
    }
}

/// Listener token in the epoll interest set.
const TOK_LISTENER: u64 = 0;
/// Wakeup-eventfd token.
const TOK_WAKE: u64 = 1;
/// First connection token; tokens grow monotonically and are never
/// reused, so a stale completion can never hit a new client.
const TOK_FIRST_CONN: u64 = 2;
/// Bytes read per `read` call on a ready socket.
const READ_CHUNK: usize = 16 * 1024;
/// Ready events drained per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 256;
/// Longest HTTP header line accepted before it is consumed as-is.
const HTTP_HEADER_LINE_MAX: usize = 8 * 1024;
/// Most HTTP header lines drained before the response is sent anyway.
const HTTP_HEADER_LINES_MAX: usize = 64;

/// What the loop should do with a connection after an event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Keep,
    Close,
}

/// Where a connection is in its request/reply cycle.
enum ConnPhase {
    /// Framing request lines out of `inbuf`.
    Reading,
    /// A run or sweep is on the pool; input polling is suspended so a
    /// pipelined flood backs up into the kernel socket buffer.
    InFlight,
    /// Draining HTTP headers after a `GET` line; replies and closes at
    /// the blank line.
    Http { path: String, lines: usize },
}

/// One enqueued reply awaiting its flush: when `total_flushed` crosses
/// `flush_at` the request is settled into the histograms and access
/// log, with the respond span covering enqueue-to-flush.
struct SettleMark {
    flush_at: u64,
    ctx: RequestCtx,
    respond_started: Instant,
}

/// Per-connection state machine. No thread, no kernel timeouts — just
/// buffers, deadlines, and a phase.
struct Conn {
    stream: TcpStream,
    fd: i32,
    /// Bytes received but not yet framed into lines.
    inbuf: Vec<u8>,
    /// Rendered replies not yet (fully) written; `out_sent` is the
    /// flush cursor into it.
    outbox: Vec<u8>,
    out_sent: usize,
    /// Lifetime byte counters; `SettleMark::flush_at` indexes into
    /// this stream, so partial flushes settle the right requests.
    total_enqueued: u64,
    total_flushed: u64,
    settling: VecDeque<SettleMark>,
    phase: ConnPhase,
    /// When the daemon started waiting for the current request line.
    accept_started: Instant,
    /// Absolute ms deadline for the next complete request line, armed
    /// once per line and never moved by partial input (`None` =
    /// disarmed: a run in flight, or a close after the flush).
    read_deadline: Option<u64>,
    /// Absolute ms deadline for flush progress, moved on each write
    /// (`None` while the socket accepts everything queued).
    write_deadline: Option<u64>,
    /// Close as soon as the outbox drains (oversize line, HTTP reply,
    /// slow-client 408, backpressure trip).
    close_after_flush: bool,
    /// The peer half-closed its send side; pending replies still
    /// flush, then the connection closes.
    eof: bool,
    /// The epoll interest mask currently registered.
    interest: u32,
    /// This connection's contribution to the `serve_outbox_bytes`
    /// gauge (diff-updated).
    gauge_reported: u64,
}

impl Conn {
    fn new(stream: TcpStream, fd: i32) -> Self {
        Self {
            stream,
            fd,
            inbuf: Vec::new(),
            outbox: Vec::new(),
            out_sent: 0,
            total_enqueued: 0,
            total_flushed: 0,
            settling: VecDeque::new(),
            phase: ConnPhase::Reading,
            accept_started: Instant::now(),
            read_deadline: None,
            write_deadline: None,
            close_after_flush: false,
            eof: false,
            interest: EPOLLIN,
            gauge_reported: 0,
        }
    }

    fn out_pending(&self) -> usize {
        self.outbox.len() - self.out_sent
    }

    /// Nothing owed in either direction: safe to close on EOF.
    fn idle(&self) -> bool {
        !matches!(self.phase, ConnPhase::InFlight)
            && self.out_pending() == 0
            && self.settling.is_empty()
            && self.inbuf.is_empty()
    }
}

/// One settled row, sent by the completion callback of the worker that
/// ran it.
struct Completion {
    /// The batch the row belongs to, and its index in the roster.
    slot: (u64, usize),
    /// The report, or the typed error the row ended with.
    outcome: SweepOutcome,
    /// Worker-side spans: queue, compute (with its simulated cycles),
    /// and the callback's cache and journal work.
    spans: SpanLedger,
    /// Flight-recorder events the run's tracer captured.
    trace_events: u64,
}

/// Who a batch answers to.
enum Owner {
    /// A `run` (`lone`: one row, its own intent) or a `sweep` on
    /// connection `token`.
    Client {
        token: u64,
        ctx: RequestCtx,
        lone: bool,
    },
    /// Boot recovery of one journaled intent: the trace id of the
    /// request that created it, and each row's last journaled spill.
    Recovery {
        trace: u64,
        spilled: BTreeMap<String, u64>,
    },
}

/// A request whose rows are on, or waiting for, the pool: a lone `run`,
/// a `sweep`, or a journaled intent that boot recovery resumes.
struct Batch {
    owner: Owner,
    /// The journaled intent the rows belong to.
    intent: Option<u64>,
    /// The roster, in order.
    rows: Vec<Row>,
    /// Rows before `next` are dispatched or settled.
    next: usize,
    /// Dispatched rows whose completions have not landed.
    outstanding: usize,
}

impl Batch {
    fn new(owner: Owner, intent: Option<u64>, specs: Vec<RunSpec>) -> Self {
        let rows = specs
            .into_iter()
            .map(|spec| Row {
                spec,
                ready: None,
                outcome: SweepOutcome::Failed(ReqError::internal("row never settled")),
            })
            .collect();
        Self {
            owner,
            intent,
            rows,
            next: 0,
            outstanding: 0,
        }
    }
}

/// One roster entry: its spec, the prepared run once the cache lookup
/// missed (kept so a resubmission after `Busy` neither rebuilds nor
/// re-counts it), and its outcome.
struct Row {
    spec: RunSpec,
    ready: Option<Arc<Prepared>>,
    outcome: SweepOutcome,
}

/// The epoll event loop: every connection, batch and loop counter lives
/// here, on one thread. Compute never runs on it.
struct EventLoop {
    /// The daemon's configuration, both caps clamped to at least 1.
    cfg: ServerConfig,
    state: Arc<State>,
    pool: WorkerPool,
    listener: TcpListener,
    epoll: Epoll,
    done_rx: mpsc::Receiver<Completion>,
    /// Live connections by token; iteration runs in accept order.
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    /// Runs, sweeps and recovered intents with rows still owed; the
    /// drain waits for none.
    batches: HashMap<u64, Batch>,
    next_batch: u64,
    /// Ids of the recovery batches not yet finished, one per journaled
    /// intent in journal order; only the first is in progress.
    recovery: Range<u64>,
    /// Batches holding a row the pool answered `Busy` to, oldest first.
    /// A full queue always holds a job whose completion is coming, so
    /// every completion, and every new batch (which must not jump the
    /// line), re-attempts them: nothing sleeps and no timer is armed.
    parked: BTreeSet<u64>,
    /// Set by `shutdown`: new work is refused and the loop returns once
    /// every connection and batch is gone.
    draining: bool,
    /// Connections currently admitted (the max-connections gate; the
    /// one being handled sits outside `conns` but still counts).
    connections: usize,
    /// Requests currently inside dispatch (the
    /// `serve_inflight_requests` gauge).
    inflight_requests: usize,
    /// Unflushed reply bytes across every connection (the
    /// `serve_outbox_bytes` gauge).
    outbox_bytes: u64,
    /// Zero point of the daemon's millisecond clock.
    epoch: Instant,
    /// Seed of the SplitMix64 trace-id sequence (fixed by `--seed`,
    /// OS entropy otherwise).
    trace_seed: u64,
    /// Requests traced so far: the sequence index fed to [`trace_id`].
    traces: u64,
    /// The JSONL access log, append-opened at bind (`None` when
    /// `--access-log` is unset).
    access: Option<BufWriter<File>>,
}

impl EventLoop {
    /// The loop behind `Server::run`: returns once a drain completes.
    fn serve(&mut self) -> std::io::Result<()> {
        // Journaled work resumes as a loop-owned batch while the listener
        // serves new clients; `health` reports `recovery_active` until
        // the backlog drains. Draining stops recovery from submitting
        // (the rest stays journaled for the next boot), and the loop
        // only exits once every row it put on the pool has landed, so
        // the pool is idle by then.
        self.advance_recovery();
        let mut events = vec![EpollEvent::default(); EVENTS_PER_WAIT];
        let mut listening = true;
        loop {
            if self.draining {
                if listening {
                    self.epoll.del(self.listener.as_raw_fd());
                    listening = false;
                }
                self.advance_recovery();
                if self.conns.is_empty() && self.batches.is_empty() {
                    return Ok(());
                }
            }
            let timeout = match self.next_deadline() {
                Some(d) => i32::try_from(d.saturating_sub(self.now_ms())).unwrap_or(i32::MAX),
                // Nothing armed: sleep until an event. While draining, tick
                // periodically as cheap insurance against a missed wakeup.
                None if self.draining => 100,
                None => -1,
            };
            let n = self.epoll.wait(&mut events, timeout)?;
            if n > 0 {
                self.state.count("serve_epoll_wakeups_total");
            }
            for ev in &events[..n] {
                match ev.data {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKE => self.state.wake.drain(),
                    token => self.on_conn_event(token, ev.events),
                }
            }
            while let Ok(done) = self.done_rx.try_recv() {
                self.on_completion(done);
            }
            self.expire_deadlines();
        }
    }

    /// Milliseconds since the daemon booted (the deadline clock, uptime
    /// and access-log timestamps).
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Mints the next trace id: a SplitMix64 stream over the seed, so
    /// a fixed `--seed` reproduces the exact id sequence.
    fn next_trace(&mut self) -> u64 {
        let id = trace_id(self.trace_seed, self.traces);
        self.traces += 1;
        id
    }

    /// Accepts until the backlog is dry. Transient accept failures
    /// (aborted handshakes, fd pressure) lose at most that connection.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("powerchop-serve: accept error: {e}");
                    return;
                }
            }
        }
    }

    /// Admits one accepted socket through the max-connections gate and
    /// into the interest set, or sheds it with one typed 503 line.
    fn admit(&mut self, mut stream: TcpStream) {
        if self.draining || stream.set_nonblocking(true).is_err() {
            return;
        }
        if self.connections >= self.cfg.max_connections {
            self.state.count("serve_conn_rejected_total");
            let e = ReqError::overloaded(self.cfg.max_connections);
            // Even a shed connection gets a trace id: the 503 line is
            // the only artifact the client has to report. Best effort —
            // the freshly-accepted socket's send buffer is empty, so
            // one line fits without blocking.
            let _ = writeln!(stream, "{}", error_reply(&e, self.next_trace()));
            return;
        }
        let fd = stream.as_raw_fd();
        let token = self.next_token;
        self.next_token += 1;
        if self.epoll.add(fd, EPOLLIN, token).is_err() {
            return;
        }
        self.connections += 1;
        self.state.count("serve_connections_total");
        let mut conn = Conn::new(stream, fd);
        self.await_line(&mut conn);
        self.conns.insert(token, conn);
    }

    /// One readiness report for a connection: flush first (freeing
    /// outbox space), then read, then run the state machine.
    fn on_conn_event(&mut self, token: u64, mask: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut fate = Fate::Keep;
        if mask & EPOLLERR != 0 {
            fate = Fate::Close;
        }
        if fate == Fate::Keep && mask & EPOLLOUT != 0 {
            fate = self.try_flush(&mut conn);
        }
        if fate == Fate::Keep && mask & (EPOLLIN | EPOLLHUP) != 0 {
            fate = self.fill_inbuf(&mut conn);
        }
        self.finish(token, conn, fate);
    }

    /// Reads everything currently available. `WouldBlock` here means
    /// exactly "no more data yet" — never a timeout; timeouts are the
    /// deadlines' verdict alone, and partial input never moves one.
    fn fill_inbuf(&mut self, conn: &mut Conn) -> Fate {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            // Bounded: once a full oversized line could be framed, stop
            // reading and let the framer reject it.
            if conn.inbuf.len() > self.cfg.max_request_bytes + READ_CHUNK {
                return Fate::Keep;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    return Fate::Keep;
                }
                Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Fate::Keep,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    // A reset only loses that client's connection; the
                    // daemon itself never goes down with it.
                    eprintln!("powerchop-serve: connection error: {e}");
                    return Fate::Close;
                }
            }
        }
    }

    /// Runs the state machine after any event: frame and process lines,
    /// flush output, then close or re-register interest.
    fn finish(&mut self, token: u64, mut conn: Conn, fate: Fate) {
        let fate = if fate == Fate::Close {
            Fate::Close
        } else {
            self.drain_lines(token, &mut conn);
            self.try_flush(&mut conn)
        };
        if fate == Fate::Close || (conn.eof && conn.idle()) {
            self.close_conn(conn);
            return;
        }
        self.sync_interest(token, &mut conn);
        self.conns.insert(token, conn);
    }

    /// Frames complete lines out of `inbuf` and processes each, until
    /// input is exhausted or the connection leaves the reading phase.
    fn drain_lines(&mut self, token: u64, conn: &mut Conn) {
        loop {
            if conn.close_after_flush || matches!(conn.phase, ConnPhase::InFlight) {
                return;
            }
            if matches!(conn.phase, ConnPhase::Http { .. }) {
                if !self.drain_http_line(conn) {
                    return;
                }
                continue;
            }
            match conn.inbuf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    let line: Vec<u8> = conn.inbuf.drain(..=i).collect();
                    let content = &line[..line.len() - 1];
                    if content.len() > self.cfg.max_request_bytes {
                        self.reject_oversize(conn);
                    } else {
                        self.process_request_line(token, conn, content);
                    }
                }
                None => {
                    if conn.inbuf.len() > self.cfg.max_request_bytes {
                        self.reject_oversize(conn);
                        continue;
                    }
                    // The peer finished sending with an unterminated
                    // final line: process it as the last request.
                    if conn.eof && !conn.inbuf.is_empty() {
                        let line = std::mem::take(&mut conn.inbuf);
                        self.process_request_line(token, conn, &line);
                        continue;
                    }
                    return;
                }
            }
        }
    }

    /// Consumes one buffered HTTP header line; on the blank terminator
    /// (or the header bounds) enqueues the response and flags the
    /// close. Returns whether the drain loop should keep going.
    fn drain_http_line(&mut self, conn: &mut Conn) -> bool {
        let newline = conn.inbuf.iter().position(|&b| b == b'\n');
        let ConnPhase::Http { lines, .. } = &mut conn.phase else {
            return false;
        };
        let done = match newline {
            Some(i) => {
                let blank = i == 0 || (i == 1 && conn.inbuf[0] == b'\r');
                conn.inbuf.drain(..=i);
                *lines += 1;
                blank || *lines >= HTTP_HEADER_LINES_MAX
            }
            // A header line past the bound is consumed as one line,
            // mirroring the old bounded reader.
            None if conn.inbuf.len() >= HTTP_HEADER_LINE_MAX => {
                conn.inbuf.clear();
                *lines += 1;
                *lines >= HTTP_HEADER_LINES_MAX
            }
            // Peer finished sending without a blank line: answer what
            // we have.
            None if conn.eof => true,
            None => return false,
        };
        if !done {
            return true;
        }
        let phase = std::mem::replace(&mut conn.phase, ConnPhase::Reading);
        let ConnPhase::Http { path, .. } = phase else {
            return false;
        };
        let response = self.http_response(&path);
        conn.inbuf.clear();
        conn.read_deadline = None;
        conn.close_after_flush = true;
        self.enqueue_bytes(conn, response.as_bytes(), None);
        false
    }

    /// The request a framed line starts: mints its trace id, claims the
    /// in-flight gauge and closes its accept span. Every exit settles
    /// all three when its reply flushes (or the conn dies). The daemon
    /// now waits for the next line.
    fn start_request(&mut self, conn: &mut Conn) -> RequestCtx {
        let mut ctx = RequestCtx::new(self.next_trace());
        self.inflight_requests += 1;
        ctx.ledger
            .record(Phase::Accept, ns_since(conn.accept_started));
        self.await_line(conn);
        ctx
    }

    /// One framed request line: count it, classify it (HTTP vs JSON),
    /// mint the request context, and dispatch.
    fn process_request_line(&mut self, token: u64, conn: &mut Conn, content: &[u8]) {
        self.state.count("serve_requests_total");
        // An HTTP GET on the JSON port serves /metrics, so curl and
        // Prometheus scrapers work without speaking the protocol.
        // HTTP requests are not protocol requests: no trace, no record.
        if content.starts_with(b"GET ") {
            self.state.count("serve_http_requests_total");
            let path = content
                .split(|&c| c == b' ')
                .nth(1)
                .and_then(|p| std::str::from_utf8(p).ok())
                .unwrap_or("")
                .to_owned();
            conn.phase = ConnPhase::Http { path, lines: 0 };
            return;
        }
        let mut ctx = self.start_request(conn);
        let parse_started = Instant::now();
        let Ok(text) = std::str::from_utf8(content) else {
            ctx.ledger.record(Phase::Parse, ns_since(parse_started));
            self.state.count("serve_errors_total");
            let e = ReqError::bad_request("request line is not valid UTF-8");
            ctx.status = e.code;
            let reply = error_reply(&e, ctx.trace);
            self.enqueue_line(conn, &reply, Some(ctx));
            return; // the line boundary was still found; resync is safe
        };
        let line = text.trim();
        ctx.ledger.record(Phase::Parse, ns_since(parse_started));
        if line.is_empty() {
            self.state.count("serve_errors_total");
            let e = ReqError::bad_request("empty request line");
            ctx.status = e.code;
            let reply = error_reply(&e, ctx.trace);
            self.enqueue_line(conn, &reply, Some(ctx));
            return;
        }
        match self.dispatch_line(token, line, ctx) {
            Some((ctx, reply)) => self.enqueue_line(conn, &reply, Some(ctx)),
            // The request is a batch now: stop framing input until its
            // reply is delivered.
            None => {
                conn.phase = ConnPhase::InFlight;
                conn.read_deadline = None;
            }
        }
    }

    /// A request line (or line fragment) over the size limit: one typed
    /// 400, then close — with no newline inside the limit there is no
    /// way to find the next request boundary.
    fn reject_oversize(&mut self, conn: &mut Conn) {
        self.state.count("serve_requests_total");
        let mut ctx = self.start_request(conn);
        self.state.count("serve_errors_total");
        let e = ReqError::bad_request(format!(
            "request line exceeds {} bytes",
            self.cfg.max_request_bytes
        ));
        ctx.status = e.code;
        let reply = error_reply(&e, ctx.trace);
        conn.inbuf.clear();
        conn.read_deadline = None;
        conn.close_after_flush = true;
        self.enqueue_line(conn, &reply, Some(ctx));
    }

    /// Appends one newline-terminated reply to the outbox.
    fn enqueue_line(&mut self, conn: &mut Conn, reply: &str, ctx: Option<RequestCtx>) {
        let mut bytes = Vec::with_capacity(reply.len() + 1);
        bytes.extend_from_slice(reply.as_bytes());
        bytes.push(b'\n');
        self.enqueue_bytes(conn, &bytes, ctx);
    }

    /// Appends raw bytes to the outbox, enforcing the backpressure cap.
    /// A reply into an empty outbox always fits (the memory bound is
    /// `max(cap, one reply)`); growing an already-backlogged outbox
    /// past the cap trips the slow-consumer policy instead: the reply
    /// is replaced by a short typed 408 and the connection closes once
    /// the backlog drains. Queued lines are never truncated.
    fn enqueue_bytes(&mut self, conn: &mut Conn, bytes: &[u8], ctx: Option<RequestCtx>) {
        let pending = conn.out_pending();
        if pending > 0 && pending + bytes.len() > self.cfg.max_outbox_bytes {
            self.state.count("serve_backpressure_disconnects_total");
            conn.read_deadline = None;
            conn.close_after_flush = true;
            if let Some(mut ctx) = ctx {
                ctx.status = 408;
                let err = error_reply(
                    &ReqError::backpressure(self.cfg.max_outbox_bytes),
                    ctx.trace,
                );
                conn.outbox.extend_from_slice(err.as_bytes());
                conn.outbox.push(b'\n');
                conn.total_enqueued += (err.len() + 1) as u64;
                conn.settling.push_back(SettleMark {
                    flush_at: conn.total_enqueued,
                    ctx,
                    respond_started: Instant::now(),
                });
            }
            self.report_outbox(conn);
            return;
        }
        conn.outbox.extend_from_slice(bytes);
        conn.total_enqueued += bytes.len() as u64;
        if let Some(ctx) = ctx {
            conn.settling.push_back(SettleMark {
                flush_at: conn.total_enqueued,
                ctx,
                respond_started: Instant::now(),
            });
        }
        self.report_outbox(conn);
    }

    /// Writes as much of the outbox as the socket accepts. Partial
    /// writes keep their cursor — a reply line is never truncated and
    /// two replies can never interleave, because all output flows
    /// through this single per-connection buffer in enqueue order.
    fn try_flush(&mut self, conn: &mut Conn) -> Fate {
        while conn.out_sent < conn.outbox.len() {
            match conn.stream.write(&conn.outbox[conn.out_sent..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => {
                    conn.out_sent += n;
                    conn.total_flushed += n as u64;
                    // Flush progress moves an armed write deadline.
                    if conn.write_deadline.is_some() {
                        conn.write_deadline =
                            Some(self.now_ms().saturating_add(self.cfg.write_timeout_ms));
                    }
                    self.pop_settled(conn);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // The kernel buffer is full: hand the rest to
                    // EPOLLOUT and arm the write-stall deadline.
                    self.arm_write(conn);
                    self.report_outbox(conn);
                    return Fate::Keep;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Fate::Close,
            }
        }
        conn.outbox.clear();
        conn.out_sent = 0;
        conn.write_deadline = None;
        self.pop_settled(conn);
        self.report_outbox(conn);
        if conn.close_after_flush {
            return Fate::Close;
        }
        Fate::Keep
    }

    /// Settles every request whose reply has fully flushed: records the
    /// respond span and folds the request into histograms + access log.
    fn pop_settled(&mut self, conn: &mut Conn) {
        while conn
            .settling
            .front()
            .is_some_and(|m| m.flush_at <= conn.total_flushed)
        {
            if let Some(mut mark) = conn.settling.pop_front() {
                mark.ctx
                    .ledger
                    .record(Phase::Respond, ns_since(mark.respond_started));
                self.observe_request(&mark.ctx);
            }
        }
    }

    /// The daemon starts waiting for the connection's next request
    /// line: its accept span starts now, and the line is due within the
    /// read timeout from now, however its bytes trickle in.
    fn await_line(&self, conn: &mut Conn) {
        conn.accept_started = Instant::now();
        let ms = self.cfg.read_timeout_ms;
        conn.read_deadline = (ms > 0).then(|| self.now_ms().saturating_add(ms));
    }

    /// Arms the write-stall deadline while output is pending (flush
    /// progress moves it; see `try_flush`).
    fn arm_write(&self, conn: &mut Conn) {
        let ms = self.cfg.write_timeout_ms;
        if conn.write_deadline.is_none() && ms > 0 {
            conn.write_deadline = Some(self.now_ms().saturating_add(ms));
        }
    }

    /// The earliest armed deadline across every connection: the loop
    /// sleeps until then.
    fn next_deadline(&self) -> Option<u64> {
        self.conns
            .values()
            .flat_map(|c| [c.read_deadline, c.write_deadline])
            .flatten()
            .min()
    }

    /// Sheds every connection whose deadline has passed, in token
    /// (accept) order. Expiry is the *only* source of timeout verdicts
    /// in the daemon.
    fn expire_deadlines(&mut self) {
        let now = self.now_ms();
        let due = |d: Option<u64>| d.is_some_and(|d| d <= now);
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| due(c.read_deadline) || due(c.write_deadline))
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            self.state.count("serve_slow_client_disconnects_total");
            let fate = if due(conn.write_deadline) {
                // No flush progress within the write deadline: the
                // client cannot absorb its reply. Shed it.
                Fate::Close
            } else {
                // The slow-loris case: no complete request line within
                // the deadline. One typed 408 (best effort), then close.
                let err = ReqError::slow_client(self.cfg.read_timeout_ms);
                let reply = error_reply(&err, self.next_trace());
                conn.read_deadline = None;
                conn.close_after_flush = true;
                self.enqueue_line(&mut conn, &reply, None);
                self.try_flush(&mut conn)
            };
            self.finish(token, conn, fate);
        }
    }

    /// Routes one request line to its handler, recording the parse span
    /// and classifying the request for the access log as it goes. Quick
    /// ops answer inline, as do refusals; runs and sweeps become batches
    /// (and come back here only if the cache or a refusal settles them
    /// whole).
    fn dispatch_line(
        &mut self,
        token: u64,
        line: &str,
        mut ctx: RequestCtx,
    ) -> Option<(RequestCtx, String)> {
        let limits = Limits {
            max_budget: self.cfg.max_budget,
            deadline_ms: self.cfg.deadline_ms,
        };
        let parse_started = Instant::now();
        let parsed = parse_request(line, &limits);
        ctx.ledger.record(Phase::Parse, ns_since(parse_started));
        let (op, reply) = match parsed {
            Err(e) => ("malformed", refuse(&self.state, &e, &mut ctx)),
            Ok(Request::Status) => ("status", self.status_reply(ctx.trace)),
            Ok(Request::Health) => ("health", self.health_reply(ctx.trace)),
            Ok(Request::Metrics) => ("metrics", self.metrics_reply(ctx.trace)),
            Ok(Request::Shutdown) => ("shutdown", self.shutdown_reply(ctx.trace)),
            Ok(Request::Run(spec)) => {
                ctx.op = "run";
                ctx.bench = Some(spec.bench.clone());
                return self.start_batch(token, ctx, true, vec![*spec]);
            }
            Ok(Request::Sweep(specs)) => {
                ctx.op = "sweep";
                return self.start_batch(token, ctx, false, specs);
            }
        };
        ctx.op = op;
        Some((ctx, reply))
    }

    /// Hands a finished request's reply to its connection, or settles
    /// the request anyway if the client vanished mid-run — the work
    /// still landed in the cache and journal.
    fn deliver(&mut self, token: u64, ctx: RequestCtx, reply: String) {
        let Some(mut conn) = self.conns.remove(&token) else {
            self.observe_request(&ctx);
            return;
        };
        conn.phase = ConnPhase::Reading;
        self.await_line(&mut conn);
        self.enqueue_line(&mut conn, &reply, Some(ctx));
        self.finish(token, conn, Fate::Keep);
    }

    /// A row landed: fold its worker-side spans into the request and
    /// record its outcome. The pool just moved, so parked rows go first;
    /// then the batch closes if that was its last row.
    fn on_completion(&mut self, done: Completion) {
        let (id, index) = done.slot;
        if let Some(batch) = self.batches.get_mut(&id) {
            batch.outstanding -= 1;
            if let Owner::Client { ctx, .. } = &mut batch.owner {
                for phase in Phase::ALL {
                    ctx.ledger.record(phase, done.spans.wall_ns(phase));
                    ctx.ledger.record_cycles(phase, done.spans.cycles(phase));
                }
                ctx.trace_events = ctx.trace_events.saturating_add(done.trace_events);
            }
            batch.rows[index].outcome = done.outcome;
        }
        self.resume_parked();
        if let Some((token, ctx, reply)) = self.take_settled(id) {
            self.deliver(token, ctx, reply);
        }
    }

    /// Starts a `run` (a `lone` one-row batch) or a `sweep`. A sweep
    /// journals one intent for its whole roster: it is one logical
    /// request, and a restart resumes exactly the rows still owed (cached
    /// rows are hits again, spilled rows restart from their checkpoint);
    /// its single trace id rides in the intent. A batch the cache or a
    /// refusal settles whole comes back as the reply to send now.
    fn start_batch(
        &mut self,
        token: u64,
        mut ctx: RequestCtx,
        lone: bool,
        specs: Vec<RunSpec>,
    ) -> Option<(RequestCtx, String)> {
        // Work submitted after the drain began is refused, not queued.
        if self.draining {
            let reply = refuse(&self.state, &ReqError::draining(), &mut ctx);
            return Some((ctx, reply));
        }
        let mut intent = None;
        if !lone {
            let journal_started = Instant::now();
            intent = self.state.durable.as_ref().map(|d| {
                let id = d.next_intent_id();
                d.journal_intent(id, ctx.trace, &specs);
                id
            });
            ctx.ledger.record(Phase::Journal, ns_since(journal_started));
        }
        let id = self.next_batch;
        self.next_batch += 1;
        let owner = Owner::Client { token, ctx, lone };
        self.batches.insert(id, Batch::new(owner, intent, specs));
        self.resume_parked();
        self.pump(id);
        self.take_settled(id).map(|(_, ctx, reply)| (ctx, reply))
    }

    /// Dispatches a batch's rows in roster order until every row is out,
    /// recovery's single outstanding row is on the pool, or the pool
    /// answers `Busy`. Cache hits and refusals settle rows on the spot.
    /// On `Busy` a lone run is shed with a 429, while a sweep or
    /// recovery row — owed work that must not shed itself — parks, and
    /// this returns `false`.
    fn pump(&mut self, id: u64) -> bool {
        let state = &self.state;
        let Some(batch) = self.batches.get_mut(&id) else {
            return true;
        };
        let lone = matches!(batch.owner, Owner::Client { lone: true, .. });
        let recovery = matches!(batch.owner, Owner::Recovery { .. });
        while batch.next < batch.rows.len() {
            // Recovery keeps one row outstanding so live traffic keeps
            // most of the pool, and stops on drain: its undispatched rows
            // stay journaled for the next boot.
            if recovery && (batch.outstanding > 0 || self.draining) {
                return true;
            }
            let index = batch.next;
            let row = &mut batch.rows[index];
            let ready = match &row.ready {
                Some(ready) => Arc::clone(ready),
                None => match admit_row(state, &mut batch.owner, &mut batch.intent, &row.spec) {
                    Ok(ready) => row.ready.insert(ready).clone(),
                    Err(outcome) => {
                        row.outcome = outcome;
                        batch.next += 1;
                        continue;
                    }
                },
            };
            let resume_from = match &batch.owner {
                Owner::Recovery { spilled, .. } => spilled.get(&row.spec.bench).copied(),
                _ => None,
            };
            let plan = batch
                .intent
                .zip(state.durable.as_ref())
                .map(|(intent, d)| SpillPlan {
                    durability: Arc::clone(d),
                    id: intent,
                    spec: row.spec.clone(),
                    resume_from,
                    recovery,
                });
            match submit_row(
                state,
                &self.pool,
                (id, index),
                &row.spec,
                &ready,
                plan,
                lone,
            ) {
                Ok(()) => {
                    batch.next += 1;
                    batch.outstanding += 1;
                    // From here the lone run's own callback retires it.
                    if lone {
                        batch.intent = None;
                    }
                }
                Err(SubmitError::Busy { .. }) if !lone => {
                    state.count("serve_retries_total");
                    self.parked.insert(id);
                    return false;
                }
                Err(_) if recovery => return true,
                // Shed before dispatch: the client gets its typed refusal,
                // and closing the batch retires the lone run's intent.
                Err(e) => {
                    row.outcome = SweepOutcome::Failed(submit_error(e));
                    batch.next += 1;
                }
            }
        }
        true
    }

    /// Re-attempts parked batches, oldest first, until the pool answers
    /// `Busy` again, then lets recovery take its next step.
    fn resume_parked(&mut self) {
        while let Some(id) = self.parked.pop_first() {
            if !self.pump(id) {
                break;
            }
            if let Some((token, ctx, reply)) = self.take_settled(id) {
                self.deliver(token, ctx, reply);
            }
        }
        self.advance_recovery();
    }

    /// Boot recovery, one journaled intent at a time: cached rows
    /// (reloaded from the cache log) are skipped outright; the rest
    /// restore from their spill checkpoints and run to completion,
    /// landing in the cache so the original requester's retry is a
    /// bit-identical hit. `health` reports `recovery_active` until the
    /// last intent is done or recovery stops.
    fn advance_recovery(&mut self) {
        while let Some(id) = self.recovery.clone().next() {
            self.pump(id);
            let _ = self.take_settled(id);
            if self.recovery.start == id {
                return;
            }
        }
        if let Some(d) = &self.state.durable {
            d.recovery.active.store(false, Ordering::SeqCst);
        }
    }

    /// Takes a batch out once nothing more can happen to it and closes
    /// it, returning the connection and reply a run or sweep owes. A
    /// finished sweep or recovered intent is retired: its `Done` is
    /// journaled and its spills are garbage-collected (a lone run's own
    /// callback retired it already).
    fn take_settled(&mut self, id: u64) -> Option<(u64, RequestCtx, String)> {
        let batch = self.batches.get(&id)?;
        let stopped = matches!(batch.owner, Owner::Recovery { .. }) && self.draining;
        if batch.outstanding > 0 || (batch.next < batch.rows.len() && !stopped) {
            return None;
        }
        let mut batch = self.batches.remove(&id)?;
        self.parked.remove(&id);
        if batch.next < batch.rows.len() {
            // Recovery stopped by a drain: this and every later intent
            // stay journaled for the next boot.
            let rest = self.recovery.clone();
            self.batches.retain(|id, _| !rest.contains(id));
            self.recovery.start = rest.end;
            return None;
        }
        // Every row has landed and any reply is about to reach its client:
        // retire the intent the batch still holds.
        let journal_started = Instant::now();
        if let (Some(d), Some(intent)) = (&self.state.durable, batch.intent) {
            d.retire(intent, batch.rows.iter().map(|row| row.spec.bench.as_str()));
            if let Owner::Client { ctx, .. } = &mut batch.owner {
                ctx.ledger.record(Phase::Journal, ns_since(journal_started));
            }
        }
        match batch.owner {
            Owner::Client {
                token,
                mut ctx,
                lone: true,
            } => {
                let reply = match batch.rows.swap_remove(0).outcome {
                    SweepOutcome::Done { cached, report } => {
                        ctx.cached = cached;
                        run_reply(ctx.trace, cached, &report)
                    }
                    SweepOutcome::Failed(e) => refuse(&self.state, &e, &mut ctx),
                };
                Some((token, ctx, reply))
            }
            Owner::Client { token, ctx, .. } => {
                let rows: Vec<(String, SweepOutcome)> = batch
                    .rows
                    .into_iter()
                    .map(|row| {
                        if let SweepOutcome::Failed(e) = &row.outcome {
                            self.state.count(refusal_metric(e.code));
                        }
                        (row.spec.bench, row.outcome)
                    })
                    .collect();
                let reply = sweep_reply(ctx.trace, &rows);
                Some((token, ctx, reply))
            }
            Owner::Recovery { trace, .. } => {
                self.recovery.start = id + 1;
                // A failed resume still counts: the run was re-attempted,
                // which is all the journal promises.
                let resumed = batch.rows.iter().filter(|row| row.ready.is_some()).count() as u64;
                if let Some(d) = &self.state.durable {
                    d.recovery.runs_resumed.fetch_add(resumed, Ordering::SeqCst);
                    if resumed > 0 && batch.rows.len() > 1 {
                        d.recovery.sweeps_resumed.fetch_add(1, Ordering::SeqCst);
                    }
                }
                // Crash recovery is attributable: the access log records
                // the resume under the trace id of the original request.
                if self.access.is_some() {
                    let mut w = JsonWriter::object();
                    w.field_u64("ts_ms", self.now_ms());
                    w.field_str("trace_id", &format_trace_id(trace));
                    w.field_str("op", "resume");
                    w.field_u64("status", 200);
                    w.field_u64("runs_resumed", resumed);
                    self.log_access(&w.finish());
                }
                None
            }
        }
    }

    /// Registers the interest mask the connection's state implies:
    /// input only while framing, output only while the outbox has
    /// unflushed bytes.
    fn sync_interest(&mut self, token: u64, conn: &mut Conn) {
        let mut want = 0u32;
        let reading = !matches!(conn.phase, ConnPhase::InFlight)
            && !conn.close_after_flush
            && !conn.eof
            && conn.inbuf.len() <= self.cfg.max_request_bytes + READ_CHUNK;
        if reading {
            want |= EPOLLIN;
        }
        if conn.out_pending() > 0 {
            want |= EPOLLOUT;
        }
        if want != conn.interest && self.epoll.modify(conn.fd, want, token).is_ok() {
            conn.interest = want;
        }
    }

    /// Tears a connection down: settles every still-queued request,
    /// returns its gauge contribution, and releases the gate slot.
    fn close_conn(&mut self, mut conn: Conn) {
        while let Some(mut mark) = conn.settling.pop_front() {
            mark.ctx
                .ledger
                .record(Phase::Respond, ns_since(mark.respond_started));
            self.observe_request(&mark.ctx);
        }
        self.outbox_bytes -= conn.gauge_reported;
        self.epoll.del(conn.fd);
        self.connections -= 1;
        // Dropping the stream closes the fd (and with it any stale
        // epoll registration).
    }

    /// Diff-updates this connection's share of `serve_outbox_bytes`.
    fn report_outbox(&mut self, conn: &mut Conn) {
        let pending = conn.out_pending() as u64;
        self.outbox_bytes = self.outbox_bytes - conn.gauge_reported + pending;
        conn.gauge_reported = pending;
    }

    /// Folds one finished request into the per-op latency histogram
    /// and the access log, and releases the in-flight gauge.
    fn observe_request(&mut self, ctx: &RequestCtx) {
        self.inflight_requests -= 1;
        let total_ns = ctx.ledger.total_wall_ns();
        lock(&self.state.metrics).observe(op_duration_metric(ctx.op), total_ns / 1_000_000);
        if self.access.is_some() {
            let record = self.access_record(ctx, total_ns);
            self.log_access(&record);
        }
    }

    /// Appends one raw JSONL line to the access log (best effort: a
    /// full disk must never take the serving path down with it).
    fn log_access(&mut self, record: &str) {
        if let Some(w) = &mut self.access {
            let _ = writeln!(w, "{record}");
            let _ = w.flush();
        }
    }

    /// Renders one access-log record. Every record carries all seven
    /// span phases; crossing the `--slow-ms` threshold promotes it
    /// with compute-attribution detail.
    fn access_record(&self, ctx: &RequestCtx, total_ns: u64) -> String {
        let total_us = total_ns / 1_000;
        let slow = self.cfg.slow_ms.is_some_and(|ms| total_us / 1_000 >= ms);
        let mut spans = JsonWriter::object();
        for phase in Phase::ALL {
            let key = format!("{}_us", phase.label());
            spans.field_u64(&key, ctx.ledger.wall_ns(phase) / 1_000);
        }
        let mut w = JsonWriter::object();
        w.field_u64("ts_ms", self.now_ms());
        w.field_str("trace_id", &format_trace_id(ctx.trace));
        w.field_str("op", ctx.op);
        w.field_u64("status", u64::from(ctx.status));
        w.field_bool("cached", ctx.cached);
        if let Some(bench) = &ctx.bench {
            w.field_str("bench", bench);
        }
        w.field_u64("duration_us", total_us);
        w.field_raw("spans", &spans.finish());
        w.field_bool("slow", slow);
        if slow {
            // Simulated cycles behind the compute phase (sweeps add up
            // their rows).
            w.field_u64("compute_cycles", ctx.ledger.cycles(Phase::Compute));
            w.field_u64("trace_events", ctx.trace_events);
        }
        w.finish()
    }

    /// Snapshot the live gauges and render the Prometheus text.
    fn prometheus_text(&self) -> String {
        let mut m = lock(&self.state.metrics);
        m.gauge_set("serve_queue_depth", self.pool.queued() as f64);
        m.gauge_set("serve_inflight", self.pool.inflight() as f64);
        m.gauge_set("serve_cache_entries", self.state.cache.len() as f64);
        m.gauge_set("serve_draining", f64::from(u8::from(self.draining)));
        m.gauge_set("serve_connections", self.connections as f64);
        m.gauge_set("serve_inflight_requests", self.inflight_requests as f64);
        m.gauge_set("serve_outbox_bytes", self.outbox_bytes as f64);
        // Refresh the quantile gauges from the log2 histograms so every
        // scrape carries current p50/p90/p99/p999 estimates alongside
        // the raw buckets.
        for (hist, gauge, q) in QUANTILE_GAUGES {
            if let Some(estimate) = m.histogram(hist).map(|h| h.quantile(q)) {
                m.gauge_set(gauge, estimate);
            }
        }
        m.to_prometheus_text()
    }

    fn status_reply(&self, trace: u64) -> String {
        let mut w = JsonWriter::object();
        w.field_bool("ok", true);
        w.field_str("op", "status");
        w.field_str("trace_id", &format_trace_id(trace));
        w.field_bool("draining", self.draining);
        w.field_u64("uptime_ms", self.now_ms());
        w.field_u64("workers", self.pool.workers() as u64);
        w.field_u64("queue_depth", self.pool.queue_depth() as u64);
        w.field_u64("queued", self.pool.queued() as u64);
        w.field_u64("inflight", self.pool.inflight() as u64);
        w.field_u64("inflight_requests", self.inflight_requests as u64);
        w.field_u64("cache_entries", self.state.cache.len() as u64);
        w.field_u64("cache_capacity", self.state.cache.capacity() as u64);
        w.finish()
    }

    /// The `health` op: liveness/readiness in one line. `healthy` is the
    /// single bit an orchestrator needs — the daemon is accepting work,
    /// which it does until a drain begins; the rest explains the load.
    fn health_reply(&self, trace: u64) -> String {
        let mut w = JsonWriter::object();
        w.field_bool("ok", true);
        w.field_str("op", "health");
        w.field_str("trace_id", &format_trace_id(trace));
        w.field_bool("healthy", !self.draining);
        w.field_bool("draining", self.draining);
        w.field_u64("workers", self.pool.workers() as u64);
        w.field_u64("queued", self.pool.queued() as u64);
        w.field_u64("inflight", self.pool.inflight() as u64);
        w.field_u64("connections", self.connections as u64);
        w.field_u64("max_connections", self.cfg.max_connections as u64);
        // Recovery block: stable shape whether or not durability is on, so
        // orchestrators can always distinguish a clean boot (`clean_boot`
        // true, all counters zero) from a recovered one.
        w.field_bool("durable", self.state.durable.is_some());
        match &self.state.durable {
            Some(d) => {
                let r = &d.recovery;
                w.field_bool("clean_boot", r.clean_boot);
                w.field_bool("recovery_active", r.active.load(Ordering::SeqCst));
                w.field_u64("journal_replayed", r.journal_replayed);
                w.field_u64("torn_tails_discarded", r.torn_discards);
                w.field_u64("pending_intents", r.pending_intents);
                w.field_u64("sweeps_resumed", r.sweeps_resumed.load(Ordering::SeqCst));
                w.field_u64("runs_resumed", r.runs_resumed.load(Ordering::SeqCst));
                w.field_u64(
                    "resumed_instructions",
                    r.resumed_instructions.load(Ordering::SeqCst),
                );
                w.field_u64(
                    "redone_instructions",
                    r.redone_instructions.load(Ordering::SeqCst),
                );
                w.field_u64("cache_reloaded", r.cache_reloaded);
            }
            None => {
                w.field_bool("clean_boot", true);
                w.field_bool("recovery_active", false);
                w.field_u64("journal_replayed", 0);
                w.field_u64("torn_tails_discarded", 0);
                w.field_u64("pending_intents", 0);
                w.field_u64("sweeps_resumed", 0);
                w.field_u64("runs_resumed", 0);
                w.field_u64("resumed_instructions", 0);
                w.field_u64("redone_instructions", 0);
                w.field_u64("cache_reloaded", 0);
            }
        }
        w.finish()
    }

    fn metrics_reply(&self, trace: u64) -> String {
        let mut w = JsonWriter::object();
        w.field_bool("ok", true);
        w.field_str("op", "metrics");
        w.field_str("trace_id", &format_trace_id(trace));
        w.field_str("text", &self.prometheus_text());
        w.finish()
    }

    fn shutdown_reply(&mut self, trace: u64) -> String {
        // Setting the flag is enough: the shutdown line arrived through
        // the event loop, which re-checks the drain state every
        // iteration.
        self.draining = true;
        let mut w = JsonWriter::object();
        w.field_bool("ok", true);
        w.field_str("op", "shutdown");
        w.field_str("trace_id", &format_trace_id(trace));
        w.field_bool("draining", true);
        w.finish()
    }

    /// Renders one full HTTP response (status line through body). Only
    /// `GET /metrics` exists; anything else is a 404. `Connection: close`
    /// is honored by the caller flagging the connection to close after the
    /// response flushes.
    fn http_response(&self, path: &str) -> String {
        let (status, content_type, body) = if path == "/metrics" {
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                self.prometheus_text(),
            )
        } else {
            (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "only GET /metrics is served here\n".to_owned(),
            )
        };
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    }
}

/// Counts a refusal under the right metric and renders the error reply
/// (the trace id rides along so even a 408/429/503 is attributable).
fn refuse(state: &State, e: &ReqError, ctx: &mut RequestCtx) -> String {
    ctx.status = e.code;
    state.count(refusal_metric(e.code));
    error_reply(e, ctx.trace)
}

/// The counter a refusal (or a failed sweep row) is counted under.
fn refusal_metric(code: u16) -> &'static str {
    match code {
        429 => "serve_busy_total",
        408 => "serve_deadline_expired_total",
        _ => "serve_errors_total",
    }
}

/// A row's front half on the loop: prepare it and look it up in the
/// cache. With a client waiting the lookup is charged to its cache span
/// and counted, and a lone run journals its own intent before dispatch. `Err` settles the row on the spot with a
/// cache hit or a refusal. Recovery looks up silently: a cached row
/// owes nothing.
fn admit_row(
    state: &State,
    owner: &mut Owner,
    intent: &mut Option<u64>,
    spec: &RunSpec,
) -> Result<Arc<Prepared>, SweepOutcome> {
    let Some(b) = powerchop_workloads::by_name(&spec.bench) else {
        // The spec was validated at parse time: a vanished benchmark is
        // a roster bug, reported as 500 rather than a panic.
        let vanished = format!("benchmark {:?} vanished", spec.bench);
        return Err(SweepOutcome::Failed(ReqError::internal(vanished)));
    };
    let prepared = Prepared::new(
        b.program(Scale(spec.scale)),
        RunConfig::for_kind(b.core_kind()),
        spec,
    );
    let cache_started = Instant::now();
    let hit = state
        .cache
        .get(prepared.key)
        .map(|report| SweepOutcome::Done {
            cached: true,
            report,
        });
    let (ctx, lone) = match owner {
        Owner::Client { ctx, lone, .. } => (ctx, *lone),
        Owner::Recovery { .. } => return hit.map_or_else(|| Ok(Arc::new(prepared)), Err),
    };
    ctx.ledger.record(Phase::Cache, ns_since(cache_started));
    if let Some(hit) = hit {
        state.count("serve_cache_hits_total");
        return Err(hit);
    }
    state.count("serve_cache_misses_total");
    if lone {
        // The intent carries the trace id, so a crash-recovery resume
        // stays attributable to the request that created the obligation.
        let journal_started = Instant::now();
        if let Some(d) = &state.durable {
            let id = d.next_intent_id();
            d.journal_intent(id, ctx.trace, std::slice::from_ref(spec));
            *intent = Some(id);
        }
        ctx.ledger.record(Phase::Journal, ns_since(journal_started));
    }
    Ok(Arc::new(prepared))
}

/// Submits one row — a lone run, a sweep row or a resumed row alike —
/// to the pool, its deadline fixed here so queue wait counts against
/// it. The completion callback settles the outcome on the worker and
/// hands the row back to the loop. Only a `lone` run retires its own
/// intent from the worker. Resumed rows run untraced: nobody is waiting
/// to read their spans.
fn submit_row(
    state: &Arc<State>,
    pool: &WorkerPool,
    slot: (u64, usize),
    spec: &RunSpec,
    ready: &Arc<Prepared>,
    plan: Option<SpillPlan>,
    lone: bool,
) -> Result<(), SubmitError> {
    let submitted = Instant::now();
    let deadline_ms = spec.deadline_ms;
    let traced = state.traced && !plan.as_ref().is_some_and(|p| p.recovery);
    let retire = plan.clone().filter(|_| lone);
    let ready = Arc::clone(ready);
    let key = ready.key;
    let job = move || run_until(&ready, submitted, deadline_ms, plan.as_ref(), traced);
    let shared = Arc::clone(state);
    pool.submit(job, move |result| {
        let mut done = settle(&shared, slot, key, result);
        // Retire the intent however the run ended: the client gets its
        // reply (success or typed error), so the daemon owes nothing.
        if let Some(plan) = retire {
            let journal_started = Instant::now();
            plan.durability.retire(plan.id, [plan.spec.bench.as_str()]);
            done.spans.record(Phase::Journal, ns_since(journal_started));
        }
        // Send-then-ring: the row is in the channel before the eventfd
        // wakes the loop, so the drain always finds it.
        let _ = shared.done_tx.send(done);
        shared.wake.ring();
    })
}

/// A completed run plus its span attribution: how long it sat in the
/// queue, how long it computed, and how many flight-recorder events
/// its tracer captured (zero when untraced).
struct RunDone {
    report: RunReport,
    queue_ns: u64,
    compute_ns: u64,
    trace_events: u64,
}

/// Runs one simulation submitted at `submitted` until it completes or
/// its deadline, `deadline_ms` after submission, passes (one too far out
/// to represent never does). The deadline is checked before the
/// simulation is even built — a run whose deadline expired in the queue
/// never computes — and then at every step-chunk boundary by
/// [`durability::run_until`]. Failures are the typed 408 or 500 the
/// client will see.
///
/// The optional [`SpillPlan`] adds the durability hooks: a recovery
/// plan resumes the run from its spill checkpoint
/// ([`durability::restore_or_new`]), and every plan spills the
/// unfinished run every `spill_every` retired instructions.
/// With `traced` set an enabled [`Tracer`] is attached to the run via
/// [`Simulation::attach_tracer`], so the flight recorder captures the
/// run's phase spans; tracing never changes simulated state, so traced
/// and untraced runs produce bit-identical reports.
fn run_until(
    ready: &Prepared,
    submitted: Instant,
    deadline_ms: u64,
    plan: Option<&SpillPlan>,
    traced: bool,
) -> Result<RunDone, ReqError> {
    // The wait between submission and pickup *is* the queue span.
    let queue_ns = ns_since(submitted);
    let deadline = submitted.checked_add(Duration::from_millis(deadline_ms));
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(ReqError::deadline(deadline_ms));
    }
    let compute_started = Instant::now();
    let internal = |e: SimError| ReqError::internal(e.to_string());
    let (mut sim, _) = durability::restore_or_new(ready, plan).map_err(internal)?;
    if traced {
        sim.attach_tracer(Tracer::enabled(TelemetryConfig {
            ring_capacity: 256,
            sample_every_cycles: 0,
        }));
    }
    if !durability::run_until(&mut sim, plan, deadline).map_err(internal)? {
        return Err(ReqError::deadline(deadline_ms));
    }
    let (report, tracer) = sim.into_report_with_telemetry();
    let trace_events = tracer
        .recorder()
        .map(|r| r.events().len() as u64)
        .unwrap_or(0);
    Ok(RunDone {
        report,
        queue_ns,
        compute_ns: ns_since(compute_started),
        trace_events,
    })
}

/// A row's completion callback, on the worker that ran it: folds the
/// outcome into the counters and the cache (plus the cache log), and charges the worker-side spans. The report string is exactly
/// what the cache will replay for the next identical request.
fn settle(
    state: &State,
    slot: (u64, usize),
    key: u128,
    result: Result<Result<RunDone, ReqError>, JobPanic>,
) -> Completion {
    let mut spans = SpanLedger::default();
    let mut trace_events = 0;
    let outcome = match result {
        Err(panic) => {
            state.count("serve_panics_total");
            SweepOutcome::Failed(ReqError::internal(format!(
                "run panicked: {}",
                panic.message
            )))
        }
        Ok(Err(e)) => SweepOutcome::Failed(e),
        Ok(Ok(done)) => {
            spans.record(Phase::Queue, done.queue_ns);
            spans.record(Phase::Compute, done.compute_ns);
            spans.record_cycles(Phase::Compute, done.report.cycles);
            trace_events = done.trace_events;
            let report = done.report;
            // Fold this run's JIT activity into the daemon-wide counters.
            // Deliberately *not* part of the reply JSON: replies stay
            // byte-identical whether the JIT ran or not.
            if let Some(jit) = &report.jit {
                let mut m = lock(&state.metrics);
                m.counter_add("jit_translations_compiled", jit.stats.translations_compiled);
                m.counter_add("jit_exec_hits", jit.stats.exec_hits);
                m.counter_add("jit_fallbacks", jit.stats.fallbacks);
                m.counter_add("jit_code_bytes", jit.stats.code_bytes);
            }
            let json = report_to_json(&report);
            let cache_started = Instant::now();
            let cacheable = state.cache.put(key, json.clone());
            // Write-through persistence: the reply a restarted daemon
            // replays is byte-for-byte the reply cached here.
            if cacheable {
                if let Some(d) = &state.durable {
                    d.record_cache_put(key, &json);
                }
            }
            spans.record(Phase::Cache, ns_since(cache_started));
            state.count("serve_runs_total");
            SweepOutcome::Done {
                cached: false,
                report: json,
            }
        }
    };
    Completion {
        slot,
        outcome,
        spans,
        trace_events,
    }
}

/// Maps a pool refusal onto its typed reply.
fn submit_error(e: SubmitError) -> ReqError {
    match e {
        SubmitError::Busy { queue_depth } => ReqError::busy(queue_depth),
        SubmitError::Closed => ReqError::draining(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop::ManagerKind;
    use std::io::{BufRead, BufReader};

    /// A small hmmer run, prepared the way the daemon prepares one.
    fn hmmer() -> Prepared {
        let b = powerchop_workloads::by_name("hmmer").expect("hmmer exists");
        let mut cfg = RunConfig::for_kind(b.core_kind());
        cfg.max_instructions = 50_000;
        let program = b.program(Scale(0.05));
        let kind = ManagerKind::PowerChop;
        Prepared {
            program,
            kind,
            cfg,
            key: 0,
        }
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.addr, "127.0.0.1:7077");
        assert!(cfg.queue_depth >= 1);
        assert!(cfg.cache_entries >= 1);
        assert!(cfg.max_budget >= 1_000_000);
        assert!(cfg.max_outbox_bytes >= 1 << 16);
    }

    #[test]
    fn bind_resolves_port_zero() {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs: Some(1),
            ..ServerConfig::default()
        };
        let server = Server::bind(&cfg).expect("bind succeeds");
        assert_ne!(server.local_addr().port(), 0);
    }

    #[test]
    fn a_client_that_stops_reading_is_shed_at_its_write_deadline() {
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            jobs: Some(1),
            write_timeout_ms: 300,
            // No read deadline, and an outbox cap far above what the
            // socket buffers hold: only the write deadline can shed
            // this client.
            read_timeout_ms: 0,
            max_outbox_bytes: 1 << 30,
            ..ServerConfig::default()
        };
        let server = Server::bind(&cfg).expect("bind succeeds");
        let addr = server.local_addr();
        let daemon = std::thread::spawn(move || server.run());
        let ask = |line: &str| {
            let mut s = TcpStream::connect(addr).expect("connects");
            writeln!(s, "{line}").expect("request writes");
            let mut reply = String::new();
            BufReader::new(s)
                .read_line(&mut reply)
                .expect("reply reads");
            reply
        };
        // 10,000 metrics replies of about 4 KiB each, several times what
        // both ends' socket buffers hold; the client never reads one.
        let mut stalled = TcpStream::connect(addr).expect("connects");
        let flood = "{\"op\":\"metrics\"}\n".repeat(10_000);
        stalled.write_all(flood.as_bytes()).expect("flood writes");
        let deadline = Instant::now() + Duration::from_secs(30);
        let metrics = loop {
            let m = ask(r#"{"op":"metrics"}"#);
            if m.contains("serve_slow_client_disconnects_total 1") {
                break m;
            }
            assert!(Instant::now() < deadline, "stalled reader kept: {m}");
            std::thread::sleep(Duration::from_millis(50));
        };
        assert!(
            metrics.contains("serve_backpressure_disconnects_total 0"),
            "{metrics}"
        );
        assert!(ask(r#"{"op":"shutdown"}"#).contains("\"draining\":true"));
        daemon
            .join()
            .expect("loop joins")
            .expect("loop exits cleanly");
    }

    #[test]
    fn deadline_zero_expires_immediately_and_runs_complete_otherwise() {
        let ready = hmmer();
        match run_until(&ready, Instant::now(), 0, None, false) {
            Err(e) if e.code == 408 => {}
            _ => panic!("zero deadline must trip before any work"),
        }
        let report = run_until(&ready, Instant::now(), 60_000, None, false);
        assert!(matches!(report, Ok(done) if done.report.instructions > 0));
    }

    #[test]
    fn traced_runs_are_bit_identical_to_untraced_runs() {
        let ready = hmmer();
        let run = |traced| {
            run_until(&ready, Instant::now(), 60_000, None, traced)
                .map(|done| report_to_json(&done.report))
                .ok()
        };
        let (plain, traced) = (run(false), run(true));
        assert!(plain.is_some(), "untraced run completes");
        assert_eq!(
            plain, traced,
            "the attached tracer must not perturb the run"
        );
    }

    #[test]
    fn op_duration_metric_covers_every_dispatchable_op() {
        for op in ["run", "sweep", "status", "health", "metrics", "shutdown"] {
            let key = op_duration_metric(op);
            assert!(key.contains(&format!("op=\"{op}\"")), "{key} labels {op}");
        }
        assert!(op_duration_metric("nonsense").contains("malformed"));
    }
}
