//! The chaos-soak harness: boots an in-process `powerchop-serve` daemon
//! and drives a seeded storm of hostile and honest clients against it.
//!
//! Hostile clients wrap their sockets in [`ChaosStream`], so every frame
//! they send may be delayed, split mid-write, byte-corrupted, truncated
//! or reset — all drawn from one SplitMix64 seed, so a storm replays
//! bit-for-bit. Honest clients send well-formed `run` requests and
//! demand replies bit-identical to a local in-process run.
//!
//! The storm passes only when every reply line received by any client
//! is valid RFC 8259 JSON, every honest reply embedded the exact
//! expected report bytes, and the daemon drained cleanly through an
//! in-protocol shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use powerchop::{run_program, ManagerKind, RunConfig};
use powerchop_faults::SimRng;
use powerchop_serve::json::Json;
use powerchop_serve::{report_to_json, Server, ServerConfig};
use powerchop_telemetry::validate_json;
use powerchop_workloads::Scale;

use crate::args::SoakOpts;
use crate::chaos::{ChaosConfig, ChaosSchedule, ChaosStream};
use crate::client::{request, scrape};
use crate::retry::stream_label;
use crate::CliError;

/// Benchmarks the storm cycles through. Kept small so the local
/// expected-report precomputation stays fast.
const ROSTER: [&str; 3] = ["hmmer", "namd", "gobmk"];

/// Socket timeout for one request: a cold run may queue behind a storm.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);

/// Socket timeout for one `/metrics` scrape.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(30);

/// Hard numbers out of one soak storm.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Reply lines received (and validated) across all clients.
    pub replies: u64,
    /// Reply lines that failed RFC 8259 validation (must be 0).
    pub malformed: u64,
    /// Honest requests answered with the exact expected report bytes.
    pub honest_ok: u64,
    /// Honest requests that got a wrong or missing reply (must be 0).
    pub honest_mismatches: u64,
    /// Hostile connections dropped by chaos (truncate/reset) or I/O.
    pub hostile_drops: u64,
    /// Whether the in-protocol shutdown drained within the time limit.
    pub clean_drain: bool,
    /// First few diagnostics behind any failed invariant.
    pub notes: Vec<String>,
}

impl SoakReport {
    /// Whether every soak invariant held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.malformed == 0 && self.honest_mismatches == 0 && self.clean_drain
    }
}

/// Counters shared by every client thread in the storm.
#[derive(Default)]
struct Counters {
    replies: AtomicU64,
    malformed: AtomicU64,
    honest_ok: AtomicU64,
    honest_mismatches: AtomicU64,
    hostile_drops: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Counters {
    /// Records one diagnostic, keeping only the first few (a storm that
    /// goes wrong goes wrong thousands of times the same way).
    fn note(&self, msg: String) {
        let mut notes = self.notes.lock().unwrap_or_else(PoisonError::into_inner);
        if notes.len() < 16 {
            notes.push(msg);
        }
    }

    /// Counts one received reply line and validates it as JSON — the
    /// storm-wide "no malformed replies" invariant lives here.
    fn saw_reply(&self, line: &str) {
        self.replies.fetch_add(1, Ordering::SeqCst);
        if validate_json(line).is_err() {
            self.malformed.fetch_add(1, Ordering::SeqCst);
            self.note(format!("malformed reply: {line:?}"));
        }
    }
}

/// One benchmark's request line and the only two replies the daemon is
/// allowed to give for it.
struct Expected {
    bench: &'static str,
    request: String,
    fresh: String,
    cached: String,
}

/// Precomputes, locally and in-process, the exact report bytes the
/// daemon must embed for each roster benchmark at the storm's knobs.
fn expected_replies(opts: &SoakOpts) -> Result<Vec<Expected>, CliError> {
    ROSTER
        .iter()
        .map(|&bench| {
            let b = powerchop_workloads::by_name(bench)
                .ok_or_else(|| CliError(format!("soak roster benchmark {bench:?} is missing")))?;
            let mut cfg = RunConfig::for_kind(b.core_kind());
            cfg.max_instructions = opts.budget;
            let program = b.program(Scale(opts.scale));
            let report = run_program(&program, ManagerKind::PowerChop, &cfg)?;
            let json = report_to_json(&report);
            Ok(Expected {
                bench,
                request: format!(
                    r#"{{"op":"run","bench":"{bench}","budget":{},"scale":{}}}"#,
                    opts.budget, opts.scale
                ),
                fresh: format!(r#"{{"ok":true,"op":"run","cached":false,"report":{json}}}"#),
                cached: format!(r#"{{"ok":true,"op":"run","cached":true,"report":{json}}}"#),
            })
        })
        .collect()
}

/// Whether a typed error reply is transient backpressure worth retrying
/// (a full queue, or a 503 from the connection gate).
fn is_retryable(reply: &str) -> bool {
    reply.contains("\"code\":429") || reply.contains("\"code\":503")
}

/// One honest request with bounded retries through transient
/// backpressure; the final reply must be byte-identical to one of the
/// two allowed forms.
fn honest_once(addr: SocketAddr, exp: &Expected, c: &Counters) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match request(addr, &exp.request, REQUEST_TIMEOUT) {
            Ok(reply) => {
                c.saw_reply(&reply);
                // Trace ids are per-request by design; everything else
                // must still be byte-identical to a local run.
                let reply_untraced = powerchop_serve::strip_trace_id(&reply);
                if reply_untraced == exp.fresh || reply_untraced == exp.cached {
                    c.honest_ok.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                if is_retryable(&reply) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
                c.honest_mismatches.fetch_add(1, Ordering::SeqCst);
                c.note(format!("honest {}: wrong reply: {reply}", exp.bench));
                return;
            }
            Err(e) => {
                if Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(25));
                    continue;
                }
                c.honest_mismatches.fetch_add(1, Ordering::SeqCst);
                c.note(format!("honest {}: i/o error: {e}", exp.bench));
                return;
            }
        }
    }
}

/// An honest client: `requests` well-formed runs, cycling the roster.
fn honest_client(
    addr: SocketAddr,
    id: usize,
    requests: usize,
    expected: &[Expected],
    c: &Counters,
) {
    for j in 0..requests {
        honest_once(addr, &expected[(id + j) % expected.len()], c);
    }
}

/// A hostile client's live connection: the chaos-wrapped writer, a raw
/// reader clone, and any partial reply carried across read timeouts so
/// a slow reply is never mistaken for a torn one.
struct HostileConn {
    chaos: ChaosStream<TcpStream>,
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
}

/// Opens one hostile connection with a fresh chaos schedule drawn from
/// the client's deterministic stream.
fn hostile_connect(addr: SocketAddr, rng: &mut SimRng, c: &Counters) -> Option<HostileConn> {
    // The seed is drawn before the fallible I/O so the schedule stream
    // stays aligned no matter how the connect attempt goes.
    let conn_seed = rng.next_u64();
    let connected = TcpStream::connect(addr).and_then(|stream| {
        stream.set_read_timeout(Some(Duration::from_millis(150)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok((stream, reader))
    });
    match connected {
        Ok((stream, reader)) => Some(HostileConn {
            chaos: ChaosStream::new(
                stream,
                ChaosSchedule::new(ChaosConfig::hostile(), conn_seed),
            ),
            reader,
            partial: Vec::new(),
        }),
        Err(e) => {
            c.note(format!("hostile connect failed: {e}"));
            None
        }
    }
}

/// Drains whatever complete reply lines are available within
/// `quiet_ms`, validating each. A timeout mid-line keeps the partial in
/// the connection for the next drain; a clean EOF with bytes still
/// pending is a torn reply and counts as malformed.
fn drain_replies(conn: &mut HostileConn, c: &Counters, quiet_ms: u64) {
    let deadline = Instant::now() + Duration::from_millis(quiet_ms.max(1));
    loop {
        match conn.reader.read_until(b'\n', &mut conn.partial) {
            Ok(0) => {
                if !conn.partial.is_empty() {
                    c.malformed.fetch_add(1, Ordering::SeqCst);
                    c.note(format!(
                        "torn reply at EOF: {:?}",
                        String::from_utf8_lossy(&conn.partial)
                    ));
                    conn.partial.clear();
                }
                return;
            }
            Ok(_) if conn.partial.last() == Some(&b'\n') => {
                let line = String::from_utf8_lossy(&conn.partial).trim_end().to_owned();
                c.saw_reply(&line);
                conn.partial.clear();
            }
            // read_until only returns Ok without a trailing newline at
            // EOF, which the arm above consumed; anything else is a
            // timeout-style error and the partial stays buffered.
            Ok(_) | Err(_) => {}
        }
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// Deterministically picks the next hostile frame: a mix of valid ops,
/// valid runs, typed-error bait and raw garbage.
fn hostile_frame(rng: &mut SimRng, expected: &[Expected]) -> Vec<u8> {
    match rng.gen_range(6) {
        0 => b"{\"op\":\"status\"}\n".to_vec(),
        1 => b"{\"op\":\"health\"}\n".to_vec(),
        2 => {
            let pick = rng.gen_range(expected.len() as u64) as usize;
            let mut frame = expected[pick].request.clone().into_bytes();
            frame.push(b'\n');
            frame
        }
        3 => b"{\"op\":\"run\",\"bench\":\"no-such-bench\"}\n".to_vec(),
        // An unterminated fragment: glues onto the next frame, or ages
        // into the server's slow-client 408 if the connection idles.
        4 => b"{\"op\":\"run\",\"bench\":".to_vec(),
        _ => {
            // Raw garbage, newline-terminated; often invalid UTF-8.
            let mut frame: Vec<u8> = (0..16).map(|_| (rng.gen_range(255) + 1) as u8).collect();
            frame.retain(|&b| b != b'\n');
            frame.push(b'\n');
            frame
        }
    }
}

/// A hostile client: `requests` chaos-mangled frames, reconnecting
/// whenever chaos (or the daemon) drops the connection, validating
/// every reply line it manages to read.
fn hostile_client(
    addr: SocketAddr,
    master_seed: u64,
    id: usize,
    requests: usize,
    expected: &[Expected],
    c: &Counters,
) {
    let mut rng = SimRng::new(master_seed)
        .fork(stream_label("soak-hostile"))
        .fork(id as u64);
    let mut conn = hostile_connect(addr, &mut rng, c);
    for _ in 0..requests {
        let frame = hostile_frame(&mut rng, expected);
        if conn.is_none() {
            c.hostile_drops.fetch_add(1, Ordering::SeqCst);
            conn = hostile_connect(addr, &mut rng, c);
        }
        let Some(live) = conn.as_mut() else {
            return; // could not connect at all; already noted
        };
        match live.chaos.send_frame(&frame) {
            Ok(_) if live.chaos.alive() => drain_replies(live, c, 50),
            // Chaos truncated/reset the connection, or the daemon shed
            // us (slow-client disconnect, connection gate): reconnect
            // on the next frame.
            _ => conn = None,
        }
    }
    if let Some(live) = conn.as_mut() {
        drain_replies(live, c, 300);
    }
}

/// Sends the in-protocol shutdown and waits for the server thread to
/// finish draining. `true` only for a clean, in-time exit.
fn drain(addr: SocketAddr, done_rx: &mpsc::Receiver<std::io::Result<()>>, c: &Counters) -> bool {
    match request(addr, r#"{"op":"shutdown"}"#, REQUEST_TIMEOUT) {
        Ok(reply) => {
            c.saw_reply(&reply);
            if !reply.contains("\"draining\":true") {
                c.note(format!("shutdown not acknowledged: {reply}"));
                return false;
            }
        }
        Err(e) => {
            c.note(format!("shutdown request failed: {e}"));
            return false;
        }
    }
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Ok(())) => true,
        Ok(Err(e)) => {
            c.note(format!("server exited with an error: {e}"));
            false
        }
        Err(_) => {
            c.note("server failed to drain within 60s of shutdown".into());
            false
        }
    }
}

/// Runs one full soak storm: boot, storm, verify, drain.
///
/// # Errors
///
/// Returns a [`CliError`] only for setup failures (unknown roster
/// benchmark, bind failure). Invariant violations are reported in the
/// returned [`SoakReport`], not as errors, so callers can print the
/// full picture.
pub fn run_soak(opts: &SoakOpts) -> Result<SoakReport, CliError> {
    let expected = expected_replies(opts)?;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: opts.jobs,
        queue_depth: 32,
        max_connections: opts.hostile + opts.honest + 8,
        // Short enough that truncated hostile frames age into typed
        // slow-client 408s while the storm is still running.
        read_timeout_ms: 2_000,
        write_timeout_ms: 5_000,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg)?;
    let addr = server.local_addr();
    let (done_tx, done_rx) = mpsc::channel();
    let server_thread = std::thread::spawn(move || {
        let _ = done_tx.send(server.run());
    });

    let counters = Counters::default();
    std::thread::scope(|scope| {
        let c = &counters;
        let e = &expected;
        for i in 0..opts.hostile {
            scope.spawn(move || hostile_client(addr, opts.seed, i, opts.requests, e, c));
        }
        for i in 0..opts.honest {
            scope.spawn(move || honest_client(addr, i, opts.requests, e, c));
        }
    });

    // Post-storm sweep: the daemon must still serve every roster bench
    // bit-identically — the "continued service" guarantee.
    for exp in &expected {
        honest_once(addr, exp, &counters);
    }
    let clean_drain = drain(addr, &done_rx, &counters);
    let _ = server_thread.join();

    let notes = counters
        .notes
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    Ok(SoakReport {
        replies: counters.replies.load(Ordering::SeqCst),
        malformed: counters.malformed.load(Ordering::SeqCst),
        honest_ok: counters.honest_ok.load(Ordering::SeqCst),
        honest_mismatches: counters.honest_mismatches.load(Ordering::SeqCst),
        hostile_drops: counters.hostile_drops.load(Ordering::SeqCst),
        clean_drain,
        notes,
    })
}

/// Minimum per-benchmark instruction budget for the crash drill: high
/// enough that no roster program is ever budget-truncated — run length
/// is governed by [`DRILL_MIN_SCALE`], and the reports must describe
/// complete programs so the baseline comparison is meaningful.
const DRILL_MIN_BUDGET: u64 = 60_000_000;

/// Minimum workload scale for the crash drill. Scale, not budget, sets
/// how many instructions a roster program actually retires (roughly 8M
/// per benchmark per unit of scale); at 2.0 a full sweep takes the
/// simulator long enough that several kill cycles all land mid-sweep
/// with an order-of-magnitude margin over the poll latency.
const DRILL_MIN_SCALE: f64 = 2.0;

/// Instructions between checkpoint spills in the crash drill: frequent
/// enough that every cycle observes fresh spill progress within
/// milliseconds, coarse enough that fsync traffic stays reasonable.
const DRILL_SPILL_EVERY: u64 = 250_000;

/// Hard numbers out of one crash-recovery drill.
#[derive(Debug, Clone)]
pub struct CrashDrillReport {
    /// Mid-sweep SIGKILLs delivered (must equal `--crash-cycles`).
    pub kills: u64,
    /// Journal records the final boot replayed (must be nonzero).
    pub journal_replayed: u64,
    /// Instructions the final boot resumed from spill checkpoints
    /// instead of re-executing (must be nonzero).
    pub resumed_instructions: u64,
    /// Checkpointed instructions the final boot re-executed (must be
    /// zero: recovery never re-does work a spill promised was durable).
    pub redone_instructions: u64,
    /// Whether the final boot reported `clean_boot:false`.
    pub recovered_boot: bool,
    /// Whether re-requesting the sweep after recovery returned every
    /// row from cache, byte-identical to an uninterrupted local run.
    pub final_sweep_identical: bool,
    /// Whether the recovery counters showed up in a `/metrics` scrape.
    pub counters_scraped: bool,
    /// Whether the final daemon drained cleanly through `shutdown`.
    pub clean_drain: bool,
    /// First few diagnostics behind any failed invariant.
    pub notes: Vec<String>,
}

impl CrashDrillReport {
    /// Whether every crash-drill invariant held.
    #[must_use]
    pub fn passed(&self, cycles: usize) -> bool {
        self.kills == cycles as u64
            && self.journal_replayed > 0
            && self.resumed_instructions > 0
            && self.redone_instructions == 0
            && self.recovered_boot
            && self.final_sweep_identical
            && self.counters_scraped
            && self.clean_drain
    }
}

/// One real (out-of-process) daemon generation in the crash drill: the
/// child, its parsed listen address, and the stdout pipe held open so
/// the child's own prints never hit a closed pipe.
struct DrillChild {
    child: std::process::Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: SocketAddr,
}

impl DrillChild {
    /// Spawns `powerchop-cli serve` (this very executable, re-invoked)
    /// with durability on, and waits for its listen banner.
    fn spawn(journal_dir: &str, cache_dir: &str, budget_cap: u64) -> Result<Self, CliError> {
        let exe = std::env::current_exe()
            .map_err(|e| CliError(format!("crash drill: cannot locate own executable: {e}")))?;
        let mut child = std::process::Command::new(exe)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "1",
                "--journal-dir",
                journal_dir,
                "--cache-dir",
                cache_dir,
                "--spill-every",
                &DRILL_SPILL_EVERY.to_string(),
                "--max-budget",
                &budget_cap.to_string(),
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| CliError(format!("crash drill: cannot spawn daemon: {e}")))?;
        let out = child
            .stdout
            .take()
            .ok_or_else(|| CliError("crash drill: child stdout was not piped".into()))?;
        let mut stdout = BufReader::new(out);
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout
                .read_line(&mut line)
                .map_err(|e| CliError(format!("crash drill: reading child banner: {e}")))?;
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(CliError(
                    "crash drill: daemon exited before announcing its address".into(),
                ));
            }
            if let Some(rest) = line
                .trim_end()
                .strip_prefix("powerchop-serve listening on ")
            {
                let addr = rest.parse().map_err(|e| {
                    CliError(format!("crash drill: bad listen address {rest:?}: {e}"))
                })?;
                return Ok(DrillChild {
                    child,
                    stdout,
                    addr,
                });
            }
        }
    }

    /// SIGKILLs the daemon — no drain, no flush, exactly the crash the
    /// journal exists for — and reaps it.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Requests an in-protocol shutdown and waits for a clean exit.
    fn drain(mut self, c: &Counters) -> bool {
        match request(self.addr, r#"{"op":"shutdown"}"#, REQUEST_TIMEOUT) {
            Ok(reply) => c.saw_reply(&reply),
            Err(e) => {
                c.note(format!("drill shutdown request failed: {e}"));
                let _ = self.child.kill();
                let _ = self.child.wait();
                return false;
            }
        }
        // Drain the remaining stdout so the child never blocks on a
        // full pipe, then require a zero exit status.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        match self.child.wait() {
            Ok(status) if status.success() => true,
            Ok(status) => {
                c.note(format!("drill daemon exited uncleanly: {status}"));
                false
            }
            Err(e) => {
                c.note(format!("drill daemon wait failed: {e}"));
                false
            }
        }
    }
}

/// What one cycle's journal poll concluded.
enum SpillWatch {
    /// New spill progress landed; the daemon is mid-sweep right now.
    Progressed(u64),
    /// The pending intent disappeared: the sweep finished before the
    /// kill could land (the drill budget is sized to prevent this).
    Completed,
    /// No movement within the timeout.
    Stalled,
}

/// Sums the per-benchmark spill checkpoints the journal currently
/// promises for pending intents.
fn spilled_sum(replay: &powerchop_durable::JournalReplay) -> u64 {
    replay.pending.iter().flat_map(|p| p.spilled.values()).sum()
}

/// Polls the journal until a spill checkpoint beyond `prev` is durably
/// promised (the moment a kill is guaranteed to be mid-sweep), the
/// pending intent completes, or the timeout expires. Torn tails from
/// racing the daemon's appends are expected and simply re-polled.
fn await_spill_progress(jpath: &std::path::Path, prev: u64, saw_pending: bool) -> SpillWatch {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut pending_seen = saw_pending;
    loop {
        if let Ok(replay) = powerchop_durable::replay(jpath) {
            if !replay.pending.is_empty() {
                pending_seen = true;
            }
            let sum = spilled_sum(&replay);
            if sum > prev {
                return SpillWatch::Progressed(sum);
            }
            if pending_seen && replay.pending.is_empty() {
                return SpillWatch::Completed;
            }
        }
        if Instant::now() >= deadline {
            return SpillWatch::Stalled;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Polls the daemon's `health` op until boot-time recovery finishes,
/// returning the final health reply.
fn await_recovery(addr: SocketAddr, c: &Counters) -> Option<Json> {
    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        if let Ok(reply) = request(addr, r#"{"op":"health"}"#, REQUEST_TIMEOUT) {
            c.saw_reply(&reply);
            let health = Json::parse(&reply).unwrap_or(Json::Null);
            if health.get("recovery_active").and_then(Json::as_bool) == Some(false) {
                return Some(health);
            }
        }
        if Instant::now() >= deadline {
            c.note("recovery did not finish within 180s".into());
            return None;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs the crash-recovery drill: repeatedly SIGKILL a real child
/// daemon mid-sweep, then prove the final boot resumes from its spill
/// checkpoints with zero re-done instructions and finishes the sweep
/// bit-identical to an uninterrupted local run.
///
/// # Errors
///
/// Returns a [`CliError`] only for setup failures (spawn failure,
/// missing roster benchmark). Invariant violations land in the returned
/// [`CrashDrillReport`].
pub fn run_crash_drill(opts: &SoakOpts) -> Result<CrashDrillReport, CliError> {
    let budget = opts.budget.max(DRILL_MIN_BUDGET);
    let drill_opts = SoakOpts {
        budget,
        scale: opts.scale.max(DRILL_MIN_SCALE),
        ..opts.clone()
    };
    let expected = expected_replies(&drill_opts)?;
    let benches: Vec<String> = expected
        .iter()
        .map(|e| format!("\"{}\"", e.bench))
        .collect();
    let sweep_request = format!(
        r#"{{"op":"sweep","benches":[{}],"budget":{budget},"scale":{}}}"#,
        benches.join(","),
        drill_opts.scale
    );
    // The only reply recovery is allowed to leave behind: every row a
    // cache hit, every report byte-identical to the local baseline.
    let mut rows = Vec::with_capacity(expected.len());
    for exp in &expected {
        rows.push(format!(
            r#"{{"bench":"{}","ok":true,"cached":true,"report":{}}}"#,
            exp.bench,
            exp.fresh
                .strip_prefix(r#"{"ok":true,"op":"run","cached":false,"report":"#)
                .and_then(|r| r.strip_suffix('}'))
                .ok_or_else(|| CliError("crash drill: unexpected baseline reply shape".into()))?
        ));
    }
    let expected_sweep = format!(
        r#"{{"ok":true,"op":"sweep","count":{n},"completed":{n},"results":[{rows}]}}"#,
        n = rows.len(),
        rows = rows.join(",")
    );

    let root = std::env::temp_dir().join(format!("powerchop-crash-drill-{}", std::process::id()));
    let journal_dir = root.join("journal");
    let cache_dir = root.join("cache");
    std::fs::create_dir_all(&journal_dir)?;
    std::fs::create_dir_all(&cache_dir)?;
    let jdir = journal_dir.to_string_lossy().into_owned();
    let cdir = cache_dir.to_string_lossy().into_owned();
    let jpath = powerchop_durable::journal_path(&journal_dir);

    let c = Counters::default();
    let mut kills = 0u64;
    let mut spill_mark = 0u64;
    for cycle in 0..opts.crash_cycles {
        let daemon = DrillChild::spawn(&jdir, &cdir, budget)?;
        // The first cycle seeds the sweep over the wire; every later
        // boot resumes it from the journal without any client at all.
        let seed_conn = if cycle == 0 {
            match TcpStream::connect(daemon.addr) {
                Ok(mut stream) => {
                    stream.write_all(sweep_request.as_bytes())?;
                    stream.write_all(b"\n")?;
                    stream.flush()?;
                    Some(stream)
                }
                Err(e) => {
                    c.note(format!("drill cycle {cycle}: sweep connect failed: {e}"));
                    None
                }
            }
        } else {
            None
        };
        match await_spill_progress(&jpath, spill_mark, cycle > 0) {
            SpillWatch::Progressed(sum) => {
                spill_mark = sum;
                daemon.kill();
                kills += 1;
            }
            SpillWatch::Completed => {
                c.note(format!(
                    "drill cycle {cycle}: sweep completed before the kill landed"
                ));
                daemon.kill();
            }
            SpillWatch::Stalled => {
                c.note(format!(
                    "drill cycle {cycle}: no spill progress within 120s"
                ));
                daemon.kill();
            }
        }
        drop(seed_conn);
    }

    // Final generation: boot, let recovery finish the sweep, then prove
    // the recovered state byte for byte.
    let daemon = DrillChild::spawn(&jdir, &cdir, budget)?;
    let health = await_recovery(daemon.addr, &c).unwrap_or(Json::Null);
    let field = |name| health.get(name).and_then(Json::as_u64);
    let journal_replayed = field("journal_replayed").unwrap_or(0);
    let resumed_instructions = field("resumed_instructions").unwrap_or(0);
    let redone_instructions = field("redone_instructions").unwrap_or(u64::MAX);
    let recovered_boot = health.get("clean_boot").and_then(Json::as_bool) == Some(false);
    let final_sweep_identical = match request(daemon.addr, &sweep_request, REQUEST_TIMEOUT) {
        Ok(reply) => {
            c.saw_reply(&reply);
            if powerchop_serve::strip_trace_id(&reply) == expected_sweep {
                true
            } else {
                c.note(format!("post-recovery sweep diverged: {reply}"));
                false
            }
        }
        Err(e) => {
            c.note(format!("post-recovery sweep failed: {e}"));
            false
        }
    };
    let metrics = scrape(daemon.addr, SCRAPE_TIMEOUT).unwrap_or_default();
    let counters_scraped = ["serve_recoveries_total", "serve_journal_replayed_total"]
        .iter()
        .all(|name| match metrics.get(*name) {
            Some(&v) if v > 0.0 => true,
            got => {
                c.note(format!("metrics counter {name}: expected > 0, got {got:?}"));
                false
            }
        });
    let clean_drain = daemon.drain(&c);
    let _ = std::fs::remove_dir_all(&root);

    let notes = c
        .notes
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    Ok(CrashDrillReport {
        kills,
        journal_replayed,
        resumed_instructions,
        redone_instructions,
        recovered_boot,
        final_sweep_identical,
        counters_scraped,
        clean_drain,
        notes,
    })
}

/// Prints and verdicts one crash-drill report.
///
/// # Errors
///
/// Returns a [`CliError`] when any drill invariant failed.
fn crash_drill_verdict(opts: &SoakOpts, report: &CrashDrillReport) -> Result<(), CliError> {
    println!(
        "crash drill: {} mid-sweep kill(s), journal replayed {}, resumed {} instr, re-done {} instr",
        report.kills, report.journal_replayed, report.resumed_instructions,
        report.redone_instructions
    );
    println!(
        "crash drill: recovered boot: {}, sweep bit-identical: {}, counters scraped: {}, clean drain: {}",
        if report.recovered_boot { "yes" } else { "no" },
        if report.final_sweep_identical { "yes" } else { "no" },
        if report.counters_scraped { "yes" } else { "no" },
        if report.clean_drain { "yes" } else { "no" }
    );
    if report.passed(opts.crash_cycles) {
        println!("crash drill PASSED");
        Ok(())
    } else {
        for note in &report.notes {
            eprintln!("crash drill: {note}");
        }
        Err(CliError(
            "crash-recovery drill failed (see notes above)".into(),
        ))
    }
}

/// The `soak` command: run the storm, print the verdict, fail loudly.
///
/// # Errors
///
/// Returns a [`CliError`] for setup failures or any violated storm
/// invariant.
pub fn soak_cmd(opts: &SoakOpts) -> Result<(), CliError> {
    println!(
        "chaos soak: seed {}, {} hostile + {} honest clients x {} requests",
        opts.seed, opts.hostile, opts.honest, opts.requests
    );
    let report = run_soak(opts)?;
    println!(
        "replies {} ({} malformed), honest {} ok / {} mismatched, hostile drops {}",
        report.replies,
        report.malformed,
        report.honest_ok,
        report.honest_mismatches,
        report.hostile_drops
    );
    println!(
        "clean drain: {}",
        if report.clean_drain { "yes" } else { "no" }
    );
    if !report.passed() {
        for note in &report.notes {
            eprintln!("soak: {note}");
        }
        return Err(CliError("chaos soak failed (see notes above)".into()));
    }
    println!("soak PASSED");
    if opts.crash_cycles > 0 {
        println!(
            "crash drill: {} cycle(s) of mid-sweep SIGKILL + restart",
            opts.crash_cycles
        );
        let drill = run_crash_drill(opts)?;
        crash_drill_verdict(opts, &drill)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostile_frames_are_reproducible_per_seed() {
        let expected: Vec<Expected> = ROSTER
            .iter()
            .map(|&bench| Expected {
                bench,
                request: format!(r#"{{"op":"run","bench":"{bench}"}}"#),
                fresh: String::new(),
                cached: String::new(),
            })
            .collect();
        let frames = |seed: u64| -> Vec<Vec<u8>> {
            let mut rng = SimRng::new(seed).fork(stream_label("soak-hostile")).fork(0);
            (0..64)
                .map(|_| hostile_frame(&mut rng, &expected))
                .collect()
        };
        assert_eq!(frames(7), frames(7), "same seed, same storm");
        assert_ne!(frames(7), frames(8), "different seeds diverge");
        // Every frame class shows up across a modest draw count.
        let all = frames(7);
        assert!(all.iter().any(|f| f.starts_with(b"{\"op\":\"status\"}")));
        assert!(
            all.iter().any(|f| f.last() != Some(&b'\n')),
            "fragment bait"
        );
        assert!(
            all.iter().any(|f| std::str::from_utf8(f).is_err()),
            "raw garbage"
        );
    }

    #[test]
    fn is_retryable_matches_backpressure_codes_only() {
        assert!(is_retryable(r#"{"ok":false,"code":429,"error":"busy"}"#));
        assert!(is_retryable(
            r#"{"ok":false,"code":503,"error":"overloaded"}"#
        ));
        assert!(!is_retryable(
            r#"{"ok":false,"code":400,"error":"bad-request"}"#
        ));
        assert!(!is_retryable(r#"{"ok":true,"op":"run","cached":false}"#));
    }
}
