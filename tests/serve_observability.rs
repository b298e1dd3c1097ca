//! Observability integration tests for the `powerchop-serve` daemon.
//!
//! Exercises the request-scoped tracing layer over a live loopback
//! socket, the same way `tests/serve.rs` drives the protocol:
//!
//! - spans-enabled runs (access log on, flight recorder attached) are
//!   bit-identical to direct in-process runs — observability never
//!   changes an answer;
//! - trace ids are deterministic under `--seed`, and computed by the
//!   documented SplitMix64 stream;
//! - the log2 histogram's quantile estimator tracks a brute-force
//!   sorted-rank quantile to within bucket resolution;
//! - every access-log record — including the ones malformed requests
//!   leave behind — parses through the RFC 8259 validator and carries
//!   the full seven-phase span breakdown;
//! - the whole per-request span-ledger ritual costs under 2% of a
//!   representative request.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use powerchop_suite::cli::commands::report_to_json;
use powerchop_suite::gisa::Program;
use powerchop_suite::powerchop::{run_program, ManagerKind, RunConfig};
use powerchop_suite::serve::json::Json;
use powerchop_suite::serve::{strip_trace_id, Server, ServerConfig};
use powerchop_suite::telemetry::{
    format_trace_id, trace_id, validate_json, Histogram, MetricsRegistry, Phase, SpanLedger,
};
use powerchop_suite::workloads::Scale;

const BUDGET: u64 = 200_000;
const SCALE: f64 = 0.05;

/// A unique temp path per call so parallel tests never share a log.
fn temp_log_path(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "powerchop-observability-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

struct Daemon {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn start(cfg: ServerConfig) -> Daemon {
    let server = Server::bind(&cfg).expect("daemon binds");
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    Daemon {
        addr,
        thread: Some(thread),
    }
}

impl Daemon {
    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(self.addr).expect("daemon accepts connections");
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .expect("read timeout sets");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("stream clones")),
            writer: stream,
        }
    }

    fn shutdown(mut self) {
        let mut conn = self.connect();
        let reply = conn.request(r#"{"op":"shutdown"}"#);
        assert!(reply.contains("\"draining\":true"), "reply: {reply}");
        drop(conn);
        self.thread
            .take()
            .expect("thread handle present")
            .join()
            .expect("server thread joins")
            .expect("server exits cleanly");
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("request writes");
        self.writer.flush().expect("request flushes");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply reads");
        reply.trim_end().to_owned()
    }
}

fn run_line(bench: &str) -> String {
    format!(r#"{{"op":"run","bench":"{bench}","budget":{BUDGET},"scale":{SCALE}}}"#)
}

/// The program and configuration a `run_line(bench)` request runs.
fn direct_run(bench: &str) -> (Program, RunConfig) {
    let b = powerchop_suite::workloads::by_name(bench).expect("known benchmark");
    let mut cfg = RunConfig::for_kind(b.core_kind());
    cfg.max_instructions = BUDGET;
    (b.program(Scale(SCALE)), cfg)
}

fn direct_report(bench: &str) -> String {
    let (program, cfg) = direct_run(bench);
    let report = run_program(&program, ManagerKind::PowerChop, &cfg).expect("run completes");
    report_to_json(&report)
}

/// The trace id a reply envelope carries.
fn reply_trace_id(reply: &str) -> String {
    Json::parse(reply)
        .expect("reply parses")
        .get("trace_id")
        .and_then(Json::as_str)
        .expect("reply carries a trace id")
        .to_owned()
}

#[test]
fn traced_runs_over_the_wire_are_bit_identical_to_direct_runs() {
    // Access log on => every run carries an attached flight recorder.
    let log = temp_log_path("identity");
    let daemon = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        access_log: Some(log.display().to_string()),
        slow_ms: Some(0),
        seed: Some(42),
        ..ServerConfig::default()
    });
    let mut conn = daemon.connect();

    let expected = direct_report("hmmer");
    let reply = conn.request(&run_line("hmmer"));
    assert_eq!(
        strip_trace_id(&reply),
        format!(r#"{{"ok":true,"op":"run","cached":false,"report":{expected}}}"#),
        "a traced run must embed the exact direct-run bytes"
    );

    // Sweeps go through the same traced worker path.
    let sweep = conn.request(&format!(
        r#"{{"op":"sweep","benches":["hmmer"],"budget":{BUDGET},"scale":{SCALE}}}"#
    ));
    assert!(
        sweep.contains(&format!(
            r#"{{"bench":"hmmer","ok":true,"cached":true,"report":{expected}}}"#
        )),
        "traced sweep rows embed the same bytes: {sweep}"
    );

    drop(conn);
    daemon.shutdown();
    let _ = std::fs::remove_file(&log);
}

#[test]
fn trace_ids_are_deterministic_under_a_fixed_seed() {
    let seed = 0x00C0_FFEE_u64;
    let observed: Vec<Vec<String>> = (0..2)
        .map(|_| {
            let daemon = start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                jobs: Some(1),
                seed: Some(seed),
                ..ServerConfig::default()
            });
            let mut conn = daemon.connect();
            let ids: Vec<String> = (0..3)
                .map(|_| reply_trace_id(&conn.request(r#"{"op":"status"}"#)))
                .collect();
            drop(conn);
            daemon.shutdown();
            ids
        })
        .collect();
    assert_eq!(
        observed[0], observed[1],
        "two daemons with the same seed mint the same trace-id sequence"
    );
    // And the sequence is exactly the documented SplitMix64 stream.
    for (n, id) in observed[0].iter().enumerate() {
        assert_eq!(
            *id,
            format_trace_id(trace_id(seed, n as u64)),
            "trace id #{n} must come from trace_id(seed, n)"
        );
    }
    assert_eq!(observed[0][0].len(), 16, "ids are 16 lowercase hex digits");
    assert!(observed[0][0].chars().all(|c| c.is_ascii_hexdigit()));
}

/// The log2 bucket index a value lands in: bucket 0 for zero, bucket
/// `i >= 1` for `[2^(i-1), 2^i)`.
fn bucket_of(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros()
    }
}

#[test]
fn histogram_quantiles_track_brute_force_within_bucket_resolution() {
    let mut h = Histogram::default();
    // A deterministic, lumpy sample set: zeros, a dense low mode and a
    // sparse heavy tail — the shape access latencies actually have.
    let mut samples: Vec<u64> = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..2_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = match i % 10 {
            0 => 0,
            1..=7 => x % 50,
            8 => 50 + x % 1_000,
            _ => 10_000 + x % 100_000,
        };
        samples.push(v);
        h.observe(v);
    }
    samples.sort_unstable();
    for q in [0.5, 0.9, 0.99, 0.999] {
        // Brute force: the sample at the ceil(q * n) rank.
        let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
        let truth = samples[rank];
        let estimate = h.quantile(q);
        assert!(
            estimate.is_finite() && estimate >= 0.0,
            "q={q}: estimate {estimate} must be a finite non-negative number"
        );
        // Log2 buckets can only promise the right power-of-two band.
        let est_bucket = bucket_of(estimate.round() as u64);
        assert!(
            est_bucket.abs_diff(bucket_of(truth)) <= 1,
            "q={q}: estimate {estimate} (bucket {est_bucket}) strays from \
             true quantile {truth} (bucket {})",
            bucket_of(truth)
        );
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Mean nanoseconds of the ritual a traced request adds outside its
/// compute: mint a trace id, stamp the seven phases plus the compute
/// cycles, observe the latency into the `run` histogram and render
/// the hex id for the reply.
fn ritual_ns(registry: &mut MetricsRegistry) -> f64 {
    const RITUALS: u64 = 10_000;
    let start = Instant::now();
    for n in 0..RITUALS {
        let trace = trace_id(0xBEEF, n);
        let mut ledger = SpanLedger::new();
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            ledger.record(phase, black_box(100 + i as u64));
        }
        ledger.record_cycles(Phase::Compute, black_box(50_000));
        registry.observe(
            "serve_request_duration_ms{op=\"run\"}",
            ledger.total_wall_ns() / 1_000_000,
        );
        black_box(format_trace_id(trace));
    }
    start.elapsed().as_nanos() as f64 / RITUALS as f64
}

#[test]
fn span_ledger_ritual_costs_under_two_percent_of_a_request() {
    // The representative request is the one the wire tests send: one
    // direct hmmer run under PowerChop at the default test knobs.
    let (program, cfg) = direct_run("hmmer");
    let mut registry = MetricsRegistry::new();
    let mut request = Vec::new();
    let mut ritual = Vec::new();
    // Interleaved, so drift in host speed lands on both sides alike.
    for _ in 0..5 {
        let start = Instant::now();
        let report = run_program(&program, ManagerKind::PowerChop, &cfg).expect("run completes");
        black_box(report.cycles);
        request.push(start.elapsed().as_nanos() as f64);
        ritual.push(ritual_ns(&mut registry));
    }
    let (request, ritual) = (median(request), median(ritual));
    let pct = 100.0 * ritual / request;
    println!("span-ledger ritual {ritual:.0} ns of a {request:.0} ns request: {pct:.4}%");
    assert!(
        pct < 2.0,
        "span-ledger ritual costs {pct:.4}% of a request ({ritual:.0} of {request:.0} ns)"
    );
}

#[test]
fn access_log_records_survive_fuzz_and_carry_full_span_breakdowns() {
    let log = temp_log_path("fuzz");
    let daemon = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        max_request_bytes: 4096,
        access_log: Some(log.display().to_string()),
        // Threshold zero promotes every record to the slow/detailed
        // form, so the compute-attribution fields are testable.
        slow_ms: Some(0),
        seed: Some(7),
        ..ServerConfig::default()
    });
    let mut conn = daemon.connect();

    let run_reply = conn.request(&run_line("hmmer"));
    let run_trace = reply_trace_id(&run_reply);
    let status_reply = conn.request(r#"{"op":"status"}"#);
    assert!(status_reply.contains("\"uptime_ms\":"), "{status_reply}");
    assert!(
        status_reply.contains("\"inflight_requests\":"),
        "{status_reply}"
    );

    // A fuzz sweep of malformed lines: every one must still produce a
    // valid traced access record.
    let fuzz: &[&str] = &[
        "",
        "   ",
        "{",
        "nonsense",
        "[1,2,3]",
        "{}",
        r#"{"op":42}"#,
        r#"{"op":"warp-drive"}"#,
        r#"{"op":"run","bench":"doom"}"#,
    ];
    for line in fuzz {
        let reply = conn.request(line);
        assert!(reply.contains("\"ok\":false"), "{line:?}: {reply}");
        assert!(
            reply.contains("\"trace_id\":\""),
            "{line:?}: even error replies carry a trace id: {reply}"
        );
    }
    drop(conn);
    daemon.shutdown();

    let text = std::fs::read_to_string(&log).expect("access log exists");
    let records: Vec<Json> = text
        .lines()
        .map(|line| {
            validate_json(line).unwrap_or_else(|e| {
                panic!("access record fails RFC 8259 validation ({e}): {line}")
            });
            Json::parse(line).expect("validated record parses")
        })
        .collect();
    // One record per protocol request: run + status + fuzz + shutdown.
    assert_eq!(records.len(), 2 + fuzz.len() + 1, "log:\n{text}");

    let field_str = |r: &Json, key: &str| {
        r.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .unwrap_or_default()
    };
    let run_record = records
        .iter()
        .find(|r| field_str(r, "op") == "run")
        .expect("run record logged");
    assert_eq!(
        field_str(run_record, "trace_id"),
        run_trace,
        "the access record and the wire reply share one trace id"
    );
    assert_eq!(
        run_record.get("status").and_then(Json::as_u64),
        Some(200),
        "log:\n{text}"
    );
    let spans = run_record.get("spans").expect("run record carries spans");
    for phase in Phase::ALL {
        let key = format!("{}_us", phase.label());
        assert!(
            spans.get(&key).and_then(Json::as_u64).is_some(),
            "span phase {key} missing from record: {text}"
        );
    }
    assert_eq!(
        run_record.get("slow").and_then(Json::as_bool),
        Some(true),
        "--slow-ms 0 promotes every record"
    );
    assert!(
        run_record
            .get("compute_cycles")
            .and_then(Json::as_u64)
            .is_some_and(|c| c > 0),
        "slow run records attribute simulated cycles: {text}"
    );
    assert!(
        run_record
            .get("trace_events")
            .and_then(Json::as_u64)
            .is_some_and(|n| n > 0),
        "the attached flight recorder captured events: {text}"
    );

    // Malformed lines are logged as op="malformed" with a 400 status
    // and the same seven-phase span object.
    let malformed: Vec<&Json> = records
        .iter()
        .filter(|r| field_str(r, "op") == "malformed")
        .collect();
    assert_eq!(malformed.len(), fuzz.len(), "log:\n{text}");
    for r in malformed {
        let status = r.get("status").and_then(Json::as_u64).unwrap_or(0);
        assert!(
            status == 400 || status == 404,
            "malformed records carry the typed error status, got {status}"
        );
        let spans = r.get("spans").expect("malformed records carry spans");
        assert!(spans.get("parse_us").and_then(Json::as_u64).is_some());
    }

    // Every record has a distinct trace id — one id per request.
    let mut ids: Vec<String> = records.iter().map(|r| field_str(r, "trace_id")).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "trace ids never repeat: {text}");

    let _ = std::fs::remove_file(&log);
}
