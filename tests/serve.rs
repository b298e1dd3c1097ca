//! Live-socket integration tests for the `powerchop-serve` daemon.
//!
//! Every test boots a real daemon on a loopback port-0 socket and
//! drives it over TCP exactly like an external client would: the
//! newline-delimited JSON protocol for work, raw HTTP for `/metrics`.
//! The headline guarantees under test:
//!
//! - replies embed reports bit-identical to a direct in-process run;
//! - repeated requests are served from the LRU cache (visible in the
//!   hit counter);
//! - a full queue sheds work with a 429 reply instead of blocking;
//! - deadline-expired runs yield 408 and the daemon survives;
//! - malformed input of every stripe gets a typed error reply and
//!   never takes the daemon down;
//! - shutdown drains gracefully.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use powerchop_suite::cli::commands::report_to_json;
use powerchop_suite::powerchop::{run_program, ManagerKind, RunConfig};
use powerchop_suite::serve::{strip_trace_id, Server, ServerConfig};
use powerchop_suite::telemetry::validate_json;
use powerchop_suite::workloads::Scale;

const BUDGET: u64 = 200_000;
const SCALE: f64 = 0.05;

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        ..ServerConfig::default()
    }
}

/// A daemon running on its own thread, plus the handle to join it.
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

    /// Sends a shutdown, verifies the drain handshake, and joins the
    /// server thread.
    fn shutdown(mut self) {
        let mut conn = self.connect();
        let reply = conn.request(r#"{"op":"shutdown"}"#);
        assert!(reply.contains("\"draining\":true"), "reply: {reply}");
        // Work submitted after the drain began is refused, not queued.
        let refused = conn.request(&format!(
            r#"{{"op":"run","bench":"hmmer","budget":{BUDGET},"scale":{SCALE}}}"#
        ));
        assert!(refused.contains("\"code\":503"), "reply: {refused}");
        drop(conn);
        let result = self
            .thread
            .take()
            .expect("thread handle present")
            .join()
            .expect("server thread joins");
        result.expect("server exits cleanly");
        // The listener is gone: new clients are refused outright.
        assert!(
            TcpStream::connect(self.addr).is_err(),
            "no connections after drain"
        );
    }
}

/// One protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("request writes");
        self.writer.flush().expect("request flushes");
        self.read_reply()
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("raw bytes write");
        self.writer.flush().expect("raw bytes flush");
    }

    fn read_reply(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply reads");
        assert!(line.ends_with('\n'), "replies are newline-delimited");
        line.trim_end().to_owned()
    }
}

/// The report a direct in-process run of `bench` produces under the
/// daemon's default knobs — the bytes a serve reply must embed.
fn direct_report(bench: &str) -> String {
    let b = powerchop_suite::workloads::by_name(bench).expect("known benchmark");
    let mut cfg = RunConfig::for_kind(b.core_kind());
    cfg.max_instructions = BUDGET;
    let program = b.program(Scale(SCALE));
    let report = run_program(&program, ManagerKind::PowerChop, &cfg).expect("run completes");
    report_to_json(&report)
}

fn run_line(bench: &str) -> String {
    format!(r#"{{"op":"run","bench":"{bench}","budget":{BUDGET},"scale":{SCALE}}}"#)
}

#[test]
fn replies_are_bit_identical_to_direct_runs_and_repeats_hit_the_cache() {
    let daemon = start(test_config());
    let mut conn = daemon.connect();

    let expected = direct_report("hmmer");
    let first = conn.request(&run_line("hmmer"));
    validate_json(&first).expect("reply is valid JSON");
    assert!(
        first.contains("\"trace_id\":\""),
        "every run reply carries a trace id: {first}"
    );
    assert_eq!(
        strip_trace_id(&first),
        format!(r#"{{"ok":true,"op":"run","cached":false,"report":{expected}}}"#),
        "first run is computed and embeds the exact direct-run bytes"
    );

    let second = conn.request(&run_line("hmmer"));
    assert_eq!(
        strip_trace_id(&second),
        format!(r#"{{"ok":true,"op":"run","cached":true,"report":{expected}}}"#),
        "identical request replays the cached bytes"
    );
    assert_ne!(
        first, second,
        "trace ids are per-request, never replayed from the cache"
    );

    // A different budget is a different run key: computed, not replayed.
    let other = conn.request(&format!(
        r#"{{"op":"run","bench":"hmmer","budget":{},"scale":{SCALE}}}"#,
        BUDGET / 2
    ));
    assert!(other.contains("\"cached\":false"), "reply: {other}");

    // The hit is visible to operators in the metrics text.
    let metrics = conn.request(r#"{"op":"metrics"}"#);
    validate_json(&metrics).expect("metrics reply is valid JSON");
    assert!(
        metrics.contains("serve_cache_hits_total 1"),
        "reply: {metrics}"
    );
    assert!(metrics.contains("serve_cache_misses_total 2"));

    drop(conn);
    daemon.shutdown();
}

#[test]
fn concurrent_connections_get_correct_independent_replies() {
    let daemon = start(test_config());
    let benches = ["gobmk", "namd", "msn"];
    let replies: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = benches
            .iter()
            .map(|bench| {
                let mut conn = daemon.connect();
                scope.spawn(move || (bench.to_string(), conn.request(&run_line(bench))))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread joins"))
            .collect()
    });
    for (bench, reply) in replies {
        let expected = direct_report(&bench);
        assert_eq!(
            strip_trace_id(&reply),
            format!(r#"{{"ok":true,"op":"run","cached":false,"report":{expected}}}"#),
            "{bench}: concurrent replies must not cross wires"
        );
    }
    daemon.shutdown();
}

#[test]
fn sweeps_run_whole_rosters_and_share_the_cache_with_run() {
    let daemon = start(test_config());
    let mut conn = daemon.connect();

    // Warm one entry via `run`, then sweep over it plus a cold bench.
    let warm = conn.request(&run_line("hmmer"));
    assert!(warm.contains("\"cached\":false"));
    let sweep = conn.request(&format!(
        r#"{{"op":"sweep","benches":["hmmer","namd"],"budget":{BUDGET},"scale":{SCALE}}}"#
    ));
    validate_json(&sweep).expect("sweep reply is valid JSON");
    assert!(sweep.contains("\"op\":\"sweep\""));
    assert!(sweep.contains("\"count\":2"), "reply: {sweep}");
    assert!(sweep.contains("\"completed\":2"), "reply: {sweep}");
    let hmmer_report = direct_report("hmmer");
    let namd_report = direct_report("namd");
    assert!(
        sweep.contains(&format!(
            r#"{{"bench":"hmmer","ok":true,"cached":true,"report":{hmmer_report}}}"#
        )),
        "warm bench is served from cache: {sweep}"
    );
    assert!(
        sweep.contains(&format!(
            r#"{{"bench":"namd","ok":true,"cached":false,"report":{namd_report}}}"#
        )),
        "cold bench is computed: {sweep}"
    );

    // The sweep populated the cache for later `run` requests.
    let namd_again = conn.request(&run_line("namd"));
    assert!(
        namd_again.contains("\"cached\":true"),
        "reply: {namd_again}"
    );

    drop(conn);
    daemon.shutdown();
}

#[test]
fn a_full_queue_sheds_requests_with_429_instead_of_blocking() {
    let daemon = start(ServerConfig {
        jobs: Some(1),
        queue_depth: 1,
        ..test_config()
    });
    // Saturate the single worker and the single queue slot with a sweep
    // of long runs on one connection...
    let mut sweeper = daemon.connect();
    writeln!(
        sweeper.writer,
        r#"{{"op":"sweep","benches":["gobmk","lbm","dedup"],"budget":3000000,"scale":0.2}}"#
    )
    .expect("sweep writes");
    sweeper.writer.flush().expect("sweep flushes");

    // ...then probe from a second connection until the backpressure is
    // visible. Each probe uses a distinct budget so none is a cache hit.
    let mut prober = daemon.connect();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut saw_busy = false;
    let mut probe_budget = 1000;
    while Instant::now() < deadline {
        probe_budget += 1;
        let reply = prober.request(&format!(
            r#"{{"op":"run","bench":"hmmer","budget":{probe_budget},"scale":{SCALE}}}"#
        ));
        validate_json(&reply).expect("probe reply is valid JSON");
        if reply.contains("\"code\":429") {
            assert!(reply.contains("\"error\":\"busy\""), "reply: {reply}");
            saw_busy = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_busy, "a saturated queue must shed with 429");

    // The shed request lost nothing else: the sweep still completes and
    // the daemon still answers.
    let sweep_reply = sweeper.read_reply();
    assert!(
        sweep_reply.contains("\"completed\":3"),
        "reply: {sweep_reply}"
    );
    let status = prober.request(r#"{"op":"status"}"#);
    assert!(status.contains("\"ok\":true"), "reply: {status}");
    let metrics = prober.request(r#"{"op":"metrics"}"#);
    assert!(metrics.contains("serve_busy_total"), "reply: {metrics}");

    drop(sweeper);
    drop(prober);
    daemon.shutdown();
}

#[test]
fn deadline_expired_runs_reply_408_and_the_daemon_survives() {
    let daemon = start(test_config());
    let mut conn = daemon.connect();

    // A budget that would take minutes, strangled by a 1 ms deadline.
    let reply = conn
        .request(r#"{"op":"run","bench":"gobmk","budget":100000000,"scale":1.0,"deadline_ms":1}"#);
    assert!(reply.contains("\"code\":408"), "reply: {reply}");
    assert!(reply.contains("\"error\":\"deadline\""), "reply: {reply}");

    // The worker was reclaimed: a normal run still completes.
    let ok = conn.request(&run_line("hmmer"));
    assert!(ok.contains("\"ok\":true"), "reply: {ok}");
    let metrics = conn.request(r#"{"op":"metrics"}"#);
    assert!(
        metrics.contains("serve_deadline_expired_total 1"),
        "reply: {metrics}"
    );

    drop(conn);
    daemon.shutdown();
}

#[test]
fn queue_wait_counts_against_the_deadline() {
    let daemon = start(ServerConfig {
        jobs: Some(1),
        ..test_config()
    });
    // The only worker is busy with a run that lasts until its own
    // 1.5 s deadline expires. At scale 200 gobmk runs the whole 1e9
    // budget: seconds past the deadline even in an optimized build.
    let mut long = daemon.connect();
    long.send_raw(
        b"{\"op\":\"run\",\"bench\":\"gobmk\",\"budget\":1000000000,\"scale\":200.0,\"deadline_ms\":1500}\n",
    );
    let mut probe = daemon.connect();
    let picked_up = Instant::now() + Duration::from_secs(60);
    while !probe
        .request(r#"{"op":"status"}"#)
        .contains("\"inflight\":1")
    {
        assert!(Instant::now() < picked_up, "the long run never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A short run queued behind it would finish in well under its
    // 300 ms deadline, but waiting for the worker takes longer than
    // that: the wait is charged, so it expires without computing.
    let queued = probe.request(&format!(
        r#"{{"op":"run","bench":"hmmer","budget":{BUDGET},"scale":{SCALE},"deadline_ms":300}}"#
    ));
    assert!(queued.contains("\"code\":408"), "reply: {queued}");
    assert!(queued.contains("\"error\":\"deadline\""), "reply: {queued}");
    let expired = long.read_reply();
    assert!(expired.contains("\"code\":408"), "reply: {expired}");

    // The expired run left nothing behind: the same run with the
    // default deadline is a cold miss, and it is the only completed run.
    let fresh = probe.request(&run_line("hmmer"));
    assert_eq!(
        strip_trace_id(&fresh),
        format!(
            r#"{{"ok":true,"op":"run","cached":false,"report":{}}}"#,
            direct_report("hmmer")
        )
    );
    let metrics = probe.request(r#"{"op":"metrics"}"#);
    assert!(metrics.contains("serve_runs_total 1"), "reply: {metrics}");
    assert!(
        metrics.contains("serve_deadline_expired_total 2"),
        "reply: {metrics}"
    );

    drop(long);
    drop(probe);
    daemon.shutdown();
}

#[test]
fn malformed_requests_get_typed_errors_and_never_kill_the_daemon() {
    let daemon = start(ServerConfig {
        max_request_bytes: 4096,
        ..test_config()
    });
    let mut conn = daemon.connect();

    // A fuzz sweep of broken inputs on one connection: every line gets
    // a well-formed typed error reply on the same connection.
    let cases: &[(&str, u16)] = &[
        ("", 400),
        ("   ", 400),
        ("{", 400),
        ("nonsense", 400),
        ("[1,2,3]", 400),
        ("\"just a string\"", 400),
        ("{}", 400),
        (r#"{"op":42}"#, 400),
        (r#"{"op":"warp-drive"}"#, 400),
        (r#"{"op":"run"}"#, 400),
        (r#"{"op":"run","bench":7}"#, 400),
        (r#"{"op":"run","bench":"doom"}"#, 404),
        (r#"{"op":"run","bench":"hmmer","budget":0}"#, 400),
        (r#"{"op":"run","bench":"hmmer","budget":1e999}"#, 400),
        (r#"{"op":"run","bench":"hmmer","scale":-2}"#, 400),
        (r#"{"op":"run","bench":"hmmer","manager":"overdrive"}"#, 400),
        (r#"{"op":"sweep","benches":[]}"#, 400),
        (r#"{"op":"sweep","suite":"quake"}"#, 400),
    ];
    for (line, code) in cases {
        let reply = conn.request(line);
        validate_json(&reply).unwrap_or_else(|e| panic!("{line:?}: reply not JSON ({e}): {reply}"));
        assert!(
            reply.contains(&format!("\"code\":{code}")),
            "{line:?}: expected {code}, got {reply}"
        );
        assert!(reply.contains("\"ok\":false"), "{line:?}: {reply}");
        assert!(reply.contains("\"message\":"), "{line:?}: {reply}");
    }

    // Invalid UTF-8 is refused but the line boundary was found, so the
    // connection stays usable.
    conn.send_raw(b"\xff\xfe\x80garbage\n");
    let reply = conn.read_reply();
    assert!(reply.contains("\"code\":400"), "reply: {reply}");
    assert!(reply.contains("UTF-8"), "reply: {reply}");

    // Nesting past the parser's depth cap is a 400, not a stack overflow.
    let deep = format!("{}1{}", "[".repeat(200), "]".repeat(200));
    let reply = conn.request(&deep);
    assert!(reply.contains("\"code\":400"), "reply: {reply}");

    // After all that abuse the same connection still serves real work.
    let ok = conn.request(&run_line("hmmer"));
    assert!(ok.contains("\"ok\":true"), "reply: {ok}");
    drop(conn);

    // An oversized line (no newline inside the limit) gets a 400 and
    // the connection is dropped — there is no boundary to resync at.
    let mut big = daemon.connect();
    big.send_raw(&vec![b'a'; 5000]);
    big.send_raw(b"\n");
    let reply = big.read_reply();
    assert!(reply.contains("exceeds 4096 bytes"), "reply: {reply}");
    let mut rest = String::new();
    let n = big.reader.read_to_string(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "oversized senders are disconnected");

    // And a fresh connection is unaffected.
    let mut fresh = daemon.connect();
    let status = fresh.request(r#"{"op":"status"}"#);
    assert!(status.contains("\"ok\":true"), "reply: {status}");
    drop(fresh);
    daemon.shutdown();
}

#[test]
fn http_get_serves_prometheus_metrics_on_the_same_port() {
    let daemon = start(test_config());
    let mut conn = daemon.connect();
    let ok = conn.request(&run_line("hmmer"));
    assert!(ok.contains("\"ok\":true"));
    drop(conn);

    // A raw HTTP client (curl, a Prometheus scraper) on the same port.
    let mut http = TcpStream::connect(daemon.addr).expect("connects");
    write!(
        http,
        "GET /metrics HTTP/1.1\r\nHost: localhost\r\nUser-Agent: test\r\n\r\n"
    )
    .expect("request writes");
    let mut response = String::new();
    http.read_to_string(&mut response).expect("response reads");
    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "response: {response}"
    );
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4"),
        "response: {response}"
    );
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .expect("header/body split");
    assert!(body.contains("# TYPE serve_requests_total counter"));
    assert!(body.contains("serve_runs_total 1"));
    assert!(body.contains("serve_connections_total"));
    // The per-op latency histogram is a real Prometheus histogram:
    // typed, with bucket/sum/count series carrying the op label.
    assert!(
        body.contains("# TYPE serve_request_duration_ms histogram"),
        "body: {body}"
    );
    assert!(
        body.contains("# HELP serve_request_duration_ms"),
        "body: {body}"
    );
    assert!(
        body.contains(r#"serve_request_duration_ms_bucket{op="run",le="+Inf"} 1"#),
        "body: {body}"
    );
    assert!(
        body.contains(r#"serve_request_duration_ms_count{op="run"} 1"#),
        "body: {body}"
    );
    assert!(
        body.contains(r#"serve_request_duration_ms_sum{op="run"}"#),
        "body: {body}"
    );
    // Series the daemon has never observed are pre-seeded at zero so
    // dashboards see every op from boot, and the in-flight gauge exists.
    assert!(
        body.contains(r#"serve_request_duration_ms_count{op="sweep"} 0"#),
        "body: {body}"
    );
    assert!(body.contains("serve_inflight_requests 0"), "body: {body}");
    // Every exposition line is `# ...` or `name value` (labels never
    // contain spaces), and every bucket series is monotone in `le`.
    for line in body.lines() {
        assert!(
            line.starts_with('#') || line.split_whitespace().count() == 2,
            "malformed exposition line: {line:?}"
        );
    }
    let mut last: Option<(String, u64)> = None;
    for line in body.lines() {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        let Some((series, _le)) = key.split_once("le=\"") else {
            last = None;
            continue;
        };
        let count: u64 = value.parse().expect("bucket counts are integers");
        if let Some((prev_series, prev_count)) = &last {
            if *prev_series == series {
                assert!(
                    *prev_count <= count,
                    "bucket counts must be cumulative: {line:?}"
                );
            }
        }
        last = Some((series.to_owned(), count));
    }

    // Anything but /metrics is a 404, and the daemon shrugs it off.
    let mut other = TcpStream::connect(daemon.addr).expect("connects");
    write!(other, "GET /admin HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("writes");
    let mut response = String::new();
    other.read_to_string(&mut response).expect("reads");
    assert!(
        response.starts_with("HTTP/1.1 404 Not Found\r\n"),
        "response: {response}"
    );

    daemon.shutdown();
}
