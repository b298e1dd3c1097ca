//! Chaos-soak and resilience integration tests for `powerchop-serve`.
//!
//! The headline test boots a real daemon and drives a seeded storm of
//! hostile clients (chaos-wrapped sockets injecting delays, split
//! writes, byte corruption, mid-frame drops and resets) mixed with
//! honest clients, across several seeds, asserting the storm
//! invariants every time:
//!
//! - every reply line any client received is valid RFC 8259 JSON;
//! - every honest request was answered with report bytes bit-identical
//!   to a local in-process run;
//! - the daemon drains cleanly through an in-protocol shutdown;
//! - no threads leak across the storm.
//!
//! The satellite tests pin the individual hardening behaviours: the
//! slow-client read timeout, the max-connections gate, and the
//! 408-expired run releasing its worker slot.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use powerchop_suite::cli::args::SoakOpts;
use powerchop_suite::cli::soak::run_soak;
use powerchop_suite::serve::{Server, ServerConfig};
use powerchop_suite::telemetry::validate_json;

const BUDGET: u64 = 200_000;
const SCALE: f64 = 0.05;

/// Live threads in this process (Linux: one entry per task). Returns
/// `None` where /proc is unavailable, which skips the leak check.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// Asserts the process thread count returns to (near) its pre-storm
/// level. Detached OS threads unwind asynchronously after `join`
/// returns, so the check retries with a deadline and allows a slack of
/// two still-exiting threads.
fn assert_no_thread_leak(before: usize, context: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut after;
    loop {
        match thread_count() {
            None => return,
            Some(n) => after = n,
        }
        if after <= before + 2 || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        after <= before + 2,
        "{context}: thread leak ({before} before, {after} after)"
    );
}

#[test]
fn seeded_storms_hold_every_invariant_across_seeds() {
    for seed in [1u64, 0xCAFE_BABE, 0xDEAD_BEEF] {
        let before = thread_count().unwrap_or(0);
        let opts = SoakOpts {
            seed,
            hostile: 3,
            honest: 2,
            requests: 5,
            budget: BUDGET,
            scale: SCALE,
            jobs: Some(2),
            crash_cycles: 0,
        };
        let report = run_soak(&opts).expect("soak storm runs");
        assert!(
            report.passed(),
            "seed {seed}: storm violated an invariant: {report:?}"
        );
        // Every line any client received went through the RFC 8259
        // validator (`Counters::saw_reply`); zero may escape it and
        // zero may fail it.
        assert!(report.replies > 0, "seed {seed}: storm produced replies");
        assert_eq!(report.malformed, 0, "seed {seed}: malformed replies");
        assert_eq!(
            report.honest_mismatches, 0,
            "seed {seed}: honest replies must be bit-identical: {:?}",
            report.notes
        );
        // Every honest request plus the post-storm verification sweep
        // succeeded (2 clients x 5 requests + 3 roster benches).
        assert_eq!(report.honest_ok, 2 * 5 + 3, "seed {seed}");
        assert!(report.clean_drain, "seed {seed}: in-protocol drain");
        assert_no_thread_leak(before, &format!("seed {seed}"));
    }
}

/// A daemon on its own thread, plus protocol plumbing for the satellite
/// tests (mirrors `tests/serve.rs`).
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
        // The shutdown connection itself can be shed by a tight
        // max-connections gate while a previous connection's slot is
        // still being released; retry until the drain is acknowledged.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let mut conn = self.connect();
            let reply = conn.request(r#"{"op":"shutdown"}"#);
            drop(conn);
            if reply.contains("\"draining\":true") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "shutdown never acknowledged: {reply}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
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
        self.read_reply()
    }

    fn read_reply(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply reads");
        assert!(line.ends_with('\n'), "replies are newline-delimited");
        line.trim_end().to_owned()
    }

    /// Like [`Conn::request`] but returns `None` when the server closed
    /// the socket first (a connection shed mid-handshake makes the
    /// write or the read fail instead of the reply being a 503 line).
    fn try_request(&mut self, line: &str) -> Option<String> {
        writeln!(self.writer, "{line}").ok()?;
        self.writer.flush().ok()?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply).ok()?;
        Some(reply.trim_end().to_owned())
    }
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        ..ServerConfig::default()
    }
}

fn run_line(bench: &str) -> String {
    format!(r#"{{"op":"run","bench":"{bench}","budget":{BUDGET},"scale":{SCALE}}}"#)
}

#[test]
fn slow_loris_clients_get_a_typed_408_and_are_disconnected() {
    let daemon = start(ServerConfig {
        read_timeout_ms: 300,
        ..test_config()
    });

    // Half a request, then silence: the daemon must not wait forever.
    let mut stream = TcpStream::connect(daemon.addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout sets");
    stream
        .write_all(br#"{"op":"run","bench":"#)
        .expect("partial line writes");
    stream.flush().expect("partial line flushes");

    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("408 reply arrives");
    validate_json(reply.trim_end()).expect("408 reply is valid JSON");
    assert!(reply.contains("\"code\":408"), "reply: {reply}");
    assert!(reply.contains("slow-client"), "reply: {reply}");
    // ...and the connection is closed behind it.
    let mut rest = String::new();
    let n = reader.read_to_string(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "slow clients are disconnected after the 408");

    // The shed is visible to operators, and honest clients with the
    // same daemon are untouched.
    let mut conn = daemon.connect();
    let metrics = conn.request(r#"{"op":"metrics"}"#);
    assert!(
        metrics.contains("serve_slow_client_disconnects_total 1"),
        "reply: {metrics}"
    );
    let ok = conn.request(r#"{"op":"status"}"#);
    assert!(ok.contains("\"ok\":true"), "reply: {ok}");
    drop(conn);
    daemon.shutdown();
}

#[test]
fn a_trickled_request_line_gets_a_typed_408_but_steady_lines_are_never_cut() {
    let daemon = start(ServerConfig {
        read_timeout_ms: 300,
        ..test_config()
    });

    // A complete line every 100 ms for a second, three read timeouts'
    // worth: each framed line re-arms the deadline, so a keep-alive
    // client is never cut.
    let mut steady = daemon.connect();
    for _ in 0..10 {
        let ok = steady.request(r#"{"op":"status"}"#);
        assert!(ok.contains("\"ok\":true"), "reply: {ok}");
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(steady);

    // One byte every 100 ms of a line that never ends (offset 50 ms
    // from the deadline, so no byte races the close): bytes alone never
    // move the read deadline, so the 408 comes one timeout after accept.
    let mut stream = TcpStream::connect(daemon.addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout sets");
    let started = Instant::now();
    std::thread::sleep(Duration::from_millis(50));
    let mut trickle = br#"{"op":"status"}"#.iter().cycle();
    let mut received = Vec::new();
    let mut chunk = [0u8; 512];
    while !received.contains(&b'\n') {
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "no 408 within 2 s of trickling"
        );
        let byte = trickle.next().copied().unwrap_or(b'x');
        stream.write_all(&[byte]).expect("trickled byte writes");
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => received.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("trickling client's read failed: {e}"),
        }
    }
    let reply = String::from_utf8(received).expect("reply is UTF-8");
    validate_json(reply.trim_end()).expect("408 reply is valid JSON");
    assert!(reply.contains("\"code\":408"), "reply: {reply}");
    assert!(reply.contains("slow-client"), "reply: {reply}");
    // ...and the connection is closed behind it.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout sets");
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "trickling clients are disconnected after the 408");
    daemon.shutdown();
}

#[test]
fn excess_connections_are_shed_with_a_typed_503() {
    let daemon = start(ServerConfig {
        max_connections: 1,
        ..test_config()
    });

    // Occupy the only slot (a completed request proves it is admitted).
    let mut holder = daemon.connect();
    let ok = holder.request(r#"{"op":"status"}"#);
    assert!(ok.contains("\"ok\":true"), "reply: {ok}");

    // The next connection gets one typed 503 line and an immediate
    // close — never a thread, never a hang.
    let over = TcpStream::connect(daemon.addr).expect("connects");
    over.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout sets");
    let mut reader = BufReader::new(over);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("503 reply arrives");
    validate_json(reply.trim_end()).expect("503 reply is valid JSON");
    assert!(reply.contains("\"code\":503"), "reply: {reply}");
    assert!(reply.contains("overloaded"), "reply: {reply}");
    let mut rest = String::new();
    let n = reader.read_to_string(&mut rest).expect("read to EOF");
    assert_eq!(n, 0, "shed connections are closed");

    // Releasing the slot re-opens the gate (the decrement may lag the
    // close by a scheduler beat, so retry briefly).
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(30);
    let admitted = loop {
        let mut conn = daemon.connect();
        // A reconnect that lands before the slot decrement is shed: the
        // server may close the socket before our write (failed
        // try_request) or after a 503 line (reply without "ok":true).
        // Both mean "gate still closed" — retry.
        let reply = conn.try_request(r#"{"op":"metrics"}"#).unwrap_or_default();
        if reply.contains("\"ok\":true") {
            // Skip the `# TYPE ... counter` line; the sample line is the
            // piece that starts with a digit.
            let shed: u64 = reply
                .split("serve_conn_rejected_total ")
                .skip(1)
                .find_map(|rest| {
                    rest.chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse()
                        .ok()
                })
                .expect("rejected counter is scrapeable");
            assert!(shed >= 1, "reply: {reply}");
            drop(conn);
            break true;
        }
        drop(conn);
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(admitted, "the gate must reopen once the slot frees");
    daemon.shutdown();
}

#[test]
fn pipelined_replies_never_tear_or_interleave() {
    // One connection, a burst of pipelined requests written before any
    // reply is read: the event loop's partial-write path must deliver
    // one complete, valid JSON line per request, in request order.
    // Alternating large (metrics) and small (status) replies makes a
    // short write mid-line likely; a torn or interleaved reply would
    // fail the validator or arrive out of order.
    let daemon = start(test_config());
    let stream = TcpStream::connect(daemon.addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout sets");
    let mut writer = stream.try_clone().expect("stream clones");

    const BURST: usize = 64;
    let mut burst = String::new();
    for i in 0..BURST {
        burst.push_str(if i % 2 == 0 {
            "{\"op\":\"metrics\"}\n"
        } else {
            "{\"op\":\"status\"}\n"
        });
    }
    writer.write_all(burst.as_bytes()).expect("burst writes");
    writer.flush().expect("burst flushes");

    let mut reader = BufReader::new(stream);
    for i in 0..BURST {
        let mut line = String::new();
        reader.read_line(&mut line).expect("pipelined reply reads");
        assert!(line.ends_with('\n'), "reply {i} newline-terminated");
        let line = line.trim_end();
        validate_json(line).unwrap_or_else(|e| panic!("reply {i} invalid JSON ({e}): {line}"));
        let want = if i % 2 == 0 {
            "\"op\":\"metrics\""
        } else {
            "\"op\":\"status\""
        };
        assert!(
            line.contains(want),
            "reply {i} out of order (want {want}): {line}"
        );
    }
    drop(reader);
    drop(writer);
    daemon.shutdown();
}

#[test]
fn a_deadline_expired_run_frees_its_worker_slot_promptly() {
    // One worker, zero queue headroom beyond it: if the 408 left its
    // slot occupied, the follow-up run could never start.
    let daemon = start(ServerConfig {
        jobs: Some(1),
        queue_depth: 1,
        ..test_config()
    });
    let mut conn = daemon.connect();

    // A run that would take minutes, strangled by a 1 ms deadline. The
    // cancel flag is polled at every step-chunk boundary, so the worker
    // must come back within one chunk of compute, not one run.
    let expired = conn
        .request(r#"{"op":"run","bench":"gobmk","budget":100000000,"scale":1.0,"deadline_ms":1}"#);
    assert!(expired.contains("\"code\":408"), "reply: {expired}");

    // The very next honest run on the same 1-worker pool completes —
    // the slot was released, not leaked.
    let started = Instant::now();
    let ok = conn.request(&run_line("hmmer"));
    assert!(ok.contains("\"ok\":true"), "reply: {ok}");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the freed slot must serve the next run promptly"
    );

    // Inflight accounting agrees: nothing is stuck on the pool.
    let status = conn.request(r#"{"op":"status"}"#);
    assert!(status.contains("\"inflight\":0"), "reply: {status}");
    assert!(status.contains("\"queued\":0"), "reply: {status}");

    drop(conn);
    daemon.shutdown();
}
