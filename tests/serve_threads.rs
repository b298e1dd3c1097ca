//! Thread census for `powerchop-serve`: a daemon booted with `jobs: N`
//! runs on its event-loop thread plus its N pool workers, and on nothing
//! else — not per run, not per sweep, not for boot recovery.
//!
//! The census counts every thread in this process, so it lives in its
//! own test binary: no other test's daemon may share the process while
//! it samples.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use powerchop_suite::durable::{journal_path, Journal, Record, SpecRecord};
use powerchop_suite::serve::{Server, ServerConfig};
use powerchop_suite::telemetry::validate_json;

const SCALE: f64 = 0.05;
/// Concurrent cold runs held in flight at once.
const RUNS: usize = 300;
/// Benchmarks the runs cycle through.
const BENCHES: [&str; 4] = ["hmmer", "namd", "msn", "gobmk"];

/// Live threads in this process (Linux: one entry per task). Returns
/// `None` where /proc is unavailable, which skips the census.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwc-threads-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One request line in flight on its own connection, read back without
/// a client thread.
struct Pending {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl Pending {
    fn send(addr: std::net::SocketAddr, line: &str) -> Self {
        let mut stream = TcpStream::connect(addr).expect("daemon accepts");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("request writes");
        stream.set_nonblocking(true).expect("non-blocking read");
        Self {
            stream,
            reply: Vec::new(),
        }
    }

    /// Reads whatever has arrived; true once the reply line is complete.
    fn poll(&mut self) -> bool {
        let mut buf = [0u8; 4096];
        loop {
            if self.reply.ends_with(b"\n") {
                return true;
            }
            match self.stream.read(&mut buf) {
                Ok(0) => panic!("daemon closed a connection before replying"),
                Ok(n) => self.reply.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("reply read failed: {e}"),
            }
        }
    }
}

#[test]
fn a_daemon_never_runs_more_than_its_loop_and_pool_threads() {
    if thread_count().is_none() {
        return;
    }
    // A journaled, never-finished sweep makes boot recovery run while
    // the census is taken.
    let journal_dir = temp_dir("journal");
    let mut journal = Journal::open(&journal_path(&journal_dir)).expect("journal opens");
    let specs = BENCHES
        .iter()
        .map(|bench| SpecRecord {
            bench: (*bench).to_owned(),
            manager_tag: 0, // PowerChop
            manager_param: 0,
            budget: 150_000,
            scale_bits: SCALE.to_bits(),
            seed: None,
            storm: false,
        })
        .collect();
    journal
        .append(&Record::Intent {
            id: 0,
            trace: 0,
            specs,
        })
        .expect("intent journals");
    drop(journal);

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        queue_depth: 512,
        max_connections: 512,
        journal_dir: Some(journal_dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("daemon binds");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    let mut status = Pending::send(addr, r#"{"op":"status"}"#);
    while !status.poll() {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Booted: this thread, the harness, the loop thread and two workers.
    let baseline = thread_count().expect("census available");

    // Every request is written before any reply is read: 300 cold runs
    // with distinct budgets (no cache hits) plus two concurrent sweeps.
    let mut pending: Vec<Pending> = (0..RUNS)
        .map(|i| {
            let bench = BENCHES[i % BENCHES.len()];
            let budget = 20_000 + i;
            Pending::send(
                addr,
                &format!(r#"{{"op":"run","bench":"{bench}","budget":{budget},"scale":{SCALE}}}"#),
            )
        })
        .collect();
    for budget in [40_000, 40_001] {
        pending.push(Pending::send(
            addr,
            &format!(
                r#"{{"op":"sweep","benches":["hmmer","namd","msn"],"budget":{budget},"scale":{SCALE}}}"#
            ),
        ));
    }

    let mut peak = baseline;
    let deadline = Instant::now() + Duration::from_secs(600);
    let mut open: Vec<usize> = (0..pending.len()).collect();
    while !open.is_empty() {
        peak = peak.max(thread_count().unwrap_or(0));
        open.retain(|&i| !pending[i].poll());
        assert!(
            Instant::now() < deadline,
            "{} replies still outstanding",
            open.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    peak = peak.max(thread_count().unwrap_or(0));
    for p in &pending {
        let line = std::str::from_utf8(&p.reply).expect("utf-8 reply");
        let line = line.trim_end();
        validate_json(line).expect("reply is valid JSON");
        assert!(line.starts_with(r#"{"ok":true"#), "reply: {line}");
        assert!(!line.contains(r#""ok":false"#), "a row failed: {line}");
    }
    assert!(
        peak <= baseline,
        "the daemon spawned threads: {baseline} after boot, {peak} at peak"
    );

    let mut shutdown = Pending::send(addr, r#"{"op":"shutdown"}"#);
    while !shutdown.poll() {
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(pending);
    drop(status);
    drop(shutdown);
    daemon
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&journal_dir);
}
