//! End-to-end check of `powerchop-cli serve --supervised` through the
//! real binary: a SIGKILLed daemon is respawned on the same address,
//! boots from its journal and result log, and answers the run it
//! finished before the crash as a bit-identical cache hit; an
//! in-protocol shutdown then ends the supervisor cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use powerchop_serve::json::Json;

const RUN: &str = r#"{"op":"run","bench":"hmmer","budget":200000,"scale":0.05}"#;

/// Sends one request line over a fresh connection and returns the reply.
fn request(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("the daemon accepts connections");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout sets");
    let mut writer = stream.try_clone().expect("stream clones");
    writeln!(writer, "{line}").expect("request writes");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("reply reads");
    assert!(
        reply.ends_with('\n'),
        "reply is newline-terminated: {reply:?}"
    );
    reply.trim_end().to_owned()
}

/// The children of process `pid` (its main thread's, which is where the
/// supervisor spawns each daemon generation).
fn children(pid: u32) -> Vec<u32> {
    std::fs::read_to_string(format!("/proc/{pid}/task/{pid}/children"))
        .map(|list| {
            list.split_whitespace()
                .map(|p| p.parse().expect("child pids are numbers"))
                .collect()
        })
        .unwrap_or_default()
}

fn sigkill(pid: u32) {
    let status = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill -9 {pid} failed: {status}");
}

/// The supervisor process plus the lines it and its daemons print. A
/// test that fails midway still takes the whole process tree down.
struct Supervised {
    parent: Child,
    lines: Receiver<String>,
}

impl Supervised {
    /// Waits for the next stdout line containing `needle`.
    fn await_line(&self, needle: &str) {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut seen = Vec::new();
        while !seen
            .last()
            .is_some_and(|line: &String| line.contains(needle))
        {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => seen.push(line),
                Err(e) => panic!("no line containing {needle:?} ({e}); saw {seen:?}"),
            }
        }
    }
}

impl Drop for Supervised {
    fn drop(&mut self) {
        if let Ok(None) = self.parent.try_wait() {
            let daemons = children(self.parent.id());
            let _ = self.parent.kill();
            let _ = self.parent.wait();
            for pid in daemons {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
    }
}

#[test]
fn a_sigkilled_daemon_is_respawned_and_recovers_its_results() {
    let root = std::env::temp_dir().join(format!("pwc-supervised-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (journal, cache) = (root.join("journal"), root.join("cache"));
    std::fs::create_dir_all(&journal).expect("journal dir");
    std::fs::create_dir_all(&cache).expect("cache dir");
    // Every generation re-binds `--addr`, so it has to be a fixed port.
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free port")
        .port();
    let addr = format!("127.0.0.1:{port}");

    let mut parent = Command::new(env!("CARGO_BIN_EXE_powerchop-cli"))
        .args(["serve", "--supervised", "--addr", &addr, "--jobs", "1"])
        .arg("--journal-dir")
        .arg(&journal)
        .arg("--cache-dir")
        .arg(&cache)
        .stdout(Stdio::piped())
        .spawn()
        .expect("the CLI starts");
    let stdout = parent.stdout.take().expect("stdout is piped");
    let (tx, lines) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut sup = Supervised { parent, lines };

    // 1. A journaled daemon answers one run.
    sup.await_line("listening on");
    let fresh = request(&addr, RUN);
    assert!(fresh.contains(r#""ok":true"#), "{fresh}");
    assert!(fresh.contains(r#""cached":false"#), "{fresh}");

    // 2. SIGKILL the daemon: the supervisor's only child.
    let daemons = children(sup.parent.id());
    assert_eq!(daemons.len(), 1, "one daemon generation: {daemons:?}");
    sigkill(daemons[0]);

    // 3. The respawn boots from the journal and the result log.
    sup.await_line("listening on");
    let health = Json::parse(&request(&addr, r#"{"op":"health"}"#)).expect("health is JSON");
    assert_eq!(
        health.get("clean_boot").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(health.get("cache_reloaded").and_then(Json::as_u64), Some(1));

    // 4. The run finished before the crash is a bit-identical cache hit.
    let cached = request(&addr, RUN);
    assert!(cached.contains(r#""cached":true"#), "{cached}");
    let report = |reply: &str| reply[reply.find(r#""report":"#).expect("a report")..].to_owned();
    assert_eq!(report(&cached), report(&fresh));

    // 5. Shutdown drains the daemon and ends the supervisor with 0.
    let drain = request(&addr, r#"{"op":"shutdown"}"#);
    assert!(drain.contains(r#""draining":true"#), "{drain}");
    sup.await_line("drained cleanly after 1 respawn(s)");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = sup.parent.try_wait().expect("the supervisor is waitable") {
            break status;
        }
        assert!(Instant::now() < deadline, "the supervisor never exited");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "supervisor exit: {status}");
    drop(sup);
    reader.join().expect("the stdout reader ends at EOF");
    let _ = std::fs::remove_dir_all(&root);
}
