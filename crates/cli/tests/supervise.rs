//! End-to-end checks of `powerchop-cli supervise` through the real
//! binary: what a re-invocation runs, skips and resumes, and that a
//! finished sweep directory is a result log the serve daemon reads.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use powerchop::{run_program, ManagerKind, RunConfig};
use powerchop_serve::{report_to_json, strip_trace_id, Server, ServerConfig};
use powerchop_workloads::Scale;

const BUDGET: u64 = 200_000;
const SCALE: f64 = 0.05;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwc-supervise-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `powerchop-cli supervise <args> --dir <dir>` and returns whether
/// it exited 0, plus its stdout.
fn supervise(dir: &Path, args: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_powerchop-cli"))
        .arg("supervise")
        .args(args.split_whitespace())
        .arg("--dir")
        .arg(dir)
        .output()
        .expect("the CLI runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    (out.status.success(), stdout)
}

/// The sweep directory holds the durability files and nothing else.
fn assert_only_durability_files(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("dir lists") {
        let name = entry.expect("entry reads").file_name();
        let name = name.to_string_lossy();
        assert!(
            name == "intents.wal"
                || name == "results.wal"
                || (name.starts_with("spill-") && name.ends_with(".ckpt")),
            "unexpected file {name} in the sweep directory"
        );
    }
}

#[test]
fn a_new_budget_or_manager_runs_a_new_sweep() {
    let dir = temp_dir("respec");
    let base = "hmmer --budget 100000 --scale 0.05";
    for args in [
        base.to_owned(),
        "hmmer --budget 400000 --scale 0.05".to_owned(),
        format!("{base} --manager full"),
    ] {
        let (ok, out) = supervise(&dir, &args);
        assert!(ok, "`{args}` exits 0:\n{out}");
        assert!(out.contains("hmmer: completed in"), "`{args}` runs:\n{out}");
        assert!(out.contains("skipped (done)   0"), "`{args}`:\n{out}");
    }
    // The same spec again is the one thing that is skipped.
    let (ok, out) = supervise(&dir, base);
    assert!(ok, "{out}");
    assert!(out.contains("hmmer: already done — skipped"), "{out}");
    assert_only_durability_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deadline_killed_sweep_resumes_on_the_next_invocation() {
    let dir = temp_dir("deadline");
    let run = format!("hmmer --budget {BUDGET} --scale {SCALE}");
    let (ok, out) = supervise(&dir, &format!("{run} --deadline-ms 0 --max-attempts 1"));
    assert!(!ok, "a deadline-killed sweep exits non-zero:\n{out}");
    assert!(out.contains("hmmer: deadline exceeded"), "{out}");
    assert!(out.contains("deadline-killed  1 (hmmer)"), "{out}");

    let (ok, out) = supervise(&dir, &run);
    assert!(ok, "the re-invocation completes and exits 0:\n{out}");
    assert!(out.contains(", resumed from checkpoint)"), "{out}");
    assert!(out.contains("skipped (done)   0"), "{out}");
    assert_only_durability_files(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends one request line and reads the one-line reply.
fn request(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("daemon accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout sets");
    writeln!(stream, "{line}").expect("request writes");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("reply reads");
    reply.trim_end().to_owned()
}

#[test]
fn a_finished_sweep_dir_answers_a_daemon_run_as_a_cache_hit() {
    let dir = temp_dir("serve");
    let (ok, out) = supervise(
        &dir,
        &format!("hmmer namd --budget {BUDGET} --scale {SCALE}"),
    );
    assert!(ok, "{out}");
    assert_only_durability_files(&dir);

    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(1),
        journal_dir: Some(dir.to_string_lossy().into_owned()),
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("daemon binds over the sweep directory");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    let b = powerchop_workloads::by_name("hmmer").expect("known benchmark");
    let mut cfg = RunConfig::for_kind(b.core_kind());
    cfg.max_instructions = BUDGET;
    let direct = run_program(&b.program(Scale(SCALE)), ManagerKind::PowerChop, &cfg)
        .expect("direct run completes");
    let reply = request(
        addr,
        &format!(r#"{{"op":"run","bench":"hmmer","budget":{BUDGET},"scale":{SCALE}}}"#),
    );
    assert_eq!(
        strip_trace_id(&reply),
        format!(
            r#"{{"ok":true,"op":"run","cached":true,"report":{}}}"#,
            report_to_json(&direct)
        )
    );

    let drain = request(addr, r#"{"op":"shutdown"}"#);
    assert!(drain.contains("\"draining\":true"), "{drain}");
    daemon
        .join()
        .expect("daemon thread joins")
        .expect("daemon drains cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
