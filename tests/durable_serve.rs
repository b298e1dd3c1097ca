//! Crash-consistency integration tests for the durable serve stack.
//!
//! Three guarantees under test, end to end:
//!
//! - **Resume identity**: a daemon booted over a journal holding an
//!   interrupted sweep (an `Intent` with a spilled mid-run checkpoint,
//!   exactly what a SIGKILL mid-sweep leaves behind) finishes the sweep
//!   from the checkpoint with zero re-done instructions, and the
//!   recovered reports are byte-identical to uninterrupted in-process
//!   runs.
//! - **Corruption containment**: byte-flip and truncation fuzzing over
//!   a journal never panics `replay`, and recovery always lands on the
//!   exact prefix of records before the damage. A daemon booted over a
//!   corrupt journal serves normally and reports the discard.
//! - **Cache persistence**: results computed before a restart are served
//!   as cache hits, bit-identical, after it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use powerchop_suite::cli::commands::report_to_json;
use powerchop_suite::durable::{
    journal_path, replay, spill_path, write_atomic, Journal, Record, SpecRecord,
};
use powerchop_suite::powerchop::{run_program, ManagerKind, RunConfig, Simulation, SnapshotMeta};
use powerchop_suite::serve::{strip_trace_id, Server, ServerConfig};
use powerchop_suite::workloads::Scale;

/// Knobs for the resume-identity test: scale sets the run length (long
/// enough that the interrupted run has real work left), budget merely
/// caps it.
const SWEEP_SCALE: f64 = 0.3;
const SWEEP_BUDGET: u64 = 10_000_000;

/// Knobs for the quick corruption/cache tests.
const QUICK_SCALE: f64 = 0.05;
const QUICK_BUDGET: u64 = 200_000;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwc-dsrv-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn durable_config(journal: &Path, cache: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        journal_dir: Some(journal.to_string_lossy().into_owned()),
        cache_dir: Some(cache.to_string_lossy().into_owned()),
        spill_every: 100_000,
        ..ServerConfig::default()
    }
}

/// A daemon running on its own thread, plus the handle to join it.
struct Daemon {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn start(cfg: &ServerConfig) -> Daemon {
    let server = Server::bind(cfg).expect("daemon binds");
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    Daemon {
        addr,
        thread: Some(thread),
    }
}

impl Daemon {
    fn request(&self, line: &str) -> String {
        let mut stream = TcpStream::connect(self.addr).expect("daemon accepts");
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .expect("read timeout sets");
        writeln!(stream, "{line}").expect("request writes");
        stream.flush().expect("request flushes");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply reads");
        assert!(reply.ends_with('\n'), "replies are newline-delimited");
        reply.trim_end().to_owned()
    }

    /// Polls `health` until boot-time recovery finishes; returns the
    /// settled health reply.
    fn await_recovery(&self) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let reply = self.request(r#"{"op":"health"}"#);
            if reply.contains("\"recovery_active\":false") {
                return reply;
            }
            assert!(
                Instant::now() < deadline,
                "recovery still active after 120s: {reply}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Scrapes the HTTP `/metrics` endpoint and returns one counter.
    fn counter(&self, name: &str) -> u64 {
        let mut stream = TcpStream::connect(self.addr).expect("daemon accepts");
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("scrape writes");
        let mut body = String::new();
        BufReader::new(stream)
            .read_to_string(&mut body)
            .expect("scrape reads");
        body.lines()
            .find_map(|l| {
                l.strip_prefix(name)
                    .and_then(|rest| rest.trim().parse().ok())
            })
            .unwrap_or_else(|| panic!("counter {name} missing from scrape:\n{body}"))
    }

    fn shutdown(mut self) {
        let reply = self.request(r#"{"op":"shutdown"}"#);
        assert!(reply.contains("\"draining\":true"), "reply: {reply}");
        self.thread
            .take()
            .expect("thread handle present")
            .join()
            .expect("server thread joins")
            .expect("server exits cleanly");
    }
}

fn json_u64_field(text: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = text.find(&key)? + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn spec_record(bench: &str, budget: u64, scale: f64) -> SpecRecord {
    SpecRecord {
        bench: bench.to_owned(),
        manager_tag: 0, // PowerChop
        manager_param: 0,
        budget,
        scale_bits: scale.to_bits(),
        seed: None,
        storm: false,
    }
}

/// The report an uninterrupted in-process run produces — the bytes any
/// recovered reply must embed.
fn direct_report(bench: &str, budget: u64, scale: f64) -> String {
    let b = powerchop_suite::workloads::by_name(bench).expect("known benchmark");
    let mut cfg = RunConfig::for_kind(b.core_kind());
    cfg.max_instructions = budget;
    let program = b.program(Scale(scale));
    let report = run_program(&program, ManagerKind::PowerChop, &cfg).expect("run completes");
    report_to_json(&report)
}

#[test]
fn interrupted_sweep_resumes_from_its_checkpoint_with_zero_redone_work() {
    let journal_dir = temp_dir("resume-journal");
    let cache_dir = temp_dir("resume-cache");

    // Fabricate exactly the on-disk state a SIGKILL mid-sweep leaves:
    // a journaled two-benchmark intent, with the first benchmark run
    // partway and its checkpoint durably spilled.
    let specs = vec![
        spec_record("hmmer", SWEEP_BUDGET, SWEEP_SCALE),
        spec_record("namd", SWEEP_BUDGET, SWEEP_SCALE),
    ];
    let jpath = journal_path(&journal_dir);
    let mut journal = Journal::open(&jpath).expect("journal opens");
    journal
        .append(&Record::Intent {
            id: 0,
            trace: 0,
            specs,
        })
        .expect("intent journals");
    let bench = powerchop_suite::workloads::by_name("hmmer").expect("known benchmark");
    let mut cfg = RunConfig::for_kind(bench.core_kind());
    cfg.max_instructions = SWEEP_BUDGET;
    let program = bench.program(Scale(SWEEP_SCALE));
    let mut sim = Simulation::new(&program, ManagerKind::PowerChop, &cfg).expect("sim builds");
    while sim.retired() < 800_000 && !sim.is_done() {
        sim.step_chunk(65_536).expect("sim steps");
    }
    let spilled_at = sim.retired();
    assert!(
        spilled_at >= 800_000 && !sim.is_done(),
        "the interrupted run must have real work left (retired {spilled_at})"
    );
    let meta = SnapshotMeta {
        benchmark: "hmmer".into(),
        scale: SWEEP_SCALE,
        manager: "powerchop".into(),
        budget: SWEEP_BUDGET,
        fault_seed: None,
        storm: false,
    };
    let snapshot = sim.snapshot(&meta);
    write_atomic(&spill_path(&journal_dir, 0, "hmmer"), &snapshot).expect("spill writes");
    journal
        .append(&Record::Spill {
            id: 0,
            bench: "hmmer".into(),
            retired: spilled_at,
        })
        .expect("spill journals");
    drop(journal);

    // Boot over the crash state and let recovery finish the sweep.
    let daemon = start(&durable_config(&journal_dir, &cache_dir));
    let health = daemon.await_recovery();
    assert!(health.contains("\"durable\":true"), "health: {health}");
    assert!(health.contains("\"clean_boot\":false"), "health: {health}");
    assert_eq!(json_u64_field(&health, "pending_intents"), Some(1));
    assert_eq!(json_u64_field(&health, "journal_replayed"), Some(2));
    assert_eq!(json_u64_field(&health, "runs_resumed"), Some(2));
    assert_eq!(json_u64_field(&health, "sweeps_resumed"), Some(1));
    assert_eq!(
        json_u64_field(&health, "resumed_instructions"),
        Some(spilled_at),
        "recovery must restore the run exactly at its spill point"
    );
    assert_eq!(
        json_u64_field(&health, "redone_instructions"),
        Some(0),
        "recovery must never re-execute checkpointed work"
    );

    // The recovered results must be cache hits, byte-identical to
    // uninterrupted runs.
    for bench in ["hmmer", "namd"] {
        let reply = daemon.request(&format!(
            r#"{{"op":"run","bench":"{bench}","budget":{SWEEP_BUDGET},"scale":{SWEEP_SCALE}}}"#
        ));
        let expected = format!(
            r#"{{"ok":true,"op":"run","cached":true,"report":{}}}"#,
            direct_report(bench, SWEEP_BUDGET, SWEEP_SCALE)
        );
        assert_eq!(
            strip_trace_id(&reply),
            expected,
            "recovered {bench} diverged"
        );
    }

    // The recovery counters are wired into the Prometheus scrape.
    assert_eq!(daemon.counter("serve_recoveries_total"), 1);
    assert_eq!(daemon.counter("serve_journal_replayed_total"), 2);
    assert_eq!(daemon.counter("serve_torn_tail_discards_total"), 0);

    // The retired intent is gone: its spill file was removed and a
    // fresh boot of the same journal owes nothing.
    daemon.shutdown();
    assert!(
        !spill_path(&journal_dir, 0, "hmmer").exists(),
        "settled intents must not leak spill files"
    );
    let after = replay(&jpath).expect("journal replays");
    assert!(after.pending.is_empty(), "intent must be retired");

    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_run_its_last_chunk_finished_is_never_spilled() {
    let journal_dir = temp_dir("final-spill-journal");
    let cache_dir = temp_dir("final-spill-cache");
    let cfg = ServerConfig {
        spill_every: 1_000,
        ..durable_config(&journal_dir, &cache_dir)
    };
    let jpath = journal_path(&journal_dir);
    let daemon = start(&cfg);

    // 50k instructions finish inside the first 65,536-step chunk, which
    // also crosses the 1k spill interval: the run is done, so nothing is
    // spilled between its Intent and its Done.
    let short = daemon.request(r#"{"op":"run","bench":"hmmer","budget":50000,"scale":0.05}"#);
    assert!(short.contains("\"ok\":true"), "reply: {short}");
    let journal = replay(&jpath).expect("journal replays");
    assert_eq!(
        journal.records_replayed, 2,
        "a run finished by its first chunk journals Intent and Done only"
    );

    // A run spanning several chunks still spills while it is unfinished.
    let long = daemon.request(r#"{"op":"run","bench":"hmmer","budget":2000000,"scale":0.3}"#);
    assert!(long.contains("\"ok\":true"), "reply: {long}");
    let journal = replay(&jpath).expect("journal replays");
    assert!(
        journal.records_replayed > 4,
        "a multi-chunk run must spill (journal holds {} records)",
        journal.records_replayed
    );
    assert!(journal.pending.is_empty(), "both runs are retired");
    daemon.shutdown();

    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Folds the first `n` of `records` the way replay does, returning the
/// pending intent ids it must report.
fn pending_ids_after(records: &[Record], n: usize) -> Vec<u64> {
    let mut pending: Vec<u64> = Vec::new();
    for record in &records[..n] {
        match record {
            Record::Intent { id, .. } => pending.push(*id),
            Record::Spill { .. } => {}
            Record::Done { id } => pending.retain(|p| p != id),
        }
    }
    pending
}

#[test]
fn journal_byte_flips_and_truncations_land_on_the_last_valid_record() {
    let dir = temp_dir("fuzz");
    let records = [
        Record::Intent {
            id: 0,
            trace: 0xFACE,
            specs: vec![spec_record("hmmer", QUICK_BUDGET, QUICK_SCALE)],
        },
        Record::Spill {
            id: 0,
            bench: "hmmer".into(),
            retired: 64_000,
        },
        Record::Intent {
            id: 1,
            trace: 0,
            specs: vec![spec_record("namd", QUICK_BUDGET, QUICK_SCALE)],
        },
        Record::Done { id: 0 },
    ];
    let jpath = journal_path(&dir);
    let mut journal = Journal::open(&jpath).expect("journal opens");
    for record in &records {
        journal.append(record).expect("record journals");
    }
    drop(journal);
    let pristine = std::fs::read(&jpath).expect("journal reads");

    // Frame boundaries: 12-byte header (magic, length, CRC) + payload.
    let mut boundaries = vec![0usize];
    for record in &records {
        boundaries.push(boundaries.last().expect("nonempty") + 12 + record.encode().len());
    }
    assert_eq!(*boundaries.last().expect("nonempty"), pristine.len());
    let frame_of = |pos: usize| boundaries[1..].iter().filter(|&&end| end <= pos).count();

    let fuzzed = jpath.with_extension("fuzz");
    // Exhaustive over the first frames, stride-sampled over the rest —
    // the same coverage/runtime trade the checkpoint fuzz tests use.
    let positions = (0..pristine.len()).filter(|&i| i < 96 || i % 7 == 0);
    for pos in positions {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 0xFF;
        std::fs::write(&fuzzed, &bytes).expect("fuzzed journal writes");
        let r = replay(&fuzzed).expect("replay never fails on content");
        let intact = frame_of(pos);
        assert_eq!(
            r.records_replayed as usize, intact,
            "flip at byte {pos} must stop the scan at its frame"
        );
        assert!(r.discarded(), "flip at byte {pos} must be reported");
        let ids: Vec<u64> = r.pending.iter().map(|p| p.id).collect();
        assert_eq!(
            ids,
            pending_ids_after(&records, intact),
            "flip at byte {pos} must leave the intact prefix's intents"
        );
    }

    for cut in (0..=pristine.len()).filter(|&i| i < 64 || i % 5 == 0) {
        std::fs::write(&fuzzed, &pristine[..cut]).expect("truncated journal writes");
        let r = replay(&fuzzed).expect("replay never fails on content");
        let at_boundary = boundaries.contains(&cut);
        let complete = frame_of(cut);
        assert_eq!(
            r.records_replayed as usize, complete,
            "cut at byte {cut} must keep exactly the complete frames"
        );
        assert_eq!(
            r.discarded(),
            !at_boundary,
            "cut at byte {cut}: only a mid-frame cut is a torn tail"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_daemon_booted_over_a_corrupt_journal_serves_and_reports_the_discard() {
    let journal_dir = temp_dir("corrupt-journal");
    let cache_dir = temp_dir("corrupt-cache");
    let jpath = journal_path(&journal_dir);
    let mut journal = Journal::open(&jpath).expect("journal opens");
    journal
        .append(&Record::Intent {
            id: 0,
            trace: 0,
            specs: vec![spec_record("hmmer", QUICK_BUDGET, QUICK_SCALE)],
        })
        .expect("intent journals");
    journal
        .append(&Record::Done { id: 0 })
        .expect("done journals");
    drop(journal);
    // Flip a byte inside the Done frame: the boot must discard it and
    // re-owe the intent instead of trusting a journal it misread.
    let mut bytes = std::fs::read(&jpath).expect("journal reads");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&jpath, &bytes).expect("corrupt journal writes");

    let daemon = start(&durable_config(&journal_dir, &cache_dir));
    let health = daemon.await_recovery();
    assert!(health.contains("\"clean_boot\":false"), "health: {health}");
    assert!(
        json_u64_field(&health, "torn_tails_discarded") >= Some(1),
        "health: {health}"
    );
    // The re-owed intent was finished by recovery: the run is cached.
    let reply = daemon.request(&format!(
        r#"{{"op":"run","bench":"hmmer","budget":{QUICK_BUDGET},"scale":{QUICK_SCALE}}}"#
    ));
    let expected = format!(
        r#"{{"ok":true,"op":"run","cached":true,"report":{}}}"#,
        direct_report("hmmer", QUICK_BUDGET, QUICK_SCALE)
    );
    assert_eq!(strip_trace_id(&reply), expected);
    assert!(daemon.counter("serve_torn_tail_discards_total") >= 1);
    daemon.shutdown();

    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn the_result_cache_survives_a_restart_bit_identically() {
    let journal_dir = temp_dir("cache-journal");
    let cache_dir = temp_dir("cache-cache");
    let line =
        format!(r#"{{"op":"run","bench":"gobmk","budget":{QUICK_BUDGET},"scale":{QUICK_SCALE}}}"#);
    let report = direct_report("gobmk", QUICK_BUDGET, QUICK_SCALE);

    let first = start(&durable_config(&journal_dir, &cache_dir));
    let fresh = first.request(&line);
    assert_eq!(
        strip_trace_id(&fresh),
        format!(r#"{{"ok":true,"op":"run","cached":false,"report":{report}}}"#)
    );
    first.shutdown();

    let second = start(&durable_config(&journal_dir, &cache_dir));
    let health = second.await_recovery();
    assert!(health.contains("\"clean_boot\":false"), "health: {health}");
    assert!(
        json_u64_field(&health, "cache_reloaded") >= Some(1),
        "health: {health}"
    );
    let cached = second.request(&line);
    assert_eq!(
        strip_trace_id(&cached),
        format!(r#"{{"ok":true,"op":"run","cached":true,"report":{report}}}"#),
        "the reloaded cache must serve the exact pre-restart bytes"
    );
    assert!(second.counter("serve_cache_reloads_total") >= 1);
    second.shutdown();

    let _ = std::fs::remove_dir_all(&journal_dir);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
