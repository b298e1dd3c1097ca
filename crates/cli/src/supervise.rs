//! The supervised batch runner: a crash-safe work queue for benchmark
//! sweeps.
//!
//! Each benchmark run gets a wall-clock deadline (checked at every step
//! chunk boundary, so the run stops cooperatively), panic isolation via
//! `catch_unwind`, retries with exponential backoff up to a capped
//! attempt count, and periodic crash-safe checkpoints. Progress is
//! journaled to an append-only file, so killing the sweep at any point —
//! including `kill -9` — and re-invoking it continues where it left off:
//! completed benchmarks are skipped outright and the in-flight one
//! resumes from its last checkpoint instead of starting over.
//!
//! The sweep fans out over `--jobs` slots on the `powerchop-exec` pool.
//! Each slot owns its benchmark end-to-end: its deadline is fixed at
//! that run's own start (a slot never inherits wall-clock time another
//! slot has already burned), journal appends are mutex-serialized around
//! the fsync, and console output is buffered per run so slots don't
//! interleave lines. The final summary folds rows in benchmark order, so
//! it is identical at every thread count.
//!
//! See `DESIGN.md` for the supervisor state machine.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use powerchop::{RunReport, Simulation, STEP_CHUNK};
use powerchop_durable::write_atomic;
use powerchop_telemetry::Tracer;

use crate::args::{RunOpts, SuperviseOpts};
use crate::commands::{per_bench_path, prepare_run, tracer_for, write_telemetry, PreparedRun};
use crate::CliError;

/// The journal file name inside the supervisor state directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// Terminal states a benchmark can reach (recorded in the journal; a
/// bench with a terminal record is never re-run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    /// Completed successfully.
    Done,
    /// Killed by the per-run deadline on its final attempt.
    DeadlineKilled,
    /// Panicked or errored on its final attempt.
    Failed,
}

/// How one attempt of one benchmark ended. A completed attempt carries
/// the tracer back so the supervisor can export the flight recording
/// and fold a metric summary into the journal.
enum AttemptOutcome {
    Completed(Box<RunReport>, Box<Tracer>),
    DeadlineKilled,
    Panicked(String),
    Errored(String),
}

/// Parses the journal into each benchmark's terminal state (if any).
/// Lines that don't parse are ignored: the journal is append-only and a
/// `kill -9` can truncate its final line mid-write.
fn read_journal(path: &Path) -> HashMap<String, Terminal> {
    let mut out = HashMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(verb), Some(bench)) = (parts.next(), parts.next()) else {
            continue;
        };
        let terminal = match verb {
            "done" => Terminal::Done,
            "deadline" => Terminal::DeadlineKilled,
            "failed" => Terminal::Failed,
            _ => continue,
        };
        out.insert(bench.to_owned(), terminal);
    }
    out
}

/// Appends one line to the journal and syncs it to disk, so a `kill -9`
/// immediately afterwards cannot lose the record.
fn journal_append(path: &Path, line: &str) -> Result<(), CliError> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.sync_all()?;
    Ok(())
}

/// State shared by every parallel supervision slot.
struct Shared<'a> {
    /// Journal path.
    journal: &'a Path,
    /// Serializes journal appends (open + write + fsync as one unit).
    journal_lock: Mutex<()>,
    /// Serializes per-run console blocks so slots never interleave lines.
    stdout_lock: Mutex<()>,
}

impl Shared<'_> {
    /// Mutex-serialized [`journal_append`]. A poisoned lock (another slot
    /// panicked mid-append) still appends: losing journal records would
    /// repeat completed work on the next invocation.
    fn append(&self, line: &str) -> Result<(), CliError> {
        let _guard = self
            .journal_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        journal_append(self.journal, line)
    }

    /// Prints one run's buffered console block atomically.
    fn print_block(&self, block: &str) {
        let _guard = self
            .stdout_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        print!("{block}");
        let _ = std::io::stdout().flush();
    }
}

/// The compact per-run metric summary folded into the journal after a
/// traced run completes (`None` when the run was untraced). Its verb,
/// `metrics`, is not a terminal state, so the journal parser skips it.
fn metric_summary(name: &str, tracer: &Tracer) -> Option<String> {
    let m = tracer.recorder()?.metrics();
    Some(format!(
        "metrics {name} events {} dropped {} phase {} gating {} cde {} faults {}",
        m.counter("telemetry_events_recorded_total"),
        m.counter("telemetry_events_dropped_total"),
        m.counter("events_phase_total"),
        m.counter("events_gating_total"),
        m.counter("events_cde_total"),
        m.counter("events_faults_total"),
    ))
}

/// Extracts a displayable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one attempt of one benchmark: resume from the checkpoint when a
/// usable one exists, step in chunks, checkpoint periodically, and bail
/// out (persisting progress) at the first chunk boundary past `deadline`
/// (`None` never expires). Returns the outcome plus whether the attempt
/// resumed from a checkpoint.
fn run_attempt(
    pr: &PreparedRun,
    opts: &RunOpts,
    ckpt_path: &Path,
    checkpoint_every: u64,
    deadline: Option<Instant>,
) -> (AttemptOutcome, bool) {
    let mut resumed = false;
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<AttemptOutcome, CliError> {
        let mut sim = match std::fs::read(ckpt_path) {
            Ok(bytes) => match Simulation::restore(&pr.program, pr.kind, &pr.cfg, &bytes) {
                Ok(sim) => {
                    resumed = true;
                    sim
                }
                Err(e) => {
                    // A corrupt or stale checkpoint is a typed error,
                    // never a panic: report it and start from scratch.
                    eprintln!(
                        "warning: checkpoint {} unusable ({e}); starting fresh",
                        ckpt_path.display()
                    );
                    Simulation::new(&pr.program, pr.kind, &pr.cfg)?
                }
            },
            Err(_) => Simulation::new(&pr.program, pr.kind, &pr.cfg)?,
        };
        // Telemetry is not checkpointed: a resumed attempt's recording
        // simply starts at the resume point.
        if opts.wants_telemetry() {
            sim.attach_tracer(tracer_for(opts));
        }
        let mut last_checkpoint = sim.retired();
        while !sim.is_done() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                // Persist progress before dying so the retry (or the
                // next invocation) resumes instead of starting over.
                write_atomic(ckpt_path, &sim.snapshot(&pr.meta))?;
                return Ok(AttemptOutcome::DeadlineKilled);
            }
            sim.step_chunk(STEP_CHUNK)?;
            if sim.retired().saturating_sub(last_checkpoint) >= checkpoint_every {
                last_checkpoint = sim.retired();
                write_atomic(ckpt_path, &sim.snapshot(&pr.meta))?;
            }
        }
        let (report, tracer) = sim.into_report_with_telemetry();
        Ok(AttemptOutcome::Completed(
            Box::new(report),
            Box::new(tracer),
        ))
    }));
    let outcome = match result {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => AttemptOutcome::Errored(e.to_string()),
        Err(payload) => AttemptOutcome::Panicked(panic_message(payload)),
    };
    (outcome, resumed)
}

/// Per-benchmark bookkeeping for the final summary.
struct Row {
    name: String,
    terminal: Terminal,
    attempts: u32,
    resumed: bool,
    skipped: bool,
}

/// Supervises one benchmark in one pool slot: skip when already terminal,
/// otherwise up to `max_attempts` deadline-bounded attempts with retries
/// and backoff. The deadline is fixed here, at each attempt's own start,
/// so a slot's deadline covers only its own run — never wall-clock time
/// other slots or earlier runs already burned. Console output is buffered
/// and printed as one block per finished run.
#[allow(clippy::too_many_arguments)]
fn supervise_slot(
    name: &str,
    index: usize,
    total: usize,
    opts: &RunOpts,
    sup: &SuperviseOpts,
    dir: &Path,
    shared: &Shared<'_>,
    already: Option<Terminal>,
) -> Result<Row, CliError> {
    let ordinal = format!("[{}/{}]", index + 1, total);
    let mut block = String::new();
    if let Some(terminal) = already {
        let _ = writeln!(
            block,
            "{ordinal} {name}: already {} — skipped",
            verb(terminal)
        );
        shared.print_block(&block);
        return Ok(Row {
            name: name.to_owned(),
            terminal,
            attempts: 0,
            resumed: false,
            skipped: true,
        });
    }
    let pr = prepare_run(
        name,
        opts.manager,
        opts.budget,
        opts.scale,
        opts.seed,
        opts.storm,
    )?;
    let ckpt_path = dir.join(format!("{name}.ckpt"));
    let max_attempts = sup.max_attempts.max(1);
    let mut row = Row {
        name: name.to_owned(),
        terminal: Terminal::Failed,
        attempts: 0,
        resumed: false,
        skipped: false,
    };
    for attempt in 1..=max_attempts {
        row.attempts = attempt;
        shared.append(&format!("start {name} attempt {attempt}"))?;
        // A zero deadline is already expired at the first boundary; one
        // too far out to represent never expires.
        let started = Instant::now();
        let deadline = started.checked_add(Duration::from_millis(sup.deadline_ms));
        let (outcome, resumed) = run_attempt(&pr, opts, &ckpt_path, sup.checkpoint_every, deadline);
        row.resumed = row.resumed || resumed;
        let elapsed = started.elapsed();

        match outcome {
            AttemptOutcome::Completed(report, tracer) => {
                shared.append(&format!(
                    "done {name} attempts {attempt} instructions {} cycles {} energy_bits {}",
                    report.instructions,
                    report.cycles,
                    report.energy.total_j.to_bits()
                ))?;
                if let Some(line) = metric_summary(name, &tracer) {
                    shared.append(&line)?;
                }
                write_telemetry(
                    &tracer,
                    opts.trace
                        .as_deref()
                        .map(|p| per_bench_path(p, name))
                        .as_deref(),
                    opts.metrics
                        .as_deref()
                        .map(|p| per_bench_path(p, name))
                        .as_deref(),
                )?;
                let _ = std::fs::remove_file(&ckpt_path);
                let _ =
                    writeln!(
                    block,
                    "{ordinal} {name}: completed in {:.1}s ({} instructions, attempt {attempt}{})",
                    elapsed.as_secs_f64(),
                    report.instructions,
                    if resumed { ", resumed from checkpoint" } else { "" },
                );
                row.terminal = Terminal::Done;
                break;
            }
            AttemptOutcome::DeadlineKilled => {
                let _ = writeln!(
                    block,
                    "{ordinal} {name}: deadline exceeded after {:.1}s (attempt {attempt}/{max_attempts})",
                    elapsed.as_secs_f64()
                );
                row.terminal = Terminal::DeadlineKilled;
                if attempt == max_attempts {
                    shared.append(&format!("deadline {name} attempts {attempt}"))?;
                }
            }
            AttemptOutcome::Panicked(msg) | AttemptOutcome::Errored(msg) => {
                let _ = writeln!(
                    block,
                    "{ordinal} {name}: attempt {attempt}/{max_attempts} failed: {msg}"
                );
                row.terminal = Terminal::Failed;
                if attempt == max_attempts {
                    shared.append(&format!("failed {name} attempts {attempt} {msg}"))?;
                }
            }
        }
        if row.terminal != Terminal::Done && attempt < max_attempts {
            let pause = backoff_delay_ms(sup.backoff_ms, opts.seed, name, attempt);
            std::thread::sleep(Duration::from_millis(pause));
        }
    }
    shared.print_block(&block);
    Ok(row)
}

/// Retry backoff for one benchmark attempt: exponential doubling from
/// `base_ms` with deterministic seeded jitter, capped so a misconfigured
/// base cannot stall the sweep for minutes.
///
/// The jitter draw depends only on the run seed, the benchmark name and
/// the attempt number — never on thread scheduling — so a given
/// `(seed, bench, attempt)` always pauses for the same duration while
/// distinct seeds decorrelate their retry storms.
fn backoff_delay_ms(base_ms: u64, seed: Option<u64>, bench: &str, attempt: u32) -> u64 {
    let policy = powerchop_resilience::RetryPolicy::new(base_ms, 30_000);
    let seed = seed.unwrap_or(powerchop_serve::DEFAULT_FAULT_SEED);
    let stream = powerchop_resilience::retry::stream_label(bench);
    policy.delay_ms(seed, stream, attempt)
}

/// The `supervise` command: sweeps `benches` (all benchmarks when empty)
/// under the supervisor.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown benchmarks or unusable state
/// directories, and after the sweep when any benchmark ended
/// deadline-killed or permanently failed (completed work is journaled
/// first, so a re-invocation never repeats it).
pub fn supervise(benches: &[String], opts: RunOpts, sup: &SuperviseOpts) -> Result<(), CliError> {
    let names: Vec<String> = if benches.is_empty() {
        powerchop_workloads::all()
            .iter()
            .map(|b| b.name().to_owned())
            .collect()
    } else {
        benches.to_vec()
    };
    // Validate every name up front so a typo fails before any work runs.
    for name in &names {
        prepare_run(
            name,
            opts.manager,
            opts.budget,
            opts.scale,
            opts.seed,
            opts.storm,
        )?;
    }

    let dir = PathBuf::from(&sup.dir);
    std::fs::create_dir_all(&dir)?;
    let journal = dir.join(JOURNAL_FILE);
    let already = read_journal(&journal);
    let jobs = powerchop_exec::resolve_jobs(opts.jobs);

    println!(
        "supervising {} benchmarks (deadline {} ms, {} attempts, checkpoints every {} instructions, {} slot(s), state in {})",
        names.len(),
        sup.deadline_ms,
        sup.max_attempts,
        sup.checkpoint_every,
        jobs,
        dir.display()
    );

    let shared = Shared {
        journal: &journal,
        journal_lock: Mutex::new(()),
        stdout_lock: Mutex::new(()),
    };
    let total = names.len();
    let results = powerchop_exec::run_jobs(&names, jobs, |index, name| {
        supervise_slot(
            name,
            index,
            total,
            &opts,
            sup,
            &dir,
            &shared,
            already.get(name.as_str()).copied(),
        )
    });
    let mut rows: Vec<Row> = Vec::with_capacity(names.len());
    for (name, result) in names.iter().zip(results) {
        match result {
            Ok(row) => rows.push(row?),
            Err(p) => {
                // A panic that escaped the per-attempt catch (journal I/O,
                // bookkeeping): record the failure rather than lose the slot.
                eprintln!("{name}: supervisor slot panicked: {}", p.message);
                rows.push(Row {
                    name: name.clone(),
                    terminal: Terminal::Failed,
                    attempts: 0,
                    resumed: false,
                    skipped: false,
                });
            }
        }
    }

    print_summary(&rows);
    let bad = rows.iter().filter(|r| r.terminal != Terminal::Done).count();
    if bad > 0 {
        return Err(CliError(format!(
            "{bad} benchmark(s) did not complete (see summary above)"
        )));
    }
    Ok(())
}

fn verb(t: Terminal) -> &'static str {
    match t {
        Terminal::Done => "done",
        Terminal::DeadlineKilled => "deadline-killed",
        Terminal::Failed => "failed",
    }
}

fn print_summary(rows: &[Row]) {
    let fresh = rows.iter().filter(|r| !r.skipped);
    let completed: Vec<&Row> = fresh
        .clone()
        .filter(|r| r.terminal == Terminal::Done)
        .collect();
    let retried = completed.iter().filter(|r| r.attempts > 1).count();
    let resumed = completed.iter().filter(|r| r.resumed).count();
    let skipped = rows.iter().filter(|r| r.skipped).count();
    let deadline: Vec<&Row> = fresh
        .clone()
        .filter(|r| r.terminal == Terminal::DeadlineKilled)
        .collect();
    let failed: Vec<&Row> = fresh.filter(|r| r.terminal == Terminal::Failed).collect();
    println!("\nsupervised sweep summary:");
    println!(
        "  completed        {} ({retried} after retries, {resumed} resumed from checkpoints)",
        completed.len()
    );
    println!("  skipped (done)   {skipped}");
    println!(
        "  deadline-killed  {}{}",
        deadline.len(),
        name_list(&deadline)
    );
    println!("  failed           {}{}", failed.len(), name_list(&failed));
}

fn name_list(rows: &[&Row]) -> String {
    if rows.is_empty() {
        String::new()
    } else {
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        format!(" ({})", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ManagerArg;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("powerchop-supervise-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir creates");
        dir
    }

    fn small_opts() -> RunOpts {
        RunOpts {
            manager: ManagerArg::PowerChop,
            budget: 200_000,
            scale: 0.05,
            ..RunOpts::default()
        }
    }

    #[test]
    fn backoff_delays_are_reproducible_per_seed_and_distinct_across_seeds() {
        // Same (seed, bench, attempt) → identical pause, every time.
        for attempt in 1..=5 {
            assert_eq!(
                backoff_delay_ms(100, Some(7), "hmmer", attempt),
                backoff_delay_ms(100, Some(7), "hmmer", attempt),
                "attempt {attempt} must be deterministic"
            );
        }
        // Jittered delays stay in the equal-jitter envelope [raw/2, raw].
        for attempt in 1..=5 {
            let raw = (100u64 << (attempt - 1)).min(30_000);
            let d = backoff_delay_ms(100, Some(7), "hmmer", attempt);
            assert!(
                d >= raw / 2 && d <= raw,
                "attempt {attempt}: {d} not in [{}, {raw}]",
                raw / 2
            );
        }
        // Different seeds (and different benches) decorrelate: at least one
        // attempt in the schedule must differ.
        let schedule = |seed, bench: &str| -> Vec<u64> {
            (1..=8)
                .map(|a| backoff_delay_ms(100, Some(seed), bench, a))
                .collect()
        };
        assert_ne!(
            schedule(7, "hmmer"),
            schedule(8, "hmmer"),
            "seeds decorrelate"
        );
        assert_ne!(
            schedule(7, "hmmer"),
            schedule(7, "namd"),
            "benches decorrelate"
        );
        // No seed falls back to the daemon's default fault seed.
        assert_eq!(
            backoff_delay_ms(100, None, "hmmer", 3),
            backoff_delay_ms(100, Some(powerchop_serve::DEFAULT_FAULT_SEED), "hmmer", 3),
        );
    }

    #[test]
    fn sweep_completes_and_second_invocation_skips_done_work() {
        let dir = tmp_dir("skip");
        let sup = SuperviseOpts {
            dir: dir.to_string_lossy().into_owned(),
            deadline_ms: 60_000,
            max_attempts: 2,
            backoff_ms: 1,
            checkpoint_every: 50_000,
        };
        let benches = vec!["hmmer".to_owned(), "namd".to_owned()];
        supervise(&benches, small_opts(), &sup).expect("sweep completes");

        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal exists");
        assert_eq!(journal.matches("done hmmer").count(), 1);
        assert_eq!(journal.matches("done namd").count(), 1);

        // Re-invoking must not repeat completed work: no new start lines.
        supervise(&benches, small_opts(), &sup).expect("second sweep completes");
        let journal2 = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal exists");
        assert_eq!(journal2, journal, "second invocation did zero work");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_slots_complete_with_independent_deadlines() {
        let dir = tmp_dir("parallel");
        let sup = SuperviseOpts {
            dir: dir.to_string_lossy().into_owned(),
            deadline_ms: 60_000,
            max_attempts: 1,
            backoff_ms: 1,
            checkpoint_every: u64::MAX,
        };
        let opts = RunOpts {
            jobs: Some(3),
            ..small_opts()
        };
        let benches = vec!["hmmer".to_owned(), "namd".to_owned(), "msn".to_owned()];
        supervise(&benches, opts, &sup).expect("parallel sweep completes");
        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal exists");
        // Every slot journals its own terminal record exactly once, even
        // though appends raced through the mutex.
        for name in ["hmmer", "namd", "msn"] {
            assert_eq!(
                journal.matches(&format!("done {name}")).count(),
                1,
                "journal: {journal}"
            );
        }
        // No torn lines: each journaled line starts with a known verb.
        for line in journal.lines() {
            let verb = line.split_whitespace().next().unwrap_or("");
            assert!(
                ["start", "done", "deadline", "failed", "metrics"].contains(&verb),
                "torn or interleaved journal line: {line:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_sweep_folds_metric_summaries_into_journal() {
        let dir = tmp_dir("telemetry");
        let sup = SuperviseOpts {
            dir: dir.to_string_lossy().into_owned(),
            deadline_ms: 60_000,
            max_attempts: 1,
            backoff_ms: 1,
            checkpoint_every: u64::MAX,
        };
        let metrics_path = dir.join("m.prom");
        let opts = RunOpts {
            metrics: Some(metrics_path.to_string_lossy().into_owned()),
            ..small_opts()
        };
        supervise(&["hmmer".to_owned()], opts, &sup).expect("sweep completes");
        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal exists");
        assert!(
            journal.contains("metrics hmmer events "),
            "journal folds metric summaries: {journal}"
        );
        // The metrics verb is not terminal: parsing still sees `done`.
        assert_eq!(
            read_journal(&dir.join(JOURNAL_FILE)).get("hmmer"),
            Some(&Terminal::Done)
        );
        let prom = std::fs::read_to_string(dir.join("m-hmmer.prom"))
            .expect("per-bench prometheus dump exists");
        assert!(prom.contains("sim_instructions_total"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_run_checkpoint_lets_next_invocation_resume_not_restart() {
        let dir = tmp_dir("resume");
        let sup = SuperviseOpts {
            dir: dir.to_string_lossy().into_owned(),
            deadline_ms: 60_000,
            max_attempts: 1,
            backoff_ms: 1,
            checkpoint_every: 50_000,
        };
        let opts = small_opts();

        // Simulate a sweep killed mid-run: leave a valid mid-run
        // checkpoint and a journal with a dangling `start` line.
        let pr = prepare_run("hmmer", opts.manager, opts.budget, opts.scale, None, false)
            .expect("prepare succeeds");
        let mut sim = Simulation::new(&pr.program, pr.kind, &pr.cfg).expect("config valid");
        while sim.retired() < 60_000 {
            sim.step_chunk(1024).expect("stepping succeeds");
        }
        assert!(!sim.is_done());
        write_atomic(&dir.join("hmmer.ckpt"), &sim.snapshot(&pr.meta)).expect("snapshot writes");
        journal_append(&dir.join(JOURNAL_FILE), "start hmmer attempt 1").expect("journal writes");

        supervise(&["hmmer".to_owned()], opts, &sup).expect("sweep completes");
        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal exists");
        assert!(journal.contains("done hmmer"), "run completed: {journal}");
        assert!(
            !dir.join("hmmer.ckpt").exists(),
            "checkpoint cleaned up after completion"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_kills_are_reported_and_checkpointed() {
        let dir = tmp_dir("deadline");
        let sup = SuperviseOpts {
            dir: dir.to_string_lossy().into_owned(),
            // A 0 ms deadline trips the watchdog immediately.
            deadline_ms: 0,
            max_attempts: 2,
            backoff_ms: 1,
            checkpoint_every: u64::MAX,
        };
        let err = supervise(&["hmmer".to_owned()], small_opts(), &sup)
            .expect_err("deadline-killed sweeps report failure");
        assert!(err.to_string().contains("did not complete"));
        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal exists");
        assert!(journal.contains("deadline hmmer"), "journal: {journal}");
        assert!(
            dir.join("hmmer.ckpt").exists(),
            "killed runs persist their progress"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_survived_with_a_fresh_start() {
        let dir = tmp_dir("corrupt");
        let sup = SuperviseOpts {
            dir: dir.to_string_lossy().into_owned(),
            deadline_ms: 60_000,
            max_attempts: 1,
            backoff_ms: 1,
            checkpoint_every: u64::MAX,
        };
        std::fs::write(dir.join("hmmer.ckpt"), b"definitely not a snapshot").expect("write");
        supervise(&["hmmer".to_owned()], small_opts(), &sup)
            .expect("corrupt checkpoint falls back to a fresh run");
        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("journal exists");
        assert!(journal.contains("done hmmer"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_benchmarks_fail_before_any_work() {
        let dir = tmp_dir("unknown");
        let sup = SuperviseOpts {
            dir: dir.to_string_lossy().into_owned(),
            ..SuperviseOpts::default()
        };
        let err = supervise(&["doom".to_owned()], small_opts(), &sup).expect_err("unknown bench");
        assert!(err.to_string().contains("unknown benchmark"));
        assert!(!dir.join(JOURNAL_FILE).exists(), "no journal written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_parser_ignores_torn_lines() {
        let dir = tmp_dir("torn");
        let path = dir.join(JOURNAL_FILE);
        std::fs::write(
            &path,
            "done hmmer attempts 1 instructions 5 cycles 9 energy_bits 0\nstart namd attempt 1\ndone na",
        )
        .expect("write");
        let map = read_journal(&path);
        assert_eq!(map.get("hmmer"), Some(&Terminal::Done));
        assert_eq!(map.get("namd"), None, "start lines are not terminal");
        // The torn final line parses as verb `done` bench `na` — harmless:
        // `na` is not a real benchmark name.
        let _ = std::fs::remove_dir_all(&dir);
    }
}
