//! The supervised batch runner: a crash-safe work queue for benchmark
//! sweeps.
//!
//! Each benchmark run gets a wall-clock deadline (checked at every step
//! chunk boundary, so the run stops cooperatively), panic isolation via
//! `catch_unwind`, retries with exponential backoff up to a capped
//! attempt count, and periodic crash-safe checkpoints. Progress lives in
//! the serve daemon's durability format ([`powerchop_serve::durability`])
//! under `--dir`: each benchmark is one intent in `intents.wal`, every
//! checkpoint is a journaled spill, and a completed run's report lands
//! in `results.wal` under its run key before its intent is retired. So
//! killing the sweep at any point — including `kill -9` — and
//! re-invoking it continues where it left off: a run whose key is in
//! the result log is skipped outright, and a pending intent for the
//! same run resumes from its last spill instead of starting over. A run
//! that ends deadline-killed or failed stays pending, so the next
//! invocation resumes it rather than writing it off.
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

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use powerchop::RunReport;
use powerchop_durable::PendingIntent;
use powerchop_serve::cache::ResultCache;
use powerchop_serve::durability::{
    boot, restore_or_new, run_until, spec_to_record, Durability, Prepared, SpillPlan,
};
use powerchop_serve::{report_to_json, RunSpec};
use powerchop_telemetry::Tracer;

use crate::args::{RunOpts, SuperviseOpts};
use crate::commands::{benchmark, prepare, tracer_for, write_bench_telemetry};
use crate::CliError;

/// How a benchmark's run ended in this invocation. Only `Done` is
/// final on disk: the other two leave the run's intent pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    /// Completed successfully (or already in the result log).
    Done,
    /// Killed by the per-run deadline on its final attempt.
    DeadlineKilled,
    /// Panicked or errored on its final attempt.
    Failed,
}

/// How one attempt of one benchmark ended. A completed attempt carries
/// the tracer back so the supervisor can export the flight recording.
enum AttemptOutcome {
    Completed(Box<RunReport>, Box<Tracer>),
    DeadlineKilled,
    Panicked(String),
    Errored(String),
}

/// State shared by every parallel supervision slot.
struct Shared {
    /// The sweep directory's journal, result log and spill policy.
    durability: Arc<Durability>,
    /// Run keys already in the result log at boot: finished work.
    finished: HashSet<u128>,
    /// Intents no earlier invocation retired, each claimed by at most
    /// one slot.
    pending: Mutex<Vec<PendingIntent>>,
    /// Serializes per-run console blocks so slots never interleave lines.
    stdout_lock: Mutex<()>,
}

impl Shared {
    /// Takes the pending intent journaled for exactly `spec`, if any.
    fn claim(&self, spec: &RunSpec) -> Option<PendingIntent> {
        let record = spec_to_record(spec);
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        let index = pending
            .iter()
            .position(|p| p.specs == std::slice::from_ref(&record))?;
        Some(pending.swap_remove(index))
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

/// Runs one attempt of one benchmark on the shared run path: resume
/// from the run's spill when the plan says one may exist, step and
/// spill through [`run_until`], and at the first chunk boundary past
/// `deadline` (`None` never expires) spill the live simulation and bail
/// out. Returns the outcome plus whether the attempt resumed from a
/// spill.
fn run_attempt(
    pr: &Prepared,
    opts: &RunOpts,
    plan: &SpillPlan,
    deadline: Option<Instant>,
) -> (AttemptOutcome, bool) {
    let mut resumed = false;
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<AttemptOutcome, CliError> {
        let (mut sim, from_spill) = restore_or_new(pr, Some(plan))?;
        resumed = from_spill;
        // Telemetry is not checkpointed: a resumed attempt's recording
        // simply starts at the resume point.
        if opts.wants_telemetry() {
            sim.attach_tracer(tracer_for(opts));
        }
        if !run_until(&mut sim, Some(plan), deadline)? {
            // Persist progress before dying so the retry (or the next
            // invocation) resumes instead of starting over.
            plan.spill(&mut sim);
            return Ok(AttemptOutcome::DeadlineKilled);
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
        Err(payload) => AttemptOutcome::Panicked(powerchop_exec::panic_message(payload.as_ref())),
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

/// Supervises one benchmark in one pool slot: skip when its run key is
/// in the result log, otherwise up to `max_attempts` deadline-bounded
/// attempts with retries and backoff under one journaled intent — the
/// pending one for the same spec when an earlier invocation left it,
/// else a fresh one. The deadline is fixed at each attempt's own start,
/// so a slot's deadline covers only its own run — never wall-clock time
/// other slots or earlier runs already burned. Console output is
/// buffered and printed as one block per finished run.
fn supervise_slot(
    name: &str,
    ordinal: &str,
    opts: &RunOpts,
    sup: &SuperviseOpts,
    shared: &Shared,
) -> Result<Row, CliError> {
    let mut block = String::new();
    let pr = prepare(name, opts)?;
    let spec = opts.spec(name);
    let d = &shared.durability;
    let claimed = shared.claim(&spec);
    let mut row = Row {
        name: name.to_owned(),
        terminal: Terminal::Done,
        attempts: 0,
        resumed: false,
        skipped: true,
    };
    if shared.finished.contains(&pr.key) {
        // A kill between the result append and the `Done` left the
        // intent pending: retire it now.
        if let Some(intent) = claimed {
            d.retire(intent.id, [name]);
        }
        let _ = writeln!(block, "{ordinal} {name}: already done — skipped");
        shared.print_block(&block);
        return Ok(row);
    }
    let (id, resume_from) = match &claimed {
        Some(intent) => (intent.id, intent.spilled.get(name).copied()),
        None => {
            let id = d.next_intent_id();
            d.journal_intent(id, 0, std::slice::from_ref(&spec));
            (id, None)
        }
    };
    let mut plan = SpillPlan {
        durability: Arc::clone(d),
        id,
        spec,
        resume_from,
        recovery: claimed.is_some(),
    };
    let max_attempts = sup.max_attempts.max(1);
    row.skipped = false;
    for attempt in 1..=max_attempts {
        row.attempts = attempt;
        // A zero deadline is already expired at the first boundary; one
        // too far out to represent never expires.
        let started = Instant::now();
        let deadline = started.checked_add(Duration::from_millis(sup.deadline_ms));
        let (outcome, resumed) = run_attempt(&pr, opts, &plan, deadline);
        row.resumed = row.resumed || resumed;
        let elapsed = started.elapsed();
        // The attempt may have spilled: a retry resumes from it.
        plan.recovery = true;

        match outcome {
            AttemptOutcome::Completed(report, tracer) => {
                // Result first, then `Done`: a kill between the two
                // leaves a pending intent whose result is already logged.
                d.record_cache_put(pr.key, &report_to_json(&report));
                d.retire(plan.id, [name]);
                write_bench_telemetry(&tracer, opts, name)?;
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
            }
            AttemptOutcome::Panicked(msg) | AttemptOutcome::Errored(msg) => {
                let _ = writeln!(
                    block,
                    "{ordinal} {name}: attempt {attempt}/{max_attempts} failed: {msg}"
                );
                row.terminal = Terminal::Failed;
            }
        }
        if attempt < max_attempts {
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
    let policy = crate::retry::RetryPolicy::new(base_ms, 30_000);
    let seed = seed.unwrap_or(powerchop_serve::DEFAULT_FAULT_SEED);
    let stream = crate::retry::stream_label(bench);
    policy.delay_ms(seed, stream, attempt)
}

/// The `supervise` command: sweeps `benches` (all benchmarks when empty)
/// under the supervisor.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown benchmarks or unusable state
/// directories, and after the sweep when any benchmark ended
/// deadline-killed or permanently failed (its intent stays pending, so a
/// re-invocation resumes it, and completed work is logged first, so a
/// re-invocation never repeats it).
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
        benchmark(name)?;
    }

    let dir = Path::new(&sup.dir);
    // Every logged result must stay visible to the skip check, so the
    // result log reloads into an unbounded cache.
    let mut logged = ResultCache::new(usize::MAX);
    let booted = boot(dir, Some(dir), sup.checkpoint_every, &mut logged)?;
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
        durability: booted.durability,
        finished: logged.entries().map(|(key, _)| key).collect(),
        pending: Mutex::new(booted.pending),
        stdout_lock: Mutex::new(()),
    };
    let total = names.len();
    let results = powerchop_exec::run_jobs(&names, jobs, |index, name| {
        let ordinal = format!("[{}/{total}]", index + 1);
        supervise_slot(name, &ordinal, &opts, sup, &shared)
    });
    let mut rows: Vec<Row> = Vec::with_capacity(names.len());
    for (name, result) in names.iter().zip(results) {
        match result {
            Ok(row) => rows.push(row?),
            Err(p) => {
                // A panic that escaped the per-attempt catch (bookkeeping,
                // telemetry export): record the failure rather than lose
                // the slot.
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
    use std::path::PathBuf;

    use powerchop::{ManagerKind, Simulation};
    use powerchop_durable::{
        journal_path, replay, replay_results, results_path, CacheReplay, JournalReplay,
    };

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("powerchop-supervise-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir creates");
        dir
    }

    fn small_opts() -> RunOpts {
        RunOpts {
            manager: ManagerKind::PowerChop,
            budget: 200_000,
            scale: 0.05,
            ..RunOpts::default()
        }
    }

    fn sup_opts(dir: &Path, max_attempts: u32, checkpoint_every: u64) -> SuperviseOpts {
        SuperviseOpts {
            dir: dir.to_string_lossy().into_owned(),
            deadline_ms: 60_000,
            max_attempts,
            backoff_ms: 1,
            checkpoint_every,
        }
    }

    /// The sweep directory's journal and result log, as a boot would
    /// replay them.
    fn logs(dir: &Path) -> (JournalReplay, CacheReplay) {
        (
            replay(&journal_path(dir)).expect("journal replays"),
            replay_results(&results_path(dir)).expect("result log replays"),
        )
    }

    /// The reply an uninterrupted in-process run of `bench` logs.
    fn direct_report(bench: &str, opts: &RunOpts) -> String {
        let pr = prepare(bench, opts).expect("prepare succeeds");
        let report = powerchop::run_program(&pr.program, pr.kind, &pr.cfg).expect("run completes");
        report_to_json(&report)
    }

    /// Journals a pending intent for `bench` in `dir`, as a sweep killed
    /// mid-run leaves it, and returns its spill plan.
    fn pending_intent(dir: &Path, bench: &str, opts: &RunOpts) -> SpillPlan {
        let booted = boot(dir, None, u64::MAX, &mut ResultCache::new(0)).expect("boot");
        let durability = booted.durability;
        let id = durability.next_intent_id();
        let spec = opts.spec(bench);
        durability.journal_intent(id, 0, std::slice::from_ref(&spec));
        SpillPlan {
            durability,
            id,
            spec,
            resume_from: None,
            recovery: false,
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
        let sup = sup_opts(&dir, 2, 50_000);
        let benches = vec!["hmmer".to_owned(), "namd".to_owned()];
        supervise(&benches, small_opts(), &sup).expect("sweep completes");
        let (journal, results) = logs(&dir);
        assert!(journal.pending.is_empty(), "every intent retired");
        assert_eq!(results.entries.len(), 2, "one logged result per run");
        let logged = std::fs::read(results_path(&dir)).expect("result log exists");

        // Re-invoking must not repeat completed work: the boot compacts
        // the retired intents away, and nothing new is journaled or
        // logged after it.
        supervise(&benches, small_opts(), &sup).expect("second sweep completes");
        let (journal, results2) = logs(&dir);
        assert_eq!(
            journal.records_replayed, 0,
            "second invocation did zero work"
        );
        assert_eq!(results2, results);
        assert_eq!(std::fs::read(results_path(&dir)).expect("read"), logged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_slots_complete_with_independent_deadlines() {
        let dir = tmp_dir("parallel");
        let sup = sup_opts(&dir, 1, u64::MAX);
        let opts = RunOpts {
            jobs: Some(3),
            ..small_opts()
        };
        let benches = vec!["hmmer".to_owned(), "namd".to_owned(), "msn".to_owned()];
        supervise(&benches, opts, &sup).expect("parallel sweep completes");
        // Every slot journals its intent and retires it exactly once, even
        // though appends raced through the mutex: three intents, three
        // dones, no torn or interleaved frame.
        let (journal, results) = logs(&dir);
        assert_eq!(journal.records_replayed, 6, "{journal:?}");
        assert!(journal.pending.is_empty(), "{journal:?}");
        assert!(!journal.discarded(), "{journal:?}");
        assert_eq!(results.entries.len(), 3);
        assert!(!results.discarded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_sweep_writes_a_per_bench_metrics_dump() {
        let dir = tmp_dir("telemetry");
        let sup = sup_opts(&dir, 1, u64::MAX);
        let metrics_path = dir.join("m.prom");
        let opts = RunOpts {
            metrics: Some(metrics_path.to_string_lossy().into_owned()),
            ..small_opts()
        };
        supervise(&["hmmer".to_owned()], opts, &sup).expect("sweep completes");
        let prom = std::fs::read_to_string(dir.join("m-hmmer.prom"))
            .expect("per-bench prometheus dump exists");
        assert!(prom.contains("sim_instructions_total"));
        // Tracing never changes the logged report.
        let (_, results) = logs(&dir);
        assert_eq!(results.entries[0].1, direct_report("hmmer", &small_opts()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_run_spill_lets_next_invocation_resume_not_restart() {
        let dir = tmp_dir("resume");
        let opts = small_opts();
        // Simulate a sweep killed mid-run: a pending intent whose last
        // journaled spill is a valid mid-run snapshot.
        let plan = pending_intent(&dir, "hmmer", &opts);
        let pr = prepare("hmmer", &opts).expect("prepare succeeds");
        let mut sim = Simulation::new(&pr.program, pr.kind, &pr.cfg).expect("config valid");
        while sim.retired() < 60_000 {
            sim.step_chunk(1024).expect("stepping succeeds");
        }
        assert!(!sim.is_done());
        plan.spill(&mut sim);
        let (journal, _) = logs(&dir);
        assert_eq!(
            journal.pending[0].spilled.get("hmmer"),
            Some(&sim.retired())
        );

        supervise(
            &["hmmer".to_owned()],
            opts.clone(),
            &sup_opts(&dir, 1, 50_000),
        )
        .expect("sweep completes");
        let (journal, results) = logs(&dir);
        assert!(journal.pending.is_empty(), "the resumed intent is retired");
        assert!(!plan.path().exists(), "spill cleaned up after completion");
        // Resumed ≡ uninterrupted.
        assert_eq!(results.entries[0].1, direct_report("hmmer", &opts));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_run_its_first_chunk_finishes_is_never_spilled() {
        let dir = tmp_dir("final-spill");
        // 50k instructions finish inside the first step chunk, which also
        // crosses the 1k checkpoint interval: the run is done, so nothing
        // is spilled between its Intent and its Done.
        let opts = RunOpts {
            budget: 50_000,
            ..small_opts()
        };
        supervise(&["hmmer".to_owned()], opts, &sup_opts(&dir, 1, 1_000)).expect("sweep completes");
        let (journal, results) = logs(&dir);
        assert_eq!(
            journal.records_replayed, 2,
            "a run finished by its first chunk journals Intent and Done only: {journal:?}"
        );
        assert!(journal.pending.is_empty());
        assert_eq!(results.entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_kills_are_reported_and_spilled_and_stay_pending() {
        let dir = tmp_dir("deadline");
        let sup = SuperviseOpts {
            // A 0 ms deadline expires at the first chunk boundary.
            deadline_ms: 0,
            ..sup_opts(&dir, 2, u64::MAX)
        };
        let err = supervise(&["hmmer".to_owned()], small_opts(), &sup)
            .expect_err("deadline-killed sweeps report failure");
        assert!(err.to_string().contains("did not complete"));
        let (journal, results) = logs(&dir);
        assert_eq!(journal.pending.len(), 1, "a killed run stays pending");
        let intent = &journal.pending[0];
        assert!(intent.spilled.contains_key("hmmer"), "{journal:?}");
        assert!(
            powerchop_durable::spill_path(&dir, intent.id, "hmmer").exists(),
            "killed runs persist their progress"
        );
        assert!(results.entries.is_empty());

        // The next invocation with a workable deadline resumes and
        // finishes it under the same intent.
        supervise(
            &["hmmer".to_owned()],
            small_opts(),
            &sup_opts(&dir, 1, u64::MAX),
        )
        .expect("the resumed sweep completes");
        let (journal, results) = logs(&dir);
        assert!(journal.pending.is_empty());
        assert_eq!(results.entries[0].1, direct_report("hmmer", &small_opts()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_is_survived_with_a_fresh_start() {
        let dir = tmp_dir("corrupt");
        let plan = pending_intent(&dir, "hmmer", &small_opts());
        std::fs::write(plan.path(), b"definitely not a snapshot").expect("write");
        plan.durability.journal_spill(plan.id, "hmmer", 60_000);
        supervise(
            &["hmmer".to_owned()],
            small_opts(),
            &sup_opts(&dir, 1, u64::MAX),
        )
        .expect("corrupt spill falls back to a fresh run");
        let (journal, results) = logs(&dir);
        assert!(journal.pending.is_empty());
        assert_eq!(results.entries[0].1, direct_report("hmmer", &small_opts()));
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
        assert!(!journal_path(&dir).exists(), "no journal written");
        assert!(!results_path(&dir).exists(), "no result log written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_tails_are_ignored_and_only_their_run_is_redone() {
        let dir = tmp_dir("torn");
        let sup = sup_opts(&dir, 1, u64::MAX);
        let opts = RunOpts {
            jobs: Some(1),
            ..small_opts()
        };
        let benches = vec!["hmmer".to_owned(), "namd".to_owned()];
        supervise(&benches, opts.clone(), &sup).expect("sweep completes");
        // Tear the last append of each log, as a kill mid-write would:
        // namd's logged result and its `Done`.
        for path in [journal_path(&dir), results_path(&dir)] {
            let mut bytes = std::fs::read(&path).expect("read log");
            bytes.truncate(bytes.len() - 3);
            std::fs::write(&path, &bytes).expect("write torn log");
        }
        let (journal, results) = logs(&dir);
        assert!(journal.torn_tail && results.discarded);
        assert_eq!(journal.pending.len(), 1);
        assert_eq!(results.entries.len(), 1);

        supervise(&benches, opts, &sup).expect("second sweep completes");
        // hmmer was skipped; namd ran once more, under its pending intent.
        let (journal, results) = logs(&dir);
        assert_eq!(journal.records_replayed, 2, "{journal:?}");
        assert!(journal.pending.is_empty() && !journal.discarded());
        let reports: Vec<&str> = results.entries.iter().map(|(_, r)| r.as_str()).collect();
        assert_eq!(
            reports,
            [
                direct_report("hmmer", &small_opts()),
                direct_report("namd", &small_opts())
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
