//! Crash-consistency glue over `powerchop-durable`, and the one run
//! path shared by the serve daemon and the CLI.
//!
//! Both durable callers keep one on-disk format in one directory:
//!
//! - each owed run (a serve `run`/`sweep` request, a supervised
//!   benchmark) is journaled as a [`Record::Intent`] *before* its first
//!   attempt and retired with [`Record::Done`] once it has settled, so a
//!   `kill -9` can never silently drop accepted work;
//! - in-flight runs spill a `Simulation::snapshot` every
//!   [`Durability::spill_every`] retired instructions through
//!   [`SpillPlan::spill`] (atomic temp-file-then-rename, then a
//!   journaled [`Record::Spill`] marker), so the next boot resumes from
//!   the last durable chunk with zero re-done chunks;
//! - finished reports are written through to a [`CacheLog`] under their
//!   run key, so a restart answers them again bit-identically.
//!
//! Every caller builds a run the same way and drives it through the same
//! loop: [`Prepared::new`] turns a [`RunSpec`] into a program,
//! configuration and run key, [`restore_or_new`] resumes it from its
//! spill or starts it fresh, [`run_until`] steps it to completion or a
//! deadline, and [`snapshot_meta`] names it inside every snapshot. Serve
//! and `supervise` use all four; the CLI's one-shot commands use the
//! builder, and `checkpoint` the metadata too.
//!
//! This module also owns the boot-time replay (journal + cache log,
//! compacting both), the typed recovery state that the `health` op and
//! the Prometheus counters report, and the spec <-> journal-record
//! conversions. The serve recovery *driver* — re-dispatching pending
//! intents onto the worker pool as loop-owned batches — lives in
//! [`crate::server`], which owns the pool.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use powerchop::{
    config_fingerprint, ManagerKind, RunConfig, SimError, Simulation, SnapshotMeta, STEP_CHUNK,
};
use powerchop_checkpoint::run_key;
use powerchop_durable::{
    compact, compact_results, journal_path, replay, replay_results, results_path, spill_path,
    CacheLog, Journal, PendingIntent, Record, SpecRecord,
};
use powerchop_gisa::Program;

use crate::cache::ResultCache;
use crate::protocol::{fault_config, RunSpec, DEFAULT_FAULT_SEED};

/// Locks a mutex, riding through poisoning (same policy as the server:
/// a panicked holder must not take the journal down with it).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What boot-time recovery found, frozen for the `health` op plus the
/// live counters the resume driver advances.
#[derive(Debug)]
pub(crate) struct RecoveryState {
    /// Nothing replayed, nothing discarded, nothing pending: the
    /// journal directory held no prior life to recover.
    pub clean_boot: bool,
    /// Valid journal records replayed at boot.
    pub journal_replayed: u64,
    /// Torn tails and corrupt frames discarded across the journal and
    /// the cache log.
    pub torn_discards: u64,
    /// Cache entries reloaded into the live LRU at boot.
    pub cache_reloaded: u64,
    /// Intents found without a `Done` record at boot.
    pub pending_intents: u64,
    /// Multi-run intents (sweeps) the resume driver finished.
    pub sweeps_resumed: AtomicU64,
    /// Individual runs the resume driver re-dispatched.
    pub runs_resumed: AtomicU64,
    /// Instructions recovered from spill checkpoints (work *not*
    /// re-done).
    pub resumed_instructions: AtomicU64,
    /// Instructions re-executed that a journaled spill claimed were
    /// already durable. Zero is the crash-consistency invariant; it
    /// only rises when a spill file itself was lost or unreadable.
    pub redone_instructions: AtomicU64,
    /// Whether the resume driver is still working through pending
    /// intents.
    pub active: AtomicBool,
}

/// The durable half of a sweep or daemon: journal handle, optional
/// cache log, spill policy and the recovery ledger.
#[derive(Debug)]
pub struct Durability {
    journal: Mutex<Journal>,
    /// Journal directory; spill files live beside the journal.
    dir: PathBuf,
    cache_log: Option<Mutex<CacheLog>>,
    /// Retired-instruction interval between checkpoint spills.
    pub spill_every: u64,
    next_id: AtomicU64,
    /// The boot-time recovery report plus live resume counters.
    pub(crate) recovery: RecoveryState,
}

impl Durability {
    /// Claims the next unused intent id.
    pub fn next_intent_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::SeqCst)
    }

    /// Appends one record, logging (not failing) on journal I/O errors:
    /// a full disk degrades durability, never availability.
    fn append(&self, record: &Record) {
        if let Err(e) = lock(&self.journal).append(record) {
            eprintln!("powerchop-durable: journal append failed: {e}");
        }
    }

    /// Journals owed work before its first attempt. `trace` is the
    /// request's trace id (zero when untraced), so a crash-recovery
    /// resume of this intent stays attributable to the request that
    /// asked for it.
    pub fn journal_intent(&self, id: u64, trace: u64, specs: &[RunSpec]) {
        self.append(&Record::Intent {
            id,
            trace,
            specs: specs.iter().map(spec_to_record).collect(),
        });
    }

    /// Journals a spill marker after its checkpoint file is durable.
    pub fn journal_spill(&self, id: u64, bench: &str, retired: u64) {
        self.append(&Record::Spill {
            id,
            bench: bench.to_owned(),
            retired,
        });
    }

    /// Retires an intent once nothing more is owed on it: journals its
    /// `Done`, then removes its spill checkpoints (best effort — an
    /// orphaned spill is garbage, not corruption).
    pub fn retire<'a>(&self, id: u64, benches: impl IntoIterator<Item = &'a str>) {
        self.append(&Record::Done { id });
        for bench in benches {
            let _ = std::fs::remove_file(self.spill_file(id, bench));
        }
    }

    /// The spill checkpoint path for one of intent `id`'s runs.
    pub fn spill_file(&self, id: u64, bench: &str) -> PathBuf {
        spill_path(&self.dir, id, bench)
    }

    /// Writes a finished run's reply through to the result log under
    /// its run key.
    pub fn record_cache_put(&self, key: u128, reply: &str) {
        if let Some(log) = &self.cache_log {
            if let Err(e) = lock(log).append(key, reply) {
                eprintln!("powerchop-durable: cache log append failed: {e}");
            }
        }
    }
}

/// One journaled run's spill/resume instructions: a serve pool job or a
/// supervised benchmark carries one. `resume_from` is the last
/// *journaled* spill point when this resumes a pending intent.
#[derive(Debug, Clone)]
pub struct SpillPlan {
    /// Shared durability handle (journal + counters).
    pub durability: Arc<Durability>,
    /// The intent this run belongs to.
    pub id: u64,
    /// The spec being run (names the spill file, shapes the snapshot
    /// metadata).
    pub spec: RunSpec,
    /// Retired-instruction count the last journaled spill promised is
    /// durable on disk, when resuming.
    pub resume_from: Option<u64>,
    /// Whether a spill from an earlier attempt or process may exist:
    /// only then does [`restore_or_new`] look for one and advance the
    /// recovery ledger.
    pub recovery: bool,
}

impl SpillPlan {
    /// The spill checkpoint path for this run.
    pub fn path(&self) -> PathBuf {
        self.durability.spill_file(self.id, &self.spec.bench)
    }

    /// Spills one checkpoint: atomic file write first, journal marker
    /// second. A failed write skips the marker — better to re-do a chunk
    /// on the next boot than to journal a checkpoint that does not exist.
    pub fn spill(&self, sim: &mut Simulation<'_>) {
        let bytes = sim.snapshot(&snapshot_meta(&self.spec));
        match powerchop_durable::write_atomic(&self.path(), &bytes) {
            Ok(()) => self
                .durability
                .journal_spill(self.id, &self.spec.bench, sim.retired()),
            Err(e) => eprintln!("powerchop-durable: checkpoint spill failed: {e}"),
        }
    }
}

/// A run built from its spec: the program, manager and configuration
/// the spec describes, and the run key that names it in the result
/// cache and the result log.
#[derive(Debug)]
pub struct Prepared {
    /// The guest program.
    pub program: Program,
    /// The manager kind.
    pub kind: ManagerKind,
    /// The full run configuration.
    pub cfg: RunConfig,
    /// [`run_key`] over the program and configuration fingerprints.
    pub key: u128,
}

impl Prepared {
    /// Prepares `program` under `cfg` (the design point's base
    /// configuration) for `spec`: sets the instruction budget and the
    /// fault schedule [`fault_config`] derives, then keys the run.
    #[must_use]
    pub fn new(program: Program, mut cfg: RunConfig, spec: &RunSpec) -> Self {
        cfg.max_instructions = spec.budget;
        cfg.faults = fault_config(spec.seed, spec.storm);
        let key = run_key(
            program.fingerprint(),
            config_fingerprint(spec.manager, &cfg),
        );
        Prepared {
            program,
            kind: spec.manager,
            cfg,
            key,
        }
    }
}

/// The self-describing metadata embedded in a run's snapshots.
/// `fault_seed` is the seed a faulted run actually runs under (the
/// default seed for a storm without one), so `resume` rebuilds the same
/// fault schedule from the metadata alone.
#[must_use]
pub fn snapshot_meta(spec: &RunSpec) -> SnapshotMeta {
    SnapshotMeta {
        benchmark: spec.bench.clone(),
        scale: spec.scale,
        manager: manager_label(spec.manager).to_owned(),
        budget: spec.budget,
        fault_seed: spec.seed.or(spec.storm.then_some(DEFAULT_FAULT_SEED)),
        storm: spec.storm,
    }
}

/// Builds the simulation for a run and says whether it resumed. Only
/// under a recovery plan is a spill looked for; then the recovery ledger
/// gains the instructions the spill restored, and whatever the journal
/// promised beyond that counts as re-done. A spill that is corrupt or
/// was taken under another configuration is warned about and the run
/// starts fresh, never panics.
///
/// # Errors
///
/// Returns the [`SimError`] of a configuration the simulator rejects.
pub fn restore_or_new<'p>(
    ready: &'p Prepared,
    plan: Option<&SpillPlan>,
) -> Result<(Simulation<'p>, bool), SimError> {
    let Prepared {
        program, kind, cfg, ..
    } = ready;
    let fresh = || Simulation::new(program, *kind, cfg).map(|sim| (sim, false));
    let Some(plan) = plan.filter(|p| p.recovery) else {
        return fresh();
    };
    let path = plan.path();
    let restored = std::fs::read(&path).ok().and_then(|bytes| {
        Simulation::restore(program, *kind, cfg, &bytes)
            .map_err(|e| {
                eprintln!(
                    "powerchop-durable: spill {} unusable ({e}); starting fresh",
                    path.display()
                );
            })
            .ok()
    });
    let resumed = restored.as_ref().map_or(0, Simulation::retired);
    let promised = plan.resume_from.unwrap_or(0);
    let ledger = &plan.durability.recovery;
    ledger
        .resumed_instructions
        .fetch_add(resumed, Ordering::SeqCst);
    ledger
        .redone_instructions
        .fetch_add(promised.saturating_sub(resumed), Ordering::SeqCst);
    restored.map_or_else(fresh, |sim| Ok((sim, true)))
}

/// Steps `sim` in [`STEP_CHUNK`]s until it finishes or `deadline`
/// passes (checked at every chunk boundary; `None` never expires), and
/// returns whether it finished. With a `plan`, it spills every
/// `spill_every` retired instructions while the run is unfinished: the
/// chunk that finishes a run never spills, because the run's completion
/// retires its intent and deletes its spills moments later. A run
/// stopped by its deadline is handed back unspilled.
///
/// # Errors
///
/// Propagates the [`SimError`] of a failed step.
pub fn run_until(
    sim: &mut Simulation<'_>,
    plan: Option<&SpillPlan>,
    deadline: Option<Instant>,
) -> Result<bool, SimError> {
    let mut last_spill = sim.retired();
    while !sim.is_done() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(false);
        }
        sim.step_chunk(STEP_CHUNK)?;
        if let (Some(plan), false) = (plan, sim.is_done()) {
            if sim.retired().saturating_sub(last_spill) >= plan.durability.spill_every {
                plan.spill(sim);
                last_spill = sim.retired();
            }
        }
    }
    Ok(true)
}

/// Everything a caller needs back from boot-time recovery.
pub struct Boot {
    /// The live durability handle for the daemon's state.
    pub durability: Arc<Durability>,
    /// Intents to resume, in journal order.
    pub pending: Vec<PendingIntent>,
}

/// Boot-time recovery: replay and compact the journal, reload and
/// compact the cache log into `cache`, and hand back the live handles.
/// Compaction happens *before* the append handles open so they append
/// to the compacted files, not to replaced inodes.
///
/// # Errors
///
/// Propagates real filesystem failures (a corrupt or torn *content* is
/// recovered from, never an error).
pub fn boot(
    journal_dir: &Path,
    cache_dir: Option<&Path>,
    spill_every: u64,
    cache: &mut ResultCache,
) -> std::io::Result<Boot> {
    std::fs::create_dir_all(journal_dir)?;
    let jpath = journal_path(journal_dir);
    let scan = replay(&jpath)?;
    compact(&jpath, &scan.pending)?;
    let journal = Journal::open(&jpath)?;

    let mut torn_discards =
        u64::from(scan.torn_tail) + u64::from(scan.corrupt_frame) + scan.malformed_records;
    let mut cache_log = None;
    if let Some(dir) = cache_dir {
        std::fs::create_dir_all(dir)?;
        let rpath = results_path(dir);
        let replayed = replay_results(&rpath)?;
        torn_discards += u64::from(replayed.discarded);
        for (key, reply) in replayed.entries {
            cache.put(key, reply);
        }
        compact_results(
            &rpath,
            &cache
                .entries()
                .map(|(k, v)| (k, v.to_owned()))
                .collect::<Vec<_>>(),
        )?;
        cache_log = Some(Mutex::new(CacheLog::open(&rpath)?));
    }
    let cache_reloaded = cache.len() as u64;

    let pending_intents = scan.pending.len() as u64;
    let clean_boot = scan.records_replayed == 0 && torn_discards == 0 && cache_reloaded == 0;
    let durability = Arc::new(Durability {
        journal: Mutex::new(journal),
        dir: journal_dir.to_owned(),
        cache_log,
        spill_every: spill_every.max(1),
        next_id: AtomicU64::new(scan.next_id),
        recovery: RecoveryState {
            clean_boot,
            journal_replayed: scan.records_replayed,
            torn_discards,
            cache_reloaded,
            pending_intents,
            sweeps_resumed: AtomicU64::new(0),
            runs_resumed: AtomicU64::new(0),
            resumed_instructions: AtomicU64::new(0),
            redone_instructions: AtomicU64::new(0),
            active: AtomicBool::new(pending_intents > 0),
        },
    });
    Ok(Boot {
        durability,
        pending: scan.pending,
    })
}

/// The CLI-argument spelling of a manager, as embedded in snapshot
/// metadata (`powerchop::manager_kind_by_name` accepts every one).
pub fn manager_label(kind: ManagerKind) -> &'static str {
    match kind {
        ManagerKind::PowerChop => "powerchop",
        ManagerKind::FullPower => "full",
        ManagerKind::MinimalPower => "minimal",
        ManagerKind::TimeoutVpu { .. } => "timeout",
        ManagerKind::DrowsyMlc { .. } => "drowsy",
    }
}

/// Encodes a validated spec as its journal form.
pub fn spec_to_record(spec: &RunSpec) -> SpecRecord {
    let (manager_tag, manager_param) = match spec.manager {
        ManagerKind::PowerChop => (0, 0),
        ManagerKind::FullPower => (1, 0),
        ManagerKind::MinimalPower => (2, 0),
        ManagerKind::TimeoutVpu { timeout_cycles } => (3, timeout_cycles),
        ManagerKind::DrowsyMlc { period_cycles } => (4, period_cycles),
    };
    SpecRecord {
        bench: spec.bench.clone(),
        manager_tag,
        manager_param,
        budget: spec.budget,
        scale_bits: spec.scale.to_bits(),
        seed: spec.seed,
        storm: spec.storm,
    }
}

/// Decodes a journaled spec back into a dispatchable [`RunSpec`].
/// Resumed runs get the server's own deadline cap — the original
/// client's deadline died with the original client. Returns `None` for
/// records a different version journaled (unknown manager tag,
/// non-finite scale): skipping them is the safe reading.
pub(crate) fn record_to_spec(rec: &SpecRecord, deadline_ms: u64) -> Option<RunSpec> {
    let manager = match rec.manager_tag {
        0 => ManagerKind::PowerChop,
        1 => ManagerKind::FullPower,
        2 => ManagerKind::MinimalPower,
        3 => ManagerKind::TimeoutVpu {
            timeout_cycles: rec.manager_param,
        },
        4 => ManagerKind::DrowsyMlc {
            period_cycles: rec.manager_param,
        },
        _ => return None,
    };
    let scale = f64::from_bits(rec.scale_bits);
    if !scale.is_finite() || scale <= 0.0 {
        return None;
    }
    Some(RunSpec {
        bench: rec.bench.clone(),
        manager,
        budget: rec.budget,
        scale,
        seed: rec.seed,
        storm: rec.storm,
        deadline_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pwc-sdur-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn spec(bench: &str, manager: ManagerKind) -> RunSpec {
        RunSpec {
            bench: bench.into(),
            manager,
            budget: 200_000,
            scale: 0.05,
            seed: Some(7),
            storm: false,
            deadline_ms: 1_000,
        }
    }

    #[test]
    fn spec_record_roundtrip_preserves_every_manager() {
        for manager in [
            ManagerKind::PowerChop,
            ManagerKind::FullPower,
            ManagerKind::MinimalPower,
            ManagerKind::TimeoutVpu {
                timeout_cycles: 1234,
            },
            ManagerKind::DrowsyMlc { period_cycles: 99 },
        ] {
            let s = spec("hmmer", manager);
            let rec = spec_to_record(&s);
            let back = record_to_spec(&rec, 5_000).expect("valid record decodes");
            assert_eq!(back.manager, s.manager);
            assert_eq!(back.bench, s.bench);
            assert_eq!(back.budget, s.budget);
            assert_eq!(back.scale.to_bits(), s.scale.to_bits());
            assert_eq!(back.seed, s.seed);
            assert_eq!(back.deadline_ms, 5_000, "resume uses the server cap");
        }
    }

    #[test]
    fn unknown_tags_and_bad_scales_are_skipped_not_panicked() {
        let mut rec = spec_to_record(&spec("hmmer", ManagerKind::PowerChop));
        rec.manager_tag = 200;
        assert!(record_to_spec(&rec, 1_000).is_none());
        let mut rec = spec_to_record(&spec("hmmer", ManagerKind::PowerChop));
        rec.scale_bits = f64::NAN.to_bits();
        assert!(record_to_spec(&rec, 1_000).is_none());
        let mut rec = spec_to_record(&spec("hmmer", ManagerKind::PowerChop));
        rec.scale_bits = (-1.0f64).to_bits();
        assert!(record_to_spec(&rec, 1_000).is_none());
    }

    #[test]
    fn boot_on_an_empty_dir_is_clean() {
        let dir = temp_dir("clean");
        let mut cache = ResultCache::new(4);
        let boot = boot(&dir, Some(&dir), 1_000, &mut cache).expect("boot");
        let r = &boot.durability.recovery;
        assert!(r.clean_boot);
        assert_eq!(r.journal_replayed, 0);
        assert_eq!(r.torn_discards, 0);
        assert_eq!(r.cache_reloaded, 0);
        assert!(boot.pending.is_empty());
        assert!(!r.active.load(Ordering::SeqCst));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_replays_pending_intents_and_cache_entries() {
        let dir = temp_dir("replay");
        let mut cache = ResultCache::new(4);
        {
            let b = boot(&dir, Some(&dir), 1_000, &mut cache).expect("first boot");
            let id = b.durability.next_intent_id();
            b.durability
                .journal_intent(id, 0xF00D, &[spec("hmmer", ManagerKind::PowerChop)]);
            b.durability.journal_spill(id, "hmmer", 64_000);
            let done = b.durability.next_intent_id();
            b.durability
                .journal_intent(done, 0, &[spec("namd", ManagerKind::FullPower)]);
            b.durability.retire(done, []);
            b.durability.record_cache_put(42, r#"{"ok":true}"#);
        }
        // Simulated crash: nothing retired the first intent.
        let mut cache = ResultCache::new(4);
        let b = boot(&dir, Some(&dir), 1_000, &mut cache).expect("second boot");
        let r = &b.durability.recovery;
        assert!(!r.clean_boot);
        assert_eq!(b.pending.len(), 1);
        assert_eq!(b.pending[0].specs[0].bench, "hmmer");
        assert_eq!(b.pending[0].spilled.get("hmmer"), Some(&64_000));
        assert_eq!(b.pending[0].trace, 0xF00D, "trace id survives the crash");
        assert_eq!(r.cache_reloaded, 1);
        assert_eq!(cache.get(42).as_deref(), Some(r#"{"ok":true}"#));
        assert!(r.active.load(Ordering::SeqCst));
        // Fresh ids never collide with journaled ones.
        assert!(b.durability.next_intent_id() > b.pending[0].id);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_meta_names_the_seed_a_faulted_run_runs_under() {
        let mut s = spec("hmmer", ManagerKind::PowerChop);
        assert_eq!(snapshot_meta(&s).fault_seed, Some(7));
        s.seed = None;
        assert_eq!(snapshot_meta(&s).fault_seed, None, "a clean run has none");
        s.storm = true;
        assert_eq!(snapshot_meta(&s).fault_seed, Some(DEFAULT_FAULT_SEED));
    }

    #[test]
    fn a_corrupt_spill_under_recovery_runs_fresh_and_counts_its_promise_redone() {
        let dir = temp_dir("corrupt-spill");
        let b = boot(&dir, None, 1_000, &mut ResultCache::new(0)).expect("boot");
        let s = spec("hmmer", ManagerKind::PowerChop);
        let bench = powerchop_workloads::by_name("hmmer").expect("hmmer exists");
        let program = bench.program(powerchop_workloads::Scale(s.scale));
        let ready = Prepared::new(program, RunConfig::for_kind(bench.core_kind()), &s);
        let plan = SpillPlan {
            durability: Arc::clone(&b.durability),
            id: b.durability.next_intent_id(),
            spec: s,
            resume_from: Some(60_000),
            recovery: true,
        };
        std::fs::write(plan.path(), b"definitely not a snapshot").expect("write spill");
        let (sim, resumed) = restore_or_new(&ready, Some(&plan)).expect("a fresh run builds");
        assert!(!resumed, "a corrupt spill never resumes");
        assert_eq!(sim.retired(), 0, "the run starts from scratch");
        let r = &b.durability.recovery;
        assert_eq!(r.resumed_instructions.load(Ordering::SeqCst), 0);
        assert_eq!(r.redone_instructions.load(Ordering::SeqCst), 60_000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_discards_a_torn_journal_tail() {
        let dir = temp_dir("torn");
        let mut cache = ResultCache::new(4);
        {
            let b = boot(&dir, None, 1_000, &mut cache).expect("first boot");
            b.durability
                .journal_intent(0, 0, &[spec("hmmer", ManagerKind::PowerChop)]);
            b.durability
                .journal_intent(1, 0, &[spec("namd", ManagerKind::PowerChop)]);
        }
        let jpath = journal_path(&dir);
        let mut bytes = std::fs::read(&jpath).expect("read journal");
        bytes.truncate(bytes.len() - 3); // tear the last append
        std::fs::write(&jpath, &bytes).expect("write torn journal");
        let b = boot(&dir, None, 1_000, &mut cache).expect("recovering boot");
        let r = &b.durability.recovery;
        assert_eq!(r.torn_discards, 1);
        assert_eq!(b.pending.len(), 1, "only the intact record survives");
        assert_eq!(b.pending[0].id, 0);
        assert!(!r.clean_boot);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
