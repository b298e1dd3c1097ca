//! The integrated PowerChop system: guest program + BT layer + core
//! model + power manager + energy ledger. [`Simulation`] owns the full
//! deterministic run state and supports chunked stepping with crash-safe
//! [`Simulation::snapshot`]/[`Simulation::restore`]; [`run_program`] is
//! the one-shot entry point producing the [`RunReport`] that every
//! experiment in the paper's evaluation is derived from.

use powerchop_bt::nucleus::{Nucleus, NucleusStats};
use powerchop_bt::{BtConfig, BtStats, JitMode, JitReport, Machine, MachineEvent};
use powerchop_checkpoint::{fnv1a64, CheckpointError, Snapshot, SnapshotWriter};
use powerchop_faults::{FaultConfig, FaultKind, FaultSchedule, FaultStats};
use powerchop_gisa::Program;
use powerchop_power::{EnergyLedger, EnergyReport, PowerParams};
use powerchop_telemetry::{Event, MetricSource as _, Tracer};
use powerchop_uarch::config::{CoreConfig, CoreKind};
use powerchop_uarch::core::{CoreModel, CoreStats};

use crate::cde::CdeStats;
use crate::degrade::DegradeStats;
use crate::error::SimError;
use crate::gating::{GatedCycles, GatingController, SwitchCounts};
use crate::managers::{
    ChopConfig, DrowsyMlcManager, FullPowerManager, ManagerCtx, MinimalPowerManager,
    PowerChopManager, PowerManager, TimeoutVpuManager, WindowRecord,
};
use crate::pvt::PvtStats;

/// Which power-management policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerKind {
    /// PowerChop (the paper's contribution).
    PowerChop,
    /// Fully-powered baseline.
    FullPower,
    /// Lowest-power baseline.
    MinimalPower,
    /// Hardware-only idleness timeout on the VPU (paper §V-E).
    TimeoutVpu {
        /// Idle cycles before gating off.
        timeout_cycles: u64,
    },
    /// Drowsy-cache baseline on the MLC (paper §VI related work):
    /// periodic low-retention-voltage mode instead of way-gating.
    DrowsyMlc {
        /// Cycles between global drowse events.
        period_cycles: u64,
    },
}

/// Parses a manager name in its external spelling (the CLI's and the
/// serve protocol's, aliases included) into the kind with its
/// paper-default parameters. Returns `None` for unknown names.
#[must_use]
pub fn manager_kind_by_name(name: &str) -> Option<ManagerKind> {
    Some(match name {
        "powerchop" | "chop" => ManagerKind::PowerChop,
        "full" | "full-power" => ManagerKind::FullPower,
        "minimal" | "min" => ManagerKind::MinimalPower,
        "timeout" => ManagerKind::TimeoutVpu {
            timeout_cycles: crate::managers::TimeoutVpuManager::PAPER_TIMEOUT_CYCLES,
        },
        "drowsy" => ManagerKind::DrowsyMlc {
            period_cycles: crate::managers::DrowsyMlcManager::DEFAULT_PERIOD_CYCLES,
        },
        _ => return None,
    })
}

/// Everything needed to run one experiment.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Core design point.
    pub core: CoreConfig,
    /// BT-layer tuning.
    pub bt: BtConfig,
    /// Power-model parameters.
    pub power: PowerParams,
    /// PowerChop tuning (ignored by baselines).
    pub chop: ChopConfig,
    /// Stop after this many retired guest instructions (the SimPoint
    /// substitute — see `DESIGN.md`).
    pub max_instructions: u64,
    /// Record per-window phase-identification data (Fig. 8). Off by
    /// default; costs memory proportional to windows executed.
    pub record_windows: bool,
    /// Deterministic fault injection (stress testing). `None` runs clean.
    pub faults: Option<FaultConfig>,
    /// Native trace JIT mode (defaults to the `POWERCHOP_JIT` environment
    /// variable, else auto). An execution strategy, not simulated state:
    /// JIT-on and JIT-off runs produce bit-identical artifacts, so this
    /// field is deliberately excluded from [`config_fingerprint`] and
    /// checkpoints cross freely between modes.
    pub jit: JitMode,
}

impl RunConfig {
    /// A default configuration for the given design point. The
    /// instruction budget defaults to 12 M and can be overridden with the
    /// `POWERCHOP_BUDGET` environment variable.
    #[must_use]
    pub fn for_kind(kind: CoreKind) -> Self {
        RunConfig {
            core: CoreConfig::for_kind(kind),
            bt: BtConfig::default(),
            power: PowerParams::for_kind(kind),
            chop: ChopConfig::default(),
            max_instructions: default_budget(),
            record_windows: false,
            faults: None,
            jit: JitMode::default_from_env(),
        }
    }

    /// Validates the configuration, naming the first unusable field.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when a field has a value the
    /// simulation cannot run under.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.max_instructions == 0 {
            return Err(SimError::InvalidConfig {
                field: "max_instructions",
                reason: "must be greater than zero",
            });
        }
        // A zero trace limit builds empty translations: dispatching one
        // retires nothing, so the machine would spin on its head forever.
        if self.bt.max_trace_len == 0 {
            return Err(SimError::InvalidConfig {
                field: "bt.max_trace_len",
                reason: "translations must hold at least one instruction",
            });
        }
        // The PVT, HTB and phase-signature machinery index modulo their
        // configured sizes; a zero-sized table must be rejected here
        // with a typed error, not deep inside a `%` expression.
        if self.chop.pvt_entries == 0 {
            return Err(SimError::InvalidConfig {
                field: "chop.pvt_entries",
                reason: "the PVT must hold at least one policy entry",
            });
        }
        if self.chop.htb_entries == 0 {
            return Err(SimError::InvalidConfig {
                field: "chop.htb_entries",
                reason: "the HTB must hold at least one history entry",
            });
        }
        if self.chop.signature_len == 0 {
            return Err(SimError::InvalidConfig {
                field: "chop.signature_len",
                reason: "phase signatures need at least one window",
            });
        }
        if self.chop.window_translations == 0 {
            return Err(SimError::InvalidConfig {
                field: "chop.window_translations",
                reason: "execution windows must span at least one translation",
            });
        }
        if let Some(f) = &self.faults {
            if !f.region_invalidate_fraction.is_finite()
                || !(0.0..=1.0).contains(&f.region_invalidate_fraction)
            {
                return Err(SimError::InvalidConfig {
                    field: "faults.region_invalidate_fraction",
                    reason: "must be a finite fraction in [0, 1]",
                });
            }
        }
        Ok(())
    }
}

/// The built-in per-run instruction budget when `POWERCHOP_BUDGET` is
/// unset.
const BUILTIN_BUDGET: u64 = 12_000_000;

/// The default per-run instruction budget, honouring `POWERCHOP_BUDGET`.
/// An unset variable silently uses the built-in default; a set-but-
/// unparseable value is a user mistake and gets a one-line warning on
/// stderr instead of being silently swallowed.
#[must_use]
pub fn default_budget() -> u64 {
    match std::env::var("POWERCHOP_BUDGET") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!(
                "warning: POWERCHOP_BUDGET={v:?} is not a valid instruction \
                 count; using the default of {BUILTIN_BUDGET}"
            );
            BUILTIN_BUDGET
        }),
        Err(std::env::VarError::NotPresent) => BUILTIN_BUDGET,
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!(
                "warning: POWERCHOP_BUDGET is not valid unicode; using the \
                 default of {BUILTIN_BUDGET}"
            );
            BUILTIN_BUDGET
        }
    }
}

/// The complete result of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Program name.
    pub name: String,
    /// Manager name (`"powerchop"`, `"full-power"`, ...).
    pub manager: &'static str,
    /// Design point the run used.
    pub core_kind: CoreKind,
    /// Guest instructions retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Core event counters.
    pub stats: CoreStats,
    /// BT-layer counters.
    pub bt: BtStats,
    /// Energy and average power.
    pub energy: EnergyReport,
    /// Time each unit spent gated.
    pub gated: GatedCycles,
    /// Gating switches per unit.
    pub switches: SwitchCounts,
    /// Nucleus (CDE-interrupt) activity.
    pub nucleus: NucleusStats,
    /// PVT statistics (PowerChop runs only).
    pub pvt: Option<PvtStats>,
    /// CDE statistics (PowerChop runs only).
    pub cde: Option<CdeStats>,
    /// Per-window phase records, when requested.
    pub windows: Vec<WindowRecord>,
    /// Injected-fault counts (fault-injection runs only).
    pub faults: Option<FaultStats>,
    /// Graceful-degradation activity (managers with a guard only).
    pub degrade: Option<DegradeStats>,
    /// Native-JIT counters (JIT-enabled runs only). Execution telemetry,
    /// not simulation output: deliberately excluded from run artifacts so
    /// JIT-on and JIT-off artifacts stay byte-identical.
    pub jit: Option<JitReport>,
}

impl RunReport {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Gating switches per million cycles for one unit (Fig. 11's metric).
    #[must_use]
    pub fn switches_per_mcycle(&self, switches: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            switches as f64 * 1e6 / self.cycles as f64
        }
    }

    /// Relative slowdown versus a baseline run of the same program
    /// (positive = slower than baseline).
    #[must_use]
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.ipc() == 0.0 {
            0.0
        } else {
            1.0 - self.ipc() / baseline.ipc()
        }
    }

    /// Fractional reduction in average total power versus a baseline run.
    #[must_use]
    pub fn power_reduction_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.energy.avg_power_w == 0.0 {
            0.0
        } else {
            1.0 - self.energy.avg_power_w / baseline.energy.avg_power_w
        }
    }

    /// Fractional reduction in average leakage power versus a baseline.
    #[must_use]
    pub fn leakage_reduction_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.energy.leakage_power_w == 0.0 {
            0.0
        } else {
            1.0 - self.energy.leakage_power_w / baseline.energy.leakage_power_w
        }
    }

    /// Fractional reduction in energy *for the same amount of work*
    /// versus a baseline run of the same program. Runs may retire
    /// different instruction counts under a shared budget, so energies
    /// are compared per instruction.
    #[must_use]
    pub fn energy_reduction_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.instructions == 0 || self.instructions == 0 || baseline.energy.total_j == 0.0 {
            return 0.0;
        }
        let epi = self.energy.total_j / self.instructions as f64;
        let epi_base = baseline.energy.total_j / baseline.instructions as f64;
        1.0 - epi / epi_base
    }
}

fn build_manager(kind: ManagerKind, cfg: &RunConfig) -> Box<dyn PowerManager> {
    match kind {
        ManagerKind::PowerChop => {
            Box::new(PowerChopManager::new(cfg.chop.clone(), cfg.record_windows))
        }
        ManagerKind::FullPower => Box::new(FullPowerManager),
        ManagerKind::MinimalPower => Box::new(MinimalPowerManager),
        ManagerKind::TimeoutVpu { timeout_cycles } => {
            Box::new(TimeoutVpuManager::new(timeout_cycles))
        }
        ManagerKind::DrowsyMlc { period_cycles } => Box::new(DrowsyMlcManager::new(period_cycles)),
    }
}

/// Section tags of the [`Simulation`] snapshot container (see
/// `DESIGN.md` for the format).
pub mod sections {
    /// Run metadata (benchmark name, scale, manager argument, fault
    /// seed) — readable without knowing the configuration.
    pub const META: u32 = 1;
    /// Simulation progress flags.
    pub const SIM: u32 = 2;
    /// BT machine: guest CPU, guest memory, region cache, profiling heat.
    pub const MACHINE: u32 = 3;
    /// Core timing model: BPU, caches, VPU, stats.
    pub const CORE: u32 = 4;
    /// Energy ledger.
    pub const LEDGER: u32 = 5;
    /// Gating controller.
    pub const CONTROLLER: u32 = 6;
    /// BT nucleus.
    pub const NUCLEUS: u32 = 7;
    /// Power-manager state (HTB/PVT/CDE/guard for PowerChop).
    pub const MANAGER: u32 = 8;
    /// Fault-schedule RNG streams and due times.
    pub const FAULTS: u32 = 9;
}

/// Self-describing run metadata embedded in every snapshot so a resuming
/// process can reconstruct the [`RunConfig`] without out-of-band state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Benchmark (or program) name.
    pub benchmark: String,
    /// Workload scale factor.
    pub scale: f64,
    /// Manager in its CLI-argument spelling (e.g. `"powerchop"`).
    pub manager: String,
    /// Instruction budget of the run.
    pub budget: u64,
    /// Fault-injection seed, when the run injects faults.
    pub fault_seed: Option<u64>,
    /// Whether the fault schedule uses the pathological storm rates.
    pub storm: bool,
}

/// Reads the [`SnapshotMeta`] out of snapshot `bytes` without needing
/// the run configuration (the config-hash check is deferred to
/// [`Simulation::restore`]).
///
/// # Errors
///
/// Returns a [`CheckpointError`] when the container is corrupt,
/// truncated, version-skewed or missing its metadata section.
pub fn read_meta(bytes: &[u8]) -> Result<SnapshotMeta, CheckpointError> {
    let snap = Snapshot::parse(bytes)?;
    let mut r = snap.section(sections::META)?;
    let benchmark = r.take_str()?;
    let scale = r.take_f64()?;
    let manager = r.take_str()?;
    let budget = r.take_u64()?;
    let fault_seed = if r.take_bool()? {
        Some(r.take_u64()?)
    } else {
        None
    };
    let storm = r.take_bool()?;
    r.expect_end("snapshot metadata")?;
    Ok(SnapshotMeta {
        benchmark,
        scale,
        manager,
        budget,
        fault_seed,
        storm,
    })
}

/// A deterministic fingerprint of everything that shapes a run's
/// trajectory: the manager kind and the full [`RunConfig`]. Snapshots
/// embed it so a resume under a different configuration is rejected
/// instead of silently diverging.
///
/// [`RunConfig::jit`] is deliberately *not* fingerprinted: JIT-on and
/// JIT-off execution is bit-identical, so a snapshot taken under either
/// mode must restore under the other.
#[must_use]
pub fn config_fingerprint(kind: ManagerKind, cfg: &RunConfig) -> u64 {
    let canon = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}",
        kind,
        cfg.core,
        cfg.bt,
        cfg.power,
        cfg.chop,
        cfg.max_instructions,
        cfg.record_windows,
        cfg.faults
    );
    fnv1a64(canon.as_bytes())
}

/// Dispatch-loop iterations per [`Simulation::step_chunk`] call for every
/// driver that steps a run incrementally — the CLI's checkpoint and
/// supervise paths and the serve daemon — so deadline checks and
/// checkpoint spills land at the same boundaries everywhere.
pub const STEP_CHUNK: u64 = 65_536;

/// A live simulation: the complete deterministic state of one run.
///
/// Stepping is chunked at guest-dispatch boundaries
/// ([`Simulation::step_chunk`]), which are exactly the boundaries the
/// one-shot loop iterates at — so a run snapshotted between chunks and
/// resumed from disk replays bit-identically to an uninterrupted run,
/// fault schedules included.
pub struct Simulation<'p> {
    cfg: RunConfig,
    name: String,
    config_hash: u64,
    core: CoreModel,
    ledger: EnergyLedger,
    controller: GatingController,
    nucleus: Nucleus,
    machine: Machine<'p>,
    manager: Box<dyn PowerManager>,
    schedule: Option<FaultSchedule>,
    tracer: Tracer,
    done: bool,
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("name", &self.name)
            .field("manager", &self.manager.name())
            .field("retired", &self.machine.retired())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<'p> Simulation<'p> {
    /// Creates a fresh simulation of `program` under the chosen manager.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for configurations the
    /// simulation cannot run under.
    pub fn new(program: &'p Program, kind: ManagerKind, cfg: &RunConfig) -> Result<Self, SimError> {
        Simulation::new_traced(program, kind, cfg, Tracer::disabled())
    }

    /// Creates a fresh simulation with a flight recorder attached. The
    /// recorder observes events and samples metrics but never influences
    /// the run: a traced run is bit-identical to an untraced one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for configurations the
    /// simulation cannot run under.
    pub fn new_traced(
        program: &'p Program,
        kind: ManagerKind,
        cfg: &RunConfig,
        mut tracer: Tracer,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        let mut core = CoreModel::new(&cfg.core);
        let mut ledger = EnergyLedger::new(cfg.power.clone());
        // The timeout baseline gates the power state only (vector ops
        // wake the unit on demand), so its controller must not drive the
        // core's unit models.
        let semantic = !matches!(kind, ManagerKind::TimeoutVpu { .. });
        let mut controller = GatingController::new(&cfg.core, semantic);
        let mut nucleus = Nucleus::new();
        let mut machine = Machine::new(program, cfg.bt);
        machine.set_jit_mode(cfg.jit);
        let mut manager = build_manager(kind, cfg);
        {
            let mut ctx = ManagerCtx {
                core: &mut core,
                ledger: &mut ledger,
                controller: &mut controller,
                nucleus: &mut nucleus,
                trace: &mut tracer,
            };
            manager.init(&mut ctx);
        }
        let schedule = cfg.faults.map(FaultSchedule::new);
        Ok(Simulation {
            name: program.name().to_owned(),
            config_hash: config_fingerprint(kind, cfg),
            cfg: cfg.clone(),
            core,
            ledger,
            controller,
            nucleus,
            machine,
            manager,
            schedule,
            tracer,
            done: false,
        })
    }

    /// Whether the run has reached its end (budget exhausted or guest
    /// halted).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Guest instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.machine.retired()
    }

    /// The configuration fingerprint embedded in this run's snapshots.
    #[must_use]
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// One iteration of the dispatch loop: budget check, one machine
    /// step, manager notification, due-fault drain — exactly the body of
    /// the uninterrupted run loop.
    fn step_once(&mut self) -> Result<(), SimError> {
        if self.machine.retired() >= self.cfg.max_instructions {
            self.done = true;
            return Ok(());
        }
        match self.machine.step(&mut self.core)? {
            MachineEvent::Halted => {
                self.done = true;
                return Ok(());
            }
            MachineEvent::Translation { id, instructions } => {
                let mut ctx = ManagerCtx {
                    core: &mut self.core,
                    ledger: &mut self.ledger,
                    controller: &mut self.controller,
                    nucleus: &mut self.nucleus,
                    trace: &mut self.tracer,
                };
                self.manager.on_translation(id, instructions, &mut ctx);
            }
            MachineEvent::Installed { id, guest_len } => {
                self.tracer.emit(
                    self.core.cycles(),
                    Event::TranslationInstalled {
                        id: id.0,
                        guest_len: u32::try_from(guest_len).unwrap_or(u32::MAX),
                    },
                );
                // The JIT compiles eagerly at install time, so native code
                // for this translation (if it was eligible) exists now.
                if let Some(code_bytes) = self.machine.jit_code_len(id) {
                    self.tracer.emit(
                        self.core.cycles(),
                        Event::JitCompiled {
                            id: id.0,
                            code_bytes: u32::try_from(code_bytes).unwrap_or(u32::MAX),
                        },
                    );
                }
            }
            _ => {}
        }
        if let Some(sched) = self.schedule.as_mut() {
            // The config copy is hoisted behind the due check: the
            // schedule answers "nothing due" from a cached next-due
            // cycle, so the common per-step cost is one compare, not a
            // config copy.
            let mut pending = sched.next_due(self.core.cycles());
            let fcfg = pending.map(|_| *sched.config());
            while let Some(event) = pending.take() {
                // `fcfg` is Some whenever an event was due.
                let Some(fcfg) = fcfg else { break };
                self.tracer.emit(
                    self.core.cycles(),
                    Event::FaultDelivered {
                        kind: event.kind.code(),
                    },
                );
                match event.kind {
                    FaultKind::AsyncInterrupt => {
                        // A device interrupt runs its handler in the
                        // nucleus, stealing cycles from the guest.
                        let cycles = jittered(event.payload, fcfg.interrupt_handler_cycles);
                        self.nucleus.raise(&mut self.core, cycles);
                    }
                    FaultKind::ContextSwitch => {
                        // The OS scheduled another process: the machine's
                        // per-process heat decays and the manager's
                        // window state dies with it.
                        self.machine.on_context_switch();
                        self.core.add_stall(fcfg.context_switch_cycles.max(1));
                        let mut ctx = ManagerCtx {
                            core: &mut self.core,
                            ledger: &mut self.ledger,
                            controller: &mut self.controller,
                            nucleus: &mut self.nucleus,
                            trace: &mut self.tracer,
                        };
                        self.manager.on_fault(event.kind, event.payload, &mut ctx);
                    }
                    FaultKind::RegionCacheInvalidation => {
                        let dropped = self
                            .machine
                            .invalidate_regions(fcfg.region_invalidate_fraction, event.payload);
                        self.tracer.emit(
                            self.core.cycles(),
                            Event::RegionInvalidated {
                                dropped: dropped as u64,
                            },
                        );
                    }
                    FaultKind::PvtCorruption | FaultKind::PvtEviction => {
                        let mut ctx = ManagerCtx {
                            core: &mut self.core,
                            ledger: &mut self.ledger,
                            controller: &mut self.controller,
                            nucleus: &mut self.nucleus,
                            trace: &mut self.tracer,
                        };
                        self.manager.on_fault(event.kind, event.payload, &mut ctx);
                    }
                    FaultKind::WorkloadPerturbation => {
                        // A co-runner (or DVFS excursion) steals the core
                        // for a while without touching any state.
                        self.core
                            .add_stall(jittered(event.payload, fcfg.perturb_stall_cycles));
                    }
                }
                pending = sched.next_due(self.core.cycles());
            }
        }
        if self.tracer.is_enabled() {
            let cycle = self.core.cycles();
            let due = self
                .tracer
                .recorder_mut()
                .is_some_and(|r| r.sample_due(cycle));
            if due {
                self.sample_metrics_now();
            }
        }
        Ok(())
    }

    /// Folds the current state of every subsystem into the recorder's
    /// metrics registry, plus per-unit energy-delta histograms between
    /// consecutive samples. Read-only with respect to the simulation.
    fn sample_metrics_now(&mut self) {
        let bt = self.machine.stats();
        let nucleus_stats = self.nucleus.stats();
        let fault_stats = self.schedule.as_ref().map(FaultSchedule::stats);
        let retired = self.machine.retired();
        let Some(rec) = self.tracer.recorder_mut() else {
            return;
        };
        let reg = rec.metrics_mut();
        let prev_energy = UNIT_ENERGY_HISTOGRAMS.map(|(_, leak, dynamic)| {
            reg.gauge(leak).unwrap_or(0.0) + reg.gauge(dynamic).unwrap_or(0.0)
        });
        reg.counter_set("sim_instructions_total", retired);
        reg.counter_set("sim_cycles_total", self.core.cycles());
        self.core.sample_metrics(reg);
        bt.sample_metrics(reg);
        nucleus_stats.sample_metrics(reg);
        self.ledger.sample_metrics(reg);
        if let Some(fs) = fault_stats {
            fs.sample_metrics(reg);
        }
        self.manager.sample_metrics(reg);
        if let Some(jit) = self.machine.jit_report() {
            jit.sample_metrics(reg);
        }
        for ((hist, leak, dynamic), prev) in UNIT_ENERGY_HISTOGRAMS.into_iter().zip(prev_energy) {
            let now = reg.gauge(leak).unwrap_or(0.0) + reg.gauge(dynamic).unwrap_or(0.0);
            let delta_uj = ((now - prev).max(0.0) * 1e6) as u64;
            reg.observe(hist, delta_uj);
        }
    }

    /// Runs up to `iterations` dispatch-loop iterations, stopping early
    /// when the run completes. Check [`Simulation::is_done`] afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Guest`] for guest-execution faults.
    pub fn step_chunk(&mut self, iterations: u64) -> Result<(), SimError> {
        for _ in 0..iterations {
            if self.done {
                return Ok(());
            }
            self.step_once()?;
        }
        Ok(())
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Guest`] for guest-execution faults.
    pub fn run_to_completion(&mut self) -> Result<(), SimError> {
        while !self.done {
            self.step_once()?;
        }
        Ok(())
    }

    /// Finalizes accounting and produces the run report. Valid at any
    /// point (a mid-run report covers the work so far); the report of a
    /// resumed run is bit-identical to that of an uninterrupted one.
    #[must_use]
    pub fn into_report(self) -> RunReport {
        self.into_report_with_telemetry().0
    }

    /// Like [`Simulation::into_report`], but also takes a final metrics
    /// sample, closes open trace spans and hands the tracer back so the
    /// caller can export the flight recording.
    #[must_use]
    pub fn into_report_with_telemetry(mut self) -> (RunReport, Tracer) {
        self.controller.sync(&self.core, &mut self.ledger);
        if self.tracer.is_enabled() {
            self.sample_metrics_now();
        }
        let cycle = self.core.cycles();
        self.tracer.with(|r| r.finish(cycle));
        let tracer = std::mem::take(&mut self.tracer);
        let report = RunReport {
            name: self.name,
            manager: self.manager.name(),
            core_kind: self.cfg.core.kind,
            instructions: self.machine.retired(),
            cycles: self.core.cycles(),
            stats: self.core.stats(),
            bt: self.machine.stats(),
            energy: self.ledger.report(),
            gated: self.controller.gated_cycles(),
            switches: self.controller.switches(),
            nucleus: self.nucleus.stats(),
            pvt: self.manager.pvt_stats(),
            cde: self.manager.cde_stats(),
            windows: self.manager.take_window_records(),
            faults: self.schedule.as_ref().map(FaultSchedule::stats),
            degrade: self.manager.degrade_stats(),
            jit: self.machine.jit_report(),
        };
        (report, tracer)
    }

    /// Serializes the complete run state into the versioned, checksummed
    /// snapshot container, embedding `meta` so the snapshot is
    /// self-describing.
    ///
    /// Telemetry is deliberately *not* part of the snapshot: a resumed
    /// trace starts at the resume point. The write is recorded as a
    /// [`Event::CheckpointWritten`] trace event (hence `&mut self`).
    #[must_use]
    pub fn snapshot(&mut self, meta: &SnapshotMeta) -> Vec<u8> {
        self.tracer.emit(
            self.core.cycles(),
            Event::CheckpointWritten {
                retired: self.machine.retired(),
            },
        );
        let mut sw = SnapshotWriter::new(self.config_hash);
        sw.section(sections::META, |w| {
            w.put_str(&meta.benchmark);
            w.put_f64(meta.scale);
            w.put_str(&meta.manager);
            w.put_u64(meta.budget);
            match meta.fault_seed {
                Some(seed) => {
                    w.put_bool(true);
                    w.put_u64(seed);
                }
                None => w.put_bool(false),
            }
            w.put_bool(meta.storm);
        });
        sw.section(sections::SIM, |w| w.put_bool(self.done));
        sw.section(sections::MACHINE, |w| self.machine.snapshot_to(w));
        sw.section(sections::CORE, |w| self.core.snapshot_to(w));
        sw.section(sections::LEDGER, |w| self.ledger.snapshot_to(w));
        sw.section(sections::CONTROLLER, |w| self.controller.snapshot_to(w));
        sw.section(sections::NUCLEUS, |w| self.nucleus.snapshot_to(w));
        sw.section(sections::MANAGER, |w| self.manager.snapshot_to(w));
        if let Some(sched) = &self.schedule {
            sw.section(sections::FAULTS, |w| sched.snapshot_to(w));
        }
        sw.finish()
    }

    /// Reconstructs a run from snapshot `bytes`. The caller supplies the
    /// same program, manager kind and configuration the snapshot was
    /// captured under; mismatches are rejected via the embedded config
    /// fingerprint (and the machine section's program fingerprint).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] when the snapshot is corrupt,
    /// truncated, version-skewed or captured under a different
    /// configuration, and [`SimError::InvalidConfig`] when `cfg` itself
    /// is unusable.
    pub fn restore(
        program: &'p Program,
        kind: ManagerKind,
        cfg: &RunConfig,
        bytes: &[u8],
    ) -> Result<Self, SimError> {
        let mut sim = Simulation::new(program, kind, cfg)?;
        let snap = Snapshot::parse(bytes).map_err(SimError::from)?;
        snap.require_config(sim.config_hash)
            .map_err(SimError::from)?;
        sim.restore_sections(&snap).map_err(SimError::from)?;
        Ok(sim)
    }

    /// Replaces the run's tracer. Telemetry is not checkpointed, so
    /// this is how a run restored via [`Simulation::restore`] gets a
    /// flight recorder: the recording starts at the attach point.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn restore_sections(&mut self, snap: &Snapshot<'_>) -> Result<(), CheckpointError> {
        let mut r = snap.section(sections::SIM)?;
        self.done = r.take_bool()?;
        r.expect_end("simulation flags")?;

        let mut r = snap.section(sections::MACHINE)?;
        self.machine.restore_from(&mut r)?;
        r.expect_end("machine state")?;

        let mut r = snap.section(sections::CORE)?;
        self.core.restore_from(&mut r)?;
        r.expect_end("core state")?;

        let mut r = snap.section(sections::LEDGER)?;
        self.ledger.restore_from(&mut r)?;
        r.expect_end("energy ledger")?;

        let mut r = snap.section(sections::CONTROLLER)?;
        self.controller.restore_from(&mut r)?;
        r.expect_end("gating controller")?;

        let mut r = snap.section(sections::NUCLEUS)?;
        self.nucleus.restore_from(&mut r)?;
        r.expect_end("nucleus state")?;

        let mut r = snap.section(sections::MANAGER)?;
        self.manager.restore_from(&mut r)?;
        r.expect_end("manager state")?;

        match (&mut self.schedule, snap.has_section(sections::FAULTS)) {
            (Some(sched), true) => {
                let mut r = snap.section(sections::FAULTS)?;
                sched.restore_from(&mut r)?;
                r.expect_end("fault schedule")?;
            }
            (None, false) => {}
            _ => {
                return Err(CheckpointError::Malformed {
                    what: "fault-schedule presence differs between snapshot and configuration",
                });
            }
        }
        Ok(())
    }
}

/// Runs `program` under the chosen power manager, optionally under a
/// deterministic fault schedule (`cfg.faults`). A thin wrapper over
/// [`Simulation`].
///
/// # Errors
///
/// Returns [`SimError::Guest`] for guest-execution faults (a bug in the
/// guest program) and [`SimError::InvalidConfig`] for configurations the
/// simulation cannot run under. Injected faults never produce errors:
/// absorbing them — at worst by failing safe to full power — is the
/// degradation layer's contract.
pub fn run_program(
    program: &Program,
    kind: ManagerKind,
    cfg: &RunConfig,
) -> Result<RunReport, SimError> {
    let mut sim = Simulation::new(program, kind, cfg)?;
    sim.run_to_completion()?;
    Ok(sim.into_report())
}

/// Runs `program` with a flight recorder attached, returning both the
/// report and the tracer holding the recorded events and metrics. The
/// report is bit-identical to the one [`run_program`] produces for the
/// same inputs.
///
/// # Errors
///
/// Exactly as [`run_program`]: guest-execution faults and invalid
/// configurations.
pub fn run_program_traced(
    program: &Program,
    kind: ManagerKind,
    cfg: &RunConfig,
    tracer: Tracer,
) -> Result<(RunReport, Tracer), SimError> {
    let mut sim = Simulation::new_traced(program, kind, cfg, tracer)?;
    sim.run_to_completion()?;
    Ok(sim.into_report_with_telemetry())
}

/// Metric-name triples `(delta histogram, leakage gauge, dynamic gauge)`
/// for the per-unit energy-delta histograms sampled on the telemetry
/// interval.
const UNIT_ENERGY_HISTOGRAMS: [(&str, &str, &str); 3] = [
    (
        "energy_delta_vpu_microjoules",
        "power_leakage_vpu_joules",
        "power_dynamic_vpu_joules",
    ),
    (
        "energy_delta_bpu_microjoules",
        "power_leakage_bpu_joules",
        "power_dynamic_bpu_joules",
    ),
    (
        "energy_delta_mlc_microjoules",
        "power_leakage_mlc_joules",
        "power_dynamic_mlc_joules",
    ),
];

/// A payload-jittered fault magnitude in `[mean/2, mean)`, never zero.
fn jittered(payload: u64, mean: u64) -> u64 {
    let mean = mean.max(1);
    let half = mean / 2;
    (half + payload % (mean - half).max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_gisa::{ProgramBuilder, Reg};

    /// A long predictable scalar loop: every managed unit is non-critical.
    fn idle_units_program(iters: i64) -> Program {
        let r0 = Reg::new(0).expect("register index in range");
        let r1 = Reg::new(1).expect("register index in range");
        let r2 = Reg::new(2).expect("register index in range");
        let mut b = ProgramBuilder::new("idle-units");
        b.li(r0, 0).li(r1, iters);
        let top = b.bind_label();
        b.addi(r2, r2, 3);
        b.xor(r2, r2, r0);
        b.addi(r0, r0, 1);
        b.blt(r0, r1, top);
        b.halt();
        b.build().expect("test program is well-formed")
    }

    fn cfg() -> RunConfig {
        let mut c = RunConfig::for_kind(CoreKind::Server);
        c.max_instructions = 2_000_000;
        c
    }

    #[test]
    fn powerchop_gates_noncritical_units_with_small_slowdown() {
        let p = idle_units_program(1_000_000);
        let cfg = cfg();
        let full = run_program(&p, ManagerKind::FullPower, &cfg).expect("test run succeeds");
        let chop = run_program(&p, ManagerKind::PowerChop, &cfg).expect("test run succeeds");

        // Units gated for the bulk of execution.
        assert!(
            chop.gated.vpu_off_frac() > 0.8,
            "vpu: {}",
            chop.gated.vpu_off_frac()
        );
        assert!(
            chop.gated.bpu_off_frac() > 0.8,
            "bpu: {}",
            chop.gated.bpu_off_frac()
        );
        assert!(
            chop.gated.mlc_one_frac() > 0.8,
            "mlc: {}",
            chop.gated.mlc_one_frac()
        );

        // Big leakage reduction, tiny slowdown.
        assert!(chop.leakage_reduction_vs(&full) > 0.3);
        let slowdown = chop.slowdown_vs(&full);
        assert!(slowdown < 0.05, "slowdown {slowdown}");
        assert!(chop.power_reduction_vs(&full) > 0.0);
    }

    #[test]
    fn minimal_power_is_cheapest_but_can_be_slow() {
        let p = idle_units_program(500_000);
        let cfg = cfg();
        let full = run_program(&p, ManagerKind::FullPower, &cfg).expect("test run succeeds");
        let min = run_program(&p, ManagerKind::MinimalPower, &cfg).expect("test run succeeds");
        assert!(min.energy.leakage_power_w < full.energy.leakage_power_w * 0.7);
        assert_eq!(min.switches.total(), 3, "one switch per unit at init");
    }

    #[test]
    fn reports_are_internally_consistent() {
        let p = idle_units_program(200_000);
        let cfg = cfg();
        let r = run_program(&p, ManagerKind::PowerChop, &cfg).expect("test run succeeds");
        assert_eq!(r.manager, "powerchop");
        assert_eq!(r.core_kind, CoreKind::Server);
        assert!(r.ipc() > 0.0);
        assert_eq!(r.gated.total, r.cycles);
        assert!(r.pvt.is_some() && r.cde.is_some());
        let pvt = r.pvt.unwrap();
        assert_eq!(pvt.lookups, pvt.hits + pvt.misses());
        assert_eq!(r.nucleus.interrupts, pvt.misses());
    }

    #[test]
    fn window_recording_captures_every_window() {
        let p = idle_units_program(500_000);
        let mut cfg = cfg();
        cfg.record_windows = true;
        let r = run_program(&p, ManagerKind::PowerChop, &cfg).expect("test run succeeds");
        let pvt = r.pvt.unwrap();
        assert_eq!(r.windows.len() as u64, pvt.lookups);
        assert!(r.windows.len() > 10);
    }

    #[test]
    fn budget_limits_run_length() {
        let p = idle_units_program(100_000_000);
        let mut c = cfg();
        c.max_instructions = 100_000;
        let r = run_program(&p, ManagerKind::FullPower, &c).expect("test run succeeds");
        assert!(r.instructions >= 100_000);
        assert!(r.instructions < 110_000);
    }

    #[test]
    fn invalid_configs_are_rejected_before_running() {
        let p = idle_units_program(1_000);
        let mut c = cfg();
        c.max_instructions = 0;
        let err = run_program(&p, ManagerKind::FullPower, &c).expect_err("zero budget");
        assert!(matches!(
            err,
            crate::SimError::InvalidConfig {
                field: "max_instructions",
                ..
            }
        ));

        let mut c = cfg();
        c.faults = Some(powerchop_faults::FaultConfig {
            region_invalidate_fraction: f64::NAN,
            ..powerchop_faults::FaultConfig::default_rates(1)
        });
        let err = run_program(&p, ManagerKind::PowerChop, &c).expect_err("NaN fraction");
        assert!(matches!(err, crate::SimError::InvalidConfig { .. }));
    }

    #[test]
    fn zero_sized_chop_tables_are_rejected_with_typed_errors() {
        let p = idle_units_program(1_000);
        let expect_field = |mutate: &dyn Fn(&mut RunConfig), field: &'static str| {
            let mut c = cfg();
            mutate(&mut c);
            let err = run_program(&p, ManagerKind::PowerChop, &c)
                .expect_err("zero-sized table must be rejected");
            match err {
                crate::SimError::InvalidConfig { field: got, .. } => {
                    assert_eq!(got, field);
                }
                other => panic!("expected InvalidConfig for {field}, got {other}"),
            }
        };
        expect_field(&|c| c.chop.pvt_entries = 0, "chop.pvt_entries");
        expect_field(&|c| c.chop.htb_entries = 0, "chop.htb_entries");
        expect_field(&|c| c.chop.signature_len = 0, "chop.signature_len");
        expect_field(
            &|c| c.chop.window_translations = 0,
            "chop.window_translations",
        );
    }

    #[test]
    fn a_zero_trace_limit_is_rejected_instead_of_spinning() {
        // Empty translations retire nothing, so a run under this limit
        // would dispatch the same head forever. Check `validate` first:
        // a build without the check hangs in `run_program`.
        let mut c = cfg();
        c.bt.max_trace_len = 0;
        assert!(matches!(
            c.validate(),
            Err(crate::SimError::InvalidConfig {
                field: "bt.max_trace_len",
                ..
            })
        ));
        let p = idle_units_program(1_000);
        assert!(run_program(&p, ManagerKind::PowerChop, &c).is_err());
    }

    #[test]
    fn fault_injection_is_deterministic_and_counted() {
        let p = idle_units_program(400_000);
        let mut c = cfg();
        c.max_instructions = 800_000;
        c.faults = Some(powerchop_faults::FaultConfig::storm(0xFA11));
        let a = run_program(&p, ManagerKind::PowerChop, &c).expect("faulted run succeeds");
        let b = run_program(&p, ManagerKind::PowerChop, &c).expect("faulted run succeeds");
        let fa = a.faults.expect("fault stats present");
        assert_eq!(
            fa,
            b.faults.expect("fault stats present"),
            "same seed, same faults"
        );
        assert_eq!(a.cycles, b.cycles, "identical timing");
        assert_eq!(
            a.energy.total_j.to_bits(),
            b.energy.total_j.to_bits(),
            "identical energy"
        );
        assert!(fa.total() > 0, "storm rates must fire: {fa:?}");
        assert!(a.degrade.is_some(), "powerchop reports degradation stats");
    }

    #[test]
    fn faulted_runs_stay_close_to_clean_performance() {
        let p = idle_units_program(600_000);
        let mut c = cfg();
        c.max_instructions = 1_200_000;
        let clean = run_program(&p, ManagerKind::PowerChop, &c).expect("clean run succeeds");
        c.faults = Some(powerchop_faults::FaultConfig::default_rates(7));
        let faulted = run_program(&p, ManagerKind::PowerChop, &c).expect("faulted run succeeds");
        assert!(faulted.faults.expect("stats").total() > 0);
        let slowdown = faulted.slowdown_vs(&clean);
        assert!(slowdown < 0.10, "default fault rates cost {slowdown} IPC");
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let p = idle_units_program(400_000);
        let mut c = cfg();
        c.max_instructions = 800_000;
        c.faults = Some(powerchop_faults::FaultConfig::default_rates(3));
        let kind = ManagerKind::PowerChop;
        let meta = SnapshotMeta {
            benchmark: "idle-units".to_owned(),
            scale: 1.0,
            manager: "powerchop".to_owned(),
            budget: 800_000,
            fault_seed: Some(3),
            storm: false,
        };

        let straight = run_program(&p, kind, &c).expect("uninterrupted run succeeds");

        let mut sim = Simulation::new(&p, kind, &c).expect("config is valid");
        sim.step_chunk(40_000).expect("first leg succeeds");
        assert!(!sim.is_done(), "checkpoint must land mid-run");
        let bytes = sim.snapshot(&meta);
        drop(sim);

        assert_eq!(read_meta(&bytes).expect("meta parses"), meta);
        let mut resumed = Simulation::restore(&p, kind, &c, &bytes).expect("snapshot restores");
        resumed.run_to_completion().expect("second leg succeeds");
        let report = resumed.into_report();

        assert_eq!(report.instructions, straight.instructions);
        assert_eq!(report.cycles, straight.cycles);
        assert_eq!(report.stats, straight.stats);
        assert_eq!(report.bt, straight.bt);
        assert_eq!(
            report.energy.total_j.to_bits(),
            straight.energy.total_j.to_bits(),
            "energy must be bit-identical"
        );
        assert_eq!(report.gated, straight.gated);
        assert_eq!(report.switches, straight.switches);
        assert_eq!(report.faults, straight.faults);
        assert_eq!(report.pvt, straight.pvt);
        assert_eq!(report.cde, straight.cde);
        assert_eq!(report.degrade, straight.degrade);
    }

    #[test]
    fn restore_rejects_config_and_program_mismatches() {
        let p = idle_units_program(100_000);
        let c = cfg();
        let kind = ManagerKind::PowerChop;
        let meta = SnapshotMeta {
            benchmark: "idle-units".to_owned(),
            scale: 1.0,
            manager: "powerchop".to_owned(),
            budget: 2_000_000,
            fault_seed: None,
            storm: false,
        };
        let mut sim = Simulation::new(&p, kind, &c).expect("config is valid");
        sim.step_chunk(10_000).expect("leg succeeds");
        let bytes = sim.snapshot(&meta);

        // Different manager => different config fingerprint.
        let err = Simulation::restore(&p, ManagerKind::FullPower, &c, &bytes)
            .expect_err("config mismatch");
        assert!(matches!(
            err,
            SimError::Checkpoint(CheckpointError::ConfigMismatch { .. })
        ));

        // Same config, different guest program => machine fingerprint
        // mismatch.
        let other = idle_units_program(90_000);
        let err = Simulation::restore(&other, kind, &c, &bytes).expect_err("program mismatch");
        assert!(matches!(
            err,
            SimError::Checkpoint(CheckpointError::Malformed { .. })
        ));

        // Truncation is detected, never a panic.
        let err = Simulation::restore(&p, kind, &c, &bytes[..bytes.len() / 2])
            .expect_err("truncated snapshot");
        assert!(matches!(err, SimError::Checkpoint(_)));
    }

    #[test]
    fn timeout_manager_runs_non_semantically() {
        let p = idle_units_program(300_000);
        let cfg = cfg();
        let r = run_program(
            &p,
            ManagerKind::TimeoutVpu {
                timeout_cycles: 10_000,
            },
            &cfg,
        )
        .unwrap();
        // No vector ops at all: the VPU gates off once and stays off.
        assert_eq!(r.switches.vpu, 1);
        assert!(r.gated.vpu_off_frac() > 0.9);
        assert!(r.pvt.is_none());
    }
}
