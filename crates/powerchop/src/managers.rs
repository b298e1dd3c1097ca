//! Power-management policies driving the gating controller.
//!
//! Four managers are provided:
//!
//! - [`PowerChopManager`] — the paper's contribution: HTB + PVT + CDE
//!   phase-triggered gating,
//! - [`FullPowerManager`] — the performance baseline (everything on),
//! - [`MinimalPowerManager`] — the power floor (everything gated),
//! - [`TimeoutVpuManager`] — the hardware-only idleness-timeout baseline
//!   of paper §V-E.

use powerchop_bt::nucleus::Nucleus;
use powerchop_bt::TranslationId;
use powerchop_checkpoint::{ByteReader, ByteWriter, CheckpointError};
use powerchop_faults::FaultKind;
use powerchop_power::EnergyLedger;
use powerchop_telemetry::{Event, MetricSource as _, MetricsRegistry, Tracer};
use powerchop_uarch::core::{CoreModel, CoreStats};

use crate::cde::{Cde, CdeStats, Thresholds, WindowProfile};
use crate::degrade::{DegradationGuard, DegradeStats};
use crate::gating::GatingController;
use crate::htb::HotTranslationBuffer;
use crate::phase::PhaseSignature;
use crate::policy::GatingPolicy;
use crate::pvt::{PolicyVectorTable, PvtStats};

/// Mutable system context handed to managers on every translation event.
#[derive(Debug)]
pub struct ManagerCtx<'a> {
    /// The core timing model.
    pub core: &'a mut CoreModel,
    /// The energy ledger.
    pub ledger: &'a mut EnergyLedger,
    /// The gating controller.
    pub controller: &'a mut GatingController,
    /// The BT nucleus (for CDE-invocation interrupts).
    pub nucleus: &'a mut Nucleus,
    /// The flight recorder ([`Tracer::disabled`] when telemetry is off).
    pub trace: &'a mut Tracer,
}

/// One execution window's identification record (for the Fig. 8 phase
/// quality analysis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRecord {
    /// The signature PowerChop assigned to the window.
    pub signature: PhaseSignature,
    /// The full translation-ID → execution-count vector.
    pub counts: Vec<(TranslationId, u64)>,
    /// The gating policy in force after the window was processed (the
    /// phase timeline of an execution).
    pub policy: GatingPolicy,
}

/// A power-management policy driven by translation-execution events.
pub trait PowerManager {
    /// Short name for reports (e.g. `"powerchop"`).
    fn name(&self) -> &'static str;

    /// Called once before execution starts.
    fn init(&mut self, _ctx: &mut ManagerCtx<'_>) {}

    /// Called after each translation executes from the region cache.
    fn on_translation(&mut self, id: TranslationId, instructions: u64, ctx: &mut ManagerCtx<'_>);

    /// PVT statistics, when the manager has a PVT.
    fn pvt_stats(&self) -> Option<PvtStats> {
        None
    }

    /// CDE statistics, when the manager has a CDE.
    fn cde_stats(&self) -> Option<CdeStats> {
        None
    }

    /// Drains recorded per-window identification records, if enabled.
    fn take_window_records(&mut self) -> Vec<WindowRecord> {
        Vec::new()
    }

    /// Called when the fault-injection layer delivers a fault aimed at
    /// the manager's own structures (PVT soft errors, context switches).
    /// Managers without such structures ignore it.
    fn on_fault(&mut self, _kind: FaultKind, _payload: u64, _ctx: &mut ManagerCtx<'_>) {}

    /// Degradation-guard statistics, when the manager has a guard.
    fn degrade_stats(&self) -> Option<DegradeStats> {
        None
    }

    /// Folds the manager's structure-level counters (PVT, CDE, guard,
    /// HTB occupancy) into a telemetry registry. Stateless managers
    /// contribute nothing.
    fn sample_metrics(&self, _reg: &mut MetricsRegistry) {}

    /// Serializes the manager's mutable state for a checkpoint. Stateless
    /// managers write nothing.
    fn snapshot_to(&self, _w: &mut ByteWriter) {}

    /// Restores manager state written by [`PowerManager::snapshot_to`]
    /// into a freshly-constructed manager of the same kind and
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the payload is truncated or
    /// inconsistent with this manager's configuration.
    fn restore_from(&mut self, _r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        Ok(())
    }
}

/// Performance baseline: every unit stays fully powered.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullPowerManager;

impl PowerManager for FullPowerManager {
    fn name(&self) -> &'static str {
        "full-power"
    }

    fn on_translation(&mut self, _id: TranslationId, _n: u64, _ctx: &mut ManagerCtx<'_>) {}
}

/// Power floor: every unit in its lowest-power state for the whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinimalPowerManager;

impl PowerManager for MinimalPowerManager {
    fn name(&self) -> &'static str {
        "minimal-power"
    }

    fn init(&mut self, ctx: &mut ManagerCtx<'_>) {
        ctx.controller
            .apply(GatingPolicy::MINIMAL, ctx.core, ctx.ledger, ctx.trace);
    }

    fn on_translation(&mut self, _id: TranslationId, _n: u64, _ctx: &mut ManagerCtx<'_>) {}
}

/// Hardware-only timeout baseline for the VPU (paper §V-E): gate the unit
/// off after `timeout_cycles` without a vector operation, and wake it on
/// demand when one arrives. Requires a **non-semantic** controller — a
/// woken VPU executes vector code natively.
#[derive(Debug, Clone)]
pub struct TimeoutVpuManager {
    timeout_cycles: u64,
    last_vec_ops: u64,
    last_vec_cycle: u64,
}

impl TimeoutVpuManager {
    /// The timeout the paper selected after sweeping 100–100 K cycles:
    /// the most power saved at under 5 % worst-case slowdown.
    pub const PAPER_TIMEOUT_CYCLES: u64 = 20_000;

    /// Creates a timeout manager with the given idle threshold.
    #[must_use]
    pub fn new(timeout_cycles: u64) -> Self {
        TimeoutVpuManager {
            timeout_cycles,
            last_vec_ops: 0,
            last_vec_cycle: 0,
        }
    }
}

impl PowerManager for TimeoutVpuManager {
    fn name(&self) -> &'static str {
        "timeout-vpu"
    }

    fn on_translation(&mut self, _id: TranslationId, _n: u64, ctx: &mut ManagerCtx<'_>) {
        debug_assert!(
            !ctx.controller.is_semantic(),
            "timeout needs a non-semantic controller"
        );
        let vec_ops = ctx.core.stats().vec_ops;
        let now = ctx.core.cycles();
        let gated = !ctx.controller.current().vpu_on;
        if vec_ops > self.last_vec_ops {
            // The unit was needed: wake it (on-demand gate-on).
            self.last_vec_ops = vec_ops;
            self.last_vec_cycle = now;
            if gated {
                ctx.controller
                    .apply(GatingPolicy::FULL, ctx.core, ctx.ledger, ctx.trace);
            }
        } else if !gated && now.saturating_sub(self.last_vec_cycle) >= self.timeout_cycles {
            ctx.controller.apply(
                GatingPolicy {
                    vpu_on: false,
                    ..GatingPolicy::FULL
                },
                ctx.core,
                ctx.ledger,
                ctx.trace,
            );
        }
    }

    fn snapshot_to(&self, w: &mut ByteWriter) {
        w.put_u64(self.last_vec_ops);
        w.put_u64(self.last_vec_cycle);
    }

    fn restore_from(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        self.last_vec_ops = r.take_u64()?;
        self.last_vec_cycle = r.take_u64()?;
        Ok(())
    }
}

/// Which units PowerChop is allowed to manage. Unmanaged units stay
/// fully powered, which is how the paper's per-unit isolation studies
/// (Figs. 9, 10 and 16: "one unit is managed while the others are gated
/// on") are run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManagedSet {
    /// Manage the VPU.
    pub vpu: bool,
    /// Manage the BPU.
    pub bpu: bool,
    /// Manage the MLC.
    pub mlc: bool,
}

impl ManagedSet {
    /// All three units managed (the full PowerChop system).
    pub const ALL: ManagedSet = ManagedSet {
        vpu: true,
        bpu: true,
        mlc: true,
    };
    /// Only the VPU managed.
    pub const VPU_ONLY: ManagedSet = ManagedSet {
        vpu: true,
        bpu: false,
        mlc: false,
    };
    /// Only the BPU managed.
    pub const BPU_ONLY: ManagedSet = ManagedSet {
        vpu: false,
        bpu: true,
        mlc: false,
    };
    /// Only the MLC managed.
    pub const MLC_ONLY: ManagedSet = ManagedSet {
        vpu: false,
        bpu: false,
        mlc: true,
    };

    /// Forces unmanaged units to their fully-powered state.
    #[must_use]
    pub fn mask(self, policy: GatingPolicy) -> GatingPolicy {
        GatingPolicy {
            vpu_on: policy.vpu_on || !self.vpu,
            bpu_on: policy.bpu_on || !self.bpu,
            mlc: if self.mlc {
                policy.mlc
            } else {
                powerchop_uarch::cache::MlcWayState::Full
            },
        }
    }
}

impl Default for ManagedSet {
    fn default() -> Self {
        ManagedSet::ALL
    }
}

/// Drowsy-cache baseline for the MLC (Flautner et al., the paper's §VI
/// related work \[27\]): every `period_cycles`, all MLC lines drop to a
/// state-retentive low-voltage mode; an access to a drowsy line pays one
/// wake-up cycle. Unlike way-gating, no state is lost and the MLC's
/// effective capacity is unchanged — but drowsy lines still leak ~25 % of
/// nominal versus 5 % for a gated way, and tag/periphery logic stays hot.
#[derive(Debug, Clone)]
pub struct DrowsyMlcManager {
    period_cycles: u64,
    last_drowse: u64,
    drowse_events: u64,
}

impl DrowsyMlcManager {
    /// Flautner et al.'s "simple policy" window (4000 cycles).
    pub const DEFAULT_PERIOD_CYCLES: u64 = 4_000;

    /// Creates a drowsy-MLC manager with the given drowse period.
    #[must_use]
    pub fn new(period_cycles: u64) -> Self {
        DrowsyMlcManager {
            period_cycles: period_cycles.max(1),
            last_drowse: 0,
            drowse_events: 0,
        }
    }

    /// Number of global drowse events so far.
    #[must_use]
    pub fn drowse_events(&self) -> u64 {
        self.drowse_events
    }
}

impl PowerManager for DrowsyMlcManager {
    fn name(&self) -> &'static str {
        "drowsy-mlc"
    }

    fn on_translation(&mut self, _id: TranslationId, _n: u64, ctx: &mut ManagerCtx<'_>) {
        let now = ctx.core.cycles();
        // Account the elapsed interval at the MLC's current awake
        // fraction (all other units fully powered).
        let states = powerchop_power::UnitStates {
            mlc_awake_fraction: Some(ctx.core.mlc_awake_fraction()),
            ..powerchop_power::UnitStates::full(8)
        };
        ctx.ledger.account(now, &ctx.core.stats(), states);
        if now.saturating_sub(self.last_drowse) >= self.period_cycles {
            ctx.core.drowse_mlc();
            self.last_drowse = now;
            self.drowse_events += 1;
        }
    }

    fn snapshot_to(&self, w: &mut ByteWriter) {
        w.put_u64(self.last_drowse);
        w.put_u64(self.drowse_events);
    }

    fn restore_from(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        self.last_drowse = r.take_u64()?;
        self.drowse_events = r.take_u64()?;
        Ok(())
    }
}

/// Tuning parameters for PowerChop itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ChopConfig {
    /// Execution-window size in translations (paper: 1000).
    pub window_translations: u32,
    /// Phase-signature length N (paper: 4).
    pub signature_len: usize,
    /// HTB capacity (paper: 128).
    pub htb_entries: usize,
    /// PVT capacity (paper: 16).
    pub pvt_entries: usize,
    /// Criticality thresholds.
    pub thresholds: Thresholds,
    /// Cycles the CDE software handler runs per PVT miss.
    pub pvt_miss_handler_cycles: u64,
    /// Which units PowerChop manages (others stay fully powered).
    pub managed: ManagedSet,
    /// Profiling warm-up windows discarded before measurement (the
    /// "insufficient information, keep collecting" arm of Algorithm 1).
    pub profile_warmup_windows: u32,
    /// Interrupted-profiling attempts before a transient phase is
    /// conservatively decided fully-powered.
    pub max_profile_attempts: u32,
}

impl Default for ChopConfig {
    fn default() -> Self {
        ChopConfig {
            window_translations: crate::phase::WINDOW_TRANSLATIONS,
            signature_len: crate::phase::SIGNATURE_LEN,
            htb_entries: crate::htb::HTB_ENTRIES,
            pvt_entries: crate::pvt::PVT_ENTRIES,
            thresholds: Thresholds::default(),
            pvt_miss_handler_cycles: 2_000,
            managed: ManagedSet::ALL,
            profile_warmup_windows: 2,
            max_profile_attempts: 2,
        }
    }
}

/// The PowerChop manager: phase-triggered unit-level power gating.
///
/// Hardware behaviour (HTB window tracking, PVT lookups) runs on every
/// translation; the CDE runs only on PVT misses, via nucleus interrupts.
/// New phases are profiled for two windows — the first with everything
/// fully powered and the large BPU, the second with the small BPU — then
/// scored and registered (paper Algorithm 1, §IV-C2).
#[derive(Debug, Clone)]
pub struct PowerChopManager {
    cfg: ChopConfig,
    htb: HotTranslationBuffer,
    pvt: PolicyVectorTable,
    cde: Cde,
    guard: DegradationGuard,
    window_count: u32,
    /// Global index of the last processed window (drives the guard's
    /// backoff timers).
    window_index: u64,
    window_start_stats: CoreStats,
    /// Signature whose profiling window is the one currently executing,
    /// plus the policy to fall back to if the phase proves transient.
    armed: Option<(PhaseSignature, GatingPolicy)>,
    record_windows: bool,
    records: Vec<WindowRecord>,
}

impl PowerChopManager {
    /// Creates a PowerChop manager.
    #[must_use]
    pub fn new(cfg: ChopConfig, record_windows: bool) -> Self {
        PowerChopManager {
            htb: HotTranslationBuffer::new(cfg.htb_entries, cfg.signature_len),
            pvt: PolicyVectorTable::new(cfg.pvt_entries),
            cde: Cde::with_config(
                cfg.thresholds,
                cfg.profile_warmup_windows,
                cfg.max_profile_attempts,
            ),
            cfg,
            guard: DegradationGuard::default(),
            window_count: 0,
            window_index: 0,
            window_start_stats: CoreStats::default(),
            armed: None,
            record_windows,
            records: Vec::new(),
        }
    }

    /// The PVT (for storage-cost reporting).
    #[must_use]
    pub fn pvt(&self) -> &PolicyVectorTable {
        &self.pvt
    }

    /// The HTB (for storage-cost reporting).
    #[must_use]
    pub fn htb(&self) -> &HotTranslationBuffer {
        &self.htb
    }

    fn end_of_window(&mut self, ctx: &mut ManagerCtx<'_>) {
        let signature = self.htb.signature();
        let counts = self.record_windows.then(|| self.htb.count_vector());
        self.htb.flush();
        self.window_count = 0;

        let now_stats = ctx.core.stats();
        let profile = WindowProfile::from_delta(&now_stats, &self.window_start_stats);
        self.window_start_stats = now_stats;
        if !DegradationGuard::profile_is_sane(&profile) {
            // The measurement is garbage (counter corruption, a flush
            // mid-window): drop it before it reaches the CDE and fail
            // safe for the window.
            self.guard.on_bad_profile();
            if let Some((armed_sig, resume)) = self.armed.take() {
                self.cde.discard_profile(armed_sig, resume);
            }
            let sig = signature.key();
            ctx.trace
                .emit(ctx.core.cycles(), Event::DegradeFailSafe { sig });
            ctx.controller.apply(
                self.cfg.managed.mask(GatingPolicy::FULL),
                ctx.core,
                ctx.ledger,
                ctx.trace,
            );
        } else if !signature.is_empty() {
            self.process_window(signature, profile, ctx);
        }
        if let Some(counts) = counts {
            self.records.push(WindowRecord {
                signature,
                counts,
                policy: ctx.controller.current(),
            });
        }
    }

    /// Looks the window's signature up in the PVT and enacts the outcome
    /// (Algorithm 1).
    fn process_window(
        &mut self,
        signature: PhaseSignature,
        profile: WindowProfile,
        ctx: &mut ManagerCtx<'_>,
    ) {
        self.window_index += 1;
        let sig = signature.key();
        ctx.trace
            .with(|r| r.on_phase_window(ctx.core.cycles(), sig));

        // A pinned phase bypasses Algorithm 1 entirely: the watchdog or
        // the backoff budget decided it cannot be trusted with gating.
        if let Some(pin) = self.guard.pinned(signature) {
            if let Some((armed_sig, resume)) = self.armed.take() {
                self.cde.discard_profile(armed_sig, resume);
            }
            ctx.controller
                .apply(self.cfg.managed.mask(pin), ctx.core, ctx.ledger, ctx.trace);
            return;
        }

        // The PVT is looked up by hardware at every window boundary; any
        // miss interrupts into the CDE software handler (Algorithm 1).
        let lookup = self.pvt.lookup(signature);
        if lookup.is_none() {
            ctx.trace.emit(ctx.core.cycles(), Event::PvtMiss { sig });
            ctx.nucleus
                .raise(ctx.core, self.cfg.pvt_miss_handler_cycles);
        } else {
            ctx.trace.emit(ctx.core.cycles(), Event::PvtHit { sig });
        }

        // A profiling measurement was armed for the window that just
        // ended.
        if let Some((armed_sig, resume)) = self.armed.take() {
            if armed_sig == signature {
                let mut decided = self.cde.on_profile_window(signature, profile);
                if decided.is_none()
                    && !self.cfg.managed.bpu
                    && matches!(
                        self.cde.record(signature),
                        Some(crate::cde::PhaseRecord::ProfilingSmall(_))
                    )
                {
                    // The BPU is not managed, so the second (small-BPU)
                    // profiling window is unnecessary: reuse the first
                    // window's measurement to close out profiling.
                    decided = self.cde.on_profile_window(signature, profile);
                }
                if let Some(policy) = decided {
                    // Oscillation watchdog: a phase that keeps re-deciding
                    // different policies pays switch costs on every flip,
                    // so it gets pinned to the fail-safe instead.
                    if let Some(pin) = self.guard.observe_decision(signature, policy) {
                        self.pvt.invalidate(signature);
                        ctx.trace.emit(
                            ctx.core.cycles(),
                            Event::DegradeRepin {
                                sig,
                                policy: pin.bits(),
                            },
                        );
                        ctx.controller.apply(
                            self.cfg.managed.mask(pin),
                            ctx.core,
                            ctx.ledger,
                            ctx.trace,
                        );
                        return;
                    }
                    ctx.trace
                        .with(|r| r.on_verdict(ctx.core.cycles(), sig, policy.bits()));
                    // Profiling complete: register and enact.
                    if let Some((evicted_sig, _)) = self.pvt.register(signature, policy) {
                        // Evicted entries live on in the CDE's store; it
                        // already holds every decided phase.
                        debug_assert!(self.cde.record(evicted_sig).is_some());
                        ctx.trace.emit(
                            ctx.core.cycles(),
                            Event::PvtEvict {
                                sig: evicted_sig.key(),
                            },
                        );
                    }
                    ctx.controller.apply(
                        self.cfg.managed.mask(policy),
                        ctx.core,
                        ctx.ledger,
                        ctx.trace,
                    );
                } else {
                    // More profiling. The MLC runs fully powered so hit
                    // counters are meaningful and the BPU is set per
                    // stage; the VPU is left alone — SIMD criticality is
                    // counted by architectural intent, so no 500-cycle
                    // register save/restore is needed just to profile.
                    self.armed = Some((signature, resume));
                    let current = ctx.controller.current();
                    ctx.controller.apply(
                        self.profiling_policy(signature, current, profile.vec_ops > 0),
                        ctx.core,
                        ctx.ledger,
                        ctx.trace,
                    );
                }
                return;
            }
            // The phase changed mid-profile: the measurement is polluted.
            self.cde.discard_profile(armed_sig, resume);
        }

        if let Some(policy) = lookup {
            // Scrubbing: the PVT is small exposed hardware, so a hit is
            // cross-checked against the CDE's memory-backed store. A
            // disagreement means the entry took a soft error — purge it
            // and fail safe; the store re-registers it on the next miss.
            if let Some(crate::cde::PhaseRecord::Decided(expected)) = self.cde.record(signature) {
                if expected != policy {
                    self.pvt.invalidate(signature);
                    self.guard.on_anomaly(signature, self.window_index);
                    ctx.trace
                        .emit(ctx.core.cycles(), Event::DegradeAnomaly { sig });
                    ctx.controller.apply(
                        self.cfg.managed.mask(GatingPolicy::FULL),
                        ctx.core,
                        ctx.ledger,
                        ctx.trace,
                    );
                    return;
                }
            }
            // A policy that starves a unit the phase measurably leans on
            // is clearly stale (the workload was perturbed): forget the
            // phase so it re-profiles, after a backed-off fail-safe wait.
            if DegradationGuard::policy_contradicts(policy, &profile) {
                self.pvt.invalidate(signature);
                self.cde.forget(signature);
                self.guard.on_anomaly(signature, self.window_index);
                ctx.trace
                    .emit(ctx.core.cycles(), Event::DegradeAnomaly { sig });
                ctx.controller.apply(
                    self.cfg.managed.mask(GatingPolicy::FULL),
                    ctx.core,
                    ctx.ledger,
                    ctx.trace,
                );
                return;
            }
            // PVT hit: hardware applies the stored policy directly.
            ctx.controller.apply(
                self.cfg.managed.mask(policy),
                ctx.core,
                ctx.ledger,
                ctx.trace,
            );
            return;
        }

        // A phase inside its post-anomaly backoff runs fail-safe; it may
        // not re-enter profiling until the backoff expires.
        if self.guard.deferred(signature, self.window_index) {
            ctx.trace
                .emit(ctx.core.cycles(), Event::DegradeFailSafe { sig });
            ctx.controller.apply(
                self.cfg.managed.mask(GatingPolicy::FULL),
                ctx.core,
                ctx.ledger,
                ctx.trace,
            );
            return;
        }

        // PVT miss: the CDE decides what to do (Algorithm 1). Cache
        // warm-up is only needed when the phase actually exercises the
        // MLC.
        let needs_warmup = profile.mlc_accesses > 0;
        if let Some(policy) = self.cde.on_pvt_miss(signature, needs_warmup) {
            // Capacity miss: re-register the stored policy.
            if let Some((evicted_sig, _)) = self.pvt.register(signature, policy) {
                ctx.trace.emit(
                    ctx.core.cycles(),
                    Event::PvtEvict {
                        sig: evicted_sig.key(),
                    },
                );
            }
            ctx.controller.apply(
                self.cfg.managed.mask(policy),
                ctx.core,
                ctx.ledger,
                ctx.trace,
            );
        } else {
            // Compulsory miss: profile the next window.
            let resume = ctx.controller.current();
            self.armed = Some((signature, resume));
            ctx.trace
                .with(|r| r.on_profile_start(ctx.core.cycles(), sig));
            ctx.controller.apply(
                self.profiling_policy(signature, resume, profile.vec_ops > 0),
                ctx.core,
                ctx.ledger,
                ctx.trace,
            );
        }
    }

    /// The unit configuration a profiling window runs under: MLC fully
    /// powered (hit counters must be meaningful), BPU large or small
    /// depending on the profiling stage, and the VPU woken only when the
    /// phase showed vector intent (SIMD criticality is counted by
    /// architectural intent, so scalar phases need no 500-cycle VPU
    /// save/restore just to be profiled).
    fn profiling_policy(
        &self,
        signature: PhaseSignature,
        current: GatingPolicy,
        saw_vector: bool,
    ) -> GatingPolicy {
        let bpu_on = !matches!(
            self.cde.record(signature),
            Some(crate::cde::PhaseRecord::ProfilingSmall(_))
        );
        self.cfg.managed.mask(GatingPolicy {
            vpu_on: current.vpu_on || saw_vector,
            bpu_on,
            mlc: powerchop_uarch::cache::MlcWayState::Full,
        })
    }
}

impl PowerManager for PowerChopManager {
    fn name(&self) -> &'static str {
        "powerchop"
    }

    fn init(&mut self, ctx: &mut ManagerCtx<'_>) {
        self.window_start_stats = ctx.core.stats();
    }

    fn on_translation(&mut self, id: TranslationId, instructions: u64, ctx: &mut ManagerCtx<'_>) {
        self.htb.record(id, instructions);
        self.window_count += 1;
        if self.window_count >= self.cfg.window_translations {
            self.end_of_window(ctx);
        }
    }

    fn pvt_stats(&self) -> Option<PvtStats> {
        Some(self.pvt.stats())
    }

    fn cde_stats(&self) -> Option<CdeStats> {
        Some(self.cde.stats())
    }

    fn take_window_records(&mut self) -> Vec<WindowRecord> {
        std::mem::take(&mut self.records)
    }

    fn on_fault(&mut self, kind: FaultKind, payload: u64, ctx: &mut ManagerCtx<'_>) {
        match kind {
            FaultKind::ContextSwitch => {
                // The HTB tracks the departing process: its window dies
                // with the switch, and an armed profiling measurement is
                // polluted by whatever ran in between.
                self.htb.flush();
                self.window_count = 0;
                self.window_start_stats = ctx.core.stats();
                if let Some((sig, resume)) = self.armed.take() {
                    self.cde.discard_profile(sig, resume);
                    ctx.controller.apply(
                        self.cfg.managed.mask(resume),
                        ctx.core,
                        ctx.ledger,
                        ctx.trace,
                    );
                }
            }
            FaultKind::PvtCorruption => {
                self.pvt.corrupt_entry(payload);
            }
            FaultKind::PvtEviction => {
                self.pvt.evict_forced(payload);
            }
            _ => {}
        }
    }

    fn degrade_stats(&self) -> Option<DegradeStats> {
        Some(self.guard.stats())
    }

    fn sample_metrics(&self, reg: &mut MetricsRegistry) {
        self.pvt.stats().sample_metrics(reg);
        self.cde.stats().sample_metrics(reg);
        self.guard.stats().sample_metrics(reg);
        reg.gauge_set("htb_occupancy", self.htb.len() as f64);
        reg.counter_set("htb_overflowed_total", self.htb.overflowed());
    }

    fn snapshot_to(&self, w: &mut ByteWriter) {
        self.htb.snapshot_to(w);
        self.pvt.snapshot_to(w);
        self.cde.snapshot_to(w);
        self.guard.snapshot_to(w);
        w.put_u32(self.window_count);
        w.put_u64(self.window_index);
        self.window_start_stats.snapshot_to(w);
        match self.armed {
            Some((sig, resume)) => {
                w.put_bool(true);
                sig.snapshot_to(w);
                w.put_u8(resume.bits());
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.records.len());
        for rec in &self.records {
            rec.signature.snapshot_to(w);
            w.put_usize(rec.counts.len());
            for (id, execs) in &rec.counts {
                w.put_u32(id.0);
                w.put_u64(*execs);
            }
            w.put_u8(rec.policy.bits());
        }
    }

    fn restore_from(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        self.htb.restore_from(r)?;
        self.pvt.restore_from(r)?;
        self.cde.restore_from(r)?;
        self.guard.restore_from(r)?;
        self.window_count = r.take_u32()?;
        self.window_index = r.take_u64()?;
        self.window_start_stats = CoreStats::restore_from(r)?;
        self.armed = if r.take_bool()? {
            let sig = PhaseSignature::restore_from(r)?;
            let resume = GatingPolicy::from_bits(r.take_u8()?);
            Some((sig, resume))
        } else {
            None
        };
        let record_count = r.take_usize()?;
        self.records = Vec::with_capacity(record_count.min(1 << 16));
        for _ in 0..record_count {
            let signature = PhaseSignature::restore_from(r)?;
            let count_len = r.take_usize()?;
            let mut counts = Vec::with_capacity(count_len.min(1 << 16));
            for _ in 0..count_len {
                let id = TranslationId(r.take_u32()?);
                counts.push((id, r.take_u64()?));
            }
            let policy = GatingPolicy::from_bits(r.take_u8()?);
            self.records.push(WindowRecord {
                signature,
                counts,
                policy,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_power::PowerParams;
    use powerchop_uarch::config::CoreConfig;

    fn ctx_parts() -> (CoreModel, EnergyLedger, GatingController, Nucleus) {
        let cfg = CoreConfig::server();
        (
            CoreModel::new(&cfg),
            EnergyLedger::new(PowerParams::server()),
            GatingController::new(&cfg, true),
            Nucleus::new(),
        )
    }

    /// Drives `windows` full windows of translation events with ids drawn
    /// from `ids`, round-robin.
    fn drive(
        mgr: &mut PowerChopManager,
        ids: &[u32],
        windows: u32,
        parts: &mut (CoreModel, EnergyLedger, GatingController, Nucleus),
    ) {
        let per_window = mgr.cfg.window_translations;
        let mut trace = Tracer::disabled();
        for w in 0..windows {
            for i in 0..per_window {
                // Advance time so windows are distinguishable.
                parts.0.add_stall(1);
                let id = ids[((w * per_window + i) as usize) % ids.len()];
                let (core, ledger, controller, nucleus) =
                    (&mut parts.0, &mut parts.1, &mut parts.2, &mut parts.3);
                let mut ctx = ManagerCtx {
                    core,
                    ledger,
                    controller,
                    nucleus,
                    trace: &mut trace,
                };
                mgr.on_translation(TranslationId(id), 10, &mut ctx);
            }
        }
    }

    #[test]
    fn stable_phase_is_profiled_then_hits_pvt() {
        let mut mgr = PowerChopManager::new(ChopConfig::default(), false);
        let mut parts = ctx_parts();
        drive(&mut mgr, &[1, 2, 3, 4], 8, &mut parts);
        let pvt = mgr.pvt_stats().unwrap();
        let cde = mgr.cde_stats().unwrap();
        assert_eq!(cde.new_phases, 1, "one recurring phase");
        assert_eq!(cde.decided, 1);
        // Window 1: compulsory miss; 2: warm-up; 3: profile large; 4:
        // profile small + register; 5..8: hits.
        assert!(pvt.hits >= 4, "later windows must hit: {pvt:?}");
        assert_eq!(mgr.take_window_records().len(), 0, "recording disabled");
    }

    #[test]
    fn decided_policy_gates_idle_units() {
        // Translation events report no vector ops, no branches, no MLC
        // hits -> the decided policy should be MINIMAL.
        let mut mgr = PowerChopManager::new(ChopConfig::default(), false);
        let mut parts = ctx_parts();
        drive(&mut mgr, &[7, 8], 5, &mut parts);
        assert_eq!(parts.2.current(), GatingPolicy::MINIMAL);
        assert!(!parts.0.vpu_active());
    }

    #[test]
    fn nucleus_interrupts_only_on_misses() {
        let mut mgr = PowerChopManager::new(ChopConfig::default(), false);
        let mut parts = ctx_parts();
        drive(&mut mgr, &[1], 10, &mut parts);
        let interrupts = parts.3.stats().interrupts;
        let misses = mgr.pvt_stats().unwrap().misses();
        assert_eq!(interrupts, misses, "every PVT miss interrupts into the CDE");
        // No MLC traffic -> warm-up skipped: compulsory miss plus two
        // profiling windows.
        assert_eq!(misses, 3);
    }

    #[test]
    fn window_records_capture_signatures() {
        let mut mgr = PowerChopManager::new(ChopConfig::default(), true);
        let mut parts = ctx_parts();
        drive(&mut mgr, &[5, 6], 3, &mut parts);
        let records = mgr.take_window_records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].signature, records[1].signature);
        assert_eq!(records[0].counts.len(), 2);
    }

    #[test]
    fn timeout_manager_gates_after_idle_and_wakes_on_vector() {
        let cfg = CoreConfig::server();
        let mut core = CoreModel::new(&cfg);
        let mut ledger = EnergyLedger::new(PowerParams::server());
        let mut controller = GatingController::new(&cfg, false);
        let mut nucleus = Nucleus::new();
        let mut mgr = TimeoutVpuManager::new(1_000);

        // Idle long enough: gates off.
        core.add_stall(5_000);
        let mut trace = Tracer::disabled();
        let mut ctx = ManagerCtx {
            core: &mut core,
            ledger: &mut ledger,
            controller: &mut controller,
            nucleus: &mut nucleus,
            trace: &mut trace,
        };
        mgr.on_translation(TranslationId(1), 10, &mut ctx);
        assert!(!controller.current().vpu_on);

        // A vector op arrives: wakes up.
        let vstep = {
            let v = powerchop_gisa::VReg::new(0).expect("register index in range");
            let inst = powerchop_gisa::Inst::Vadd {
                vd: v,
                vs: v,
                vt: v,
            };
            powerchop_gisa::StepInfo {
                pc: powerchop_gisa::Pc(0),
                inst,
                class: inst.class(),
                next_pc: powerchop_gisa::Pc(1),
                mem: None,
                branch: None,
            }
        };
        core.on_step(&vstep, powerchop_uarch::core::ExecMode::Translated);
        let mut ctx = ManagerCtx {
            core: &mut core,
            ledger: &mut ledger,
            controller: &mut controller,
            nucleus: &mut nucleus,
            trace: &mut trace,
        };
        mgr.on_translation(TranslationId(1), 10, &mut ctx);
        assert!(controller.current().vpu_on);
        assert_eq!(controller.switches().vpu, 2);
    }

    #[test]
    fn drowsy_manager_drowses_periodically_and_accounts_leakage() {
        let cfg = CoreConfig::server();
        let mut core = CoreModel::new(&cfg);
        let mut ledger = EnergyLedger::new(PowerParams::server());
        let mut controller = GatingController::new(&cfg, true);
        let mut nucleus = Nucleus::new();
        let mut mgr = DrowsyMlcManager::new(1_000);

        // Touch some MLC lines so there is state to drowse.
        let r = powerchop_gisa::Reg::new(0).expect("register index in range");
        for i in 0..200u64 {
            let inst = powerchop_gisa::Inst::Load {
                rd: r,
                rs: r,
                imm: 0,
            };
            let step = powerchop_gisa::StepInfo {
                pc: powerchop_gisa::Pc(0),
                inst,
                class: inst.class(),
                next_pc: powerchop_gisa::Pc(1),
                mem: Some(powerchop_gisa::MemAccess {
                    addr: i * 4096,
                    size: 8,
                    is_store: false,
                }),
                branch: None,
            };
            core.on_step(&step, powerchop_uarch::core::ExecMode::Translated);
        }
        assert!(core.mlc_awake_fraction() > 0.99);
        core.add_stall(2_000);
        let mut trace = Tracer::disabled();
        let mut ctx = ManagerCtx {
            core: &mut core,
            ledger: &mut ledger,
            controller: &mut controller,
            nucleus: &mut nucleus,
            trace: &mut trace,
        };
        mgr.on_translation(TranslationId(1), 10, &mut ctx);
        assert_eq!(mgr.drowse_events(), 1);
        // Re-touching a drowsed line costs a wake.
        let inst = powerchop_gisa::Inst::Load {
            rd: r,
            rs: r,
            imm: 0,
        };
        let step = powerchop_gisa::StepInfo {
            pc: powerchop_gisa::Pc(0),
            inst,
            class: inst.class(),
            next_pc: powerchop_gisa::Pc(1),
            mem: Some(powerchop_gisa::MemAccess {
                addr: 0,
                size: 8,
                is_store: false,
            }),
            branch: None,
        };
        core.on_step(&step, powerchop_uarch::core::ExecMode::Translated);
        assert_eq!(core.stats().mlc_drowsy_wakes, 1);
    }

    #[test]
    fn minimal_manager_applies_floor_at_init() {
        let mut parts = ctx_parts();
        let (core, ledger, controller, nucleus) =
            (&mut parts.0, &mut parts.1, &mut parts.2, &mut parts.3);
        let mut trace = Tracer::disabled();
        let mut ctx = ManagerCtx {
            core,
            ledger,
            controller,
            nucleus,
            trace: &mut trace,
        };
        MinimalPowerManager.init(&mut ctx);
        assert_eq!(parts.2.current(), GatingPolicy::MINIMAL);
    }
}
