//! Template-based x86-64 trace JIT behind the translator/region-cache seam.
//!
//! The paper's BT layer (§II-A) emits *native* host code for hot guest
//! regions; this module closes that gap for the simulator. Hot
//! [`Translation`]s are compiled to x86-64 machine code at install time (or
//! on demand after a checkpoint restore) and executed through an
//! `extern "C"` trampoline over the guest CPU's register file. Every
//! instruction except `jr`/`call`/`ret`/`halt` and `fmadd` without host
//! FMA has a native template. ALU, FP and jump templates run entirely
//! inline. Loads, stores, the trace-final conditional branch and the
//! seven vector ops compute their operands natively and call one narrow
//! helper each for the work that is genuinely stateful: guest memory
//! plus the modelled caches, the predictor plus the successor PC, or the
//! vector lanes plus the VPU charge — the same `CoreModel`/`Cpu` methods
//! the interpreter's step calls. The few remaining instructions run the *exact interpreter step*
//! through a slow-step helper. JIT-on and JIT-off runs are therefore
//! bit-identical: same retired counts, same uarch/power accounting, same
//! artifacts.
//!
//! The backend is gated on `x86_64`/Linux (libc's `mmap` backs the W^X
//! code arena); on any other target — or when built with
//! `--cfg powerchop_force_interp` — [`JitEngine`] compiles to a no-op and
//! the interpreter remains the universal fallback.

use powerchop_gisa::{Cpu, GisaError, Memory};
use powerchop_uarch::core::CoreModel;

use crate::region_cache::TranslationId;
use crate::translator::Translation;

#[cfg(all(
    target_arch = "x86_64",
    target_os = "linux",
    not(powerchop_force_interp)
))]
mod backend;
#[cfg(not(all(
    target_arch = "x86_64",
    target_os = "linux",
    not(powerchop_force_interp)
)))]
#[path = "backend_stub.rs"]
mod backend;

/// Whether the JIT backend engages: never, always (when supported), or
/// when the host supports it (the only difference from `On` is intent —
/// both fall back to the interpreter on unsupported hosts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JitMode {
    /// Never JIT; every translation runs through the interpreter loop.
    Off,
    /// JIT every eligible translation (interpreter fallback on
    /// unsupported hosts).
    On,
    /// Enable the JIT whenever the host backend is available.
    #[default]
    Auto,
}

impl JitMode {
    /// Parses `on`/`off`/`auto` (plus `1`/`true` and `0`/`false` aliases).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "on" | "1" | "true" | "yes" => Some(JitMode::On),
            "off" | "0" | "false" | "no" => Some(JitMode::Off),
            "auto" => Some(JitMode::Auto),
            _ => None,
        }
    }

    /// The default mode, honouring the `POWERCHOP_JIT` environment
    /// variable (`on`/`off`/`auto`); unparseable values warn and fall
    /// back to `Auto`, mirroring the `POWERCHOP_BUDGET` convention.
    #[must_use]
    pub fn default_from_env() -> Self {
        match std::env::var("POWERCHOP_JIT") {
            Ok(raw) => JitMode::parse(&raw).unwrap_or_else(|| {
                eprintln!(
                    "warning: ignoring unparseable POWERCHOP_JIT value {raw:?} \
                     (expected on, off or auto); using auto"
                );
                JitMode::Auto
            }),
            Err(_) => JitMode::Auto,
        }
    }

    /// Canonical lowercase name (`on`/`off`/`auto`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JitMode::Off => "off",
            JitMode::On => "on",
            JitMode::Auto => "auto",
        }
    }
}

impl std::fmt::Display for JitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Cumulative JIT counters (not part of run artifacts or checkpoints:
/// the JIT is an execution strategy, not simulated state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Translations compiled to native code.
    pub translations_compiled: u64,
    /// Translation dispatches that executed native code.
    pub exec_hits: u64,
    /// Translation dispatches that fell back to the interpreter
    /// (ineligible trace or failed compile).
    pub fallbacks: u64,
    /// Total native code bytes emitted.
    pub code_bytes: u64,
}

/// A JIT summary attached to run reports when the JIT is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitReport {
    /// The configured mode.
    pub mode: JitMode,
    /// Whether the host backend was available.
    pub supported: bool,
    /// The counters at end of run.
    pub stats: JitStats,
}

impl powerchop_telemetry::MetricSource for JitReport {
    fn sample_metrics(&self, reg: &mut powerchop_telemetry::MetricsRegistry) {
        reg.counter_set(
            "jit_translations_compiled",
            self.stats.translations_compiled,
        );
        reg.counter_set("jit_exec_hits", self.stats.exec_hits);
        reg.counter_set("jit_fallbacks", self.stats.fallbacks);
        reg.counter_set("jit_code_bytes", self.stats.code_bytes);
    }
}

/// The per-machine JIT: a code cache indexed by [`TranslationId`] (the
/// head PC, like the region cache) plus the counters above. Cloning
/// yields a *cold* engine (same mode and counters, no compiled code) —
/// native code is derived state, recompiled on demand, and is never
/// snapshotted.
pub struct JitEngine {
    mode: JitMode,
    stats: JitStats,
    native: backend::NativeEngine,
}

impl JitEngine {
    /// Creates an engine in `mode` with an empty code cache.
    #[must_use]
    pub fn new(mode: JitMode) -> Self {
        JitEngine {
            mode,
            stats: JitStats::default(),
            native: backend::NativeEngine::new(),
        }
    }

    /// Whether this build/host has a native backend at all.
    #[must_use]
    pub fn supported() -> bool {
        backend::SUPPORTED
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> JitMode {
        self.mode
    }

    /// The cumulative counters.
    #[must_use]
    pub fn stats(&self) -> JitStats {
        self.stats
    }

    /// Whether dispatches should try native execution.
    #[must_use]
    pub fn is_active(&self) -> bool {
        backend::SUPPORTED && self.mode != JitMode::Off
    }

    /// The report attached to run artifacts' sidecar (`None` when the
    /// JIT is off, so JIT-off runs carry no trace of the feature).
    #[must_use]
    pub fn report(&self) -> Option<JitReport> {
        if self.mode == JitMode::Off {
            return None;
        }
        Some(JitReport {
            mode: self.mode,
            supported: backend::SUPPORTED,
            stats: self.stats,
        })
    }

    /// Native code size for `id`, if it is currently compiled.
    #[must_use]
    pub fn code_len(&self, id: TranslationId) -> Option<usize> {
        self.native.code_len(id)
    }

    /// Install hook: compile `t` eagerly so the first dispatch already
    /// runs native code (the translator just charged its one-time stall;
    /// compile cost rides on the same event).
    pub(crate) fn on_install(&mut self, t: &Translation) {
        if !self.is_active() {
            return;
        }
        self.compile(t);
    }

    fn compile(&mut self, t: &Translation) -> bool {
        let (trace, insts) = t.shared();
        match self.native.compile(t.id(), trace, insts) {
            backend::CompileOutcome::Compiled { code_bytes } => {
                self.stats.translations_compiled += 1;
                self.stats.code_bytes += code_bytes as u64;
                true
            }
            backend::CompileOutcome::Ineligible => false,
        }
    }

    /// Invalidation hook: drops `id`'s native code (if any).
    pub(crate) fn remove(&mut self, id: TranslationId) {
        self.native.remove(id);
    }

    /// Restore/flush hook: drops all native code. Resident translations
    /// recompile on demand at their next dispatch.
    pub(crate) fn clear(&mut self) {
        self.native.clear();
    }

    /// Dispatch hook: runs `t` natively if possible, compiling on demand
    /// (covers checkpoint restore and cloned machines), and returns the
    /// guest instructions executed (templated + slow steps), equal to the
    /// interpreter loop's count for the same dispatch. Returns `None`
    /// when the caller must fall back to the interpreter loop.
    ///
    /// This, `NativeEngine::try_run` and `run_compiled` are `#[inline]`
    /// so the small result enums they pass up stay in registers: across
    /// an out-of-line call each comes back through memory, and the
    /// caller's wide reload of it stalls on the narrower stores that
    /// just wrote it (a failed store-to-load forward).
    #[inline]
    pub(crate) fn execute(
        &mut self,
        t: &Translation,
        cpu: &mut Cpu,
        mem: &mut Memory,
        core: &mut CoreModel,
    ) -> Option<Result<u64, GisaError>> {
        if !self.is_active() {
            return None;
        }
        let id = t.id();
        match self.native.try_run(id, cpu, mem, core) {
            backend::RunAttempt::Ran(res) => {
                self.stats.exec_hits += 1;
                Some(res)
            }
            backend::RunAttempt::Ineligible => {
                self.stats.fallbacks += 1;
                None
            }
            backend::RunAttempt::Unknown => {
                // Compile on demand: covers checkpoint restore and cloned
                // machines, whose code caches start cold.
                if !self.compile(t) {
                    self.stats.fallbacks += 1;
                    return None;
                }
                self.stats.exec_hits += 1;
                match self.native.try_run(id, cpu, mem, core) {
                    backend::RunAttempt::Ran(res) => Some(res),
                    _ => unreachable!("compile() just installed this trace"),
                }
            }
        }
    }
}

impl Clone for JitEngine {
    fn clone(&self) -> Self {
        JitEngine {
            mode: self.mode,
            stats: self.stats,
            native: backend::NativeEngine::new(),
        }
    }
}

impl std::fmt::Debug for JitEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitEngine")
            .field("mode", &self.mode)
            .field("supported", &backend::SUPPORTED)
            .field("resident", &self.native.resident())
            .field("stats", &self.stats)
            .finish()
    }
}
