//! # PowerChop
//!
//! A full reproduction of *PowerChop: Identifying and Managing
//! Non-critical Units in Hybrid Processor Architectures* (Laurenzano,
//! Zhang, Chen, Tang, Mars — ISCA 2016) as a Rust library.
//!
//! PowerChop power-gates three large, stateful, high-activity units — the
//! vector processing unit (VPU), the large branch predictor (BPU), and the
//! middle-level cache (MLC) — whenever the executing application *phase*
//! does not need them for performance. It exploits the HW/SW co-design of
//! hybrid (binary-translation-based) processors: two small hardware
//! structures detect phases from the stream of executed translations, and
//! the BT software layer characterizes each phase's unit criticality and
//! picks gating policies.
//!
//! The crate provides the paper's system:
//!
//! - [`phase`] — phase signatures (top-N hottest translations per window),
//! - [`htb`] — the Hot Translation Buffer hardware structure,
//! - [`pvt`] — the Policy Vector Table hardware structure,
//! - [`cde`] — the software Criticality Decision Engine (Algorithm 1),
//! - [`policy`] — 4-bit gating policies (V/B/M bits),
//! - [`gating`] — the gating controller with the paper's transition costs,
//! - [`managers`] — PowerChop plus the full-power, minimal-power and
//!   VPU-timeout baselines,
//! - [`degrade`] — graceful degradation (anomaly detection, bounded
//!   re-profiling, oscillation watchdog): fail safe to full power,
//! - [`error`] — the typed [`SimError`] every run returns on failure,
//! - [`system`] — [`system::run_program`], the integrated simulation loop,
//!   including deterministic fault injection via [`powerchop_faults`],
//!   plus [`Simulation`]: chunked stepping with crash-safe, checksummed
//!   [`Simulation::snapshot`]/[`Simulation::restore`] checkpoints.
//!
//! # Quick start
//!
//! ```
//! use powerchop::{ManagerKind, RunConfig};
//! use powerchop_uarch::config::CoreKind;
//! use powerchop_workloads as workloads;
//!
//! # fn main() -> Result<(), powerchop::SimError> {
//! let benchmark = workloads::by_name("hmmer").expect("known benchmark");
//! let program = benchmark.program(workloads::Scale(0.02));
//! let mut cfg = RunConfig::for_kind(CoreKind::Server);
//! cfg.max_instructions = 500_000;
//!
//! let full = powerchop::run_program(&program, ManagerKind::FullPower, &cfg)?;
//! let chop = powerchop::run_program(&program, ManagerKind::PowerChop, &cfg)?;
//! println!(
//!     "leakage power: {:.2} W -> {:.2} W ({:.0}% less), slowdown {:.1}%",
//!     full.energy.leakage_power_w,
//!     chop.energy.leakage_power_w,
//!     100.0 * chop.leakage_reduction_vs(&full),
//!     100.0 * chop.slowdown_vs(&full),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cde;
pub mod degrade;
pub mod error;
pub mod gating;
pub mod htb;
pub mod managers;
pub mod phase;
pub mod policy;
pub mod pvt;
pub mod system;

pub use cde::{Cde, Thresholds};
pub use degrade::{DegradationGuard, DegradeStats};
pub use error::SimError;
pub use gating::{GatedCycles, GatingController, SwitchCounts};
pub use htb::HotTranslationBuffer;
pub use managers::{ChopConfig, DrowsyMlcManager, PowerChopManager, PowerManager};
pub use phase::PhaseSignature;
pub use policy::GatingPolicy;
pub use pvt::PolicyVectorTable;
pub use system::{
    config_fingerprint, manager_kind_by_name, read_meta, run_program, run_program_traced,
    ManagerKind, RunConfig, RunReport, Simulation, SnapshotMeta, STEP_CHUNK,
};
// Execution-strategy knobs surfaced through [`RunConfig`], re-exported so
// front ends need not depend on the BT crate directly.
pub use powerchop_bt::{JitMode, JitReport};
