//! Umbrella crate for the PowerChop reproduction workspace.
//!
//! Re-exports the public APIs of every crate so examples and integration
//! tests can use a single dependency. See the individual crates for
//! documentation:
//!
//! - [`powerchop`] — the paper's contribution (HTB, PVT, CDE, gating)
//! - [`gisa`] — the guest ISA and program representation
//! - [`bt`] — the binary-translation subsystem
//! - [`uarch`] — microarchitectural unit models
//! - [`faults`] — deterministic fault injection
//! - [`power`] — the power/energy model
//! - [`telemetry`] — flight-recorder tracing, metrics and exporters
//! - [`workloads`] — the synthetic benchmark suites
//! - [`exec`] — the work-stealing job pool fan-out commands run on
//! - [`resilience`] — retry, circuit-breaker, restart-tracker and chaos primitives
//! - [`durable`] — the write-ahead intent journal and persistent result cache
//! - [`serve`] — the TCP daemon (NDJSON protocol, result cache, backpressure)
//! - [`cli`] — the command-line interface (argument parsing and commands)
//!
//! The paper-figure harness, `powerchop-bench` (`crates/bench`), is a
//! workspace member of its own and is not re-exported here: run it with
//! `cargo bench -p powerchop-bench`.

pub use powerchop;
pub use powerchop_bt as bt;
pub use powerchop_cli as cli;
pub use powerchop_durable as durable;
pub use powerchop_exec as exec;
pub use powerchop_faults as faults;
pub use powerchop_gisa as gisa;
pub use powerchop_power as power;
pub use powerchop_resilience as resilience;
pub use powerchop_serve as serve;
pub use powerchop_telemetry as telemetry;
pub use powerchop_uarch as uarch;
pub use powerchop_workloads as workloads;
