//! Implementation of the `powerchop-cli` command-line tool.
//!
//! Kept as a library so the argument parsing and command logic are unit
//! testable; `main.rs` is a thin shim. Run `powerchop-cli help` for usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod chaos;
mod client;
pub mod commands;
pub mod respawn;
pub mod restart;
pub mod retry;
pub mod soak;
pub mod supervise;
pub mod top;

use std::fmt;

/// CLI-level errors (bad usage, unknown benchmarks, guest faults).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<powerchop_gisa::GisaError> for CliError {
    fn from(e: powerchop_gisa::GisaError) -> Self {
        CliError(format!("guest program faulted: {e}"))
    }
}

impl From<powerchop::SimError> for CliError {
    fn from(e: powerchop::SimError) -> Self {
        CliError(e.to_string())
    }
}

impl From<powerchop_gisa::asm::AsmError> for CliError {
    fn from(e: powerchop_gisa::asm::AsmError) -> Self {
        CliError(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

/// Entry point used by the binary: parses `argv` and dispatches.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, bad flags, unknown
/// benchmarks, unreadable files, or guest faults.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let parsed = args::parse(argv)?;
    commands::dispatch(parsed)
}
