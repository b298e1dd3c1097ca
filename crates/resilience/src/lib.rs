//! Resilience primitives for the PowerChop service layer.
//!
//! Long-lived services treat failure as the steady state: workers die,
//! clients stall mid-frame, downstream work wedges, and retries pile up
//! into synchronized bursts unless something breaks the symmetry. This
//! crate provides the small, dependency-free building blocks the daemon
//! and CLI use to keep serving through all of it — and, in the same
//! spirit as `powerchop-faults`, a *seeded* way to prove they work:
//!
//! - [`retry::RetryPolicy`] — capped exponential backoff with
//!   deterministic seeded jitter (SplitMix64 via [`powerchop_faults`]),
//!   so a batch of failures retries de-synchronized yet reproducibly.
//! - [`breaker::CircuitBreaker`] — a three-state (closed / open /
//!   half-open) typed state machine with trip and probe counters,
//!   driven by an explicit millisecond clock so every transition is
//!   unit-testable without sleeping.
//! - [`restart::RestartTracker`] — bounded restart-rate accounting for
//!   worker supervision: respawn freely under the rate cap, latch a
//!   "storm" verdict past it so callers shed load instead of thrashing.
//! - [`chaos`] — a seeded socket-level chaos injector: per-frame
//!   hostility plans (delays, partial writes, mid-frame drops, byte
//!   corruption, resets) sampled deterministically from one `u64` seed,
//!   plus a [`chaos::ChaosStream`] wrapper that applies them to any
//!   `Read + Write` transport.
//!
//! Everything here takes time as an explicit argument and randomness
//! from a seed; nothing reads the wall clock or an entropy source on
//! its own. That is what lets `tests/chaos_soak.rs` replay an entire
//! fault storm bit-for-bit.
//!
//! See `DESIGN.md` §10 for the resilience model these primitives build.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod restart;
pub mod retry;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use chaos::{ChaosConfig, ChaosPlan, ChaosSchedule, ChaosStats, ChaosStream, Hostility};
pub use restart::{RestartPolicy, RestartTracker, RestartVerdict};
pub use retry::RetryPolicy;
