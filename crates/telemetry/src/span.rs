//! Request-scoped spans: per-request phase ledgers and trace ids.
//!
//! A serving request moves through a fixed pipeline of phases —
//! accept, parse, queue, compute, cache, journal, respond — and the
//! [`SpanLedger`] charges wall-clock nanoseconds (plus, for the
//! compute phase, simulated cycles) to each one. The ledger is two
//! fixed arrays indexed by [`Phase`]: recording is a saturating add
//! into a stack-sized struct, with no allocation on the hot path.
//!
//! [`SpanRecorder`] follows the same zero-cost-when-disabled contract
//! as [`crate::Tracer`]: a disabled recorder holds `None` and every
//! recording call is an inlined no-op, so code threaded through with a
//! recorder pays nothing when observability is off. When it is on, the
//! whole per-request ritual stays under 2% of a representative request:
//! `span_ledger_ritual_costs_under_two_percent_of_a_request` in
//! `tests/serve_observability.rs` measures both sides and asserts it.
//!
//! Trace ids are 64-bit values rendered as 16 lowercase hex digits.
//! [`trace_id`] derives the `n`-th id from a seed via the SplitMix64
//! finalizer, so a daemon started with a fixed `--seed` hands out a
//! reproducible id sequence — the property the determinism tests pin.

/// Number of phases in the fixed span taxonomy.
pub const PHASE_COUNT: usize = 7;

/// One phase of the serving pipeline. The discriminants index the
/// ledger arrays; the order is the canonical reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for and reading the request bytes off the socket.
    Accept,
    /// Parsing and validating the request line.
    Parse,
    /// Sitting in the worker-pool queue before a worker picked it up.
    Queue,
    /// Running the simulation on a worker.
    Compute,
    /// Result-cache lookups and stores.
    Cache,
    /// Durability work: journaling the intent and its completion.
    Journal,
    /// Serializing and writing the reply back to the client.
    Respond,
}

impl Phase {
    /// Every phase, in canonical reporting order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Accept,
        Phase::Parse,
        Phase::Queue,
        Phase::Compute,
        Phase::Cache,
        Phase::Journal,
        Phase::Respond,
    ];

    /// The phase's wire label, as used in access-log span keys.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Accept => "accept",
            Phase::Parse => "parse",
            Phase::Queue => "queue",
            Phase::Compute => "compute",
            Phase::Cache => "cache",
            Phase::Journal => "journal",
            Phase::Respond => "respond",
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// Fixed-size per-request ledger: wall-clock nanoseconds per phase,
/// plus simulated cycles for the phases that have them (compute).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanLedger {
    wall_ns: [u64; PHASE_COUNT],
    cycles: [u64; PHASE_COUNT],
}

impl SpanLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `ns` wall-clock nanoseconds to `phase` (saturating).
    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        let slot = &mut self.wall_ns[phase.index()];
        *slot = slot.saturating_add(ns);
    }

    /// Charges `cycles` simulated cycles to `phase` (saturating).
    #[inline]
    pub fn record_cycles(&mut self, phase: Phase, cycles: u64) {
        let slot = &mut self.cycles[phase.index()];
        *slot = slot.saturating_add(cycles);
    }

    /// Wall-clock nanoseconds charged to `phase` so far.
    #[must_use]
    pub fn wall_ns(&self, phase: Phase) -> u64 {
        self.wall_ns[phase.index()]
    }

    /// Simulated cycles charged to `phase` so far.
    #[must_use]
    pub fn cycles(&self, phase: Phase) -> u64 {
        self.cycles[phase.index()]
    }

    /// Total wall-clock nanoseconds across every phase (saturating).
    #[must_use]
    pub fn total_wall_ns(&self) -> u64 {
        self.wall_ns
            .iter()
            .fold(0u64, |acc, ns| acc.saturating_add(*ns))
    }
}

/// A maybe-recording span ledger, mirroring [`crate::Tracer`]'s
/// zero-cost-when-disabled shape: disabled is `None`, and the hot-path
/// calls are inlined no-ops in that state.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    ledger: Option<Box<SpanLedger>>,
}

impl SpanRecorder {
    /// A recorder that drops everything. This is the hot-path default.
    #[must_use]
    pub fn disabled() -> Self {
        Self { ledger: None }
    }

    /// A live recorder with an empty ledger.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            ledger: Some(Box::default()),
        }
    }

    /// Whether this recorder is actually recording.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.ledger.is_some()
    }

    /// Charges `ns` wall-clock nanoseconds to `phase` if recording.
    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        if let Some(ledger) = &mut self.ledger {
            ledger.record(phase, ns);
        }
    }

    /// Charges simulated `cycles` to `phase` if recording.
    #[inline]
    pub fn record_cycles(&mut self, phase: Phase, cycles: u64) {
        if let Some(ledger) = &mut self.ledger {
            ledger.record_cycles(phase, cycles);
        }
    }

    /// The ledger, when recording.
    #[must_use]
    pub fn ledger(&self) -> Option<&SpanLedger> {
        self.ledger.as_deref()
    }
}

/// Derives the `n`-th trace id from `seed` via the SplitMix64
/// finalizer. Pure: the same `(seed, n)` always yields the same id,
/// which is what makes `--seed` runs hand out reproducible ids.
#[must_use]
pub fn trace_id(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Renders a trace id in its wire form: 16 lowercase hex digits.
#[must_use]
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_per_phase() {
        let mut ledger = SpanLedger::new();
        ledger.record(Phase::Queue, 10);
        ledger.record(Phase::Queue, 5);
        ledger.record(Phase::Compute, 100);
        ledger.record_cycles(Phase::Compute, 42);
        assert_eq!(ledger.wall_ns(Phase::Queue), 15);
        assert_eq!(ledger.wall_ns(Phase::Compute), 100);
        assert_eq!(ledger.wall_ns(Phase::Accept), 0);
        assert_eq!(ledger.cycles(Phase::Compute), 42);
        assert_eq!(ledger.total_wall_ns(), 115);
    }

    #[test]
    fn ledger_saturates_instead_of_overflowing() {
        let mut ledger = SpanLedger::new();
        ledger.record(Phase::Respond, u64::MAX);
        ledger.record(Phase::Respond, 1);
        assert_eq!(ledger.wall_ns(Phase::Respond), u64::MAX);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(Phase::Parse, 1_000);
        rec.record_cycles(Phase::Compute, 1_000);
        assert!(rec.ledger().is_none());
    }

    #[test]
    fn enabled_recorder_exposes_its_ledger() {
        let mut rec = SpanRecorder::enabled();
        assert!(rec.is_enabled());
        rec.record(Phase::Parse, 1_000);
        let ledger = rec.ledger().expect("enabled recorder has a ledger");
        assert_eq!(ledger.wall_ns(Phase::Parse), 1_000);
    }

    #[test]
    fn phase_labels_cover_the_taxonomy_in_order() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            ["accept", "parse", "queue", "compute", "cache", "journal", "respond"]
        );
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..64).map(|n| trace_id(0xDEAD_BEEF, n)).collect();
        let b: Vec<u64> = (0..64).map(|n| trace_id(0xDEAD_BEEF, n)).collect();
        assert_eq!(a, b, "same seed, same sequence");
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "no collisions in a short run");
        assert_ne!(trace_id(1, 0), trace_id(2, 0), "seed changes the stream");
    }

    #[test]
    fn trace_id_wire_form_is_sixteen_hex_digits() {
        let rendered = format_trace_id(0xAB);
        assert_eq!(rendered, "00000000000000ab");
        assert_eq!(rendered.len(), 16);
        assert!(rendered.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
