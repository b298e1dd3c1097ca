//! Flight-recorder telemetry for the PowerChop reproduction.
//!
//! The simulation's mechanism is *time-resolved* — phase transitions,
//! CDE profiling verdicts, gating switches and their wake latencies —
//! but a [`RunReport`](../powerchop) only shows end-of-run aggregates.
//! This crate adds the missing introspection layer:
//!
//! - a typed, cycle-stamped [`Event`] stream captured in a fixed-capacity
//!   [`EventRing`] (flight-recorder semantics: the newest history wins,
//!   with an exact dropped-event counter),
//! - a [`MetricsRegistry`] of named counters, gauges and log-bucketed
//!   [`Histogram`]s, sampled from the stats structs of every
//!   state-bearing crate at a configurable cycle interval,
//! - exporters: Chrome trace-event JSON ([`export::chrome_trace_json`]),
//!   JSONL ([`export::jsonl`]) and Prometheus text exposition
//!   ([`MetricsRegistry::to_prometheus_text`]), and the strict JSON
//!   reader they are checked with ([`json::Json::parse`]),
//! - a terminal timeline renderer ([`timeline::render`]).
//!
//! **Zero-cost when disabled.** The only handle the simulation holds is
//! a [`Tracer`], which is an `Option<Box<FlightRecorder>>`; every emit
//! path starts with an inlined `None` check, and event payloads are
//! plain integers, so a disabled tracer costs one predictable branch
//! and no formatting or allocation ever happens on the hot path.
//!
//! **Determinism.** Events carry core cycle stamps only — wall-clock
//! time never enters the stream — and telemetry mutates no simulation
//! state, so a traced run's `RunReport` is bit-identical to an
//! untraced one and checkpoint/resume of a traced run still
//! round-trips (telemetry buffers are deliberately not checkpointed; a
//! resumed trace simply starts at the resume point).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod span;
pub mod timeline;

use std::collections::HashMap;

pub use event::{Event, Stamped, Unit};
pub use export::validate_json;
pub use json::JsonError;
pub use metrics::{Histogram, MetricSource, MetricsRegistry};
pub use ring::EventRing;
pub use span::{format_trace_id, trace_id, Phase, SpanLedger, SpanRecorder, PHASE_COUNT};

/// Flight-recorder sizing and sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity in events.
    pub ring_capacity: usize,
    /// Cycle interval between registry samples (0 disables sampling).
    pub sample_every_cycles: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 1 << 16,
            sample_every_cycles: 100_000,
        }
    }
}

/// The live flight recorder: ring buffer + metrics registry + the
/// cross-event state needed to derive span metrics (phase residency,
/// gating dwell, profile-to-decision latency) without touching any
/// simulation state.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: EventRing,
    metrics: MetricsRegistry,
    sample_every: u64,
    next_sample: u64,
    current_phase: Option<u64>,
    phase_windows: u64,
    phase_since: u64,
    /// Cycle of each unit's last gating transition (dwell accounting).
    gate_since: [u64; 3],
    /// Whether each unit is currently gated (off / way-gated).
    gate_off: [bool; 3],
    /// Cycle each in-flight profiling measurement was armed at, by
    /// signature key. Only keyed lookups — iteration order never
    /// matters, so the map cannot leak nondeterminism.
    profile_start: HashMap<u64, u64>,
}

impl FlightRecorder {
    /// Creates a recorder per `cfg`.
    #[must_use]
    pub fn new(cfg: TelemetryConfig) -> Self {
        FlightRecorder {
            ring: EventRing::new(cfg.ring_capacity),
            metrics: MetricsRegistry::new(),
            sample_every: cfg.sample_every_cycles,
            next_sample: cfg.sample_every_cycles,
            current_phase: None,
            phase_windows: 0,
            phase_since: 0,
            gate_since: [0; 3],
            gate_off: [false; 3],
            profile_start: HashMap::new(),
        }
    }

    /// Stamps and records an event, bumping its category counter.
    pub fn push(&mut self, cycle: u64, event: Event) {
        self.metrics.counter_add(category_counter(&event), 1);
        self.ring.push(cycle, event);
    }

    /// The event ring.
    #[must_use]
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Retained events, oldest-first.
    #[must_use]
    pub fn events(&self) -> Vec<Stamped> {
        self.ring.to_vec()
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the registry (for sampling).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Whether a registry sample is due at `cycle`; advances the
    /// sampling clock when it is.
    pub fn sample_due(&mut self, cycle: u64) -> bool {
        if self.sample_every == 0 || cycle < self.next_sample {
            return false;
        }
        // Skip any intervals the run jumped over (a long stall) so the
        // clock stays phase-locked to the configured grid.
        let intervals = (cycle - self.next_sample) / self.sample_every + 1;
        self.next_sample += intervals * self.sample_every;
        true
    }

    /// Feeds one execution window's phase signature key. Emits
    /// `PhaseEnter`/`PhaseExit` pairs on phase change and accumulates
    /// the `phase_residency_windows` histogram.
    pub fn on_phase_window(&mut self, cycle: u64, sig: u64) {
        match self.current_phase {
            Some(cur) if cur == sig => {
                self.phase_windows += 1;
            }
            Some(cur) => {
                let windows = self.phase_windows;
                self.push(cycle, Event::PhaseExit { sig: cur, windows });
                self.metrics.observe("phase_residency_windows", windows);
                self.metrics.observe(
                    "phase_residency_cycles",
                    cycle.saturating_sub(self.phase_since),
                );
                self.push(cycle, Event::PhaseEnter { sig });
                self.current_phase = Some(sig);
                self.phase_windows = 1;
                self.phase_since = cycle;
            }
            None => {
                self.push(cycle, Event::PhaseEnter { sig });
                self.current_phase = Some(sig);
                self.phase_windows = 1;
                self.phase_since = cycle;
            }
        }
    }

    /// Records a gating transition for `unit` (`off = true` means the
    /// unit was gated off / way-gated down), with the stall cycles the
    /// transition charged. Emits the event and the per-unit dwell
    /// histogram for the state being left.
    pub fn on_gate(&mut self, cycle: u64, unit: Unit, off: bool, stall: u64) {
        let i = unit.index();
        if self.gate_off[i] == off {
            return; // not a state change (e.g. MLC moving between gated levels)
        }
        let dwell = cycle.saturating_sub(self.gate_since[i]);
        self.metrics
            .observe(dwell_histogram(unit, self.gate_off[i]), dwell);
        self.gate_since[i] = cycle;
        self.gate_off[i] = off;
        if off {
            self.push(cycle, Event::GateOff { unit, stall });
        } else {
            self.push(
                cycle,
                Event::GateOn {
                    unit,
                    wake_stall: stall,
                },
            );
        }
    }

    /// Records that profiling was armed for phase `sig`.
    pub fn on_profile_start(&mut self, cycle: u64, sig: u64) {
        self.profile_start.entry(sig).or_insert(cycle);
        self.push(cycle, Event::CdeProfileStart { sig });
    }

    /// Records a CDE verdict, completing the profile-to-decision
    /// latency histogram when the profiling start was seen.
    pub fn on_verdict(&mut self, cycle: u64, sig: u64, policy: u8) {
        if let Some(start) = self.profile_start.remove(&sig) {
            self.metrics.observe(
                "cde_profile_to_decision_cycles",
                cycle.saturating_sub(start),
            );
        }
        self.push(cycle, Event::CdeVerdict { sig, policy });
    }

    /// Closes out open spans at end of run: the current phase exits and
    /// ring/drop totals land in the registry.
    pub fn finish(&mut self, cycle: u64) {
        if let Some(cur) = self.current_phase.take() {
            let windows = self.phase_windows;
            self.push(cycle, Event::PhaseExit { sig: cur, windows });
            self.metrics.observe("phase_residency_windows", windows);
            self.metrics.observe(
                "phase_residency_cycles",
                cycle.saturating_sub(self.phase_since),
            );
        }
        self.metrics
            .counter_set("telemetry_events_recorded_total", self.ring.recorded());
        self.metrics
            .counter_set("telemetry_events_dropped_total", self.ring.dropped());
    }
}

/// Per-unit dwell histogram names (`off = true` = the state being left
/// was gated-off).
fn dwell_histogram(unit: Unit, was_off: bool) -> &'static str {
    match (unit, was_off) {
        (Unit::Vpu, false) => "gating_vpu_on_dwell_cycles",
        (Unit::Vpu, true) => "gating_vpu_off_dwell_cycles",
        (Unit::Bpu, false) => "gating_bpu_on_dwell_cycles",
        (Unit::Bpu, true) => "gating_bpu_off_dwell_cycles",
        (Unit::Mlc, false) => "gating_mlc_on_dwell_cycles",
        (Unit::Mlc, true) => "gating_mlc_gated_dwell_cycles",
    }
}

/// The per-category event counter a pushed event bumps.
fn category_counter(ev: &Event) -> &'static str {
    match ev.category() {
        "phase" => "events_phase_total",
        "pvt" => "events_pvt_total",
        "cde" => "events_cde_total",
        "gating" => "events_gating_total",
        "degrade" => "events_degrade_total",
        "faults" => "events_faults_total",
        "checkpoint" => "events_checkpoint_total",
        _ => "events_bt_total",
    }
}

/// The simulation's telemetry handle: a no-op sink when disabled, a
/// boxed [`FlightRecorder`] when enabled.
#[derive(Debug, Default)]
pub struct Tracer {
    rec: Option<Box<FlightRecorder>>,
}

impl Tracer {
    /// The no-op tracer (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { rec: None }
    }

    /// A recording tracer per `cfg`.
    #[must_use]
    pub fn enabled(cfg: TelemetryConfig) -> Self {
        Tracer {
            rec: Some(Box::new(FlightRecorder::new(cfg))),
        }
    }

    /// Whether a recorder is attached.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Emits one event (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, cycle: u64, event: Event) {
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.push(cycle, event);
        }
    }

    /// Runs `f` against the recorder when enabled. The closure is never
    /// built into anything on the disabled path, so arbitrary sampling
    /// work can hide behind this without costing a disabled run more
    /// than the branch.
    #[inline]
    pub fn with(&mut self, f: impl FnOnce(&mut FlightRecorder)) {
        if let Some(rec) = self.rec.as_deref_mut() {
            f(rec);
        }
    }

    /// The recorder, when enabled.
    #[must_use]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.rec.as_deref()
    }

    /// Mutable recorder access, when enabled.
    pub fn recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.rec.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(1, Event::PhaseEnter { sig: 1 });
        t.with(|_| panic!("closure must not run when disabled"));
        assert!(t.recorder().is_none());
    }

    #[test]
    fn phase_windows_produce_enter_exit_pairs_and_residency() {
        let mut rec = FlightRecorder::new(TelemetryConfig::default());
        rec.on_phase_window(100, 0xA);
        rec.on_phase_window(200, 0xA);
        rec.on_phase_window(300, 0xB);
        rec.finish(400);
        let events = rec.events();
        let names: Vec<&str> = events.iter().map(|s| s.event.name()).collect();
        assert_eq!(
            names,
            vec!["phase_enter", "phase_exit", "phase_enter", "phase_exit"]
        );
        assert_eq!(
            events[1].event,
            Event::PhaseExit {
                sig: 0xA,
                windows: 2
            }
        );
        let h = rec
            .metrics()
            .histogram("phase_residency_windows")
            .expect("residency histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3);
    }

    #[test]
    fn gate_transitions_track_dwell_and_dedupe_same_state() {
        let mut rec = FlightRecorder::new(TelemetryConfig::default());
        rec.on_gate(1_000, Unit::Vpu, true, 530);
        // MLC dropping further while already gated: no new edge.
        rec.on_gate(2_000, Unit::Vpu, true, 530);
        rec.on_gate(5_000, Unit::Vpu, false, 530);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        let h = rec
            .metrics()
            .histogram("gating_vpu_off_dwell_cycles")
            .expect("off dwell");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 4_000);
    }

    #[test]
    fn profile_latency_is_keyed_per_signature() {
        let mut rec = FlightRecorder::new(TelemetryConfig::default());
        rec.on_profile_start(1_000, 0xA);
        rec.on_profile_start(1_500, 0xB);
        rec.on_verdict(4_000, 0xA, 0b1111);
        rec.on_verdict(9_500, 0xB, 0);
        let h = rec
            .metrics()
            .histogram("cde_profile_to_decision_cycles")
            .expect("latency histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3_000 + 8_000);
    }

    #[test]
    fn sampling_clock_fires_on_grid_and_skips_gaps() {
        let mut rec = FlightRecorder::new(TelemetryConfig {
            ring_capacity: 16,
            sample_every_cycles: 100,
        });
        assert!(!rec.sample_due(50));
        assert!(rec.sample_due(100));
        assert!(!rec.sample_due(150));
        // A long stall jumps several intervals: one sample, clock re-locked.
        assert!(rec.sample_due(1_234));
        assert!(!rec.sample_due(1_299));
        assert!(rec.sample_due(1_300));
    }

    #[test]
    fn zero_interval_disables_sampling() {
        let mut rec = FlightRecorder::new(TelemetryConfig {
            ring_capacity: 16,
            sample_every_cycles: 0,
        });
        assert!(!rec.sample_due(u64::MAX));
    }

    #[test]
    fn finish_records_exact_ring_totals() {
        let mut rec = FlightRecorder::new(TelemetryConfig {
            ring_capacity: 4,
            sample_every_cycles: 0,
        });
        for i in 0..10 {
            rec.push(i, Event::PvtHit { sig: i });
        }
        rec.finish(10);
        let m = rec.metrics();
        assert_eq!(m.counter("telemetry_events_recorded_total"), 10);
        assert_eq!(m.counter("telemetry_events_dropped_total"), 6);
        assert_eq!(m.counter("events_pvt_total"), 10);
    }
}
