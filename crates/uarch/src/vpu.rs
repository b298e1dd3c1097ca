//! The vector processing unit (VPU) model.
//!
//! The VPU executes SIMD operations ([`powerchop_gisa::VLEN`] architectural
//! lanes) with a microarchitectural lane width from Table I (4-wide server,
//! 2-wide mobile). When PowerChop gates the VPU off, vector instructions
//! are emulated by scalar code emitted by the binary translator along
//! alternate code paths (paper §IV-C2); the VPU's register file is
//! explicitly saved to memory on gate-off and restored on gate-on (500
//! cycles each way, §IV-D).

use powerchop_gisa::VLEN;

/// Cumulative VPU event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VpuStats {
    /// Vector operations executed natively on the VPU.
    pub native_ops: u64,
    /// Vector operations emulated with scalar code while gated off.
    pub emulated_ops: u64,
}

/// The vector processing unit.
///
/// # Examples
///
/// ```
/// use powerchop_uarch::vpu::Vpu;
///
/// let mut vpu = Vpu::new(4);
/// assert!(vpu.active());
/// assert_eq!(vpu.issue_slots_for_vector_op(), 1); // 4 lanes in one pass
/// vpu.set_active(false);
/// ```
#[derive(Debug, Clone)]
pub struct Vpu {
    /// Passes through the SIMD pipes per vector op: `ceil(VLEN / lanes)`.
    passes: u32,
    active: bool,
    emulation_overhead_slots: u32,
    stats: VpuStats,
}

impl Vpu {
    /// Creates an active VPU with `lanes` microarchitectural lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    #[must_use]
    pub fn new(lanes: u32) -> Self {
        assert!(lanes > 0, "a VPU needs at least one lane");
        Vpu {
            passes: (VLEN as u32).div_ceil(lanes),
            active: true,
            emulation_overhead_slots: 2,
            stats: VpuStats::default(),
        }
    }

    /// Creates a VPU with an explicit scalar-emulation overhead (issue
    /// slots added per emulated vector op beyond the per-lane scalar ops).
    #[must_use]
    pub fn with_emulation_overhead(lanes: u32, overhead_slots: u32) -> Self {
        Vpu {
            emulation_overhead_slots: overhead_slots,
            ..Vpu::new(lanes)
        }
    }

    /// Whether the VPU is powered on.
    #[must_use]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Gates the VPU on or off. The register-file save/restore penalty is
    /// charged by the gating controller, not here.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Issue slots consumed by one vector operation, accounting for the
    /// power state:
    ///
    /// - powered on: `ceil(VLEN / lanes)` passes through the SIMD pipes,
    /// - gated off: one scalar µop per architectural lane plus a fixed
    ///   emulation overhead (the BT's alternate scalar code path).
    ///
    /// Also updates the native/emulated operation counters.
    pub fn issue_slots_for_vector_op(&mut self) -> u32 {
        if self.active {
            self.stats.native_ops += 1;
            self.passes
        } else {
            self.stats.emulated_ops += 1;
            VLEN as u32 + self.emulation_overhead_slots
        }
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> VpuStats {
        self.stats
    }

    /// Folds VPU counters and the power flag into a telemetry registry.
    pub fn sample_metrics(&self, reg: &mut powerchop_telemetry::MetricsRegistry) {
        reg.counter_set("uarch_vpu_native_ops_total", self.stats.native_ops);
        reg.counter_set("uarch_vpu_emulated_ops_total", self.stats.emulated_ops);
        reg.gauge_set("uarch_vpu_active", if self.active { 1.0 } else { 0.0 });
    }

    /// Serializes the mutable VPU state (power flag and counters); lane
    /// width and emulation overhead are config-derived.
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        w.put_bool(self.active);
        w.put_u64(self.stats.native_ops);
        w.put_u64(self.stats.emulated_ops);
    }

    /// Restores state written by [`Vpu::snapshot_to`] in place.
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated or malformed.
    pub fn restore_from(
        &mut self,
        r: &mut powerchop_checkpoint::ByteReader<'_>,
    ) -> Result<(), powerchop_checkpoint::CheckpointError> {
        self.active = r.take_bool()?;
        self.stats.native_ops = r.take_u64()?;
        self.stats.emulated_ops = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_vpu_executes_in_one_pass() {
        let mut v = Vpu::new(4);
        assert_eq!(v.issue_slots_for_vector_op(), 1);
        assert_eq!(v.stats().native_ops, 1);
    }

    #[test]
    fn narrow_vpu_takes_multiple_passes() {
        let mut v = Vpu::new(2);
        assert_eq!(v.issue_slots_for_vector_op(), 2);
    }

    #[test]
    fn gated_vpu_emulates_with_scalars() {
        let mut v = Vpu::with_emulation_overhead(4, 2);
        v.set_active(false);
        assert_eq!(v.issue_slots_for_vector_op(), VLEN as u32 + 2);
        assert_eq!(v.stats().emulated_ops, 1);
        assert_eq!(v.stats().native_ops, 0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_is_rejected() {
        let _ = Vpu::new(0);
    }
}
