//! The core timing model: consumes executed instructions, produces cycles.
//!
//! This is the reproduction's substitute for gem5 (see `DESIGN.md`): an
//! instruction-level model with a superscalar issue-slot budget plus
//! explicit stalls for branch mispredictions, memory-hierarchy misses, BT
//! interpretation/translation overheads, and power-gating transitions. The
//! paper's results are driven by *relative* unit criticality, which this
//! fidelity captures.

use powerchop_gisa::{InstClass, MemAccess, StepInfo, VLEN};

use crate::bpu::Bpu;
use crate::cache::{Cache, MlcWayState};
use crate::config::CoreConfig;
use crate::vpu::Vpu;

/// Whether an instruction executed from the BT interpreter or from an
/// optimized translation in the region cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Decoded and executed sequentially by the BT interpreter (slow path).
    Interpreted,
    /// Executed from an optimized translation (fast path).
    Translated,
}

/// Cumulative core event counts.
///
/// All counters are monotonically non-decreasing; phase profiling reads
/// deltas between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Vector operations by architectural intent (native + emulated).
    pub vec_ops: u64,
    /// SIMD instructions committed natively on the VPU.
    pub simd_committed: u64,
    /// Vector operations emulated with scalar code (VPU gated off).
    pub vec_emulated: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Branch mispredictions (whichever predictor was active).
    pub mispredicts: u64,
    /// Scalar + vector loads.
    pub loads: u64,
    /// Scalar + vector stores.
    pub stores: u64,
    /// L1D hits.
    pub l1_hits: u64,
    /// Demand accesses reaching the MLC (L2).
    pub mlc_accesses: u64,
    /// MLC hits.
    pub mlc_hits: u64,
    /// Demand accesses reaching the LLC.
    pub llc_accesses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// Accesses that went to main memory.
    pub mem_accesses: u64,
    /// Dirty-line writebacks out of the MLC (evictions + way-gating
    /// flushes).
    pub mlc_writebacks: u64,
    /// MLC hits that woke a drowsy line (drowsy-cache baseline).
    pub mlc_drowsy_wakes: u64,
}

impl CoreStats {
    /// Serializes every counter (fixed field order, little-endian).
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        for v in [
            self.instructions,
            self.vec_ops,
            self.simd_committed,
            self.vec_emulated,
            self.branches,
            self.mispredicts,
            self.loads,
            self.stores,
            self.l1_hits,
            self.mlc_accesses,
            self.mlc_hits,
            self.llc_accesses,
            self.llc_hits,
            self.mem_accesses,
            self.mlc_writebacks,
            self.mlc_drowsy_wakes,
        ] {
            w.put_u64(v);
        }
    }

    /// Reads counters written by [`CoreStats::snapshot_to`].
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated.
    pub fn restore_from(
        r: &mut powerchop_checkpoint::ByteReader<'_>,
    ) -> Result<Self, powerchop_checkpoint::CheckpointError> {
        Ok(CoreStats {
            instructions: r.take_u64()?,
            vec_ops: r.take_u64()?,
            simd_committed: r.take_u64()?,
            vec_emulated: r.take_u64()?,
            branches: r.take_u64()?,
            mispredicts: r.take_u64()?,
            loads: r.take_u64()?,
            stores: r.take_u64()?,
            l1_hits: r.take_u64()?,
            mlc_accesses: r.take_u64()?,
            mlc_hits: r.take_u64()?,
            llc_accesses: r.take_u64()?,
            llc_hits: r.take_u64()?,
            mem_accesses: r.take_u64()?,
            mlc_writebacks: r.take_u64()?,
            mlc_drowsy_wakes: r.take_u64()?,
        })
    }
}

/// The core model: units + cycle accounting.
///
/// # Examples
///
/// ```
/// use powerchop_uarch::config::CoreConfig;
/// use powerchop_uarch::core::CoreModel;
///
/// let cfg = CoreConfig::mobile();
/// let core = CoreModel::new(&cfg);
/// assert!(core.vpu_active());
/// assert!(core.bpu_large_active());
/// ```
#[derive(Debug, Clone)]
pub struct CoreModel {
    issue_width: u64,
    interp_slots: u64,
    mispredict_penalty: u64,
    mlc_hit_latency: u64,
    llc_hit_latency: u64,
    mem_latency: u64,
    /// log2 of the line size: line math is shifts/masks, not divisions
    /// (line sizes are powers of two, as the cache's set indexing already
    /// assumes).
    line_shift: u32,
    bpu: Bpu,
    l1d: Cache,
    mlc: Cache,
    llc: Cache,
    vpu: Vpu,
    mlc_state: MlcWayState,
    slots: u64,
    stall_cycles: u64,
    stats: CoreStats,
}

impl CoreModel {
    /// Creates a fully-powered core model for the design point `cfg`.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        CoreModel {
            issue_width: u64::from(cfg.issue_width),
            interp_slots: u64::from(cfg.interp_slots_per_inst),
            mispredict_penalty: u64::from(cfg.bpu.mispredict_penalty),
            mlc_hit_latency: u64::from(cfg.mlc.hit_latency),
            llc_hit_latency: u64::from(cfg.llc.hit_latency),
            mem_latency: u64::from(cfg.mem_latency),
            line_shift: cfg.l1d.line_bytes.trailing_zeros(),
            bpu: Bpu::new(&cfg.bpu),
            l1d: Cache::new(&cfg.l1d),
            mlc: Cache::new(&cfg.mlc),
            llc: Cache::new(&cfg.llc),
            vpu: Vpu::with_emulation_overhead(cfg.simd_lanes, cfg.vpu_emulation_overhead_slots),
            mlc_state: MlcWayState::Full,
            slots: 0,
            stall_cycles: 0,
            stats: CoreStats::default(),
        }
    }

    /// Total elapsed cycles: issue-limited cycles plus stalls.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.slots.div_ceil(self.issue_width) + self.stall_cycles
    }

    /// Snapshot of the cumulative event counters.
    #[must_use]
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Adds explicit stall cycles (gating transitions, CDE handler time,
    /// translation time).
    pub fn add_stall(&mut self, cycles: u64) {
        self.stall_cycles += cycles;
    }

    /// Cycles spent in explicit stalls (mispredicts, memory, gating
    /// transitions), as opposed to issue-limited cycles.
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Whether the VPU is powered.
    #[must_use]
    pub fn vpu_active(&self) -> bool {
        self.vpu.active()
    }

    /// Powers the VPU on or off (state save/restore penalties are charged
    /// by the gating controller).
    pub fn set_vpu_active(&mut self, active: bool) {
        self.vpu.set_active(active);
    }

    /// Whether the large tournament predictor is powered.
    #[must_use]
    pub fn bpu_large_active(&self) -> bool {
        self.bpu.active() == crate::bpu::BpuKind::Large
    }

    /// Powers the large predictor on or off (off loses its state).
    pub fn set_bpu_large_active(&mut self, active: bool) {
        self.bpu.set_large_active(active);
    }

    /// Current MLC way-gating state.
    #[must_use]
    pub fn mlc_way_state(&self) -> MlcWayState {
        self.mlc_state
    }

    /// Applies an MLC way-gating state; returns the number of dirty lines
    /// flushed to the LLC (the controller charges their writeback time).
    pub fn set_mlc_way_state(&mut self, state: MlcWayState) -> u64 {
        self.mlc_state = state;
        self.mlc.set_active_ways(state.active_ways(self.mlc.ways()))
    }

    /// Puts every valid MLC line into the drowsy state (the drowsy-cache
    /// baseline's periodic policy); returns the number of lines drowsed.
    pub fn drowse_mlc(&mut self) -> usize {
        self.mlc.set_all_drowsy()
    }

    /// Fraction of the MLC array currently leaking at full voltage.
    #[must_use]
    pub fn mlc_awake_fraction(&self) -> f64 {
        self.mlc.awake_fraction()
    }

    /// Feeds one executed instruction into the timing model: retirement
    /// and the issue slot of its mode here, then the class's stateful
    /// work through [`CoreModel::scalar_access`],
    /// [`CoreModel::branch_outcome`] or [`CoreModel::vector_op`] — the
    /// same three methods the BT layer's native code calls.
    pub fn on_step(&mut self, step: &StepInfo, mode: ExecMode) {
        self.stats.instructions += 1;
        self.slots += match mode {
            ExecMode::Interpreted => self.interp_slots,
            ExecMode::Translated => 1,
        };

        match step.class {
            InstClass::VecAlu | InstClass::VecMem => self.vector_op(step.mem),
            InstClass::Load | InstClass::Store => {
                if let Some(mem) = step.mem {
                    self.scalar_access(mem);
                }
            }
            InstClass::Branch => {
                if let Some(branch) = step.branch {
                    self.branch_outcome(step.pc.0, branch.taken, branch.next_pc.0);
                }
            }
            InstClass::IntMul => self.slots += 1,
            _ => {}
        }
    }

    /// The stateful half of a scalar load or store: counts its direction
    /// and walks the cache lines its bytes touch (wrapping past the top
    /// of the address space, as guest memory does). The instruction's
    /// retirement and issue slot are charged separately.
    pub fn scalar_access(&mut self, mem: MemAccess) {
        self.count_mem_dir(mem.is_store);
        self.access_lines(mem.addr, u64::from(mem.size), mem.is_store);
    }

    /// The stateful half of a conditional branch at `pc` that went to
    /// `next_pc`: the predictor's prediction and update, and the
    /// misprediction stall. Retirement and the issue slot are charged
    /// separately.
    pub fn branch_outcome(&mut self, pc: u32, taken: bool, next_pc: u32) {
        self.stats.branches += 1;
        if self.bpu.predict_and_update(pc, taken, next_pc) {
            self.stats.mispredicts += 1;
            self.stall_cycles += self.mispredict_penalty;
        }
    }

    /// The stateful half of a vector op: the issue slots beyond its base
    /// slot, which depend on the VPU's power state, and for a `vload` or
    /// `vstore` (`mem` is `Some`) its cache accesses — the access's lines
    /// on the VPU, or one 8-byte access per lane under scalar emulation
    /// (the same lines, so extra L1 traffic but similar MLC behaviour).
    ///
    /// Emulated lanes whose 8 bytes lie wholly in the L1D line the last
    /// access touched are L1D hits on that line; a run of them is charged
    /// in O(1) before the next lane that leaves the line, since the tick
    /// order is the LRU state.
    pub fn vector_op(&mut self, mem: Option<MemAccess>) {
        self.stats.vec_ops += 1;
        let slots = u64::from(self.vpu.issue_slots_for_vector_op());
        // The base issue slot is charged with the instruction.
        self.slots += slots.saturating_sub(1);
        let active = self.vpu.active();
        if active {
            self.stats.simd_committed += 1;
        } else {
            self.stats.vec_emulated += 1;
        }
        let Some(mem) = mem else { return };
        self.count_mem_dir(mem.is_store);
        if active {
            self.access_lines(mem.addr, u64::from(mem.size), mem.is_store);
        } else {
            let mut pending = 0;
            for lane in 0..VLEN as u64 {
                let addr = mem.addr.wrapping_add(8 * lane);
                if self.l1d.in_last_line(addr) && self.l1d.in_last_line(addr.wrapping_add(7)) {
                    pending += 1;
                    continue;
                }
                self.repeat_l1_hits(pending, mem.is_store);
                pending = 0;
                self.access_lines(addr, 8, mem.is_store);
            }
            self.repeat_l1_hits(pending, mem.is_store);
        }
    }

    /// Charges `n` L1D hits on the line the last L1D access touched.
    fn repeat_l1_hits(&mut self, n: u64, is_store: bool) {
        if n > 0 {
            self.l1d.repeat(n, is_store);
            self.stats.l1_hits += n;
        }
    }

    /// Feeds a batch of natively-executed translated instructions into the
    /// timing model in one call: their retirement and base issue slots
    /// (plus a multiply's second slot).
    ///
    /// [`CoreModel::on_step`] in [`ExecMode::Translated`] is `instructions
    /// += 1; slots += k` followed by the class's stateful method, and no
    /// stateful method reads `instructions` or `slots`. The BT layer's
    /// native code calls the stateful methods itself, in trace order, so
    /// summing `k` at compile time and applying the sums here is
    /// arithmetically identical to `n` individual `on_step` calls.
    pub fn on_translated_block(&mut self, instructions: u64, slots: u64) {
        self.stats.instructions += instructions;
        self.slots += slots;
    }

    fn count_mem_dir(&mut self, is_store: bool) {
        if is_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
    }

    /// Accesses every cache line touched by `[addr, addr + size)`, in
    /// address order, wrapping from the top of the address space to 0.
    fn access_lines(&mut self, addr: u64, size: u64, is_store: bool) {
        let shift = self.line_shift;
        let line_mask = u64::MAX >> shift;
        let mut line = addr >> shift;
        let last = addr.wrapping_add(size.max(1) - 1) >> shift;
        loop {
            self.access_hierarchy(line << shift, is_store);
            if line == last {
                return;
            }
            line = line.wrapping_add(1) & line_mask;
        }
    }

    /// Serializes all mutable core state: the BPU, every cache level, the
    /// VPU, the MLC way-gating state, the issue-slot/stall accumulators,
    /// and the event counters. Latencies and geometry are config-derived
    /// and are not written.
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        self.bpu.snapshot_to(w);
        self.l1d.snapshot_to(w);
        self.mlc.snapshot_to(w);
        self.llc.snapshot_to(w);
        self.vpu.snapshot_to(w);
        w.put_u8(self.mlc_state.policy_bits());
        w.put_u64(self.slots);
        w.put_u64(self.stall_cycles);
        self.stats.snapshot_to(w);
    }

    /// Restores state written by [`CoreModel::snapshot_to`] into a core
    /// freshly built from the same [`CoreConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated or inconsistent with this core's geometry.
    pub fn restore_from(
        &mut self,
        r: &mut powerchop_checkpoint::ByteReader<'_>,
    ) -> Result<(), powerchop_checkpoint::CheckpointError> {
        self.bpu.restore_from(r)?;
        self.l1d.restore_from(r)?;
        self.mlc.restore_from(r)?;
        self.llc.restore_from(r)?;
        self.vpu.restore_from(r)?;
        self.mlc_state = MlcWayState::from_policy_bits(r.take_u8()?);
        self.slots = r.take_u64()?;
        self.stall_cycles = r.take_u64()?;
        self.stats = CoreStats::restore_from(r)?;
        Ok(())
    }

    /// Per-instance metric names for the three cache levels.
    const L1D_METRICS: crate::cache::CacheMetricNames = crate::cache::CacheMetricNames {
        accesses: "uarch_l1d_accesses_total",
        hits: "uarch_l1d_hits_total",
        writebacks: "uarch_l1d_writebacks_total",
        active_ways: "uarch_l1d_active_ways",
    };
    const MLC_METRICS: crate::cache::CacheMetricNames = crate::cache::CacheMetricNames {
        accesses: "uarch_mlc_accesses_total",
        hits: "uarch_mlc_hits_total",
        writebacks: "uarch_mlc_writebacks_total",
        active_ways: "uarch_mlc_active_ways",
    };
    const LLC_METRICS: crate::cache::CacheMetricNames = crate::cache::CacheMetricNames {
        accesses: "uarch_llc_accesses_total",
        hits: "uarch_llc_hits_total",
        writebacks: "uarch_llc_writebacks_total",
        active_ways: "uarch_llc_active_ways",
    };

    /// One line's access through the hierarchy. An access to the line
    /// the last L1D access touched is an L1D hit charged without the set
    /// scan: only L1D accesses change the L1D (this model gates and
    /// drowses the MLC alone), so that line is still where it was.
    fn access_hierarchy(&mut self, addr: u64, is_store: bool) {
        if self.l1d.in_last_line(addr) {
            self.repeat_l1_hits(1, is_store);
            return;
        }
        if self.l1d.access(addr, is_store).hit {
            self.stats.l1_hits += 1;
            return;
        }
        self.stats.mlc_accesses += 1;
        let mlc_out = self.mlc.access(addr, is_store);
        if mlc_out.writeback {
            self.stats.mlc_writebacks += 1;
        }
        if mlc_out.woke_drowsy {
            // Drowsy lines must be restored to full voltage before the
            // read completes (Flautner et al.: ~1 cycle).
            self.stats.mlc_drowsy_wakes += 1;
            self.stall_cycles += 1;
        }
        if mlc_out.hit {
            self.stats.mlc_hits += 1;
            self.stall_cycles += self.mlc_hit_latency;
            return;
        }
        self.stats.llc_accesses += 1;
        if self.llc.access(addr, is_store).hit {
            self.stats.llc_hits += 1;
            self.stall_cycles += self.llc_hit_latency;
        } else {
            self.stats.mem_accesses += 1;
            self.stall_cycles += self.llc_hit_latency + self.mem_latency;
        }
    }
}

impl powerchop_telemetry::MetricSource for CoreModel {
    fn sample_metrics(&self, reg: &mut powerchop_telemetry::MetricsRegistry) {
        reg.counter_set("uarch_cycles_total", self.cycles());
        reg.counter_set("uarch_stall_cycles_total", self.stall_cycles);
        reg.counter_set("uarch_instructions_total", self.stats.instructions);
        reg.counter_set("uarch_vec_ops_total", self.stats.vec_ops);
        reg.counter_set("uarch_simd_committed_total", self.stats.simd_committed);
        reg.counter_set("uarch_vec_emulated_total", self.stats.vec_emulated);
        reg.counter_set("uarch_branches_total", self.stats.branches);
        reg.counter_set("uarch_mispredicts_total", self.stats.mispredicts);
        reg.counter_set("uarch_loads_total", self.stats.loads);
        reg.counter_set("uarch_stores_total", self.stats.stores);
        reg.counter_set("uarch_mem_accesses_total", self.stats.mem_accesses);
        reg.counter_set("uarch_mlc_drowsy_wakes_total", self.stats.mlc_drowsy_wakes);
        self.bpu.sample_metrics(reg);
        self.vpu.sample_metrics(reg);
        self.l1d.sample_metrics_as(&Self::L1D_METRICS, reg);
        self.mlc.sample_metrics_as(&Self::MLC_METRICS, reg);
        self.llc.sample_metrics_as(&Self::LLC_METRICS, reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_gisa::{BranchOutcome, Cond, Inst, Pc, Reg};

    fn cfg() -> CoreConfig {
        CoreConfig::server()
    }

    fn alu_step(pc: u32) -> StepInfo {
        let r = Reg::new(0).expect("register index in range");
        let inst = Inst::Add {
            rd: r,
            rs: r,
            rt: r,
        };
        StepInfo {
            pc: Pc(pc),
            inst,
            class: inst.class(),
            next_pc: Pc(pc + 1),
            mem: None,
            branch: None,
        }
    }

    fn load_step(pc: u32, addr: u64) -> StepInfo {
        let r = Reg::new(0).expect("register index in range");
        let inst = Inst::Load {
            rd: r,
            rs: r,
            imm: 0,
        };
        StepInfo {
            pc: Pc(pc),
            inst,
            class: inst.class(),
            next_pc: Pc(pc + 1),
            mem: Some(MemAccess {
                addr,
                size: 8,
                is_store: false,
            }),
            branch: None,
        }
    }

    fn branch_step(pc: u32, taken: bool, target: u32) -> StepInfo {
        let r = Reg::new(0).expect("register index in range");
        let inst = Inst::Branch {
            cond: Cond::Eq,
            rs: r,
            rt: r,
            target: Pc(target),
        };
        let next = if taken { Pc(target) } else { Pc(pc + 1) };
        StepInfo {
            pc: Pc(pc),
            inst,
            class: inst.class(),
            next_pc: next,
            mem: None,
            branch: Some(BranchOutcome {
                taken,
                next_pc: next,
            }),
        }
    }

    #[test]
    fn issue_width_limits_throughput() {
        let mut core = CoreModel::new(&cfg()); // width 4
        for i in 0..100 {
            core.on_step(&alu_step(i), ExecMode::Translated);
        }
        assert_eq!(core.cycles(), 25);
        assert_eq!(core.stats().instructions, 100);
    }

    #[test]
    fn interpretation_is_slower_than_translation() {
        let mut interp = CoreModel::new(&cfg());
        let mut trans = CoreModel::new(&cfg());
        for i in 0..100 {
            interp.on_step(&alu_step(i), ExecMode::Interpreted);
            trans.on_step(&alu_step(i), ExecMode::Translated);
        }
        assert!(interp.cycles() >= 4 * trans.cycles());
    }

    #[test]
    fn repeated_load_hits_l1_without_stall() {
        let mut core = CoreModel::new(&cfg());
        core.on_step(&load_step(0, 0x1000), ExecMode::Translated);
        let cold = core.cycles();
        for _ in 0..50 {
            core.on_step(&load_step(0, 0x1000), ExecMode::Translated);
        }
        // 51 loads in total: only the first missed.
        assert_eq!(core.stats().l1_hits, 50);
        assert!(core.cycles() - cold <= 51 / 4 + 1);
    }

    #[test]
    fn mispredicted_branch_stalls_pipeline() {
        let mut core = CoreModel::new(&cfg());
        // Cold branch: first encounter mispredicts (BTB empty, taken).
        core.on_step(&branch_step(0, true, 100), ExecMode::Translated);
        assert_eq!(core.stats().mispredicts, 1);
        assert!(core.cycles() >= u64::from(cfg().bpu.mispredict_penalty));
    }

    #[test]
    fn gated_vpu_costs_more_slots_and_counts_emulated() {
        let r = powerchop_gisa::VReg::new(0).expect("register index in range");
        let inst = Inst::Vadd {
            vd: r,
            vs: r,
            vt: r,
        };
        let step = StepInfo {
            pc: Pc(0),
            inst,
            class: inst.class(),
            next_pc: Pc(1),
            mem: None,
            branch: None,
        };
        let mut on = CoreModel::new(&cfg());
        let mut off = CoreModel::new(&cfg());
        off.set_vpu_active(false);
        for _ in 0..100 {
            on.on_step(&step, ExecMode::Translated);
            off.on_step(&step, ExecMode::Translated);
        }
        assert!(off.cycles() > 4 * on.cycles());
        assert_eq!(on.stats().simd_committed, 100);
        assert_eq!(on.stats().vec_emulated, 0);
        assert_eq!(off.stats().simd_committed, 0);
        assert_eq!(off.stats().vec_emulated, 100);
        assert_eq!(off.stats().vec_ops, 100);
    }

    #[test]
    fn mlc_way_gating_shrinks_capacity_and_flushes() {
        let mut core = CoreModel::new(&cfg());
        // Touch many distinct lines with stores so the MLC gets dirty data
        // (L1 write-allocates; lines spill into the MLC as L1 evicts them).
        for i in 0..20_000u64 {
            let r = Reg::new(0).expect("register index in range");
            let inst = Inst::Store {
                rs: r,
                rbase: r,
                imm: 0,
            };
            let step = StepInfo {
                pc: Pc(0),
                inst,
                class: inst.class(),
                next_pc: Pc(1),
                mem: Some(MemAccess {
                    addr: i * 64,
                    size: 8,
                    is_store: true,
                }),
                branch: None,
            };
            core.on_step(&step, ExecMode::Translated);
        }
        let flushed = core.set_mlc_way_state(MlcWayState::One);
        assert!(flushed > 0, "dirty lines should flush on way gating");
        assert_eq!(core.mlc_way_state(), MlcWayState::One);
    }

    #[test]
    fn smaller_mlc_hurts_mlc_bound_workload() {
        // Working set of 512 KiB: fits an 8-way 1 MiB MLC, thrashes 1 way.
        let lines: u64 = 8192;
        let run = |state: MlcWayState| {
            let mut core = CoreModel::new(&cfg());
            core.set_mlc_way_state(state);
            for pass in 0..4 {
                for i in 0..lines {
                    let _ = pass;
                    core.on_step(&load_step(0, i * 64), ExecMode::Translated);
                }
            }
            core.cycles()
        };
        let full = run(MlcWayState::Full);
        let one = run(MlcWayState::One);
        assert!(
            one > full,
            "1-way MLC ({one}) should be slower than full ({full})"
        );
    }

    /// Cache lines an independent byte-by-byte walk of the `size` bytes
    /// at `addr` crosses, wrapping past the top of the address space.
    fn lines_touched(addr: u64, size: u64, line_bytes: u64) -> u64 {
        (1..size)
            .filter(|&k| addr.wrapping_add(k) / line_bytes != addr.wrapping_add(k - 1) / line_bytes)
            .count() as u64
            + 1
    }

    #[test]
    fn accesses_wrap_past_the_top_of_the_address_space() {
        let vlen = VLEN as u64;
        for cfg in [CoreConfig::server(), CoreConfig::mobile()] {
            let line = u64::from(cfg.l1d.line_bytes);
            for vpu_active in [true, false] {
                for addr in [(-4i64) as u64, (-8i64) as u64] {
                    let mut core = CoreModel::new(&cfg);
                    core.set_vpu_active(vpu_active);
                    core.scalar_access(MemAccess {
                        addr,
                        size: 8,
                        is_store: false,
                    });
                    assert_eq!(core.l1d.stats().accesses, lines_touched(addr, 8, line));

                    for is_store in [false, true] {
                        let mut core = CoreModel::new(&cfg);
                        core.set_vpu_active(vpu_active);
                        core.vector_op(Some(MemAccess {
                            addr,
                            size: 8 * VLEN as u32,
                            is_store,
                        }));
                        let expected = if vpu_active {
                            lines_touched(addr, 8 * vlen, line)
                        } else {
                            (0..vlen)
                                .map(|lane| lines_touched(addr.wrapping_add(8 * lane), 8, line))
                                .sum()
                        };
                        assert_eq!(
                            core.l1d.stats().accesses,
                            expected,
                            "vector access at {addr:#x}, {line} B lines, VPU on: {vpu_active}"
                        );
                        assert_eq!(core.stats().stores, u64::from(is_store));
                        assert_eq!(core.stats().loads, u64::from(!is_store));
                    }
                }
            }
        }
    }

    #[test]
    fn add_stall_adds_exactly() {
        let mut core = CoreModel::new(&cfg());
        core.add_stall(123);
        assert_eq!(core.cycles(), 123);
    }
}
