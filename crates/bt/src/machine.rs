use powerchop_gisa::{Cpu, GisaError, Inst, Memory, Program};
use powerchop_uarch::core::{CoreModel, ExecMode};

use crate::jit::{JitEngine, JitMode, JitReport, JitStats};
use crate::region_cache::{RegionCache, TranslationId};
use crate::translator;

/// Tuning parameters of the BT layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtConfig {
    /// Dynamic executions of a region head before the translator runs.
    pub hot_threshold: u32,
    /// Maximum guest instructions per translation trace.
    pub max_trace_len: usize,
    /// Region-cache capacity in translations.
    pub region_cache_capacity: usize,
    /// One-time translation cost, in cycles per translated guest
    /// instruction (charged as a stall when the translator runs).
    pub translate_cycles_per_inst: u64,
}

impl Default for BtConfig {
    fn default() -> Self {
        BtConfig {
            hot_threshold: 16,
            max_trace_len: 64,
            region_cache_capacity: 4096,
            translate_cycles_per_inst: 1500,
        }
    }
}

/// Cumulative BT-layer statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BtStats {
    /// Instructions executed by the interpreter.
    pub interpreted_instructions: u64,
    /// Instructions executed from translations in the region cache.
    pub translated_instructions: u64,
    /// Translations built by the translator.
    pub translations_built: u64,
    /// Translation executions (region-cache dispatches that hit).
    pub translation_executions: u64,
    /// Translation executions that left the trace early because control
    /// flow diverged from the recorded path. Always 0: every trace ends at
    /// its first conditional branch, so control flow cannot leave it
    /// early. Kept because run reports, metrics and snapshots carry it.
    pub side_exits: u64,
    /// Context switches observed (profiling state flushed each time).
    pub context_switches: u64,
    /// Translations dropped by region-cache invalidation events.
    pub invalidated_translations: u64,
}

impl powerchop_telemetry::MetricSource for BtStats {
    fn sample_metrics(&self, reg: &mut powerchop_telemetry::MetricsRegistry) {
        reg.counter_set(
            "bt_interpreted_instructions_total",
            self.interpreted_instructions,
        );
        reg.counter_set(
            "bt_translated_instructions_total",
            self.translated_instructions,
        );
        reg.counter_set("bt_translations_built_total", self.translations_built);
        reg.counter_set(
            "bt_translation_executions_total",
            self.translation_executions,
        );
        reg.counter_set("bt_side_exits_total", self.side_exits);
        reg.counter_set("bt_context_switches_total", self.context_switches);
        reg.counter_set(
            "bt_invalidated_translations_total",
            self.invalidated_translations,
        );
    }
}

/// One scheduling unit of hybrid execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MachineEvent {
    /// A translation executed from the region cache.
    ///
    /// This is the event the HTB observes: the translation's ID and the
    /// number of dynamic guest instructions it executed.
    Translation {
        /// ID of the executed translation.
        id: TranslationId,
        /// Dynamic guest instructions executed before the trace ended.
        instructions: u64,
    },
    /// One instruction was interpreted (cold code).
    Interpreted,
    /// The translator built and installed a new translation; no guest
    /// instruction executed during this event.
    Installed {
        /// ID of the new translation.
        id: TranslationId,
        /// Static guest instructions in its trace.
        guest_len: usize,
    },
    /// The guest program has halted.
    Halted,
}

/// The hybrid machine: guest CPU + memory + BT layer, driving a core
/// timing model.
///
/// Call [`Machine::step`] in a loop; each call executes one unit (a whole
/// translation, one interpreted instruction, or one translator run) and
/// reports what happened, which is exactly the granularity PowerChop's
/// hardware structures observe.
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    cpu: Cpu,
    mem: Memory,
    region_cache: RegionCache,
    /// Interpreter hotness counters, directly indexed by PC (guest PCs
    /// are indices into the program, so a flat table replaces the hash
    /// map the interpreter used to hit on every block head). Zero means
    /// "not counted", matching the old map's absent entries.
    hotness: Vec<u32>,
    config: BtConfig,
    at_block_head: bool,
    stats: BtStats,
    /// The native trace JIT. Compiled code is derived state: cloning
    /// yields a cold engine, snapshots never carry code bytes, and
    /// restore/invalidate drop it for recompile-on-demand.
    jit: JitEngine,
    /// Scratch buffer for invalidation storms, so the fault path does
    /// not allocate per event.
    invalidate_scratch: Vec<TranslationId>,
}

impl<'p> Machine<'p> {
    /// Creates a machine at the program entry with an initialized memory
    /// image and an empty region cache. A zero `max_trace_len` is
    /// clamped to 1, as the region cache clamps a zero capacity: an
    /// empty translation retires nothing, so dispatching it would spin
    /// on its head forever.
    #[must_use]
    pub fn new(program: &'p Program, config: BtConfig) -> Self {
        let config = BtConfig {
            max_trace_len: config.max_trace_len.max(1),
            ..config
        };
        let mut mem = Memory::new();
        program.init_memory(&mut mem);
        Machine {
            program,
            cpu: Cpu::new(program),
            mem,
            region_cache: RegionCache::new(config.region_cache_capacity, program.len()),
            hotness: vec![0; program.len()],
            config,
            at_block_head: true,
            stats: BtStats::default(),
            jit: JitEngine::new(JitMode::Off),
            invalidate_scratch: Vec::new(),
        }
    }

    /// Replaces the JIT engine with a fresh one in `mode`. Resident
    /// translations compile on demand at their next dispatch.
    pub fn set_jit_mode(&mut self, mode: JitMode) {
        self.jit = JitEngine::new(mode);
    }

    /// The configured JIT mode.
    #[must_use]
    pub fn jit_mode(&self) -> JitMode {
        self.jit.mode()
    }

    /// Cumulative JIT counters.
    #[must_use]
    pub fn jit_stats(&self) -> JitStats {
        self.jit.stats()
    }

    /// The JIT report for run artifacts' sidecar (`None` when off).
    #[must_use]
    pub fn jit_report(&self) -> Option<JitReport> {
        self.jit.report()
    }

    /// Native code size compiled for translation `id`, if any.
    #[must_use]
    pub fn jit_code_len(&self, id: TranslationId) -> Option<usize> {
        self.jit.code_len(id)
    }

    /// The guest CPU state (for inspecting results).
    #[must_use]
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The guest memory (for inspecting results).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Whether the guest program has halted.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.cpu.halted()
    }

    /// Total guest instructions retired (interpreted + translated).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.cpu.retired()
    }

    /// Cumulative BT statistics.
    #[must_use]
    pub fn stats(&self) -> BtStats {
        self.stats
    }

    /// The region cache (for inspection).
    #[must_use]
    pub fn region_cache(&self) -> &RegionCache {
        &self.region_cache
    }

    /// Executes one unit of hybrid execution, feeding the timing model.
    ///
    /// # Errors
    ///
    /// Propagates guest execution faults ([`GisaError`]); these indicate a
    /// bug in the guest program, not in the BT layer.
    pub fn step(&mut self, core: &mut CoreModel) -> Result<MachineEvent, GisaError> {
        if self.cpu.halted() {
            return Ok(MachineEvent::Halted);
        }

        let pc = self.cpu.pc();
        // The region cache is indexed by head PC, so the translated/cold
        // decision is one indexed load. The trace and its decoded
        // instructions are borrowed in place — the CPU, memory and JIT
        // are disjoint fields — so a dispatch costs no refcount traffic.
        let head_id = TranslationId(pc.0);
        if let Some(translation) = self.region_cache.get(head_id) {
            // Guest faults propagate before stats are touched, on the
            // native and the interpreted path alike.
            let executed = match self
                .jit
                .execute(translation, &mut self.cpu, &mut self.mem, core)
            {
                Some(native) => native?,
                None => run_trace(translation.insts(), &mut self.cpu, &mut self.mem, core)?,
            };
            self.stats.translation_executions += 1;
            self.stats.translated_instructions += executed;
            // A translation exit is a dispatch point: the next PC is a
            // block head for hotness purposes.
            self.at_block_head = true;
            return Ok(MachineEvent::Translation {
                id: head_id,
                instructions: executed,
            });
        }

        // Slow path: interpret, counting hotness at block heads.
        if self.at_block_head {
            let count = self
                .hotness
                .get_mut(pc.0 as usize)
                .map(|counter| {
                    *counter += 1;
                    *counter
                })
                .unwrap_or(0);
            if count >= self.config.hot_threshold && count > 0 {
                self.hotness[pc.0 as usize] = 0;
                if let Some(t) = translator::translate(self.program, pc, self.config.max_trace_len)
                {
                    let id = t.id();
                    let guest_len = t.len();
                    core.add_stall(self.config.translate_cycles_per_inst * guest_len as u64);
                    self.install_translation(t);
                    self.stats.translations_built += 1;
                    return Ok(MachineEvent::Installed { id, guest_len });
                }
            }
        }

        let info = self.cpu.step(self.program, &mut self.mem)?;
        core.on_step(&info, ExecMode::Interpreted);
        self.stats.interpreted_instructions += 1;
        self.at_block_head = info.inst.ends_block();
        Ok(MachineEvent::Interpreted)
    }

    /// Installs a translation, dropping the native code of any
    /// translation its install evicts.
    fn install_translation(&mut self, t: translator::Translation) {
        self.jit.on_install(&t);
        if let Some(victim) = self.region_cache.install(t) {
            self.jit.remove(victim);
        }
    }

    /// Serializes the complete machine state: guest CPU and memory, the
    /// region cache's resident heads, interpreter hotness counters
    /// (encoded as nonzero entries in PC order), and BT statistics. The
    /// program itself is not serialized — only its fingerprint, which
    /// restore verifies. Translations are derived state and are rebuilt
    /// from their heads on restore.
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        w.put_u64(self.program.fingerprint());
        self.cpu.snapshot_to(w);
        self.mem.snapshot_to(w);
        self.region_cache.snapshot_to(w);
        // The flat table serializes as its nonzero entries in PC order.
        let hot: Vec<(u32, u32)> = self
            .hotness
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .map(|(pc, count)| (pc as u32, *count))
            .collect();
        w.put_usize(hot.len());
        for (pc, count) in hot {
            w.put_u32(pc);
            w.put_u32(count);
        }
        w.put_bool(self.at_block_head);
        for v in [
            self.stats.interpreted_instructions,
            self.stats.translated_instructions,
            self.stats.translations_built,
            self.stats.translation_executions,
            self.stats.side_exits,
            self.stats.context_switches,
            self.stats.invalidated_translations,
        ] {
            w.put_u64(v);
        }
    }

    /// Restores state written by [`Machine::snapshot_to`] into a machine
    /// freshly built over the *same program* with the same [`BtConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated, malformed, or was captured from a different
    /// program (fingerprint mismatch).
    pub fn restore_from(
        &mut self,
        r: &mut powerchop_checkpoint::ByteReader<'_>,
    ) -> Result<(), powerchop_checkpoint::CheckpointError> {
        let fingerprint = r.take_u64()?;
        if fingerprint != self.program.fingerprint() {
            return Err(powerchop_checkpoint::CheckpointError::Malformed {
                what: "snapshot was captured from a different guest program",
            });
        }
        self.cpu.restore_from(r)?;
        self.mem.restore_from(r)?;
        self.region_cache
            .restore_from(r, self.program, self.config.max_trace_len)?;
        // Native code is never snapshotted; drop any compiled traces and
        // let the restored translations recompile on demand.
        self.jit.clear();
        let hot_count = r.take_usize()?;
        self.hotness.fill(0);
        for _ in 0..hot_count {
            let pc = r.take_u32()?;
            let count = r.take_u32()?;
            if let Some(slot) = self.hotness.get_mut(pc as usize) {
                *slot = count;
            }
        }
        self.at_block_head = r.take_bool()?;
        self.stats.interpreted_instructions = r.take_u64()?;
        self.stats.translated_instructions = r.take_u64()?;
        self.stats.translations_built = r.take_u64()?;
        self.stats.translation_executions = r.take_u64()?;
        self.stats.side_exits = r.take_u64()?;
        self.stats.context_switches = r.take_u64()?;
        self.stats.invalidated_translations = r.take_u64()?;
        Ok(())
    }

    /// Fault hook: a context switch. The guest's architectural state is
    /// saved and restored by the OS, but the BT layer's warm profiling
    /// state — the interpreter's hotness counters — belongs to the time
    /// slice and is flushed, so hot regions must re-prove themselves.
    /// Installed translations survive (the region cache is per-process
    /// software state).
    pub fn on_context_switch(&mut self) {
        self.hotness.fill(0);
        self.at_block_head = true;
        self.stats.context_switches += 1;
    }

    /// Fault hook: a region-cache invalidation storm dropping roughly
    /// `fraction` of resident translations (selected deterministically
    /// from `selector`). Returns how many were dropped; execution falls
    /// back to interpretation until the regions re-heat.
    pub fn invalidate_regions(&mut self, fraction: f64, selector: u64) -> usize {
        // Reuse a scratch buffer: invalidation storms fire repeatedly on
        // the fault path and must not allocate per event.
        let mut dropped = std::mem::take(&mut self.invalidate_scratch);
        self.region_cache
            .invalidate_fraction_into(fraction, selector, &mut dropped);
        for id in &dropped {
            self.jit.remove(*id);
        }
        self.stats.invalidated_translations += dropped.len() as u64;
        let count = dropped.len();
        self.invalidate_scratch = dropped;
        count
    }

    /// Runs until the guest halts or `max_instructions` have retired,
    /// discarding events. Convenience for tests and examples that only
    /// care about final state; PowerChop itself consumes events via
    /// [`Machine::step`].
    ///
    /// # Errors
    ///
    /// Propagates guest execution faults.
    pub fn run(&mut self, core: &mut CoreModel, max_instructions: u64) -> Result<(), GisaError> {
        while !self.cpu.halted() && self.cpu.retired() < max_instructions {
            self.step(core)?;
        }
        Ok(())
    }
}

/// Runs a translation's decoded instructions through the interpreter
/// step and returns how many executed. Control flow cannot leave a trace
/// early: only its last instruction may branch, jump away or halt.
fn run_trace(
    insts: &[Inst],
    cpu: &mut Cpu,
    mem: &mut Memory,
    core: &mut CoreModel,
) -> Result<u64, GisaError> {
    for inst in insts {
        let info = cpu.step_prefetched(*inst, mem)?;
        core.on_step(&info, ExecMode::Translated);
    }
    Ok(insts.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_gisa::{ProgramBuilder, Reg};
    use powerchop_uarch::config::CoreConfig;

    fn r(i: u8) -> Reg {
        Reg::new(i).expect("register index in range")
    }

    /// A program that loops `n` times over a small body.
    fn loop_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new("loop");
        b.li(r(0), 0).li(r(1), n);
        let top = b.bind_label();
        b.addi(r(0), r(0), 1);
        b.addi(r(2), r(2), 3);
        b.blt(r(0), r(1), top);
        b.halt();
        b.build().expect("test program is well-formed")
    }

    fn new_core() -> CoreModel {
        CoreModel::new(&CoreConfig::server())
    }

    #[test]
    fn hot_loop_gets_translated_and_dominates() {
        let p = loop_program(10_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        m.run(&mut core, u64::MAX).unwrap();
        assert!(m.halted());
        let s = m.stats();
        assert!(s.translations_built >= 1);
        assert!(
            s.translated_instructions > 50 * s.interpreted_instructions,
            "translated {} vs interpreted {}",
            s.translated_instructions,
            s.interpreted_instructions
        );
        // Architectural result identical to pure interpretation.
        assert_eq!(m.cpu().int_reg(r(0)), 10_000);
        assert_eq!(m.cpu().int_reg(r(2)), 30_000);
    }

    #[test]
    fn a_zero_trace_limit_is_clamped_and_the_program_still_halts() {
        let p = loop_program(1_000);
        let mut core = new_core();
        let cfg = BtConfig {
            max_trace_len: 0,
            ..BtConfig::default()
        };
        let mut m = Machine::new(&p, cfg);
        for _ in 0..1_000_000 {
            if m.halted() {
                break;
            }
            m.step(&mut core).unwrap();
        }
        assert!(m.halted(), "empty translations spun without retiring");
        assert_eq!(m.cpu().int_reg(r(0)), 1_000);
        assert_eq!(m.cpu().int_reg(r(2)), 3_000);
    }

    #[test]
    fn architectural_state_matches_pure_interpretation() {
        let p = loop_program(500);
        // Hybrid run.
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        m.run(&mut core, u64::MAX).unwrap();
        // Pure interpreter run (threshold too high to ever translate).
        let mut core2 = new_core();
        let mut m2 = Machine::new(
            &p,
            BtConfig {
                hot_threshold: u32::MAX,
                ..BtConfig::default()
            },
        );
        m2.run(&mut core2, u64::MAX).unwrap();
        assert_eq!(m.cpu(), m2.cpu());
        assert_eq!(m2.stats().translations_built, 0);
    }

    #[test]
    fn translation_events_report_dynamic_instructions() {
        let p = loop_program(10_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        let mut translated_insts = 0;
        let mut events = 0;
        loop {
            match m.step(&mut core).expect("test program executes cleanly") {
                MachineEvent::Halted => break,
                MachineEvent::Translation { instructions, .. } => {
                    translated_insts += instructions;
                    events += 1;
                }
                _ => {}
            }
        }
        assert_eq!(translated_insts, m.stats().translated_instructions);
        assert_eq!(events, m.stats().translation_executions);
        assert!(events > 1000);
    }

    #[test]
    fn translation_charges_one_time_cost() {
        let p = loop_program(1000);
        let cfg = BtConfig {
            translate_cycles_per_inst: 10_000,
            ..BtConfig::default()
        };
        let mut expensive = new_core();
        Machine::new(&p, cfg).run(&mut expensive, u64::MAX).unwrap();
        let mut cheap = new_core();
        Machine::new(
            &p,
            BtConfig {
                translate_cycles_per_inst: 0,
                ..BtConfig::default()
            },
        )
        .run(&mut cheap, u64::MAX)
        .unwrap();
        assert!(expensive.cycles() > cheap.cycles() + 9_000);
    }

    #[test]
    fn interpreting_forever_is_slower_than_translating() {
        let p = loop_program(20_000);
        let mut hybrid_core = new_core();
        Machine::new(&p, BtConfig::default())
            .run(&mut hybrid_core, u64::MAX)
            .unwrap();
        let mut interp_core = new_core();
        Machine::new(
            &p,
            BtConfig {
                hot_threshold: u32::MAX,
                ..BtConfig::default()
            },
        )
        .run(&mut interp_core, u64::MAX)
        .unwrap();
        assert!(interp_core.cycles() > 2 * hybrid_core.cycles());
    }

    #[test]
    fn run_respects_instruction_budget() {
        let p = loop_program(1_000_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        m.run(&mut core, 5_000).unwrap();
        assert!(!m.halted());
        // Budget is checked between units, so overshoot is at most one
        // translation length.
        assert!(m.retired() >= 5_000);
        assert!(m.retired() < 5_000 + 100);
    }

    #[test]
    fn context_switch_flushes_profiling_but_preserves_semantics() {
        let p = loop_program(10_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        let mut steps = 0u64;
        while !m.halted() {
            m.step(&mut core).expect("test program executes cleanly");
            steps += 1;
            if steps.is_multiple_of(500) {
                m.on_context_switch();
            }
        }
        assert_eq!(m.stats().context_switches, steps / 500);
        // Architectural result identical to an undisturbed run.
        assert_eq!(m.cpu().int_reg(r(0)), 10_000);
        assert_eq!(m.cpu().int_reg(r(2)), 30_000);
    }

    #[test]
    fn region_invalidation_forces_retranslation_without_changing_results() {
        let p = loop_program(20_000);
        let mut core = new_core();
        let mut m = Machine::new(&p, BtConfig::default());
        let mut invalidated = 0usize;
        let mut steps = 0u64;
        while !m.halted() {
            m.step(&mut core).expect("test program executes cleanly");
            steps += 1;
            if steps.is_multiple_of(2_000) {
                invalidated += m.invalidate_regions(1.0, steps);
            }
        }
        assert!(
            invalidated > 0,
            "the hot loop should have been dropped at least once"
        );
        assert_eq!(m.stats().invalidated_translations, invalidated as u64);
        assert!(
            m.stats().translations_built > 1,
            "dropped regions must re-heat and retranslate"
        );
        assert_eq!(m.cpu().int_reg(r(0)), 20_000);
    }

    #[test]
    fn restore_rejects_a_head_past_the_end_of_the_program() {
        let p = loop_program(10);
        let mut w = powerchop_checkpoint::ByteWriter::new();
        w.put_u64(p.fingerprint());
        Cpu::new(&p).snapshot_to(&mut w);
        Memory::new().snapshot_to(&mut w);
        // A region cache naming one head, past the end.
        w.put_usize(1);
        w.put_u32(p.len() as u32);
        let bytes = w.into_bytes();
        let mut m = Machine::new(&p, BtConfig::default());
        assert!(matches!(
            m.restore_from(&mut powerchop_checkpoint::ByteReader::new(&bytes)),
            Err(powerchop_checkpoint::CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn snapshots_store_heads_and_restore_rebuilds_identical_translations() {
        // Two loops, the first with a forward branch, so a short trace
        // limit leaves several hot regions resident.
        let mut b = ProgramBuilder::new("regions");
        b.li(r(0), 0).li(r(1), 2_000).li(r(2), 3);
        let first = b.bind_label();
        let skip = b.label();
        b.rem(r(4), r(0), r(2));
        b.beq(r(4), r(3), skip);
        b.addi(r(5), r(5), 1);
        b.bind(skip).unwrap();
        b.addi(r(0), r(0), 1);
        b.blt(r(0), r(1), first);
        b.li(r(0), 0);
        let second = b.bind_label();
        b.addi(r(6), r(6), 2);
        b.addi(r(0), r(0), 1);
        b.blt(r(0), r(1), second);
        b.halt();
        let p = b.build().expect("test program is well-formed");
        let cfg = BtConfig {
            max_trace_len: 2,
            ..BtConfig::default()
        };

        let mut core = new_core();
        let mut m = Machine::new(&p, cfg);
        m.run(&mut core, 12_000).unwrap();
        assert!(!m.halted(), "the snapshot is taken partway");
        assert!(m.region_cache().len() >= 4, "several hot regions");
        let mut w = powerchop_checkpoint::ByteWriter::new();
        m.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Machine::new(&p, cfg);
        restored
            .restore_from(&mut powerchop_checkpoint::ByteReader::new(&bytes))
            .unwrap();

        let heads = |m: &Machine<'_>| m.region_cache().iter().map(|t| t.id()).collect::<Vec<_>>();
        assert_eq!(heads(&restored), heads(&m), "install order survives");
        for t in restored.region_cache().iter() {
            let rebuilt = translator::translate(&p, t.head(), cfg.max_trace_len).unwrap();
            assert_eq!(t, &rebuilt);
            assert_eq!(t.insts(), rebuilt.insts(), "decoded instructions too");
        }
        // Both runs finish in the same architectural state.
        let mut restored_core = core.clone();
        m.run(&mut core, u64::MAX).unwrap();
        restored.run(&mut restored_core, u64::MAX).unwrap();
        assert_eq!(restored.cpu(), m.cpu());
        assert_eq!(restored.stats(), m.stats());
    }
}
