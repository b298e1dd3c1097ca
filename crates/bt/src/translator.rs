//! The translator/optimizer: builds translations from hot guest code.
//!
//! A *translation* is a short trace of guest code beginning at a hot head
//! PC (paper §II-A). The trace extends through straight-line code and
//! follows unconditional jumps, and terminates at a conditional branch,
//! indirect jump, call, return, halt, or the trace-length limit. The
//! translator also notes whether the region contains vector operations; for
//! such regions it emits *dual code paths* — a native SIMD body and a
//! scalar-emulation body — so the VPU can be power gated without consulting
//! the translator again (paper §IV-C2: "emulated using scalar operations
//! emitted along alternate code paths in the region cache's translations").

use powerchop_gisa::{Inst, Pc, Program};

use crate::region_cache::TranslationId;

/// An optimized host-ISA trace of a guest code region.
///
/// The machine dispatches a translation by borrowing its trace and
/// decoded instructions in place in the region cache. Both live behind
/// `Arc` so the JIT's compiled code can share them: the helper that
/// native code calls reads them after the region cache has moved on.
#[derive(Debug, Clone)]
pub struct Translation {
    id: TranslationId,
    head: Pc,
    trace: std::sync::Arc<[Pc]>,
    /// Decoded instructions for each trace PC, so hot blocks skip the
    /// per-step fetch. Derived from `trace` + the program.
    insts: std::sync::Arc<[Inst]>,
    has_vector: bool,
}

/// `insts` is derived from `trace` and the program, so equality (used by
/// tests comparing rebuilt translations) ignores it.
impl PartialEq for Translation {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.head == other.head
            && self.trace == other.trace
            && self.has_vector == other.has_vector
    }
}

impl Translation {
    /// The translation's unique ID (low 32 bits of the head PC, §IV-B2).
    #[must_use]
    pub fn id(&self) -> TranslationId {
        self.id
    }

    /// The guest PC of the translation head.
    #[must_use]
    pub fn head(&self) -> Pc {
        self.head
    }

    /// The guest PCs covered by the trace, in execution order.
    #[must_use]
    pub fn trace(&self) -> &[Pc] {
        &self.trace
    }

    /// The decoded instruction of each trace PC.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The shared trace and decoded instructions, for the JIT to keep
    /// alongside the code it compiles from them.
    pub(crate) fn shared(&self) -> (&std::sync::Arc<[Pc]>, &std::sync::Arc<[Inst]>) {
        (&self.trace, &self.insts)
    }

    /// Number of guest instructions in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace is empty (never true for built translations).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Whether the region contains vector operations, i.e. whether the
    /// translator emitted dual (SIMD + scalar-emulation) code paths.
    #[must_use]
    pub fn has_vector(&self) -> bool {
        self.has_vector
    }
}

/// Builds a translation starting at `head`.
///
/// The result depends only on `program`, `head` and `max_len`, so a
/// snapshot stores resident heads and restore rebuilds each translation
/// here. A conditional branch always ends the trace, so control flow
/// never leaves a trace before its last instruction.
///
/// Returns `None` if `head` is outside the program (a wild indirect jump
/// target never reaches the translator in practice, but the region cache
/// must not be polluted if it does).
#[must_use]
pub fn translate(program: &Program, head: Pc, max_len: usize) -> Option<Translation> {
    program.inst(head)?;
    let mut trace = Vec::new();
    let mut insts = Vec::new();
    let mut has_vector = false;
    let mut pc = head;
    while trace.len() < max_len {
        let Some(inst) = program.inst(pc) else { break };
        trace.push(pc);
        insts.push(*inst);
        has_vector |= inst.class().uses_vpu();
        match inst {
            // Follow unconditional direct jumps through, fusing blocks.
            Inst::Jmp { target } => {
                // A self-loop or backward jump ends the trace to keep
                // translations finite and loop bodies as single traces.
                if target.0 <= pc.0 {
                    break;
                }
                pc = *target;
            }
            i if i.ends_block() => break,
            _ => pc = pc.next(),
        }
    }
    Some(Translation {
        id: TranslationId(head.0),
        head,
        trace: std::sync::Arc::from(trace),
        insts: std::sync::Arc::from(insts),
        has_vector,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_gisa::{ProgramBuilder, Reg, VReg};

    fn r(i: u8) -> Reg {
        Reg::new(i).expect("register index in range")
    }

    #[test]
    fn trace_stops_at_conditional_branch() {
        let mut b = ProgramBuilder::new("t");
        b.li(r(0), 1);
        b.addi(r(0), r(0), 1);
        let top = b.bind_label();
        b.nop();
        b.blt(r(0), r(1), top);
        b.halt();
        let p = b.build().expect("test program is well-formed");
        let t = translate(&p, Pc(0), 64).unwrap();
        // li, addi, nop, blt — branch included, halt not.
        assert_eq!(t.len(), 4);
        assert_eq!(t.trace().last(), Some(&Pc(3)));
    }

    #[test]
    fn forward_jumps_are_fused() {
        let mut b = ProgramBuilder::new("fuse");
        let over = b.label();
        b.li(r(0), 1);
        b.jmp(over);
        b.nop(); // dead code, not in trace
        b.bind(over).unwrap();
        b.li(r(1), 2);
        b.halt();
        let p = b.build().expect("test program is well-formed");
        let t = translate(&p, Pc(0), 64).unwrap();
        assert_eq!(t.trace(), &[Pc(0), Pc(1), Pc(3), Pc(4)]);
    }

    #[test]
    fn backward_jump_ends_trace() {
        let mut b = ProgramBuilder::new("back");
        let top = b.bind_label();
        b.nop();
        b.jmp(top);
        let p = b.build().expect("test program is well-formed");
        let t = translate(&p, Pc(0), 64).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn vector_regions_are_flagged_for_dual_paths() {
        let v = VReg::new(0).expect("register index in range");
        let mut b = ProgramBuilder::new("vec");
        b.vadd(v, v, v);
        b.halt();
        let p = b.build().expect("test program is well-formed");
        assert!(translate(&p, Pc(0), 64).unwrap().has_vector());

        let mut b = ProgramBuilder::new("scalar");
        b.nop();
        b.halt();
        let p = b.build().expect("test program is well-formed");
        assert!(!translate(&p, Pc(0), 64).unwrap().has_vector());
    }

    #[test]
    fn max_len_bounds_trace() {
        let mut b = ProgramBuilder::new("long");
        for _ in 0..100 {
            b.nop();
        }
        b.halt();
        let p = b.build().expect("test program is well-formed");
        assert_eq!(translate(&p, Pc(0), 16).unwrap().len(), 16);
    }

    #[test]
    fn out_of_range_head_is_rejected() {
        let mut b = ProgramBuilder::new("small");
        b.halt();
        let p = b.build().expect("test program is well-formed");
        assert!(translate(&p, Pc(5), 16).is_none());
    }

    #[test]
    fn id_is_low_bits_of_head_pc() {
        let mut b = ProgramBuilder::new("id");
        b.nop();
        b.halt();
        let p = b.build().expect("test program is well-formed");
        let t = translate(&p, Pc(1), 16).unwrap();
        assert_eq!(t.id(), TranslationId(1));
    }
}
