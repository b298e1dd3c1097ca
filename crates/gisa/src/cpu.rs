use crate::inst::{Inst, InstClass, VLEN};
use crate::mem::Memory;
use crate::program::{Pc, Program};
use crate::reg::{FReg, Reg, VReg};
use crate::GisaError;

/// A data-memory access performed by one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address of the first byte accessed.
    pub addr: u64,
    /// Access size in bytes (8 for scalar, `8 * VLEN` for vector).
    pub size: u32,
    /// Whether the access writes memory.
    pub is_store: bool,
}

impl MemAccess {
    /// The data-memory access of vector instruction `inst` run with
    /// integer operand `operand` (see [`Cpu::vector_op`]): the
    /// `8 * VLEN` bytes at a `vload`'s or `vstore`'s base address, and
    /// `None` for every other instruction.
    #[inline]
    #[must_use]
    pub fn of_vector(inst: Inst, operand: i64) -> Option<MemAccess> {
        let is_store = match inst {
            Inst::Vload { .. } => false,
            Inst::Vstore { .. } => true,
            _ => return None,
        };
        Some(MemAccess {
            addr: operand as u64,
            size: 8 * VLEN as u32,
            is_store,
        })
    }
}

/// The resolved outcome of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the branch was taken.
    pub taken: bool,
    /// The PC control flow actually continued at.
    pub next_pc: Pc,
}

/// Everything the timing model needs to know about one executed instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInfo {
    /// PC of the executed instruction.
    pub pc: Pc,
    /// The executed instruction.
    pub inst: Inst,
    /// Coarse class (cached from [`Inst::class`]).
    pub class: InstClass,
    /// PC of the next instruction to execute.
    pub next_pc: Pc,
    /// Data-memory access, if any.
    pub mem: Option<MemAccess>,
    /// Conditional-branch outcome, if the instruction was a branch.
    pub branch: Option<BranchOutcome>,
}

/// Architectural CPU state: register files, PC and call stack.
///
/// [`Cpu::step`] implements the full guest-ISA semantics; both the BT
/// interpreter and translated-code execution in `powerchop-bt` are built on
/// it, so interpreted and translated runs are architecturally identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Cpu {
    int: [i64; 32],
    fp: [f64; 16],
    vec: [[i64; VLEN]; 16],
    pc: Pc,
    call_stack: Vec<Pc>,
    halted: bool,
    retired: u64,
}

impl Cpu {
    /// Creates a CPU with zeroed registers, positioned at the program entry.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        Cpu {
            int: [0; 32],
            fp: [0.0; 16],
            vec: [[0; VLEN]; 16],
            pc: program.entry(),
            call_stack: Vec::new(),
            halted: false,
            retired: 0,
        }
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Whether a `halt` has been executed.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads an integer register.
    #[must_use]
    pub fn int_reg(&self, r: Reg) -> i64 {
        self.int[r.index()]
    }

    /// Writes an integer register.
    pub fn set_int_reg(&mut self, r: Reg, value: i64) {
        self.int[r.index()] = value;
    }

    /// Reads a floating-point register.
    #[must_use]
    pub fn fp_reg(&self, f: FReg) -> f64 {
        self.fp[f.index()]
    }

    /// Reads a vector register.
    #[must_use]
    pub fn vec_reg(&self, v: VReg) -> [i64; VLEN] {
        self.vec[v.index()]
    }

    /// Serializes the complete architectural state (registers, PC, call
    /// stack, halt flag, retired count) for a run checkpoint.
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        for v in self.int {
            w.put_i64(v);
        }
        for v in self.fp {
            w.put_f64(v);
        }
        for lanes in self.vec {
            for v in lanes {
                w.put_i64(v);
            }
        }
        w.put_u32(self.pc.0);
        w.put_usize(self.call_stack.len());
        for pc in &self.call_stack {
            w.put_u32(pc.0);
        }
        w.put_bool(self.halted);
        w.put_u64(self.retired);
    }

    /// Restores the architectural state written by [`Cpu::snapshot_to`],
    /// replacing this CPU's state in place.
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated or malformed.
    pub fn restore_from(
        &mut self,
        r: &mut powerchop_checkpoint::ByteReader<'_>,
    ) -> Result<(), powerchop_checkpoint::CheckpointError> {
        for v in &mut self.int {
            *v = r.take_i64()?;
        }
        for v in &mut self.fp {
            *v = r.take_f64()?;
        }
        for lanes in &mut self.vec {
            for v in lanes {
                *v = r.take_i64()?;
            }
        }
        self.pc = Pc(r.take_u32()?);
        let depth = r.take_usize()?;
        self.call_stack.clear();
        for _ in 0..depth {
            self.call_stack.push(Pc(r.take_u32()?));
        }
        self.halted = r.take_bool()?;
        self.retired = r.take_u64()?;
        Ok(())
    }

    /// BT-backend hook: the base pointer of the integer register file and
    /// the byte offset from it to the floating-point register file. The
    /// offset is a property of this struct's layout, so native code
    /// compiled against one `Cpu` instance addresses any instance's
    /// registers given that instance's integer base pointer.
    ///
    /// The pointers are only valid while this `Cpu` is not moved; the BT
    /// layer re-derives them on every translated-trace execution.
    /// BT-backend hook: the byte offset from the integer register file to
    /// the floating-point register file, as a pure layout constant usable
    /// without a `Cpu` instance (the JIT compiler bakes it into generated
    /// code before any guest state exists).
    #[doc(hidden)]
    #[must_use]
    pub fn jit_fp_delta() -> isize {
        (std::mem::offset_of!(Cpu, fp) as isize) - (std::mem::offset_of!(Cpu, int) as isize)
    }

    #[doc(hidden)]
    #[must_use]
    pub fn jit_reg_layout(&mut self) -> (*mut i64, isize) {
        let int_base = self.int.as_mut_ptr();
        let fp_base = self.fp.as_mut_ptr();
        (int_base, (fp_base as isize) - (int_base as isize))
    }

    /// BT-backend hook: sets the program counter. Native trace code sets
    /// only a successor that is statically known or that it resolved
    /// exactly as [`Cpu::step`] would (a trace-final branch), so the
    /// value written is always the PC the interpreter would have reached.
    #[doc(hidden)]
    pub fn jit_set_pc(&mut self, pc: Pc) {
        self.pc = pc;
    }

    /// BT-backend hook: credits `n` retired instructions in one batch.
    /// Used for natively-executed instructions, whose per-instruction
    /// retirement the interpreter would have counted one at a time;
    /// nothing observes the counter mid-trace, so the batched sum is
    /// indistinguishable.
    #[doc(hidden)]
    pub fn jit_add_retired(&mut self, n: u64) {
        self.retired += n;
    }

    /// Executes the instruction at the current PC and advances.
    ///
    /// Executing while halted is a no-op that returns the `halt` step again.
    ///
    /// # Errors
    ///
    /// Returns [`GisaError::PcOutOfRange`] if the PC has left the program
    /// (e.g. by falling off the end, or via a wild `jr`), and
    /// [`GisaError::ReturnWithoutCall`] for an unbalanced `ret`.
    pub fn step(&mut self, program: &Program, mem: &mut Memory) -> Result<StepInfo, GisaError> {
        let pc = self.pc;
        if self.halted {
            return Ok(Self::halted_step(pc));
        }
        let inst = *program.inst(pc).ok_or(GisaError::PcOutOfRange {
            pc: u64::from(pc.0),
            len: program.len(),
        })?;
        self.exec(inst, pc, mem)
    }

    /// Executes a pre-decoded instruction without re-fetching it from the
    /// program. The caller guarantees `inst` is the instruction at the
    /// current PC (the BT layer's translations cache decoded instructions
    /// keyed by PC and verify the PC before each step); behaviour is then
    /// identical to [`Cpu::step`].
    ///
    /// # Errors
    ///
    /// Returns [`GisaError::ReturnWithoutCall`] for an unbalanced `ret`.
    #[inline]
    pub fn step_prefetched(&mut self, inst: Inst, mem: &mut Memory) -> Result<StepInfo, GisaError> {
        let pc = self.pc;
        if self.halted {
            return Ok(Self::halted_step(pc));
        }
        self.exec(inst, pc, mem)
    }

    fn halted_step(pc: Pc) -> StepInfo {
        StepInfo {
            pc,
            inst: Inst::Halt,
            class: InstClass::Other,
            next_pc: pc,
            mem: None,
            branch: None,
        }
    }

    /// Executes one of the seven vector instructions on the vector
    /// register file and `mem`, given its integer operand explicitly:
    /// the `vsplat` source value, or the `vload`/`vstore` base address
    /// (`rs + imm`, wrapping). The other four ignore `operand`.
    ///
    /// Returns `vredsum`'s sum (0 for the others), which the caller
    /// writes to `rd`. The caller builds a `vload`'s or `vstore`'s
    /// data-memory access itself with [`MemAccess::of_vector`]: the sum
    /// alone comes back in a register, while a returned pair would come
    /// back through memory, and a wide copy of its access stalls on the
    /// narrower stores that wrote it. Touches no integer register, the
    /// PC or the retired count; a non-vector `inst` does nothing. [`Cpu::step`] runs every vector instruction
    /// through this method, and so does the BT layer's native code,
    /// which keeps integer registers in host registers.
    pub fn vector_op(&mut self, inst: Inst, operand: i64, mem: &mut Memory) -> i64 {
        match inst {
            Inst::Vadd { vd, vs, vt } => {
                let (a, b) = (self.vec[vs.index()], self.vec[vt.index()]);
                for (lane, d) in self.vec[vd.index()].iter_mut().enumerate() {
                    *d = a[lane].wrapping_add(b[lane]);
                }
            }
            Inst::Vmul { vd, vs, vt } => {
                let (a, b) = (self.vec[vs.index()], self.vec[vt.index()]);
                for (lane, d) in self.vec[vd.index()].iter_mut().enumerate() {
                    *d = a[lane].wrapping_mul(b[lane]);
                }
            }
            Inst::Vmadd { vd, vs, vt, va } => {
                let (a, b, c) = (
                    self.vec[vs.index()],
                    self.vec[vt.index()],
                    self.vec[va.index()],
                );
                for (lane, d) in self.vec[vd.index()].iter_mut().enumerate() {
                    *d = a[lane].wrapping_mul(b[lane]).wrapping_add(c[lane]);
                }
            }
            Inst::Vsplat { vd, .. } => self.vec[vd.index()] = [operand; VLEN],
            Inst::Vredsum { vs, .. } => {
                let sum = self.vec[vs.index()]
                    .iter()
                    .fold(0i64, |acc, lane| acc.wrapping_add(*lane));
                return sum;
            }
            Inst::Vload { vd, .. } => mem.read_vector(operand as u64, &mut self.vec[vd.index()]),
            Inst::Vstore { vs, .. } => mem.write_vector(operand as u64, &self.vec[vs.index()]),
            _ => {}
        }
        0
    }

    #[inline]
    fn exec(&mut self, inst: Inst, pc: Pc, mem: &mut Memory) -> Result<StepInfo, GisaError> {
        let class = inst.class();
        let mut next_pc = pc.next();
        let mut mem_access = None;
        let mut branch = None;

        match inst {
            Inst::Li { rd, imm } => self.int[rd.index()] = imm,
            Inst::Addi { rd, rs, imm } => {
                self.int[rd.index()] = self.int[rs.index()].wrapping_add(imm);
            }
            Inst::Add { rd, rs, rt } => {
                self.int[rd.index()] = self.int[rs.index()].wrapping_add(self.int[rt.index()]);
            }
            Inst::Sub { rd, rs, rt } => {
                self.int[rd.index()] = self.int[rs.index()].wrapping_sub(self.int[rt.index()]);
            }
            Inst::Mul { rd, rs, rt } => {
                self.int[rd.index()] = self.int[rs.index()].wrapping_mul(self.int[rt.index()]);
            }
            Inst::And { rd, rs, rt } => {
                self.int[rd.index()] = self.int[rs.index()] & self.int[rt.index()];
            }
            Inst::Or { rd, rs, rt } => {
                self.int[rd.index()] = self.int[rs.index()] | self.int[rt.index()];
            }
            Inst::Xor { rd, rs, rt } => {
                self.int[rd.index()] = self.int[rs.index()] ^ self.int[rt.index()];
            }
            Inst::Shl { rd, rs, rt } => {
                self.int[rd.index()] =
                    self.int[rs.index()].wrapping_shl(self.int[rt.index()] as u32 & 63);
            }
            Inst::Shr { rd, rs, rt } => {
                self.int[rd.index()] =
                    self.int[rs.index()].wrapping_shr(self.int[rt.index()] as u32 & 63);
            }
            Inst::Slt { rd, rs, rt } => {
                self.int[rd.index()] = i64::from(self.int[rs.index()] < self.int[rt.index()]);
            }
            Inst::Rem { rd, rs, rt } => {
                let divisor = self.int[rt.index()];
                self.int[rd.index()] = if divisor == 0 {
                    0
                } else {
                    self.int[rs.index()].wrapping_rem(divisor)
                };
            }
            Inst::Fli { fd, imm } => self.fp[fd.index()] = imm,
            Inst::Fadd { fd, fs, ft } => {
                self.fp[fd.index()] = self.fp[fs.index()] + self.fp[ft.index()];
            }
            Inst::Fmul { fd, fs, ft } => {
                self.fp[fd.index()] = self.fp[fs.index()] * self.fp[ft.index()];
            }
            Inst::Fmadd { fd, fs, ft, fa } => {
                self.fp[fd.index()] =
                    self.fp[fs.index()].mul_add(self.fp[ft.index()], self.fp[fa.index()]);
            }
            Inst::Fcvt { fd, rs } => self.fp[fd.index()] = self.int[rs.index()] as f64,
            Inst::Vadd { .. }
            | Inst::Vmul { .. }
            | Inst::Vmadd { .. }
            | Inst::Vsplat { .. }
            | Inst::Vredsum { .. }
            | Inst::Vload { .. }
            | Inst::Vstore { .. } => {
                let operand = match inst {
                    Inst::Vsplat { rs, .. } => self.int[rs.index()],
                    Inst::Vload { rs, imm, .. } | Inst::Vstore { rs, imm, .. } => {
                        self.int[rs.index()].wrapping_add(imm)
                    }
                    _ => 0,
                };
                let sum = self.vector_op(inst, operand, mem);
                if let Inst::Vredsum { rd, .. } = inst {
                    self.int[rd.index()] = sum;
                }
                mem_access = MemAccess::of_vector(inst, operand);
            }
            Inst::Load { rd, rs, imm } => {
                let addr = (self.int[rs.index()].wrapping_add(imm)) as u64;
                self.int[rd.index()] = mem.read_i64(addr);
                mem_access = Some(MemAccess {
                    addr,
                    size: 8,
                    is_store: false,
                });
            }
            Inst::Store { rs, rbase, imm } => {
                let addr = (self.int[rbase.index()].wrapping_add(imm)) as u64;
                mem.write_i64(addr, self.int[rs.index()]);
                mem_access = Some(MemAccess {
                    addr,
                    size: 8,
                    is_store: true,
                });
            }
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                let taken = cond.eval(self.int[rs.index()], self.int[rt.index()]);
                if taken {
                    next_pc = target;
                }
                branch = Some(BranchOutcome { taken, next_pc });
            }
            Inst::Jmp { target } => next_pc = target,
            Inst::Jr { rs } => next_pc = Pc(self.int[rs.index()] as u32),
            Inst::Call { target } => {
                self.call_stack.push(pc.next());
                next_pc = target;
            }
            Inst::Ret => {
                next_pc = self.call_stack.pop().ok_or(GisaError::ReturnWithoutCall)?;
            }
            Inst::Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Inst::Nop => {}
        }

        self.pc = next_pc;
        self.retired += 1;
        Ok(StepInfo {
            pc,
            inst,
            class,
            next_pc,
            mem: mem_access,
            branch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn r(i: u8) -> Reg {
        Reg::new(i).expect("register index in range")
    }
    fn f(i: u8) -> FReg {
        FReg::new(i).expect("register index in range")
    }
    fn v(i: u8) -> VReg {
        VReg::new(i).expect("register index in range")
    }

    fn run(b: ProgramBuilder) -> (Cpu, Memory) {
        let p = b.build().expect("test program is well-formed");
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        p.init_memory(&mut mem);
        for _ in 0..100_000 {
            if cpu.halted() {
                break;
            }
            cpu.step(&p, &mut mem)
                .expect("test program executes cleanly");
        }
        assert!(cpu.halted(), "program did not halt");
        (cpu, mem)
    }

    #[test]
    fn integer_arithmetic_semantics() {
        let mut b = ProgramBuilder::new("int");
        b.li(r(1), 6).li(r(2), 7);
        b.mul(r(3), r(1), r(2));
        b.sub(r(4), r(3), r(1));
        b.addi(r(5), r(4), -1);
        b.li(r(6), 10).rem(r(7), r(3), r(6));
        b.halt();
        let (cpu, _) = run(b);
        assert_eq!(cpu.int_reg(r(3)), 42);
        assert_eq!(cpu.int_reg(r(4)), 36);
        assert_eq!(cpu.int_reg(r(5)), 35);
        assert_eq!(cpu.int_reg(r(7)), 2);
    }

    #[test]
    fn wrapping_arithmetic_does_not_panic() {
        let mut b = ProgramBuilder::new("wrap");
        b.li(r(1), i64::MAX).li(r(2), 1);
        b.add(r(3), r(1), r(2));
        b.mul(r(4), r(1), r(1));
        b.halt();
        let (cpu, _) = run(b);
        assert_eq!(cpu.int_reg(r(3)), i64::MIN);
    }

    #[test]
    fn rem_by_zero_yields_zero() {
        let mut b = ProgramBuilder::new("rem0");
        b.li(r(1), 5).li(r(2), 0).rem(r(3), r(1), r(2)).halt();
        let (cpu, _) = run(b);
        assert_eq!(cpu.int_reg(r(3)), 0);
    }

    #[test]
    fn fp_semantics() {
        let mut b = ProgramBuilder::new("fp");
        b.fli(f(0), 1.5).fli(f(1), 2.0);
        b.fadd(f(2), f(0), f(1));
        b.fmul(f(3), f(2), f(1));
        b.fmadd(f(4), f(0), f(1), f(3));
        b.li(r(1), 9).fcvt(f(5), r(1));
        b.halt();
        let (cpu, _) = run(b);
        assert_eq!(cpu.fp_reg(f(2)), 3.5);
        assert_eq!(cpu.fp_reg(f(3)), 7.0);
        assert_eq!(cpu.fp_reg(f(4)), 1.5f64.mul_add(2.0, 7.0));
        assert_eq!(cpu.fp_reg(f(5)), 9.0);
    }

    #[test]
    fn vector_semantics_match_lane_wise_scalar() {
        let mut b = ProgramBuilder::new("vec");
        b.data_u64s(0x100, &[1, 2, 3, 4]);
        b.data_u64s(0x120, &[10, 20, 30, 40]);
        b.li(r(1), 0x100);
        b.vload(v(0), r(1), 0);
        b.vload(v(1), r(1), 0x20);
        b.vadd(v(2), v(0), v(1));
        b.vmul(v(3), v(0), v(1));
        b.vmadd(v(4), v(0), v(1), v(2));
        b.vredsum(r(2), v(2));
        b.li(r(3), 7).vsplat(v(5), r(3));
        b.vstore(v(2), r(1), 0x40);
        b.halt();
        let (cpu, mem) = run(b);
        assert_eq!(cpu.vec_reg(v(2)), [11, 22, 33, 44]);
        assert_eq!(cpu.vec_reg(v(3)), [10, 40, 90, 160]);
        assert_eq!(cpu.vec_reg(v(4)), [21, 62, 123, 204]);
        assert_eq!(cpu.int_reg(r(2)), 110);
        assert_eq!(cpu.vec_reg(v(5)), [7; VLEN]);
        assert_eq!(mem.read_u64(0x140), 11);
        assert_eq!(mem.read_u64(0x158), 44);
    }

    #[test]
    fn branch_outcomes_are_reported() {
        let mut b = ProgramBuilder::new("br");
        b.li(r(1), 1).li(r(2), 2);
        let taken = b.label();
        b.blt(r(1), r(2), taken); // taken
        b.nop();
        b.bind(taken).unwrap();
        b.bge(r(1), r(2), taken); // not taken
        b.halt();
        let p = b.build().expect("test program is well-formed");
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        cpu.step(&p, &mut mem)
            .expect("test program executes cleanly");
        cpu.step(&p, &mut mem)
            .expect("test program executes cleanly");
        let s = cpu
            .step(&p, &mut mem)
            .expect("test program executes cleanly");
        assert_eq!(
            s.branch,
            Some(BranchOutcome {
                taken: true,
                next_pc: Pc(4)
            })
        );
        let s = cpu
            .step(&p, &mut mem)
            .expect("test program executes cleanly");
        assert_eq!(
            s.branch,
            Some(BranchOutcome {
                taken: false,
                next_pc: Pc(5)
            })
        );
    }

    #[test]
    fn call_and_ret_balance() {
        let mut b = ProgramBuilder::new("call");
        let func = b.label();
        b.call(func);
        b.halt();
        b.bind(func).unwrap();
        b.li(r(1), 99);
        b.ret();
        let (cpu, _) = run(b);
        assert_eq!(cpu.int_reg(r(1)), 99);
    }

    #[test]
    fn unbalanced_ret_is_an_error() {
        let mut b = ProgramBuilder::new("badret");
        b.ret();
        let p = b.build().expect("test program is well-formed");
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        assert_eq!(
            cpu.step(&p, &mut mem).unwrap_err(),
            GisaError::ReturnWithoutCall
        );
    }

    #[test]
    fn falling_off_the_end_is_an_error() {
        let mut b = ProgramBuilder::new("falloff");
        b.nop();
        let p = b.build().expect("test program is well-formed");
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        cpu.step(&p, &mut mem)
            .expect("test program executes cleanly");
        assert!(matches!(
            cpu.step(&p, &mut mem).unwrap_err(),
            GisaError::PcOutOfRange { pc: 1, len: 1 }
        ));
    }

    #[test]
    fn halt_is_sticky_and_counts_once() {
        let mut b = ProgramBuilder::new("halt");
        b.halt();
        let p = b.build().expect("test program is well-formed");
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        cpu.step(&p, &mut mem)
            .expect("test program executes cleanly");
        assert!(cpu.halted());
        assert_eq!(cpu.retired(), 1);
        cpu.step(&p, &mut mem)
            .expect("test program executes cleanly");
        assert_eq!(cpu.retired(), 1);
        assert_eq!(cpu.pc(), Pc(0));
    }

    #[test]
    fn loads_and_stores_report_accesses() {
        let mut b = ProgramBuilder::new("mem");
        b.li(r(1), 0x200).li(r(2), 5);
        b.store(r(2), r(1), 8);
        b.load(r(3), r(1), 8);
        b.halt();
        let p = b.build().expect("test program is well-formed");
        let mut cpu = Cpu::new(&p);
        let mut mem = Memory::new();
        cpu.step(&p, &mut mem)
            .expect("test program executes cleanly");
        cpu.step(&p, &mut mem)
            .expect("test program executes cleanly");
        let st = cpu
            .step(&p, &mut mem)
            .expect("test program executes cleanly");
        assert_eq!(
            st.mem,
            Some(MemAccess {
                addr: 0x208,
                size: 8,
                is_store: true
            })
        );
        let ld = cpu
            .step(&p, &mut mem)
            .expect("test program executes cleanly");
        assert_eq!(
            ld.mem,
            Some(MemAccess {
                addr: 0x208,
                size: 8,
                is_store: false
            })
        );
        assert_eq!(cpu.int_reg(r(3)), 5);
    }
}
