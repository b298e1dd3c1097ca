//! Trace → x86-64 template compiler.
//!
//! Register convention (all callee-saved, so helper calls preserve them):
//!
//! | host reg  | role                                           |
//! |-----------|------------------------------------------------|
//! | `rbp`     | `*mut JitCtx`                                  |
//! | `rbx`     | guest integer register file base               |
//! | `r12–r15` | up to 4 hottest mapped guest integer registers |
//! | `rax/rcx/rdx`, `xmm0/xmm1` | scratch                       |
//! | `rdi/rsi/rdx/rcx` | helper arguments (SysV order)          |
//!
//! Guest fp registers live at `[rbx + fp_delta + 8*idx]`. Every
//! instruction but `jr`/`call`/`ret`/`halt` and `fmadd` without host FMA
//! has a template:
//!
//! - ALU, multiply, FP, fused jumps and nops run entirely inline.
//! - Loads and stores compute `rs + imm` inline and call a narrow helper
//!   for guest memory and the modelled caches; a load's value comes back
//!   in `rax` and goes straight to `rd`.
//! - The conditional branch that ends a trace evaluates its condition
//!   inline (`cmp` + `setcc`) and calls a helper for the predictor and
//!   the successor PC.
//! - The seven vector ops pass their integer operand (the `vsplat`
//!   source or the `vload`/`vstore` base) to a helper that runs the
//!   lanes and the VPU charge; `vredsum`'s sum comes back in `rax`.
//!
//! Narrow helpers touch no guest integer register, so the mapped
//! registers stay live in r12–r15 across them. Instruction and issue-slot
//! counts of every templated instruction are summed at compile time.
//! Only before the slow-step helper (which runs the exact interpreter
//! step on the in-memory register file) and at trace exit are the mapped
//! registers and the pending counts flushed.

use powerchop_gisa::{Cond, Inst, InstClass, Pc, Reg};

use super::encoder::{
    AluOp, Asm, Cc, Gpr, R12, R13, R14, R15, RAX, RBP, RBX, RCX, RDI, RDX, RSI, XMM0, XMM1,
};
use super::runtime::{
    OFF_BRANCH, OFF_FINAL_PC, OFF_INT_BASE, OFF_LOAD, OFF_NATIVE_INSTS, OFF_NATIVE_SLOTS,
    OFF_PC_VALID, OFF_SLOW_STEP, OFF_STORE, OFF_VECTOR,
};

/// Traces with fewer templated instructions than this aren't worth the
/// trampoline round trip; the interpreter runs them.
const MIN_NATIVE: usize = 2;

const MAPPED_HOSTS: [Gpr; 4] = [R12, R13, R14, R15];

/// Where a guest value lives during native execution.
#[derive(Clone, Copy)]
enum Loc {
    Host(Gpr),
    Mem(i32),
}

/// The guest-int-reg → host-reg assignment for one trace.
struct RegMap {
    /// `slots[i]` = guest register index held in `MAPPED_HOSTS[i]`.
    slots: Vec<u8>,
}

impl RegMap {
    /// Maps the most frequently used guest int registers (in templated
    /// instructions; ties broken by lower index) onto r12–r15.
    fn choose(insts: &[Inst], fma: bool) -> RegMap {
        let mut freq = [0u32; 32];
        for inst in templated(insts, fma) {
            for r in int_regs_of(inst) {
                freq[r.index()] += 1;
            }
        }
        let mut order: Vec<u8> = (0..32u8).filter(|&i| freq[i as usize] > 0).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(freq[i as usize]), i));
        order.truncate(MAPPED_HOSTS.len());
        RegMap { slots: order }
    }

    fn loc(&self, r: Reg) -> Loc {
        for (slot, &guest) in self.slots.iter().enumerate() {
            if usize::from(guest) == r.index() {
                return Loc::Host(MAPPED_HOSTS[slot]);
            }
        }
        Loc::Mem(8 * r.index() as i32)
    }
}

/// The guest integer registers a templated instruction reads or writes.
fn int_regs_of(inst: &Inst) -> Vec<Reg> {
    match *inst {
        Inst::Li { rd, .. } | Inst::Vredsum { rd, .. } => vec![rd],
        Inst::Addi { rd, rs, .. } | Inst::Load { rd, rs, .. } => vec![rd, rs],
        Inst::Store { rs, rbase, .. } => vec![rs, rbase],
        Inst::Branch { rs, rt, .. } => vec![rs, rt],
        Inst::Add { rd, rs, rt }
        | Inst::Sub { rd, rs, rt }
        | Inst::Mul { rd, rs, rt }
        | Inst::And { rd, rs, rt }
        | Inst::Or { rd, rs, rt }
        | Inst::Xor { rd, rs, rt }
        | Inst::Shl { rd, rs, rt }
        | Inst::Shr { rd, rs, rt }
        | Inst::Slt { rd, rs, rt }
        | Inst::Rem { rd, rs, rt } => vec![rd, rs, rt],
        Inst::Fcvt { rs, .. }
        | Inst::Vsplat { rs, .. }
        | Inst::Vload { rs, .. }
        | Inst::Vstore { rs, .. } => vec![rs],
        _ => Vec::new(),
    }
}

/// Whether `inst` has a template. The criterion is that
/// `CoreModel::on_step(…, Translated)` for its class is
/// `instructions += 1; slots += k` plus at most one call to a stateful
/// timing method (`scalar_access`, `branch_outcome`, `vector_op`) that a
/// narrow helper can make with operands computed natively, so batched
/// retirement and slot accounting is arithmetically identical.
fn has_template(inst: &Inst, fma: bool) -> bool {
    match inst {
        Inst::Li { .. }
        | Inst::Addi { .. }
        | Inst::Add { .. }
        | Inst::Sub { .. }
        | Inst::Mul { .. }
        | Inst::And { .. }
        | Inst::Or { .. }
        | Inst::Xor { .. }
        | Inst::Shl { .. }
        | Inst::Shr { .. }
        | Inst::Slt { .. }
        | Inst::Rem { .. }
        | Inst::Fli { .. }
        | Inst::Fadd { .. }
        | Inst::Fmul { .. }
        | Inst::Fcvt { .. }
        | Inst::Vadd { .. }
        | Inst::Vmul { .. }
        | Inst::Vmadd { .. }
        | Inst::Vsplat { .. }
        | Inst::Vredsum { .. }
        | Inst::Vload { .. }
        | Inst::Vstore { .. }
        | Inst::Load { .. }
        | Inst::Store { .. }
        | Inst::Nop
        | Inst::Jmp { .. }
        // Always the trace's last instruction: a conditional branch ends
        // every trace.
        | Inst::Branch { .. } => true,
        // `f64::mul_add` must stay fused; without FMA hardware the helper
        // runs the interpreter's (software-fused) version.
        Inst::Fmadd { .. } => fma,
        _ => false,
    }
}

/// The templated instructions of a trace.
fn templated(insts: &[Inst], fma: bool) -> impl Iterator<Item = &Inst> {
    insts.iter().filter(move |inst| has_template(inst, fma))
}

/// Issue slots `on_step(…, Translated)` charges for a native class.
fn slots_of(class: InstClass) -> u64 {
    match class {
        InstClass::IntMul => 2,
        _ => 1,
    }
}

/// Compiles a trace, or returns `None` when it is ineligible (too little
/// native work to beat the interpreter, which includes an empty trace).
pub(super) fn compile_trace(
    trace: &[Pc],
    insts: &[Inst],
    fp_delta: i32,
    fma: bool,
) -> Option<Vec<u8>> {
    if templated(insts, fma).count() < MIN_NATIVE {
        return None;
    }
    let map = RegMap::choose(insts, fma);
    let fp = |idx: usize| fp_delta + 8 * idx as i32;

    let mut asm = Asm::new();
    let exit = asm.label();

    // Prologue: save callee-saved state, align the stack (ret addr + 6
    // pushes + 8 ≡ 0 mod 16), load the context and register-file bases.
    for r in [RBP, RBX, R12, R13, R14, R15] {
        asm.push(r);
    }
    asm.sub_rsp_imm8(8);
    asm.mov_rr(RBP, RDI);
    asm.mov_r_mem(RBX, RBP, OFF_INT_BASE);
    for (slot, &guest) in map.slots.iter().enumerate() {
        asm.mov_r_mem(MAPPED_HOSTS[slot], RBX, 8 * i32::from(guest));
    }

    // Batched accounting pending since the last flush point.
    let mut pending_insts: u32 = 0;
    let mut pending_slots: u32 = 0;

    let flush = |asm: &mut Asm, map: &RegMap, pending_insts: &mut u32, pending_slots: &mut u32| {
        if *pending_insts > 0 {
            asm.add_mem_imm32(RBP, OFF_NATIVE_INSTS, *pending_insts as i32);
            asm.add_mem_imm32(RBP, OFF_NATIVE_SLOTS, *pending_slots as i32);
            *pending_insts = 0;
            *pending_slots = 0;
        }
        for (slot, &guest) in map.slots.iter().enumerate() {
            asm.mov_mem_r(RBX, 8 * i32::from(guest), MAPPED_HOSTS[slot]);
        }
    };

    let last = insts.len() - 1;
    for (i, inst) in insts.iter().enumerate() {
        if has_template(inst, fma) {
            emit_template(&mut asm, inst, i, trace[i], &map, &fp);
            pending_insts += 1;
            pending_slots += slots_of(inst.class()) as u32;
        } else {
            flush(&mut asm, &map, &mut pending_insts, &mut pending_slots);
            asm.mov_r_imm(RSI, i as i64);
            call_helper(&mut asm, OFF_SLOW_STEP);
            asm.test32_rr(RAX, RAX);
            asm.jcc(Cc::Ne, exit);
            // The helper ran the interpreter on the in-memory register
            // file; refresh the mapped copies.
            for (slot, &guest) in map.slots.iter().enumerate() {
                asm.mov_r_mem(MAPPED_HOSTS[slot], RBX, 8 * i32::from(guest));
            }
        }
    }

    // A templated trace tail never materialized the PC; record its
    // successor for the host. A jump's and a fall-through's are static;
    // a branch's helper already recorded the one it resolved. (A trace
    // ending on a slow-step instruction always exits through the helper,
    // which leaves the interpreter-updated PC in place.)
    if has_template(&insts[last], fma) {
        flush(&mut asm, &map, &mut pending_insts, &mut pending_slots);
        let final_pc = match insts[last] {
            Inst::Jmp { target } => Some(target.0),
            Inst::Branch { .. } => None,
            _ => Some(trace[last].next().0),
        };
        if let Some(pc) = final_pc {
            asm.mov_mem32_imm(RBP, OFF_FINAL_PC, pc);
            asm.mov_mem8_imm(RBP, OFF_PC_VALID, 1);
        }
    }

    asm.bind(exit);
    asm.add_rsp_imm8(8);
    for r in [R15, R14, R13, R12, RBX, RBP] {
        asm.pop(r);
    }
    asm.ret();
    asm.finish()
}

/// Calls the helper whose pointer sits at `[rbp + off]`, passing the
/// context as its first argument (the caller has placed the rest).
fn call_helper(asm: &mut Asm, off: i32) {
    asm.mov_rr(RDI, RBP);
    asm.call_mem(RBP, off);
}

/// `dst += imm`, wrapping; `rcx` holds an immediate beyond 32 bits.
fn add_imm(asm: &mut Asm, dst: Gpr, imm: i64) {
    debug_assert!(dst != RCX, "rcx is the wide-immediate scratch");
    if imm == 0 {
        return;
    }
    if let Ok(imm32) = i32::try_from(imm) {
        asm.alu_r_imm32(AluOp::Add, dst, imm32);
    } else {
        asm.mov_r_imm(RCX, imm);
        asm.alu_rr(AluOp::Add, dst, RCX);
    }
}

/// `dst = rs + imm`, wrapping: `addi`'s sum or a memory instruction's
/// address.
fn address(asm: &mut Asm, dst: Gpr, rs: Loc, imm: i64) {
    load(asm, dst, rs);
    add_imm(asm, dst, imm);
}

/// The host condition code that computes a guest branch condition after
/// `cmp rs, rt` (signed, like [`Cond::eval`]).
fn cc_of(cond: Cond) -> Cc {
    match cond {
        Cond::Eq => Cc::E,
        Cond::Ne => Cc::Ne,
        Cond::Lt => Cc::L,
        Cond::Ge => Cc::Ge,
    }
}

fn load(asm: &mut Asm, dst: Gpr, loc: Loc) {
    match loc {
        Loc::Host(r) => asm.mov_rr(dst, r),
        Loc::Mem(d) => asm.mov_r_mem(dst, RBX, d),
    }
}

fn store(asm: &mut Asm, loc: Loc, src: Gpr) {
    match loc {
        Loc::Host(r) => asm.mov_rr(r, src),
        Loc::Mem(d) => asm.mov_mem_r(RBX, d, src),
    }
}

fn alu(asm: &mut Asm, op: AluOp, dst: Gpr, src: Loc) {
    match src {
        Loc::Host(r) => asm.alu_rr(op, dst, r),
        Loc::Mem(d) => asm.alu_r_mem(op, dst, RBX, d),
    }
}

/// Emits the template of `inst`, the trace's `i`-th instruction at `pc`.
fn emit_template(
    asm: &mut Asm,
    inst: &Inst,
    i: usize,
    pc: Pc,
    map: &RegMap,
    fp: &dyn Fn(usize) -> i32,
) {
    match *inst {
        Inst::Li { rd, imm } => match (map.loc(rd), i32::try_from(imm)) {
            (Loc::Host(r), _) => asm.mov_r_imm(r, imm),
            (Loc::Mem(d), Ok(imm32)) => asm.mov_mem_imm32(RBX, d, imm32),
            (loc @ Loc::Mem(_), Err(_)) => {
                asm.mov_r_imm(RAX, imm);
                store(asm, loc, RAX);
            }
        },
        Inst::Addi { rd, rs, imm } => {
            address(asm, RAX, map.loc(rs), imm);
            store(asm, map.loc(rd), RAX);
        }
        Inst::Add { rd, rs, rt }
        | Inst::Sub { rd, rs, rt }
        | Inst::And { rd, rs, rt }
        | Inst::Or { rd, rs, rt }
        | Inst::Xor { rd, rs, rt } => {
            let op = match inst {
                Inst::Add { .. } => AluOp::Add,
                Inst::Sub { .. } => AluOp::Sub,
                Inst::And { .. } => AluOp::And,
                Inst::Or { .. } => AluOp::Or,
                _ => AluOp::Xor,
            };
            load(asm, RAX, map.loc(rs));
            alu(asm, op, RAX, map.loc(rt));
            store(asm, map.loc(rd), RAX);
        }
        Inst::Mul { rd, rs, rt } => {
            load(asm, RAX, map.loc(rs));
            match map.loc(rt) {
                Loc::Host(r) => asm.imul_rr(RAX, r),
                Loc::Mem(d) => asm.imul_r_mem(RAX, RBX, d),
            }
            store(asm, map.loc(rd), RAX);
        }
        Inst::Shl { rd, rs, rt } => {
            load(asm, RAX, map.loc(rs));
            load(asm, RCX, map.loc(rt));
            asm.shl_cl(RAX);
            store(asm, map.loc(rd), RAX);
        }
        Inst::Shr { rd, rs, rt } => {
            load(asm, RAX, map.loc(rs));
            load(asm, RCX, map.loc(rt));
            asm.sar_cl(RAX);
            store(asm, map.loc(rd), RAX);
        }
        Inst::Slt { rd, rs, rt } => {
            asm.xor32_rr(RCX, RCX);
            load(asm, RAX, map.loc(rs));
            alu(asm, AluOp::Cmp, RAX, map.loc(rt));
            asm.setcc(Cc::L, RCX);
            store(asm, map.loc(rd), RCX);
        }
        Inst::Rem { rd, rs, rt } => {
            // Guest semantics: 0 when the divisor is 0; wrapping_rem
            // makes MIN % -1 == 0. x86 idiv faults on both, so guard
            // them (x % -1 == 0 for every x, so both guards produce the
            // pre-zeroed rdx).
            load(asm, RAX, map.loc(rs));
            load(asm, RCX, map.loc(rt));
            asm.xor32_rr(RDX, RDX);
            let done = asm.label();
            asm.test_rr(RCX, RCX);
            asm.jcc(Cc::E, done);
            asm.cmp_r_imm8(RCX, -1);
            asm.jcc(Cc::E, done);
            asm.cqo();
            asm.idiv(RCX);
            asm.bind(done);
            store(asm, map.loc(rd), RDX);
        }
        Inst::Fli { fd, imm } => {
            asm.mov_r_imm(RAX, imm.to_bits() as i64);
            asm.mov_mem_r(RBX, fp(fd.index()), RAX);
        }
        Inst::Fadd { fd, fs, ft } => {
            asm.movsd_x_mem(XMM0, RBX, fp(fs.index()));
            asm.addsd_x_mem(XMM0, RBX, fp(ft.index()));
            asm.movsd_mem_x(RBX, fp(fd.index()), XMM0);
        }
        Inst::Fmul { fd, fs, ft } => {
            asm.movsd_x_mem(XMM0, RBX, fp(fs.index()));
            asm.mulsd_x_mem(XMM0, RBX, fp(ft.index()));
            asm.movsd_mem_x(RBX, fp(fd.index()), XMM0);
        }
        Inst::Fmadd { fd, fs, ft, fa } => {
            // fd = fs * ft + fa, fused exactly like `f64::mul_add`.
            asm.movsd_x_mem(XMM0, RBX, fp(fs.index()));
            asm.movsd_x_mem(XMM1, RBX, fp(fa.index()));
            asm.vfmadd132sd_x_x_mem(XMM0, XMM1, RBX, fp(ft.index()));
            asm.movsd_mem_x(RBX, fp(fd.index()), XMM0);
        }
        Inst::Fcvt { fd, rs } => {
            load(asm, RAX, map.loc(rs));
            asm.cvtsi2sd_x_r(XMM0, RAX);
            asm.movsd_mem_x(RBX, fp(fd.index()), XMM0);
        }
        // helper(ctx, addr) -> value
        Inst::Load { rd, rs, imm } => {
            address(asm, RSI, map.loc(rs), imm);
            call_helper(asm, OFF_LOAD);
            store(asm, map.loc(rd), RAX);
        }
        // helper(ctx, addr, value)
        Inst::Store { rs, rbase, imm } => {
            address(asm, RSI, map.loc(rbase), imm);
            load(asm, RDX, map.loc(rs));
            call_helper(asm, OFF_STORE);
        }
        // helper(ctx, pc, target, taken); only ever the trace's last
        // instruction, so the helper records the successor PC.
        Inst::Branch {
            cond,
            rs,
            rt,
            target,
        } => {
            asm.xor32_rr(RCX, RCX);
            load(asm, RAX, map.loc(rs));
            alu(asm, AluOp::Cmp, RAX, map.loc(rt));
            asm.setcc(cc_of(cond), RCX);
            asm.mov_r_imm(RSI, i64::from(pc.0));
            asm.mov_r_imm(RDX, i64::from(target.0));
            call_helper(asm, OFF_BRANCH);
        }
        // helper(ctx, index, operand) -> vredsum's sum
        Inst::Vadd { .. }
        | Inst::Vmul { .. }
        | Inst::Vmadd { .. }
        | Inst::Vsplat { .. }
        | Inst::Vredsum { .. }
        | Inst::Vload { .. }
        | Inst::Vstore { .. } => {
            match *inst {
                Inst::Vsplat { rs, .. } => load(asm, RDX, map.loc(rs)),
                Inst::Vload { rs, imm, .. } | Inst::Vstore { rs, imm, .. } => {
                    address(asm, RDX, map.loc(rs), imm);
                }
                // The other four ignore the operand.
                _ => {}
            }
            asm.mov_r_imm(RSI, i as i64);
            call_helper(asm, OFF_VECTOR);
            if let Inst::Vredsum { rd, .. } = *inst {
                store(asm, map.loc(rd), RAX);
            }
        }
        // Pure accounting: a fused jump's successor is statically the
        // next trace element, and a nop does nothing.
        Inst::Jmp { .. } | Inst::Nop => {}
        _ => unreachable!("emit_template called on a slow-step instruction"),
    }
}
