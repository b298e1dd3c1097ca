//! The trampoline runtime: the POD context native code executes over, the
//! helpers it calls, and the Rust wrapper that applies the batched
//! accounting afterwards.
//!
//! Helper ABI (SysV; `ctx` first, every pointer read from the context so
//! the code arena may sit anywhere relative to the host text):
//!
//! | helper      | arguments                   | returns          | stateful work                                   |
//! |-------------|-----------------------------|------------------|-------------------------------------------------|
//! | `load`      | `addr: u64`                 | the loaded value | [`Memory::read_u64`], [`CoreModel::scalar_access`] |
//! | `store`     | `addr: u64, value: u64`     | —                | [`Memory::write_u64`], [`CoreModel::scalar_access`] |
//! | `branch`    | `pc, target, taken: u32`    | —                | [`CoreModel::branch_outcome`], the successor PC  |
//! | `vector`    | `index: u32, operand: i64`  | `vredsum`'s sum  | [`Cpu::vector_op`], [`CoreModel::vector_op`]     |
//! | `slow_step` | `index: u32`                | nonzero to exit  | the exact interpreter step                      |
//!
//! Determinism argument, in full:
//!
//! - **Native instructions** mutate only guest int/fp registers, through
//!   the same `Cpu` storage the interpreter uses, with bit-exact
//!   semantics (wrapping `imul` and address adds; hardware-masked
//!   `shl`/`sar`; guarded `idiv` reproducing `wrapping_rem`-with-zero-
//!   divisor; signed `cmp` + `setcc` for `slt` and branch conditions;
//!   hardware FMA only when available, matching `f64::mul_add`). The
//!   retirement and issue-slot accounting of every templated instruction
//!   is summed at compile time and applied in one batch after the
//!   trampoline returns; nothing reads those counters mid-trace (faults
//!   and telemetry drain only between machine steps, and no stateful
//!   timing method reads them), so the batched sums are
//!   indistinguishable from per-step updates.
//! - **Narrow helpers make the same stateful calls as the interpreter, in
//!   trace order.** [`CoreModel::on_step`] is the batched accounting plus
//!   exactly one of [`CoreModel::scalar_access`],
//!   [`CoreModel::branch_outcome`] or [`CoreModel::vector_op`], and
//!   [`Cpu::step`] runs vector instructions through [`Cpu::vector_op`] and
//!   loads and stores through [`Memory`]'s 64-bit accessors — the very
//!   calls the helpers make, with operands computed natively from the
//!   same registers. Caches, predictors, the VPU and memory therefore
//!   see the identical access stream in the identical order.
//! - **The VPU's power state cannot change inside a trace**: gating
//!   happens only between dispatches. The `vector` helper reads the state
//!   at the same point in the instruction stream as the interpreter, and
//!   it is the same state the whole trace runs under.
//! - **None of the narrow helpers can fail**: memory is sparse and total,
//!   and the timing model has no error path. Native code checks no
//!   status after them; only `slow_step` can end a trace early.
//! - **Slow-step instructions** (`jr`, `call`, `ret`, `halt`, `fmadd`
//!   without FMA) run [`Cpu::step_prefetched`] and
//!   [`CoreModel::on_step`] — literally the interpreter's code path — on
//!   the in-memory register file, which native code flushes first.
//! - **The PC** is only ever written with values the interpreter would
//!   have produced: `slow_step` sets `pc = trace[i]` before stepping
//!   (no predecessor can diverge — every control transfer but a forward
//!   `jmp`, whose target is the next trace element, ends the trace), a
//!   trace-final branch's helper records the successor it resolved, and
//!   any other templated trace tail records its statically-known
//!   successor.
//! - **Exits** mirror the interpreter loop exactly: error ⇒ propagate
//!   after applying pending accounting (`BtStats` untouched, matching the
//!   `?` in `Machine::step`); halt or end of trace ⇒ normal exit.
#![allow(unsafe_code)]

use std::sync::Arc;

use powerchop_gisa::{Cpu, GisaError, Inst, MemAccess, Memory, Pc};
use powerchop_uarch::core::{CoreModel, ExecMode};

/// The POD context shared with generated code. Only the leading fields
/// (whose offsets are exported below) are touched by native code; the
/// rest serve the helpers on the Rust side.
#[repr(C)]
pub(crate) struct JitCtx {
    /// Base of the guest integer register file (fp file at `fp_delta`).
    int_base: *mut i64,
    /// The helpers, called indirectly because the code arena may sit
    /// anywhere relative to the host text segment.
    slow_step: unsafe extern "C" fn(*mut JitCtx, u32) -> u32,
    load: unsafe extern "C" fn(*mut JitCtx, u64) -> u64,
    store: unsafe extern "C" fn(*mut JitCtx, u64, u64),
    branch: unsafe extern "C" fn(*mut JitCtx, u32, u32, u32),
    vector: unsafe extern "C" fn(*mut JitCtx, u32, i64) -> i64,
    /// Natively-executed guest instructions (flushed in batches).
    native_insts: u64,
    /// Their summed issue slots.
    native_slots: u64,
    /// PC to install when `pc_valid` — set by templated trace tails.
    final_pc: u32,
    pc_valid: u8,
    // ---- host-side fields (never read by generated code) ----
    cpu: *mut Cpu,
    mem: *mut Memory,
    core: *mut CoreModel,
    trace: *const Pc,
    insts: *const Inst,
    len: u32,
    helper_steps: u64,
    error: Option<GisaError>,
}

pub(super) const OFF_INT_BASE: i32 = std::mem::offset_of!(JitCtx, int_base) as i32;
pub(super) const OFF_SLOW_STEP: i32 = std::mem::offset_of!(JitCtx, slow_step) as i32;
pub(super) const OFF_LOAD: i32 = std::mem::offset_of!(JitCtx, load) as i32;
pub(super) const OFF_STORE: i32 = std::mem::offset_of!(JitCtx, store) as i32;
pub(super) const OFF_BRANCH: i32 = std::mem::offset_of!(JitCtx, branch) as i32;
pub(super) const OFF_VECTOR: i32 = std::mem::offset_of!(JitCtx, vector) as i32;
pub(super) const OFF_NATIVE_INSTS: i32 = std::mem::offset_of!(JitCtx, native_insts) as i32;
pub(super) const OFF_NATIVE_SLOTS: i32 = std::mem::offset_of!(JitCtx, native_slots) as i32;
pub(super) const OFF_FINAL_PC: i32 = std::mem::offset_of!(JitCtx, final_pc) as i32;
pub(super) const OFF_PC_VALID: i32 = std::mem::offset_of!(JitCtx, pc_valid) as i32;

/// A trace compiled into the arena. Holds the backing chunk alive and the
/// trace/decoded-instruction Arcs the helper reads.
pub(super) struct CompiledTrace {
    entry: unsafe extern "C" fn(*mut JitCtx),
    _chunk: Arc<super::arena::Chunk>,
    code_len: usize,
    trace: Arc<[Pc]>,
    insts: Arc<[Inst]>,
}

impl CompiledTrace {
    pub(super) fn new(
        entry: unsafe extern "C" fn(*mut JitCtx),
        chunk: Arc<super::arena::Chunk>,
        code_len: usize,
        trace: Arc<[Pc]>,
        insts: Arc<[Inst]>,
    ) -> Self {
        CompiledTrace {
            entry,
            _chunk: chunk,
            code_len,
            trace,
            insts,
        }
    }

    pub(super) fn code_len(&self) -> usize {
        self.code_len
    }
}

/// `slow_step`: executes one instruction the templates don't cover, via
/// the exact interpreter step. Returns 0 to continue the trace, nonzero
/// to exit (an error, a halt, or the trace's last instruction).
unsafe extern "C" fn slow_step(ctx: *mut JitCtx, idx: u32) -> u32 {
    let ctx = unsafe { &mut *ctx };
    let cpu = unsafe { &mut *ctx.cpu };
    let mem = unsafe { &mut *ctx.mem };
    let core = unsafe { &mut *ctx.core };
    let i = idx as usize;
    debug_assert!(i < ctx.len as usize);
    // Native predecessors don't materialize the PC; architecturally it is
    // exactly this trace element (every successor inside a trace is
    // statically the next element).
    let expected = unsafe { *ctx.trace.add(i) };
    cpu.jit_set_pc(expected);
    let inst = unsafe { *ctx.insts.add(i) };
    match cpu.step_prefetched(inst, mem) {
        Ok(info) => {
            core.on_step(&info, ExecMode::Translated);
            ctx.helper_steps += 1;
            if cpu.halted() {
                return 1;
            }
            let next = i + 1;
            if next == ctx.len as usize {
                return 1;
            }
            // SAFETY: `next < len` (checked just above), and `trace`
            // holds the compiled trace's `len` PCs.
            debug_assert_eq!(cpu.pc(), unsafe { *ctx.trace.add(next) });
            0
        }
        Err(e) => {
            ctx.error = Some(e);
            1
        }
    }
}

/// `load`: the guest word at `addr` and its cache accesses.
unsafe extern "C" fn load(ctx: *mut JitCtx, addr: u64) -> u64 {
    // SAFETY: `ctx` is the live context `run_compiled` passed to the
    // trace, and its `mem` and `core` point at that call's exclusive
    // borrows, which nothing else touches while native code runs.
    let (mem, core) = unsafe { (&*(*ctx).mem, &mut *(*ctx).core) };
    core.scalar_access(MemAccess {
        addr,
        size: 8,
        is_store: false,
    });
    mem.read_u64(addr)
}

/// `store`: writes `value` at `addr` and models its cache accesses.
unsafe extern "C" fn store(ctx: *mut JitCtx, addr: u64, value: u64) {
    // SAFETY: as in `load`.
    let (mem, core) = unsafe { (&mut *(*ctx).mem, &mut *(*ctx).core) };
    mem.write_u64(addr, value);
    core.scalar_access(MemAccess {
        addr,
        size: 8,
        is_store: true,
    });
}

/// `branch`: the trace-final conditional branch at `pc` resolved
/// `taken` (0 or 1); predicts and updates the BPU and records the
/// successor PC for the host.
unsafe extern "C" fn branch(ctx: *mut JitCtx, pc: u32, target: u32, taken: u32) {
    // SAFETY: `ctx` is the live context `run_compiled` passed to the
    // trace; native code does not touch it during the call.
    let ctx = unsafe { &mut *ctx };
    // SAFETY: `core` points at `run_compiled`'s exclusive borrow, which
    // nothing else touches while native code runs.
    let core = unsafe { &mut *ctx.core };
    let taken = taken != 0;
    let next = if taken { target } else { Pc(pc).next().0 };
    core.branch_outcome(pc, taken, next);
    ctx.final_pc = next;
    ctx.pc_valid = 1;
}

/// `vector`: runs the trace's `idx`-th instruction, a vector op with
/// integer operand `operand`, on the vector registers and memory, charges
/// it to the VPU, and returns `vredsum`'s sum.
unsafe extern "C" fn vector(ctx: *mut JitCtx, idx: u32, operand: i64) -> i64 {
    // SAFETY: as in `load`; `cpu` is `run_compiled`'s exclusive borrow
    // too, and `vector_op` touches only its vector registers, which
    // native code never reads or writes.
    let (cpu, mem, core) = unsafe { (&mut *(*ctx).cpu, &mut *(*ctx).mem, &mut *(*ctx).core) };
    // SAFETY: the compiler passes only indices of the trace's
    // instructions, and `insts` holds `len` of them.
    let inst = unsafe {
        debug_assert!(idx < (*ctx).len);
        *(*ctx).insts.add(idx as usize)
    };
    let sum = cpu.vector_op(inst, operand, mem);
    core.vector_op(MemAccess::of_vector(inst, operand));
    sum
}

/// Runs a compiled trace and settles its accounting, mirroring the
/// interpreter loop's observable effects exactly (see module docs).
#[inline]
pub(super) fn run_compiled(
    ct: &CompiledTrace,
    cpu: &mut Cpu,
    mem: &mut Memory,
    core: &mut CoreModel,
) -> Result<u64, GisaError> {
    let (int_base, fp_delta) = cpu.jit_reg_layout();
    debug_assert_eq!(fp_delta, Cpu::jit_fp_delta());
    let mut ctx = JitCtx {
        int_base,
        slow_step,
        load,
        store,
        branch,
        vector,
        native_insts: 0,
        native_slots: 0,
        final_pc: 0,
        pc_valid: 0,
        cpu,
        mem,
        core: core as *mut CoreModel,
        trace: ct.trace.as_ptr(),
        insts: ct.insts.as_ptr(),
        len: ct.trace.len() as u32,
        helper_steps: 0,
        error: None,
    };
    unsafe { (ct.entry)(&mut ctx) };
    let native = ctx.native_insts;
    cpu.jit_add_retired(native);
    core.on_translated_block(native, ctx.native_slots);
    if let Some(e) = ctx.error.take() {
        return Err(e);
    }
    if ctx.pc_valid != 0 {
        cpu.jit_set_pc(Pc(ctx.final_pc));
    }
    Ok(native + ctx.helper_steps)
}
