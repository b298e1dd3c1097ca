//! A minimal x86-64 assembler: exactly the encodings the trace templates
//! need, nothing more. Pure safe code — it only builds a byte vector.
//!
//! Memory operands are restricted to `[base + disp]` with `base` ∈
//! {`rbx`, `rbp`} (the register-file base and the context pointer), which
//! sidesteps the SIB-byte special cases of `rsp`/`r12` entirely.

/// A general-purpose register (hardware encoding 0–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Gpr(pub u8);

pub(crate) const RAX: Gpr = Gpr(0);
pub(crate) const RCX: Gpr = Gpr(1);
pub(crate) const RDX: Gpr = Gpr(2);
pub(crate) const RBX: Gpr = Gpr(3);
pub(crate) const RBP: Gpr = Gpr(5);
pub(crate) const RSI: Gpr = Gpr(6);
pub(crate) const RDI: Gpr = Gpr(7);
pub(crate) const R12: Gpr = Gpr(12);
pub(crate) const R13: Gpr = Gpr(13);
pub(crate) const R14: Gpr = Gpr(14);
pub(crate) const R15: Gpr = Gpr(15);

/// An SSE register (only xmm0/xmm1 are used).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Xmm(pub u8);

pub(crate) const XMM0: Xmm = Xmm(0);
pub(crate) const XMM1: Xmm = Xmm(1);

/// Two-operand 64-bit ALU ops, named by their reg←rm opcode and their
/// `/n` extension for the imm32 form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Cmp,
}

impl AluOp {
    fn reg_rm_opcode(self) -> u8 {
        match self {
            AluOp::Add => 0x03,
            AluOp::Sub => 0x2B,
            AluOp::And => 0x23,
            AluOp::Or => 0x0B,
            AluOp::Xor => 0x33,
            AluOp::Cmp => 0x3B,
        }
    }

    fn imm_ext(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Sub => 5,
            AluOp::And => 4,
            AluOp::Or => 1,
            AluOp::Xor => 6,
            AluOp::Cmp => 7,
        }
    }
}

/// Condition codes (the `cc` nibble of `Jcc`/`SETcc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cc {
    /// Equal / zero.
    E,
    /// Not equal / not zero.
    Ne,
    /// Signed less than.
    L,
    /// Signed greater than or equal.
    Ge,
}

impl Cc {
    fn nibble(self) -> u8 {
        match self {
            Cc::E => 0x4,
            Cc::Ne => 0x5,
            Cc::L => 0xC,
            Cc::Ge => 0xD,
        }
    }
}

/// A forward-reference label; `bind` fixes its position, `finish` patches
/// every rel32 that referenced it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Label(usize);

pub(crate) struct Asm {
    buf: Vec<u8>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, usize)>,
}

impl Asm {
    pub(crate) fn new() -> Self {
        Asm {
            buf: Vec::with_capacity(512),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    pub(crate) fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    pub(crate) fn bind(&mut self, l: Label) {
        debug_assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.buf.len());
    }

    /// Resolves all fixups and returns the code bytes, or `None` if a
    /// referenced label was never bound or the code outgrew rel32 range
    /// (the compiler treats either as an ineligible trace).
    pub(crate) fn finish(mut self) -> Option<Vec<u8>> {
        for (pos, label) in std::mem::take(&mut self.fixups) {
            let target = self.labels[label]?;
            let rel = (target as i64) - (pos as i64 + 4);
            let rel = i32::try_from(rel).ok()?;
            self.buf[pos..pos + 4].copy_from_slice(&rel.to_le_bytes());
        }
        Some(self.buf)
    }

    fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.buf.extend_from_slice(bs);
    }

    /// REX prefix for a 64-bit op with ModRM `reg`/`rm` fields.
    fn rex_w(&mut self, reg: u8, rm: u8) {
        self.byte(0x48 | ((reg >> 3) << 2) | (rm >> 3));
    }

    /// REX prefix only if an extended register needs one (32/8-bit ops).
    fn rex_opt(&mut self, reg: u8, rm: u8) {
        let b = ((reg >> 3) << 2) | (rm >> 3);
        if b != 0 {
            self.byte(0x40 | b);
        }
    }

    fn modrm_rr(&mut self, reg: u8, rm: u8) {
        self.byte(0xC0 | ((reg & 7) << 3) | (rm & 7));
    }

    /// `[base + disp]` ModRM. `base` must be rbx or rbp (no SIB, and rbp
    /// with mod=00 would mean RIP-relative, so rbp always carries a disp).
    fn modrm_mem(&mut self, reg: u8, base: Gpr, disp: i32) {
        debug_assert!(
            base == RBX || base == RBP,
            "memory operands are limited to rbx/rbp bases"
        );
        let reg = reg & 7;
        let rm = base.0 & 7;
        if disp == 0 && base != RBP {
            self.byte((reg << 3) | rm);
        } else if i8::try_from(disp).is_ok() {
            self.byte(0x40 | (reg << 3) | rm);
            self.byte(disp as u8);
        } else {
            self.byte(0x80 | (reg << 3) | rm);
            self.bytes(&disp.to_le_bytes());
        }
    }

    // ---- moves ----

    /// `mov dst, src` (64-bit).
    pub(crate) fn mov_rr(&mut self, dst: Gpr, src: Gpr) {
        self.rex_w(dst.0, src.0);
        self.byte(0x8B);
        self.modrm_rr(dst.0, src.0);
    }

    /// `mov dst, qword [base + disp]`.
    pub(crate) fn mov_r_mem(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.rex_w(dst.0, base.0);
        self.byte(0x8B);
        self.modrm_mem(dst.0, base, disp);
    }

    /// `mov qword [base + disp], src`.
    pub(crate) fn mov_mem_r(&mut self, base: Gpr, disp: i32, src: Gpr) {
        self.rex_w(src.0, base.0);
        self.byte(0x89);
        self.modrm_mem(src.0, base, disp);
    }

    /// `mov dst, imm` — sign-extended imm32 form when it fits, movabs
    /// otherwise.
    pub(crate) fn mov_r_imm(&mut self, dst: Gpr, imm: i64) {
        if let Ok(imm32) = i32::try_from(imm) {
            self.rex_w(0, dst.0);
            self.byte(0xC7);
            self.modrm_rr(0, dst.0);
            self.bytes(&imm32.to_le_bytes());
        } else {
            self.rex_w(0, dst.0);
            self.byte(0xB8 | (dst.0 & 7));
            self.bytes(&imm.to_le_bytes());
        }
    }

    /// `mov qword [base + disp], imm32` (sign-extended).
    pub(crate) fn mov_mem_imm32(&mut self, base: Gpr, disp: i32, imm: i32) {
        self.rex_w(0, base.0);
        self.byte(0xC7);
        self.modrm_mem(0, base, disp);
        self.bytes(&imm.to_le_bytes());
    }

    /// `mov dword [base + disp], imm32` (32-bit store).
    pub(crate) fn mov_mem32_imm(&mut self, base: Gpr, disp: i32, imm: u32) {
        self.byte(0xC7);
        self.modrm_mem(0, base, disp);
        self.bytes(&imm.to_le_bytes());
    }

    /// `mov byte [base + disp], imm8`.
    pub(crate) fn mov_mem8_imm(&mut self, base: Gpr, disp: i32, imm: u8) {
        self.byte(0xC6);
        self.modrm_mem(0, base, disp);
        self.byte(imm);
    }

    // ---- ALU ----

    /// `op dst, src` (64-bit reg-reg).
    pub(crate) fn alu_rr(&mut self, op: AluOp, dst: Gpr, src: Gpr) {
        self.rex_w(dst.0, src.0);
        self.byte(op.reg_rm_opcode());
        self.modrm_rr(dst.0, src.0);
    }

    /// `op dst, qword [base + disp]`.
    pub(crate) fn alu_r_mem(&mut self, op: AluOp, dst: Gpr, base: Gpr, disp: i32) {
        self.rex_w(dst.0, base.0);
        self.byte(op.reg_rm_opcode());
        self.modrm_mem(dst.0, base, disp);
    }

    /// `op dst, imm32` (sign-extended).
    pub(crate) fn alu_r_imm32(&mut self, op: AluOp, dst: Gpr, imm: i32) {
        self.rex_w(0, dst.0);
        self.byte(0x81);
        self.modrm_rr(op.imm_ext(), dst.0);
        self.bytes(&imm.to_le_bytes());
    }

    /// `add qword [base + disp], imm32` (sign-extended).
    pub(crate) fn add_mem_imm32(&mut self, base: Gpr, disp: i32, imm: i32) {
        self.rex_w(0, base.0);
        self.byte(0x81);
        self.modrm_mem(AluOp::Add.imm_ext(), base, disp);
        self.bytes(&imm.to_le_bytes());
    }

    /// `cmp r, imm8` (sign-extended).
    pub(crate) fn cmp_r_imm8(&mut self, r: Gpr, imm: i8) {
        self.rex_w(0, r.0);
        self.byte(0x83);
        self.modrm_rr(AluOp::Cmp.imm_ext(), r.0);
        self.byte(imm as u8);
    }

    /// `imul dst, src` (64-bit, truncating — exactly `wrapping_mul`).
    pub(crate) fn imul_rr(&mut self, dst: Gpr, src: Gpr) {
        self.rex_w(dst.0, src.0);
        self.bytes(&[0x0F, 0xAF]);
        self.modrm_rr(dst.0, src.0);
    }

    /// `imul dst, qword [base + disp]`.
    pub(crate) fn imul_r_mem(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.rex_w(dst.0, base.0);
        self.bytes(&[0x0F, 0xAF]);
        self.modrm_mem(dst.0, base, disp);
    }

    /// `shl r, cl` (count masked to 63 by hardware, matching the guest).
    pub(crate) fn shl_cl(&mut self, r: Gpr) {
        self.rex_w(0, r.0);
        self.byte(0xD3);
        self.modrm_rr(4, r.0);
    }

    /// `sar r, cl` (arithmetic, count masked to 63).
    pub(crate) fn sar_cl(&mut self, r: Gpr) {
        self.rex_w(0, r.0);
        self.byte(0xD3);
        self.modrm_rr(7, r.0);
    }

    /// `setcc r8` — the low byte of `r` becomes 1 if `cc` holds, else 0;
    /// the upper bytes are untouched, so callers zero `r` before the
    /// flag-setting compare. `r` is one of rax..rbx, whose low bytes
    /// need no REX prefix.
    pub(crate) fn setcc(&mut self, cc: Cc, r: Gpr) {
        debug_assert!(r.0 < 4, "setcc targets al, cl, dl or bl");
        self.bytes(&[0x0F, 0x90 | cc.nibble()]);
        self.modrm_rr(0, r.0);
    }

    /// `xor dst32, src32` — the canonical zeroing idiom.
    pub(crate) fn xor32_rr(&mut self, dst: Gpr, src: Gpr) {
        self.rex_opt(dst.0, src.0);
        self.byte(0x33);
        self.modrm_rr(dst.0, src.0);
    }

    /// `test a, b` (64-bit).
    pub(crate) fn test_rr(&mut self, a: Gpr, b: Gpr) {
        self.rex_w(b.0, a.0);
        self.byte(0x85);
        self.modrm_rr(b.0, a.0);
    }

    /// `test a32, b32`.
    pub(crate) fn test32_rr(&mut self, a: Gpr, b: Gpr) {
        self.rex_opt(b.0, a.0);
        self.byte(0x85);
        self.modrm_rr(b.0, a.0);
    }

    /// `cqo` (sign-extend rax into rdx:rax).
    pub(crate) fn cqo(&mut self) {
        self.bytes(&[0x48, 0x99]);
    }

    /// `idiv r` (64-bit).
    pub(crate) fn idiv(&mut self, r: Gpr) {
        self.rex_w(0, r.0);
        self.byte(0xF7);
        self.modrm_rr(7, r.0);
    }

    // ---- stack / calls / flow ----

    pub(crate) fn push(&mut self, r: Gpr) {
        if r.0 >= 8 {
            self.byte(0x41);
        }
        self.byte(0x50 | (r.0 & 7));
    }

    pub(crate) fn pop(&mut self, r: Gpr) {
        if r.0 >= 8 {
            self.byte(0x41);
        }
        self.byte(0x58 | (r.0 & 7));
    }

    /// `sub rsp, imm8`.
    pub(crate) fn sub_rsp_imm8(&mut self, imm: i8) {
        self.bytes(&[0x48, 0x83, 0xEC, imm as u8]);
    }

    /// `add rsp, imm8`.
    pub(crate) fn add_rsp_imm8(&mut self, imm: i8) {
        self.bytes(&[0x48, 0x83, 0xC4, imm as u8]);
    }

    /// `call qword [base + disp]` — indirect, because the code arena may
    /// sit anywhere relative to the host text segment.
    pub(crate) fn call_mem(&mut self, base: Gpr, disp: i32) {
        self.byte(0xFF);
        self.modrm_mem(2, base, disp);
    }

    pub(crate) fn ret(&mut self) {
        self.byte(0xC3);
    }

    /// `jcc label` (rel32 form).
    pub(crate) fn jcc(&mut self, cc: Cc, l: Label) {
        self.bytes(&[0x0F, 0x80 | cc.nibble()]);
        self.fixups.push((self.buf.len(), l.0));
        self.bytes(&[0, 0, 0, 0]);
    }

    // ---- SSE scalar double ----

    /// `movsd x, qword [base + disp]`.
    pub(crate) fn movsd_x_mem(&mut self, x: Xmm, base: Gpr, disp: i32) {
        self.bytes(&[0xF2, 0x0F, 0x10]);
        self.modrm_mem(x.0, base, disp);
    }

    /// `movsd qword [base + disp], x`.
    pub(crate) fn movsd_mem_x(&mut self, base: Gpr, disp: i32, x: Xmm) {
        self.bytes(&[0xF2, 0x0F, 0x11]);
        self.modrm_mem(x.0, base, disp);
    }

    /// `addsd x, qword [base + disp]`.
    pub(crate) fn addsd_x_mem(&mut self, x: Xmm, base: Gpr, disp: i32) {
        self.bytes(&[0xF2, 0x0F, 0x58]);
        self.modrm_mem(x.0, base, disp);
    }

    /// `mulsd x, qword [base + disp]`.
    pub(crate) fn mulsd_x_mem(&mut self, x: Xmm, base: Gpr, disp: i32) {
        self.bytes(&[0xF2, 0x0F, 0x59]);
        self.modrm_mem(x.0, base, disp);
    }

    /// `cvtsi2sd x, r` (64-bit source).
    pub(crate) fn cvtsi2sd_x_r(&mut self, x: Xmm, r: Gpr) {
        self.byte(0xF2);
        self.rex_w(x.0, r.0);
        self.bytes(&[0x0F, 0x2A]);
        self.modrm_rr(x.0, r.0);
    }

    /// `vfmadd132sd dst, src2, qword [base + disp]`:
    /// `dst = dst * mem + src2`, fused — exactly `f64::mul_add`.
    pub(crate) fn vfmadd132sd_x_x_mem(&mut self, dst: Xmm, src2: Xmm, base: Gpr, disp: i32) {
        debug_assert!(dst.0 < 8 && src2.0 < 8 && (base == RBX || base == RBP));
        // 3-byte VEX: map 0F38, W=1, L=0, pp=66.
        self.byte(0xC4);
        self.byte(0xE2); // R̄X̄B̄=111, mmmmm=00010
        self.byte(0x80 | ((!src2.0 & 0xF) << 3) | 0x01);
        self.byte(0x99);
        self.modrm_mem(dst.0, base, disp);
    }
}
