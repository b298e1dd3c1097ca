//! Guest ISA for the PowerChop reproduction.
//!
//! Hybrid processors (Transmeta Crusoe/Efficeon, NVIDIA Project Denver) run
//! all application software through a binary-translation (BT) layer that
//! consumes a *guest* ISA. This crate defines the guest ISA used throughout
//! the reproduction: a small register machine with scalar integer and
//! floating-point operations, SIMD vector operations, memory accesses and
//! control flow — enough surface to express workloads whose phase-level unit
//! criticality (VPU / BPU / MLC) mirrors the applications evaluated in the
//! paper.
//!
//! The crate provides:
//!
//! - [`Inst`] — the instruction set, and [`InstClass`] — the coarse classes
//!   the timing and power models key off,
//! - [`Program`] and [`ProgramBuilder`] — an assembler-style builder with
//!   labels, used by `powerchop-workloads` to write benchmarks,
//! - [`Cpu`] — architectural state plus single-step semantics ([`Cpu::step`]),
//! - [`Memory`] — a sparse, paged 64-bit memory.
//!
//! # Examples
//!
//! ```
//! use powerchop_gisa::{Cpu, Memory, ProgramBuilder, Reg};
//!
//! # fn main() -> Result<(), powerchop_gisa::GisaError> {
//! let mut b = ProgramBuilder::new("count-to-ten");
//! let r0 = Reg::new(0)?;
//! let r1 = Reg::new(1)?;
//! b.li(r0, 0).li(r1, 10);
//! let top = b.bind_label();
//! b.addi(r0, r0, 1);
//! b.blt(r0, r1, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut cpu = Cpu::new(&program);
//! let mut mem = Memory::new();
//! while !cpu.halted() {
//!     cpu.step(&program, &mut mem)?;
//! }
//! assert_eq!(cpu.int_reg(r0), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod cpu;
mod error;
mod inst;
mod mem;
mod program;
mod reg;

pub use cpu::{BranchOutcome, Cpu, MemAccess, StepInfo};
pub use error::GisaError;
pub use inst::{Cond, Inst, InstClass, VLEN};
pub use mem::Memory;
pub use program::{Label, Pc, Program, ProgramBuilder};
pub use reg::{FReg, Reg, VReg};
