//! Differential tests of the one-lookup vector access path: every
//! `Memory::read_vector`/`write_vector` and every `vload`/`vstore` through
//! `Cpu::vector_op` must equal `VLEN` lane-by-lane `read_i64`/`write_i64`
//! calls — the same lane values, the same memory image and the same
//! resident pages — at mid-page bases, at every base whose span
//! straddles a page, on untouched pages and across the top of the
//! address space.

use powerchop_checkpoint::ByteWriter;
use powerchop_faults::check::cases;
use powerchop_faults::SimRng;
use powerchop_gisa::{Cpu, Inst, MemAccess, Memory, ProgramBuilder, Reg, VReg, VLEN};

const PAGE: u64 = 4096;

fn lanewise_read(mem: &Memory, base: u64) -> [i64; VLEN] {
    std::array::from_fn(|lane| mem.read_i64(base.wrapping_add(8 * lane as u64)))
}

fn lanewise_write(mem: &mut Memory, base: u64, lanes: &[i64; VLEN]) {
    for (lane, value) in lanes.iter().enumerate() {
        mem.write_i64(base.wrapping_add(8 * lane as u64), *value);
    }
}

fn image(mem: &Memory) -> Vec<u8> {
    let mut w = ByteWriter::new();
    mem.snapshot_to(&mut w);
    w.into_bytes()
}

/// A memory with random bytes in the pages around `base` (which may
/// wrap), each page left untouched with probability one in four.
fn scattered(rng: &mut SimRng, base: u64) -> Memory {
    let mut mem = Memory::new();
    for page in [base.wrapping_sub(PAGE), base, base.wrapping_add(PAGE)] {
        if rng.gen_range(4) == 0 {
            continue;
        }
        let start = page & !(PAGE - 1);
        for word in 0..PAGE / 8 {
            mem.write_u64(start.wrapping_add(8 * word), rng.next_u64());
        }
    }
    mem
}

/// Bases to check: a mid-page one, the last non-straddling offset and
/// every straddling offset 4065..=4095 in a random page, plus bases
/// that wrap past the top of the address space.
fn bases(rng: &mut SimRng) -> Vec<u64> {
    let page = rng.gen_range(1 << 40) * PAGE;
    let mut bases = vec![page + 8 * rng.gen_range(PAGE / 8 - 4), page + PAGE - 32];
    bases.extend((PAGE - 31..PAGE).map(|offset| page + offset));
    bases.extend([(-16i64) as u64, u64::MAX - 30, u64::MAX]);
    bases
}

#[test]
fn vector_reads_match_lane_by_lane_reads() {
    cases("read_vector lane-wise", 24, |rng| {
        for base in bases(rng) {
            let mem = scattered(rng, base);
            let pages = mem.resident_pages();
            let mut lanes = [1; VLEN];
            mem.read_vector(base, &mut lanes);
            assert_eq!(lanes, lanewise_read(&mem, base), "{base:#x}");
            assert_eq!(mem.resident_pages(), pages, "a read allocates no page");
        }
    });
}

#[test]
fn vector_writes_match_lane_by_lane_writes() {
    cases("write_vector lane-wise", 24, |rng| {
        for base in bases(rng) {
            let lanes: [i64; VLEN] = std::array::from_fn(|_| rng.next_u64() as i64);
            let mut fast = scattered(rng, base);
            let mut slow = fast.clone();
            fast.write_vector(base, &lanes);
            lanewise_write(&mut slow, base, &lanes);
            assert_eq!(fast.resident_pages(), slow.resident_pages(), "{base:#x}");
            assert_eq!(image(&fast), image(&slow), "{base:#x}: memory image");
        }
    });
}

#[test]
fn an_untouched_page_reads_zero_and_stays_untouched() {
    let mem = Memory::new();
    for base in [PAGE * 7 + 40, PAGE * 7 + PAGE - 3, (-16i64) as u64] {
        let mut lanes = [1; VLEN];
        mem.read_vector(base, &mut lanes);
        assert_eq!(lanes, [0; VLEN]);
        assert_eq!(mem.resident_pages(), 0);
    }
}

/// `vload`/`vstore` through `Cpu::vector_op` equal lane-by-lane access,
/// and `MemAccess::of_vector` reports their 32-byte access.
#[test]
fn vector_op_memory_matches_lane_by_lane_access() {
    let r0 = Reg::new(0).expect("register index in range");
    let v1 = VReg::new(1).expect("vector register index in range");
    let v2 = VReg::new(2).expect("vector register index in range");
    let mut builder = ProgramBuilder::new("vector-op");
    builder.halt();
    let program = builder
        .build()
        .expect("one-instruction program is well-formed");
    let vload = Inst::Vload {
        vd: v1,
        rs: r0,
        imm: 0,
    };
    let vstore = Inst::Vstore {
        vs: v2,
        rs: r0,
        imm: 0,
    };
    let access = |base: u64, is_store| MemAccess {
        addr: base,
        size: 8 * VLEN as u32,
        is_store,
    };
    cases("vector_op lane-wise", 24, |rng| {
        for base in bases(rng) {
            let mut cpu = Cpu::new(&program);
            let mut mem = scattered(rng, base);
            let pages = mem.resident_pages();
            assert_eq!(cpu.vector_op(vload, base as i64, &mut mem), 0, "{base:#x}");
            assert_eq!(
                MemAccess::of_vector(vload, base as i64),
                Some(access(base, false)),
                "{base:#x}"
            );
            assert_eq!(cpu.vec_reg(v1), lanewise_read(&mem, base), "{base:#x}");
            assert_eq!(mem.resident_pages(), pages, "{base:#x}: vload allocates");

            let lanes: [i64; VLEN] = std::array::from_fn(|_| rng.next_u64() as i64);
            let mut source = Memory::new();
            source.write_vector(0x100, &lanes);
            cpu.vector_op(
                Inst::Vload {
                    vd: v2,
                    rs: r0,
                    imm: 0,
                },
                0x100,
                &mut source,
            );
            let mut slow = mem.clone();
            assert_eq!(cpu.vector_op(vstore, base as i64, &mut mem), 0, "{base:#x}");
            assert_eq!(
                MemAccess::of_vector(vstore, base as i64),
                Some(access(base, true)),
                "{base:#x}"
            );
            lanewise_write(&mut slow, base, &lanes);
            assert_eq!(image(&mem), image(&slow), "{base:#x}: vstore image");
        }
    });
}
