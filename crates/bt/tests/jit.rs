//! Machine-level differential tests: JIT-on and JIT-off execution must be
//! bit-identical in every observable — architectural CPU state, retired
//! counts, BT statistics, and the core timing model's cycle/event totals —
//! on the server core, on the mobile core (2 SIMD lanes, 32 B lines) and
//! with the VPU gated (scalar emulation of every vector op).

use powerchop_bt::{BtConfig, JitMode, Machine, MachineEvent};
use powerchop_gisa::{FReg, Program, ProgramBuilder, Reg, VReg};
use powerchop_uarch::config::CoreConfig;
use powerchop_uarch::core::CoreModel;

fn r(i: u8) -> Reg {
    Reg::new(i).expect("register index in range")
}

fn f(i: u8) -> FReg {
    FReg::new(i).expect("fp register index in range")
}

fn v(i: u8) -> VReg {
    VReg::new(i).expect("vector register index in range")
}

/// Page-aligned base of the torture program's data.
const DATA: u64 = 0x10_0000;

/// A hot loop exercising every template and the slow-step helper:
///
/// - every ALU template, including the `rem` corner cases (zero divisor,
///   `MIN % -1`), shift counts above 63, large immediates, `slt`, fp
///   arithmetic, fmadd and int→fp conversion;
/// - loads and stores of ordinary, page-straddling and never-touched
///   words, with negative and beyond-i32 immediates, and ones that wrap
///   past the top of the address space;
/// - all seven vector ops, with `vsplat`'s source and `vredsum`'s
///   destination both in a trace whose four integer registers are all
///   mapped to host registers, and once more unmapped; `vload`/`vstore`
///   also wrap;
/// - trace-final `beq`/`bne`/`blt`/`bge`, each taken on some iterations
///   and not on others, plus a rarely-taken branch that superblocks
///   speculate through (a mid-trace branch that side-exits);
/// - a call and return, which always take the slow-step helper.
fn torture_program() -> Program {
    let mut b = ProgramBuilder::new("jit-torture");
    let (acc, i, n, tmp, div, big) = (r(1), r(2), r(3), r(4), r(5), r(6));
    let (base, page, parity, wrap, zero, sink) = (r(7), r(8), r(9), r(10), r(11), r(12));
    let (one, three, phase, two, mask, twelve) = (r(13), r(14), r(15), r(16), r(17), r(18));
    b.data_u64s(DATA, &[1, 2, 3, 4, 5, 6, 7, 8]);
    b.li(acc, 0).li(i, 0).li(n, 5_000);
    b.li(big, i64::MAX - 12345);
    b.li(div, 0); // first iterations divide by zero
    b.li(base, DATA as i64).li(wrap, -8).li(zero, 0);
    b.li(one, 1).li(two, 2).li(three, 3).li(twelve, 12);
    b.li(mask, 0xFF << 12);
    let helper_fn = b.label();
    let after = b.label();
    b.jmp(after);
    b.bind(helper_fn).expect("bind helper");
    b.add(acc, acc, i).ret();
    b.bind(after).expect("bind after");
    let top = b.bind_label();
    let rare = b.label();
    let rejoin = b.label();
    // Native-heavy body.
    b.addi(i, i, 1);
    b.add(tmp, acc, i);
    b.sub(tmp, tmp, acc);
    b.mul(tmp, tmp, big); // wrapping multiply
    b.xor(tmp, tmp, acc);
    b.and(tmp, tmp, big);
    b.or(acc, acc, tmp);
    b.shl(tmp, acc, i); // shift counts grow past 63
    b.shr(tmp, tmp, i);
    b.slt(tmp, tmp, acc);
    b.rem(tmp, big, div); // div is 0 early, then varies
    b.rem(tmp, big, i);
    b.li(tmp, i64::MIN);
    b.li(div, -1);
    b.rem(tmp, tmp, div); // MIN % -1 must not fault
    b.addi(div, i, -2_500); // crosses zero mid-run

    // `sink` is used once in this trace, so it is not mapped.
    b.vsplat(v(6), big);
    b.vredsum(sink, v(6));
    // Taken once every 64 iterations: superblocks speculate through it.
    b.li(tmp, 63).and(tmp, i, tmp).addi(tmp, tmp, -63);
    b.beq(tmp, zero, rare);
    b.bind(rejoin).expect("bind rejoin");
    // FP segment.
    b.fcvt(f(0), i);
    b.fli(f(1), 1.000_000_1);
    b.fmul(f(2), f(0), f(1));
    b.fadd(f(3), f(2), f(0));
    b.fmadd(f(3), f(2), f(1), f(3));
    // beq: taken on even iterations, not on odd ones.
    let even = b.label();
    let join = b.label();
    b.and(parity, i, one);
    b.beq(parity, zero, even);
    // Odd: a page-straddling word, a negative immediate, data words.
    b.store(acc, base, 4092);
    b.load(tmp, base, 4092);
    b.add(acc, acc, tmp);
    b.store(i, base, -16);
    b.load(tmp, base, -16);
    b.xor(acc, acc, tmp);
    b.load(tmp, base, 8);
    b.add(acc, acc, tmp);
    b.jmp(join);
    // Even: never-touched pages (256 of them, first touched by a store)
    // at beyond-i32 immediates, and a word wrapping past the top of the
    // address space (bytes 2^64-4 .. 2^64-1 and 0 .. 3).
    b.bind(even).expect("bind even");
    b.shl(page, i, twelve);
    b.and(page, page, mask);
    b.load(tmp, page, 1 << 40);
    b.add(acc, acc, tmp);
    b.store(acc, page, 1 << 41);
    b.load(tmp, page, 1 << 41);
    b.sub(acc, acc, tmp);
    b.store(acc, wrap, 4);
    b.load(tmp, wrap, 4);
    b.xor(acc, acc, tmp);
    // bne: taken on odd iterations, not on even ones.
    b.bind(join).expect("bind join");
    let vector = b.label();
    b.bne(parity, zero, vector);
    b.addi(acc, acc, 3);
    // Vector segment. Its integer registers — i, base, wrap and acc —
    // are all mapped to host registers.
    b.bind(vector).expect("bind vector");
    b.vsplat(v(0), i);
    b.vload(v(1), base, 0);
    b.vadd(v(2), v(0), v(1));
    b.vmul(v(3), v(2), v(0));
    b.vmadd(v(4), v(3), v(1), v(2));
    b.vstore(v(4), base, 32);
    b.vload(v(5), wrap, 0); // lanes at 2^64-8 and 0 .. 24
    b.vadd(v(5), v(5), v(4));
    b.vstore(v(5), wrap, 0);
    b.vredsum(acc, v(5));
    b.add(acc, acc, i);
    // bge on data: taken or not as the sum's sign falls.
    let after_vec = b.label();
    b.bge(acc, i, after_vec);
    b.xor(acc, acc, big);
    b.bind(after_vec).expect("bind after_vec");
    // blt: taken when i % 3 == 0; bge: taken when i % 3 == 2.
    let skip_add = b.label();
    let skip_xor = b.label();
    b.rem(phase, i, three);
    b.blt(phase, one, skip_add);
    b.add(acc, acc, i);
    b.bind(skip_add).expect("bind skip_add");
    b.addi(acc, acc, 1);
    b.bge(phase, two, skip_xor);
    b.xor(acc, acc, i);
    b.bind(skip_xor).expect("bind skip_xor");
    // Slow-step segment: memory traffic and a call.
    b.store(acc, n, 64);
    b.load(tmp, n, 64);
    b.add(acc, acc, tmp);
    b.call(helper_fn);
    b.add(acc, acc, i);
    b.blt(i, n, top);
    b.halt();
    b.bind(rare).expect("bind rare");
    b.xor(acc, acc, big);
    b.jmp(rejoin);
    b.build().expect("torture program is well-formed")
}

/// The core models every differential test runs on.
fn cores() -> [(&'static str, CoreModel); 3] {
    let mut gated = CoreModel::new(&CoreConfig::server());
    gated.set_vpu_active(false);
    [
        ("server", CoreModel::new(&CoreConfig::server())),
        ("mobile", CoreModel::new(&CoreConfig::mobile())),
        ("server, VPU gated", gated),
    ]
}

fn run_to_halt(
    mode: JitMode,
    config: BtConfig,
    program: &Program,
    mut core: CoreModel,
) -> (Machine<'_>, CoreModel) {
    let mut machine = Machine::new(program, config);
    machine.set_jit_mode(mode);
    while !matches!(
        machine.step(&mut core).expect("no guest faults"),
        MachineEvent::Halted
    ) {}
    (machine, core)
}

fn assert_identical(label: &str, a: &(Machine<'_>, CoreModel), b: &(Machine<'_>, CoreModel)) {
    assert_eq!(
        a.0.cpu(),
        b.0.cpu(),
        "{label}: architectural CPU state diverged"
    );
    assert_eq!(
        a.0.retired(),
        b.0.retired(),
        "{label}: retired counts diverged"
    );
    assert_eq!(a.0.stats(), b.0.stats(), "{label}: BT statistics diverged");
    assert_eq!(a.1.cycles(), b.1.cycles(), "{label}: core cycles diverged");
    assert_eq!(
        a.1.stats(),
        b.1.stats(),
        "{label}: core event counters diverged"
    );
    for addr in [
        DATA + 4088,
        DATA + 4096,
        DATA + 32,
        (-8i64) as u64,
        0,
        8,
        16,
    ] {
        assert_eq!(
            a.0.memory().read_u64(addr),
            b.0.memory().read_u64(addr),
            "{label}: memory at {addr:#x} diverged"
        );
    }
    assert_eq!(
        a.0.memory().resident_pages(),
        b.0.memory().resident_pages(),
        "{label}: touched pages diverged"
    );
}

#[test]
fn jit_and_interpreter_are_bit_identical() {
    let program = torture_program();
    for (label, core) in cores() {
        let interp = run_to_halt(JitMode::Off, BtConfig::default(), &program, core.clone());
        let jit = run_to_halt(JitMode::On, BtConfig::default(), &program, core);
        assert_identical(label, &interp, &jit);
        if cfg!(all(
            target_arch = "x86_64",
            target_os = "linux",
            not(powerchop_force_interp)
        )) {
            let stats = jit.0.jit_stats();
            assert!(stats.translations_compiled > 0, "nothing was compiled");
            assert!(stats.exec_hits > 0, "compiled code never ran");
            assert!(
                stats.exec_hits > 4 * stats.fallbacks,
                "{label}: most dispatches should run native code: {stats:?}"
            );
            assert!(stats.code_bytes > 0);
            assert!(jit.0.jit_report().is_some());
        }
        assert!(
            interp.0.jit_report().is_none(),
            "JIT-off runs carry no report"
        );
    }
}

#[test]
fn superblock_traces_stay_identical() {
    let program = torture_program();
    let config = BtConfig {
        superblocks: true,
        ..BtConfig::default()
    };
    for (label, core) in cores() {
        let interp = run_to_halt(JitMode::Off, config, &program, core.clone());
        let jit = run_to_halt(JitMode::On, config, &program, core);
        assert_identical(label, &interp, &jit);
        assert!(
            jit.0.stats().side_exits > 0,
            "{label}: no superblock side-exited"
        );
    }
}

#[test]
fn invalidation_drops_code_and_recompiles_identically() {
    let program = torture_program();
    let run = |mode: JitMode, mut core: CoreModel| {
        let mut machine = Machine::new(&program, BtConfig::default());
        machine.set_jit_mode(mode);
        let mut steps = 0u64;
        while !machine.halted() {
            machine.step(&mut core).expect("no guest faults");
            steps += 1;
            if steps.is_multiple_of(2_000) {
                machine.invalidate_regions(0.5, steps);
            }
            if steps.is_multiple_of(3_000) {
                machine.on_context_switch();
            }
        }
        (machine, core)
    };
    for (label, core) in cores() {
        let interp = run(JitMode::Off, core.clone());
        let jit = run(JitMode::On, core);
        assert_identical(label, &interp, &jit);
    }
}

#[test]
fn checkpoints_cross_between_jit_and_interpreter() {
    let program = torture_program();
    // Run halfway under one mode, snapshot, restore under the other,
    // finish — in both directions — and compare against straight runs.
    for (label, fresh) in cores() {
        let straight = run_to_halt(JitMode::Off, BtConfig::default(), &program, fresh.clone());
        for (first, second) in [(JitMode::On, JitMode::Off), (JitMode::Off, JitMode::On)] {
            let mut core = fresh.clone();
            let mut machine = Machine::new(&program, BtConfig::default());
            machine.set_jit_mode(first);
            for _ in 0..10_000 {
                if machine.halted() {
                    break;
                }
                machine.step(&mut core).expect("no guest faults");
            }
            let mut w = powerchop_checkpoint::ByteWriter::new();
            machine.snapshot_to(&mut w);
            let mut core_w = powerchop_checkpoint::ByteWriter::new();
            core.snapshot_to(&mut core_w);
            let (bytes, core_bytes) = (w.into_bytes(), core_w.into_bytes());

            let mut resumed = Machine::new(&program, BtConfig::default());
            resumed.set_jit_mode(second);
            let mut r = powerchop_checkpoint::ByteReader::new(&bytes);
            resumed.restore_from(&mut r).expect("restore machine");
            let mut resumed_core = fresh.clone();
            let mut core_r = powerchop_checkpoint::ByteReader::new(&core_bytes);
            resumed_core
                .restore_from(&mut core_r)
                .expect("restore core");
            while !matches!(
                resumed.step(&mut resumed_core).expect("no guest faults"),
                MachineEvent::Halted
            ) {}
            assert_identical(label, &straight, &(resumed, resumed_core));
        }
    }
}

#[test]
fn jit_mode_parsing() {
    assert_eq!(JitMode::parse("on"), Some(JitMode::On));
    assert_eq!(JitMode::parse("OFF"), Some(JitMode::Off));
    assert_eq!(JitMode::parse("auto"), Some(JitMode::Auto));
    assert_eq!(JitMode::parse("1"), Some(JitMode::On));
    assert_eq!(JitMode::parse("0"), Some(JitMode::Off));
    assert_eq!(JitMode::parse("warp-speed"), None);
    assert_eq!(JitMode::On.to_string(), "on");
}
