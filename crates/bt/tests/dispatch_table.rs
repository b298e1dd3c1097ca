//! Differential test of the PC-indexed dispatch table: under a seeded mix
//! of installs past the region cache's capacity, invalidation storms,
//! context switches and snapshot/restore round trips, a head PC must
//! dispatch as a translation exactly when the region cache holds it, and
//! no head the region cache dropped may keep native code.

use powerchop_bt::{BtConfig, JitEngine, JitMode, Machine, MachineEvent, TranslationId};
use powerchop_checkpoint::{ByteReader, ByteWriter};
use powerchop_faults::check::cases;
use powerchop_faults::SimRng;
use powerchop_gisa::{Program, ProgramBuilder, Reg};
use powerchop_uarch::config::CoreConfig;
use powerchop_uarch::core::CoreModel;

fn r(i: u8) -> Reg {
    Reg::new(i).expect("register index in range")
}

/// An outer loop over `loops` inner loops, each with its own head, so
/// the hot heads outnumber a small region cache and installs evict.
/// Bodies mix native-template arithmetic with loads and stores.
fn many_loops(rng: &mut SimRng, loops: usize) -> Program {
    let mut b = ProgramBuilder::new("many-loops");
    let (outer, outer_n, i, n, acc) = (r(1), r(2), r(3), r(4), r(5));
    b.li(outer, 0).li(outer_n, 40);
    let outer_top = b.bind_label();
    for l in 0..loops {
        b.li(i, 0).li(n, 20 + rng.gen_range(40) as i64);
        let top = b.bind_label();
        for _ in 0..1 + rng.gen_range(4) {
            b.addi(acc, acc, 1 + l as i64);
            b.mul(r(6), acc, i);
        }
        if rng.gen_bool(0.5) {
            b.store(acc, i, 8 * l as i64);
            b.load(r(7), i, 8 * l as i64);
        }
        b.addi(i, i, 1);
        b.blt(i, n, top);
    }
    b.addi(outer, outer, 1);
    b.blt(outer, outer_n, outer_top);
    b.halt();
    b.build().expect("generated program is well-formed")
}

/// Heads the region cache holds right now, by its install order (the
/// record eviction and snapshots use, kept apart from the PC table).
fn resident(machine: &Machine<'_>) -> Vec<u32> {
    machine.region_cache().iter().map(|t| t.id().0).collect()
}

/// The PC table agrees with the install order, and no PC of the program
/// that the region cache does not hold has native code: code is dropped
/// along with its translation.
fn assert_no_orphan_code(machine: &Machine<'_>, program: &Program, what: &str) {
    let heads = resident(machine);
    for pc in 0..program.len() as u32 {
        let id = TranslationId(pc);
        let held = heads.contains(&pc);
        assert_eq!(
            machine.region_cache().get(id).is_some(),
            held,
            "{what}: the PC table disagrees with the install order at {pc}"
        );
        if !held {
            assert_eq!(
                machine.jit_code_len(id),
                None,
                "{what}: head {pc} was dropped but kept native code"
            );
        }
    }
}

fn snapshot(machine: &Machine<'_>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    machine.snapshot_to(&mut w);
    w.into_bytes()
}

#[test]
fn a_head_dispatches_iff_it_is_resident_and_dropped_heads_keep_no_code() {
    cases("dispatch table", 12, |rng| {
        let loops = 6 + rng.gen_range(6) as usize;
        let program = many_loops(rng, loops);
        let config = BtConfig {
            hot_threshold: 2 + rng.gen_range(6) as u32,
            region_cache_capacity: 2 + rng.gen_range(4) as usize,
            ..BtConfig::default()
        };
        let mut core = CoreModel::new(&CoreConfig::server());
        let mut machine = Machine::new(&program, config);
        machine.set_jit_mode(JitMode::On);
        let (mut evictions, mut dispatches, mut native) = (0u64, 0u64, 0u64);
        for step in 0..40_000u64 {
            let what = format!("step {step}");
            match rng.gen_range(1_000) {
                0..=4 => {
                    let before = resident(&machine);
                    machine.invalidate_regions(rng.gen_f64(), rng.next_u64());
                    assert!(resident(&machine).len() <= before.len(), "{what}");
                    assert_no_orphan_code(&machine, &program, &what);
                }
                5..=7 => machine.on_context_switch(),
                8 => {
                    let bytes = snapshot(&machine);
                    let mut restored = Machine::new(&program, config);
                    restored.set_jit_mode(JitMode::On);
                    restored
                        .restore_from(&mut ByteReader::new(&bytes))
                        .expect("a machine restores its own snapshot");
                    assert_eq!(snapshot(&restored), bytes, "{what}: restore is exact");
                    assert_eq!(resident(&restored), resident(&machine), "{what}");
                    machine = restored;
                    assert_no_orphan_code(&machine, &program, &what);
                }
                _ => {}
            }
            let pc = machine.cpu().pc();
            let was_resident = resident(&machine).contains(&pc.0);
            let before = machine.region_cache().len();
            let event = machine.step(&mut core).expect("no guest faults");
            match event {
                MachineEvent::Halted => break,
                MachineEvent::Translation { id, .. } => {
                    assert!(was_resident, "{what}: non-resident head {pc:?} dispatched");
                    assert_eq!(id, TranslationId(pc.0), "{what}");
                    dispatches += 1;
                    native += u64::from(machine.jit_code_len(id).is_some());
                }
                MachineEvent::Installed { id, .. } => {
                    assert!(!was_resident, "{what}: resident head {pc:?} was rebuilt");
                    assert_eq!(id, TranslationId(pc.0), "{what}");
                    assert!(machine.region_cache().get(id).is_some(), "{what}");
                    if machine.region_cache().len() == before {
                        evictions += 1;
                        assert_no_orphan_code(&machine, &program, &what);
                    }
                }
                _ => assert!(!was_resident, "{what}: resident head {pc:?} interpreted"),
            }
        }
        assert!(
            evictions > 0,
            "installs must run past the region cache capacity"
        );
        assert!(
            dispatches > 1_000,
            "only {dispatches} translations dispatched"
        );
        if JitEngine::supported() {
            assert!(native > 0, "no dispatched head had native code");
        }
        assert_no_orphan_code(&machine, &program, "end of run");
    });
}
