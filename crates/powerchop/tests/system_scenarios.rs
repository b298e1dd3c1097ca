//! Scenario tests for the integrated system: capacity misses, extended
//! MLC states, threshold presets, and drowsy operation, driven through
//! synthetic guest programs built for each scenario.

use powerchop::cde::Thresholds;
use powerchop::{run_program, ManagerKind, RunConfig};
use powerchop_gisa::{Program, ProgramBuilder, Reg};
use powerchop_uarch::config::CoreKind;

fn r(i: u8) -> Reg {
    Reg::new(i).unwrap()
}

/// A program with `phases` distinct compute loops, repeated `reps` times:
/// each loop is its own code region, so each contributes distinct phase
/// signatures.
fn many_phase_program(phases: usize, iters_per_phase: i64, reps: i64) -> Program {
    let mut b = ProgramBuilder::new("many-phases");
    b.li(r(28), 0).li(r(29), reps);
    let outer = b.bind_label();
    for p in 0..phases {
        b.li(r(1), 0).li(r(2), iters_per_phase);
        let top = b.bind_label();
        // A distinct body per phase so the code regions differ.
        for k in 0..(2 + p % 3) {
            b.addi(r(3 + (k as u8 % 4)), r(3), (p as i64) + 1);
        }
        b.addi(r(1), r(1), 1);
        b.blt(r(1), r(2), top);
    }
    b.addi(r(28), r(28), 1);
    b.blt(r(28), r(29), outer);
    b.halt();
    b.build().unwrap()
}

fn cfg() -> RunConfig {
    let mut c = RunConfig::for_kind(CoreKind::Server);
    c.max_instructions = 20_000_000;
    c
}

#[test]
fn pvt_capacity_misses_reregister_from_the_cde_store() {
    // More distinct phases than the 16-entry PVT holds: recurrences after
    // eviction must re-register from the CDE's backing store, not
    // re-profile.
    let program = many_phase_program(24, 30_000, 3);
    let report = run_program(&program, ManagerKind::PowerChop, &cfg()).unwrap();
    let pvt = report.pvt.unwrap();
    let cde = report.cde.unwrap();
    assert!(pvt.evictions > 0, "24 phases must overflow a 16-entry PVT");
    assert!(
        cde.reregistered > 0,
        "evicted phases must re-register on recurrence"
    );
    assert!(
        cde.new_phases >= 24,
        "each distinct loop is (at least) one phase: {}",
        cde.new_phases
    );
    // Re-registration must not re-profile: decided count stays bounded by
    // the phases seen.
    assert!(cde.decided <= cde.new_phases);
}

#[test]
fn aggressive_thresholds_save_at_least_as_much_leakage() {
    let b = powerchop_workloads::by_name("sphinx3").unwrap();
    let program = b.program(powerchop_workloads::Scale(0.2));
    let mut c = cfg();
    c.max_instructions = 2_500_000;
    let full = run_program(&program, ManagerKind::FullPower, &c).unwrap();
    let default = run_program(&program, ManagerKind::PowerChop, &c).unwrap();
    c.chop.thresholds = Thresholds::aggressive();
    let aggressive = run_program(&program, ManagerKind::PowerChop, &c).unwrap();
    assert!(
        aggressive.leakage_reduction_vs(&full) >= default.leakage_reduction_vs(&full) - 0.02,
        "aggressive thresholds must not save (noticeably) less leakage: {} vs {}",
        aggressive.leakage_reduction_vs(&full),
        default.leakage_reduction_vs(&full)
    );
}

#[test]
fn drowsy_period_sweep_is_monotone_in_wakes() {
    let b = powerchop_workloads::by_name("hmmer").unwrap();
    let program = b.program(powerchop_workloads::Scale(0.15));
    let mut c = cfg();
    c.max_instructions = 1_500_000;
    let frequent = run_program(
        &program,
        ManagerKind::DrowsyMlc {
            period_cycles: 1_000,
        },
        &c,
    )
    .unwrap();
    let rare = run_program(
        &program,
        ManagerKind::DrowsyMlc {
            period_cycles: 100_000,
        },
        &c,
    )
    .unwrap();
    assert!(
        frequent.stats.mlc_drowsy_wakes > rare.stats.mlc_drowsy_wakes,
        "drowsing more often must wake more lines: {} vs {}",
        frequent.stats.mlc_drowsy_wakes,
        rare.stats.mlc_drowsy_wakes
    );
    // And save at least as much MLC leakage power.
    let rate = |r: &powerchop::RunReport| r.energy.leakage.mlc / r.energy.seconds;
    assert!(rate(&frequent) <= rate(&rare) + 1e-9);
}

#[test]
fn tiny_windows_still_work() {
    // Degenerate-but-legal configuration: window of 10 translations,
    // signature length 1, PVT of 2 entries.
    let b = powerchop_workloads::by_name("hmmer").unwrap();
    let program = b.program(powerchop_workloads::Scale(0.1));
    let mut c = cfg();
    c.max_instructions = 800_000;
    c.chop.window_translations = 10;
    c.chop.signature_len = 1;
    c.chop.pvt_entries = 2;
    c.chop.htb_entries = 4;
    let report = run_program(&program, ManagerKind::PowerChop, &c).unwrap();
    let pvt = report.pvt.unwrap();
    assert!(pvt.lookups > 1_000, "tiny windows mean many lookups");
    assert!(report.ipc() > 0.0);
}
