//! Figure 16: VPU gating — PowerChop vs a hardware-only idleness timeout
//! (20 K cycles, the paper's best timeout under a 5 % worst-case slowdown
//! constraint). PowerChop gates the VPU at least as much on every app,
//! with immense gains on apps whose sparse vector use defeats the timeout
//! (namd, perlbench, h264).

use powerchop::managers::{ManagedSet, TimeoutVpuManager};
use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run_with, write_csv};
use powerchop_uarch::config::CoreKind;

fn main() {
    banner(
        "Figure 16 — VPU gated-off cycles: PowerChop vs 20K-cycle timeout",
        "PowerChop >= timeout everywhere; immense wins on namd, perlbench, h264",
    );
    println!(
        "{:<14} {:>10} {:>10} {:>8}",
        "bench", "chop-off%", "tmo-off%", "delta"
    );
    let mut rows = Vec::new();
    let (mut chop_all, mut tmo_all) = (Vec::new(), Vec::new());
    for b in powerchop_bench::benchmarks_for(CoreKind::Server) {
        let chop = run_with(b, ManagerKind::PowerChop, |c| {
            c.chop.managed = ManagedSet::VPU_ONLY
        });
        let tmo = run_with(
            b,
            ManagerKind::TimeoutVpu {
                timeout_cycles: TimeoutVpuManager::PAPER_TIMEOUT_CYCLES,
            },
            |_| {},
        );
        let c = 100.0 * chop.gated.vpu_off_frac();
        let t = 100.0 * tmo.gated.vpu_off_frac();
        println!("{:<14} {:>10.1} {:>10.1} {:>8.1}", b.name(), c, t, c - t);
        rows.push(format!("{},{c:.2},{t:.2}", b.name()));
        chop_all.push(c);
        tmo_all.push(t);
    }
    write_csv(
        "fig16_vpu_vs_timeout",
        "bench,powerchop_off_pct,timeout_off_pct",
        &rows,
    );
    println!(
        "\naverage VPU gated-off: PowerChop {:.0}% vs timeout {:.0}%",
        mean(&chop_all),
        mean(&tmo_all)
    );
    // Key case: namd's sparse uniform vector ops defeat the timeout.
    let namd_idx = powerchop_bench::benchmarks_for(CoreKind::Server)
        .position(|b| b.name() == "namd")
        .expect("namd is a server benchmark");
    println!(
        "namd: PowerChop {:.0}% vs timeout {:.0}% (paper: nearly always vs nearly never)",
        chop_all[namd_idx], tmo_all[namd_idx]
    );
    assert!(
        chop_all[namd_idx] > tmo_all[namd_idx] + 40.0,
        "namd must show the immense PowerChop-vs-timeout gap"
    );
    assert!(
        mean(&chop_all) >= mean(&tmo_all),
        "PowerChop gates at least as much overall"
    );
}
