//! Ablation: PowerChop MLC way-gating vs a drowsy MLC (Flautner et al.,
//! the paper's §VI related work [27]). Drowsy caches reduce per-line
//! leakage while retaining state — no rewarm cost, but a higher leakage
//! floor (~25 % retention vs 5 % gated) and no dynamic-energy savings.

use powerchop::managers::{DrowsyMlcManager, ManagedSet};
use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run, run_with, write_csv};

fn main() {
    banner(
        "Ablation — MLC way-gating (PowerChop) vs drowsy MLC",
        "way-gating saves more leakage on non-critical phases; drowsy \
         never loses state",
    );
    println!(
        "{:<12} {:>10} {:>11} {:>10} {:>11} {:>8}",
        "bench", "chop-slow%", "chop-mlcmJ", "drsy-slow%", "drsy-mlcmJ", "wakes/k"
    );
    let mut rows = Vec::new();
    let (mut chop_leak, mut drowsy_leak) = (Vec::new(), Vec::new());
    for name in [
        "gems",
        "libquantum",
        "hmmer",
        "astar",
        "streamcluster",
        "msn",
    ] {
        let b = powerchop_workloads::by_name(name).expect("subset exists");
        let full = run(b, ManagerKind::FullPower);
        let chop = run_with(b, ManagerKind::PowerChop, |c| {
            c.chop.managed = ManagedSet::MLC_ONLY
        });
        let drowsy = run(
            b,
            ManagerKind::DrowsyMlc {
                period_cycles: DrowsyMlcManager::DEFAULT_PERIOD_CYCLES,
            },
        );
        let cs = 100.0 * chop.slowdown_vs(&full);
        let ds = 100.0 * drowsy.slowdown_vs(&full);
        let cl = chop.energy.leakage.mlc * 1e3;
        let dl = drowsy.energy.leakage.mlc * 1e3;
        let wakes = 1e3 * drowsy.stats.mlc_drowsy_wakes as f64 / drowsy.instructions as f64;
        println!(
            "{:<12} {:>10.1} {:>11.2} {:>10.1} {:>11.2} {:>8.2}",
            name, cs, cl, ds, dl, wakes
        );
        rows.push(format!("{name},{cs:.2},{cl:.4},{ds:.2},{dl:.4},{wakes:.3}"));
        // Normalize by the full-power run's MLC leakage for averages.
        chop_leak.push(100.0 * (1.0 - chop.energy.leakage.mlc / full.energy.leakage.mlc));
        drowsy_leak.push(100.0 * (1.0 - drowsy.energy.leakage.mlc / full.energy.leakage.mlc));
    }
    write_csv(
        "abl_drowsy",
        "bench,chop_slow,chop_mlc_mj,drowsy_slow,drowsy_mlc_mj,wakes_per_kinst",
        &rows,
    );
    println!(
        "\naverage MLC leakage-energy reduction: way-gating {:.0}% vs drowsy {:.0}%",
        mean(&chop_leak),
        mean(&drowsy_leak)
    );
    println!("way-gating wins where phases are MLC-idle; drowsy wins on state retention");
}
