//! Figure 13: total core power and energy reduction with PowerChop
//! managing all three units. The paper reports total power reductions of
//! 10 % (SPEC-INT), 6 % (SPEC-FP), 8 % (PARSEC) and 19 % (MobileBench),
//! up to 40 % per app; energy reductions average 9 % (up to 37 %).

use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run, suites, sweep, write_csv};

fn main() {
    banner(
        "Figure 13 — total core power and energy reduction",
        "SPEC-INT 10%, SPEC-FP 6%, PARSEC 8%, MobileBench 19%; up to 40% \
         power / 37% energy per app; >10% power on 13/29 apps",
    );
    println!(
        "{:<14} {:>10} {:>9} {:>10}",
        "bench", "suite", "power-%", "energy-%"
    );
    let mut rows = Vec::new();
    let mut per_suite: Vec<(String, Vec<f64>)> = Vec::new();
    let mut all_power = Vec::new();
    let mut all_energy = Vec::new();
    for suite in suites() {
        let mut suite_power = Vec::new();
        let benches: Vec<&powerchop_workloads::Benchmark> =
            powerchop_workloads::suite(suite).collect();
        let reports = sweep(&benches, |b| {
            let b = *b;
            (
                run(b, ManagerKind::FullPower),
                run(b, ManagerKind::PowerChop),
            )
        });
        for (b, (full, chop)) in benches.iter().zip(reports) {
            let power = 100.0 * chop.power_reduction_vs(&full);
            let energy = 100.0 * chop.energy_reduction_vs(&full);
            println!(
                "{:<14} {:>10} {:>9.1} {:>10.1}",
                b.name(),
                suite.to_string(),
                power,
                energy
            );
            rows.push(format!("{},{suite},{power:.2},{energy:.2}", b.name()));
            suite_power.push(power);
            all_power.push(power);
            all_energy.push(energy);
        }
        per_suite.push((suite.to_string(), suite_power));
    }
    write_csv(
        "fig13_power_energy",
        "bench,suite,power_reduction_pct,energy_reduction_pct",
        &rows,
    );
    println!("\nper-suite average total power reduction:");
    for (name, vals) in &per_suite {
        println!("  {:<12} {:>5.1}%", name, mean(vals));
    }
    let over10 = all_power.iter().filter(|p| **p > 10.0).count();
    println!(
        "\napps with >10% power reduction: {over10}/29 (paper: 13/29); max power {:.0}%, max energy {:.0}%; avg energy {:.1}% (paper 9%)",
        all_power.iter().cloned().fold(0.0f64, f64::max),
        all_energy.iter().cloned().fold(0.0f64, f64::max),
        mean(&all_energy)
    );
    let mobile = &per_suite[3].1;
    let fp = &per_suite[1].1;
    assert!(
        mean(mobile) > mean(fp),
        "MobileBench must see the largest reductions"
    );
    assert!(over10 >= 8, "a large set of apps must see >10% reductions");
}
