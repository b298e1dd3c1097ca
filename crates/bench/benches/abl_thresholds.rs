//! Ablation (paper §V-A): criticality-threshold sensitivity. The paper
//! notes more aggressive (higher) thresholds shift the design toward
//! energy minimization at more performance cost.

use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run, run_with, write_csv};

fn main() {
    banner(
        "Ablation — criticality thresholds",
        "higher thresholds gate more aggressively: more power saved, more slowdown",
    );
    let subset: Vec<_> = ["gobmk", "gems", "soplex", "msn", "astar", "sphinx3"]
        .iter()
        .map(|n| powerchop_workloads::by_name(n).expect("subset exists"))
        .collect();

    println!(
        "{:>8} {:>10} {:>9} {:>9}",
        "scale", "slowdown%", "power-%", "leak-%"
    );
    let mut rows = Vec::new();
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0, 16.0] {
        let (mut slow, mut power, mut leak) = (vec![], vec![], vec![]);
        for b in &subset {
            let full = run(b, ManagerKind::FullPower);
            let chop = run_with(b, ManagerKind::PowerChop, |c| {
                c.chop.thresholds.vpu *= mult;
                c.chop.thresholds.bpu *= mult;
                c.chop.thresholds.mlc_high *= mult;
                c.chop.thresholds.mlc_low *= mult;
            });
            slow.push(100.0 * chop.slowdown_vs(&full));
            power.push(100.0 * chop.power_reduction_vs(&full));
            leak.push(100.0 * chop.leakage_reduction_vs(&full));
        }
        println!(
            "{:>8} {:>10.1} {:>9.1} {:>9.1}",
            format!("{mult}x"),
            mean(&slow),
            mean(&power),
            mean(&leak)
        );
        rows.push(format!(
            "{mult},{:.2},{:.2},{:.2}",
            mean(&slow),
            mean(&power),
            mean(&leak)
        ));
    }
    write_csv(
        "abl_thresholds",
        "multiplier,slowdown_pct,power_pct,leak_pct",
        &rows,
    );
    println!("\nhigher thresholds trade performance for power (energy-minimizing policies)");
}
