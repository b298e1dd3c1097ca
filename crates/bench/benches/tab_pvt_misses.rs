//! PVT miss statistics (paper §IV-C3): on average 0.017 % of translations
//! cause PVT misses across SPEC CPU2006, adding less than 0.5 %
//! performance overhead.

use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run, write_csv};
use powerchop_workloads::Suite;

fn main() {
    banner(
        "PVT miss rate and CDE overhead (paper §IV-C3)",
        "0.017% of translations miss the PVT; <0.5% overhead on average",
    );
    println!(
        "{:<14} {:>12} {:>10} {:>12}",
        "bench", "translations", "misses", "miss%/ovhd%"
    );
    let mut rows = Vec::new();
    let (mut rates, mut overheads) = (Vec::new(), Vec::new());
    let spec =
        powerchop_workloads::suite(Suite::SpecInt).chain(powerchop_workloads::suite(Suite::SpecFp));
    for b in spec {
        let r = run(b, ManagerKind::PowerChop);
        let pvt = r.pvt.expect("powerchop run has a PVT");
        let translations = r.bt.translation_executions.max(1);
        let rate = 100.0 * pvt.misses() as f64 / translations as f64;
        let overhead = 100.0 * r.nucleus.handler_cycles as f64 / r.cycles.max(1) as f64;
        println!(
            "{:<14} {:>12} {:>10} {:>7.4} {:>5.2}",
            b.name(),
            translations,
            pvt.misses(),
            rate,
            overhead
        );
        rows.push(format!(
            "{},{},{},{rate:.5},{overhead:.4}",
            b.name(),
            translations,
            pvt.misses()
        ));
        rates.push(rate);
        overheads.push(overhead);
    }
    write_csv(
        "tab_pvt_misses",
        "bench,translations,pvt_misses,miss_pct,overhead_pct",
        &rows,
    );
    println!(
        "\naverage miss rate {:.4}% of translations (paper 0.017%), CDE overhead {:.2}% (paper <0.5%)",
        mean(&rates),
        mean(&overheads)
    );
    assert!(mean(&rates) < 0.1, "PVT miss rate out of band");
    assert!(mean(&overheads) < 2.0, "CDE overhead out of band");
}
