//! Ablation (paper §IV-B3): "the number of states for each unit can be
//! increased by increasing the number of bits used in the PVT". The 2-bit
//! MLC field has a free encoding; this ablation enables a fourth
//! (quarter-ways) state and measures what finer-grained way-gating buys.

use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run, run_with, write_csv};

fn main() {
    banner(
        "Ablation — 3-state vs 4-state MLC way-gating",
        "the PVT policy field has room for a 4th state (quarter-ways)",
    );
    let subset: Vec<_> = ["gems", "astar", "msn", "bzip2", "dedup", "sphinx3"]
        .iter()
        .map(|n| powerchop_workloads::by_name(n).expect("subset exists"))
        .collect();

    println!(
        "{:<10} {:>10} {:>9} {:>10} {:>9} {:>9}",
        "bench", "slow-3st%", "leak-3st%", "slow-4st%", "leak-4st%", "qtr-cyc%"
    );
    let mut rows = Vec::new();
    let (mut l3, mut l4) = (Vec::new(), Vec::new());
    for b in &subset {
        let full = run(b, ManagerKind::FullPower);
        let three = run(b, ManagerKind::PowerChop);
        let four = run_with(b, ManagerKind::PowerChop, |c| {
            c.chop.extended_mlc_states = true
        });
        let s3 = 100.0 * three.slowdown_vs(&full);
        let k3 = 100.0 * three.leakage_reduction_vs(&full);
        let s4 = 100.0 * four.slowdown_vs(&full);
        let k4 = 100.0 * four.leakage_reduction_vs(&full);
        let q = 100.0 * four.gated.mlc_quarter as f64 / four.gated.total.max(1) as f64;
        println!(
            "{:<10} {:>10.1} {:>9.1} {:>10.1} {:>9.1} {:>9.1}",
            b.name(),
            s3,
            k3,
            s4,
            k4,
            q
        );
        rows.push(format!(
            "{},{s3:.2},{k3:.2},{s4:.2},{k4:.2},{q:.2}",
            b.name()
        ));
        l3.push(k3);
        l4.push(k4);
    }
    write_csv(
        "abl_mlc_states",
        "bench,slow_3state,leak_3state,slow_4state,leak_4state,quarter_cycles_pct",
        &rows,
    );
    println!(
        "\naverage leakage reduction: 3-state {:.1}% vs 4-state {:.1}%",
        mean(&l3),
        mean(&l4)
    );
    println!("(the middle band is rare in these workloads, so gains are modest —");
    println!(" consistent with the paper shipping 3 states in the 2-bit field)");
}
