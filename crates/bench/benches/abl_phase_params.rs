//! Ablation (paper §IV-B1 sensitivity analysis): phase-signature length N
//! and execution-window size. The paper's sensitivity study settled on
//! N = 4 and 1000-translation windows; too-long signatures capture
//! insignificant translations, too-short ones merge distinct phases, and
//! extreme window sizes either miss short phases or thrash policies.

use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run, run_with, write_csv};

fn main() {
    banner(
        "Ablation — signature length N and window size",
        "N = 4 / 1000-translation windows prove effective across workloads",
    );
    let subset: Vec<_> = ["gobmk", "gems", "hmmer", "msn", "namd"]
        .iter()
        .map(|n| powerchop_workloads::by_name(n).expect("subset exists"))
        .collect();

    let mut rows = Vec::new();
    println!(
        "{:>4} {:>8} {:>10} {:>9} {:>9} {:>9}",
        "N", "window", "slowdown%", "leak-%", "sw/Mcyc", "phases"
    );
    for (n, window) in [
        (1usize, 1000u32),
        (2, 1000),
        (4, 250),
        (4, 1000),
        (4, 4000),
        (8, 1000),
    ] {
        let (mut slow, mut leak, mut sw, mut phases) = (vec![], vec![], vec![], vec![]);
        for b in &subset {
            let full = run(b, ManagerKind::FullPower);
            let chop = run_with(b, ManagerKind::PowerChop, |c| {
                c.chop.signature_len = n;
                c.chop.window_translations = window;
            });
            slow.push(100.0 * chop.slowdown_vs(&full));
            leak.push(100.0 * chop.leakage_reduction_vs(&full));
            sw.push(chop.switches_per_mcycle(chop.switches.total()));
            phases.push(chop.cde.expect("chop run").decided as f64);
        }
        println!(
            "{:>4} {:>8} {:>10.1} {:>9.1} {:>9.1} {:>9.0}",
            n,
            window,
            mean(&slow),
            mean(&leak),
            mean(&sw),
            mean(&phases)
        );
        rows.push(format!(
            "{n},{window},{:.2},{:.2},{:.2},{:.1}",
            mean(&slow),
            mean(&leak),
            mean(&sw),
            mean(&phases)
        ));
    }
    write_csv(
        "abl_phase_params",
        "sig_len,window,slowdown_pct,leak_pct,switches_per_mcyc,phases",
        &rows,
    );
    println!("\nthe paper's (N=4, window=1000) point balances stability and reactivity");
}
