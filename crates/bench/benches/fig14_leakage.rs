//! Figure 14: core leakage-power reduction under PowerChop. The paper
//! reports suite averages of 23 % (SPEC-INT), 10 % (SPEC-FP), 12 %
//! (PARSEC) and 32 % (MobileBench), with per-app reductions up to 52 %.

use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run, suites, sweep, write_csv};

fn main() {
    banner(
        "Figure 14 — leakage power reduction",
        "SPEC-INT 23%, SPEC-FP 10%, PARSEC 12%, MobileBench 32%; up to 52%",
    );
    println!("{:<14} {:>10} {:>9}", "bench", "suite", "leak-%");
    let mut rows = Vec::new();
    let mut per_suite: Vec<(String, Vec<f64>)> = Vec::new();
    let mut all = Vec::new();
    for suite in suites() {
        let mut vals = Vec::new();
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
            let leak = 100.0 * chop.leakage_reduction_vs(&full);
            println!("{:<14} {:>10} {:>9.1}", b.name(), suite.to_string(), leak);
            rows.push(format!("{},{suite},{leak:.2}", b.name()));
            vals.push(leak);
            all.push(leak);
        }
        per_suite.push((suite.to_string(), vals));
    }
    write_csv("fig14_leakage", "bench,suite,leakage_reduction_pct", &rows);
    println!("\nper-suite average leakage reduction (paper in parens):");
    let paper = [23.0, 10.0, 12.0, 32.0];
    for ((name, vals), p) in per_suite.iter().zip(paper) {
        println!("  {:<12} {:>5.1}%  ({p:.0}%)", name, mean(vals));
    }
    let max = all.iter().cloned().fold(0.0f64, f64::max);
    println!("max per-app reduction {max:.0}% (paper: 52%)");
    let mobile = mean(&per_suite[3].1);
    let fp = mean(&per_suite[1].1);
    assert!(mobile > 15.0, "MobileBench leakage reduction out of band");
    assert!(
        mobile > fp * 0.9,
        "mobile must be among the largest reductions"
    );
    assert!(
        max <= 75.0,
        "reduction cannot exceed the gateable leakage share"
    );
}
