//! Figure 8: phase-identification quality — average Manhattan distance
//! between the translation vectors of execution windows that PowerChop
//! assigns the same phase signature. The paper reports 2.8 % average
//! (28 of 1000 translations) and a 6.8 % worst case.

use std::collections::HashMap;

use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run_with, write_csv};

/// Manhattan distance between two sparse translation-count vectors.
fn manhattan(
    a: &[(powerchop_bt::TranslationId, u64)],
    b: &[(powerchop_bt::TranslationId, u64)],
) -> u64 {
    let mut dist = 0u64;
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(ida, ca)), Some(&(idb, cb))) if ida == idb => {
                dist += ca.abs_diff(cb);
                i += 1;
                j += 1;
            }
            (Some(&(ida, ca)), Some(&(idb, _))) if ida < idb => {
                dist += ca;
                i += 1;
            }
            (Some(_), Some(&(_, cb))) => {
                dist += cb;
                j += 1;
            }
            (Some(&(_, ca)), None) => {
                dist += ca;
                i += 1;
            }
            (None, Some(&(_, cb))) => {
                dist += cb;
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    dist
}

fn main() {
    banner(
        "Figure 8 — code similarity across same-signature windows",
        "avg Manhattan distance 2.8% (28/1000 translations), max 6.8%; \
         97.8% of translations identical on average",
    );
    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "bench", "windows", "avg-dist%", "identical%"
    );
    let mut rows = Vec::new();
    let mut all_avgs = Vec::new();
    for b in powerchop_workloads::all() {
        let report = run_with(b, ManagerKind::PowerChop, |c| c.record_windows = true);
        // Group window vectors by signature; compare consecutive pairs
        // within each group (all-pairs is O(n^2) with the same expectation).
        let mut groups: HashMap<_, Vec<&Vec<_>>> = HashMap::new();
        for w in &report.windows {
            groups.entry(w.signature).or_default().push(&w.counts);
        }
        let mut dists = Vec::new();
        for vecs in groups.values() {
            for pair in vecs.windows(2) {
                dists.push(manhattan(pair[0], pair[1]) as f64);
            }
        }
        if dists.is_empty() {
            continue;
        }
        // A window holds 1000 translation executions; the worst case is
        // 2000 (completely disjoint). Report differing translations per
        // 1000, as the paper does.
        let avg_pct = mean(&dists) / 2.0 / 10.0;
        let identical = 100.0 - avg_pct;
        all_avgs.push(avg_pct);
        println!(
            "{:<14} {:>10} {:>12.2} {:>12.2}",
            b.name(),
            report.windows.len(),
            avg_pct,
            identical
        );
        rows.push(format!(
            "{},{},{:.3}",
            b.name(),
            report.windows.len(),
            avg_pct
        ));
    }
    write_csv(
        "fig08_phase_quality",
        "bench,windows,avg_manhattan_pct",
        &rows,
    );
    let overall = mean(&all_avgs);
    let worst = all_avgs.iter().cloned().fold(0.0f64, f64::max);
    println!("\naverage distance {overall:.2}% (paper: 2.8%), worst {worst:.2}% (paper: 6.8%)");
    println!(
        "average identical translations {:.1}% (paper: 97.8%)",
        100.0 - overall
    );
    assert!(
        overall < 15.0,
        "same-signature windows must execute similar code"
    );
}
