//! Figure 12: application performance under PowerChop vs a fully-powered
//! core and a minimally-powered core. The paper reports PowerChop within
//! 2.2 % of full power on average, while minimal power loses ~84 %.

use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run, sweep, write_csv};

fn main() {
    banner(
        "Figure 12 — performance: full vs PowerChop vs minimal",
        "PowerChop loses 2.2% on average; minimal power loses ~84%",
    );
    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>10}",
        "bench", "full-IPC", "chop-IPC", "chop-slow%", "min-slow%"
    );
    let mut rows = Vec::new();
    let (mut chop_slow, mut min_slow) = (Vec::new(), Vec::new());
    let benches: Vec<&powerchop_workloads::Benchmark> = powerchop_workloads::all().iter().collect();
    let reports = sweep(&benches, |b| {
        let b = *b;
        (
            run(b, ManagerKind::FullPower),
            run(b, ManagerKind::PowerChop),
            run(b, ManagerKind::MinimalPower),
        )
    });
    for (b, (full, chop, min)) in benches.iter().zip(reports) {
        let cs = 100.0 * chop.slowdown_vs(&full);
        let ms = 100.0 * min.slowdown_vs(&full);
        println!(
            "{:<14} {:>9.3} {:>10.3} {:>10.1} {:>10.1}",
            b.name(),
            full.ipc(),
            chop.ipc(),
            cs,
            ms
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{cs:.2},{ms:.2}",
            b.name(),
            full.ipc(),
            chop.ipc(),
            min.ipc()
        ));
        chop_slow.push(cs);
        min_slow.push(ms);
    }
    write_csv(
        "fig12_performance",
        "bench,full_ipc,chop_ipc,min_ipc,chop_slowdown,min_slowdown",
        &rows,
    );
    println!(
        "\naverage slowdown: PowerChop {:.1}% (paper 2.2%), minimal {:.1}% (paper ~84%... \
         shape: minimal must be drastically worse)",
        mean(&chop_slow),
        mean(&min_slow)
    );
    assert!(mean(&chop_slow) < 8.0, "PowerChop slowdown out of band");
    assert!(
        mean(&min_slow) > 4.0 * mean(&chop_slow),
        "minimal power must be drastically slower than PowerChop"
    );
}
