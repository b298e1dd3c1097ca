//! Figure 3: 128 KB 1-way vs 1024 KB 8-way MLC over `gems` (GemsFDTD) —
//! the full MLC helps only when the working set fits it but not L1.

use powerchop_bench::{banner, mean, write_csv};
use powerchop_uarch::cache::MlcWayState;

fn main() {
    banner(
        "Figure 3 — 1-way vs 8-way MLC IPC over gems (server core)",
        "full MLC wins when the working set fits it; no benefit when the \
         set fits L1 or streams from memory",
    );
    let b = powerchop_workloads::by_name("gems").expect("gems exists");
    let budget = powerchop::system::default_budget();
    let interval = 100_000;
    let full = powerchop_bench::ipc_series(b, interval, budget, |_| {});
    let one = powerchop_bench::ipc_series(b, interval, budget, |core| {
        core.set_mlc_way_state(MlcWayState::One);
    });

    let n = full.len().min(one.len());
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>10} {:>10} {:>8}",
        "Minst", "8way-IPC", "1way-IPC", "gain%"
    );
    let mut gains = Vec::new();
    for i in 0..n {
        let gain = 100.0 * (full[i] / one[i] - 1.0);
        gains.push(gain);
        if i % 4 == 0 {
            println!(
                "{:>6.1} {:>10.3} {:>10.3} {:>8.1}",
                (i + 1) as f64 * interval as f64 / 1e6,
                full[i],
                one[i],
                gain
            );
        }
        rows.push(format!("{},{:.4},{:.4}", i, full[i], one[i]));
    }
    write_csv("fig03_mlc_ipc", "interval,full_ipc,one_way_ipc", &rows);

    println!(
        "\naverage IPC: 8-way {:.3} vs 1-way {:.3}",
        mean(&full[..n]),
        mean(&one[..n])
    );
    let big_gain = gains.iter().filter(|g| **g > 20.0).count();
    let no_gain = gains.iter().filter(|g| **g < 2.0).count();
    println!("intervals with >20% benefit: {big_gain}/{n}; with <2% benefit: {no_gain}/{n}");
    assert!(
        big_gain > 0,
        "MLC-resident phases must benefit from the full MLC"
    );
    assert!(no_gain > 0, "L1-resident/streaming phases must not");
}
