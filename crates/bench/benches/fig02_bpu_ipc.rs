//! Figure 2: small (local) vs large (tournament) branch predictors over
//! MobileBench `msn` — the large BPU wins overall, but its benefit is
//! negligible during many phases.

use powerchop_bench::{banner, mean, write_csv};

fn main() {
    banner(
        "Figure 2 — small vs large BPU IPC over msn (mobile core)",
        "large BPU improves IPC overall, but many phases see no benefit",
    );
    let b = powerchop_workloads::by_name("msn").expect("msn exists");
    let budget = powerchop::system::default_budget();
    let interval = 100_000;
    let large = powerchop_bench::ipc_series(b, interval, budget, |_| {});
    let small =
        powerchop_bench::ipc_series(b, interval, budget, |core| core.set_bpu_large_active(false));

    let n = large.len().min(small.len());
    let mut rows = Vec::new();
    println!(
        "{:>6} {:>10} {:>10} {:>8}",
        "Minst", "large-IPC", "small-IPC", "gain%"
    );
    let mut gains = Vec::new();
    for i in 0..n {
        let gain = 100.0 * (large[i] / small[i] - 1.0);
        gains.push(gain);
        if i % 4 == 0 {
            println!(
                "{:>6.1} {:>10.3} {:>10.3} {:>8.1}",
                (i + 1) as f64 * interval as f64 / 1e6,
                large[i],
                small[i],
                gain
            );
        }
        rows.push(format!("{},{:.4},{:.4}", i, large[i], small[i]));
    }
    write_csv("fig02_bpu_ipc", "interval,large_ipc,small_ipc", &rows);

    let avg_large = mean(&large[..n]);
    let avg_small = mean(&small[..n]);
    let negligible = gains.iter().filter(|g| **g < 2.0).count();
    println!(
        "\naverage IPC: large {avg_large:.3} vs small {avg_small:.3} (+{:.1}%)",
        100.0 * (avg_large / avg_small - 1.0)
    );
    println!(
        "intervals where the large BPU gains <2%: {negligible}/{n} ({:.0}%)",
        100.0 * negligible as f64 / n as f64
    );
    assert!(avg_large > avg_small, "large BPU must win overall");
    assert!(negligible > 0, "some phases must see no benefit");
}
