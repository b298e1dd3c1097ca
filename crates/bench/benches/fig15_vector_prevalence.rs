//! Figure 15: prevalence of vector operations (V) among 1000-instruction
//! execution shards — several applications have phases with a small
//! non-zero number of vector ops (0 < V <= 4), which timeouts cannot
//! exploit but PowerChop can.

use powerchop_bench::{banner, scale, write_csv};
use powerchop_uarch::config::CoreKind;

fn main() {
    banner(
        "Figure 15 — vector-op prevalence per 1000-instruction shard",
        "several apps have many shards with 0 < V <= 4 — scarce-but-nonzero \
         vector use, uniformly spread",
    );
    println!(
        "{:<14} {:>8} {:>9} {:>8}",
        "bench", "V=0 %", "0<V<=4 %", "V>4 %"
    );
    let mut rows = Vec::new();
    let budget = powerchop::system::default_budget().min(4_000_000);
    let mut sparse_apps = Vec::new();
    for b in powerchop_bench::benchmarks_for(CoreKind::Server) {
        let program = b.program(scale());
        let shards = powerchop_bench::vector_shards(&program, 1_000, budget);
        if shards.is_empty() {
            continue;
        }
        let n = shards.len() as f64;
        let zero = shards.iter().filter(|v| **v == 0).count() as f64 / n * 100.0;
        let sparse = shards.iter().filter(|v| (1..=4).contains(*v)).count() as f64 / n * 100.0;
        let dense = 100.0 - zero - sparse;
        println!(
            "{:<14} {:>8.1} {:>9.1} {:>8.1}",
            b.name(),
            zero,
            sparse,
            dense
        );
        rows.push(format!("{},{zero:.2},{sparse:.2},{dense:.2}", b.name()));
        if sparse > 10.0 {
            sparse_apps.push(b.name());
        }
    }
    write_csv(
        "fig15_vector_prevalence",
        "bench,v0_pct,v1_4_pct,v_gt4_pct",
        &rows,
    );
    println!("\napps with >10% sparse-vector shards: {sparse_apps:?}");
    println!("paper highlights namd-style uniform sparse vector use");
    assert!(
        sparse_apps.contains(&"namd"),
        "namd must show sparse uniform vector use"
    );
}
