//! Figure 1: vector-operation intensity over 200 K instructions of
//! `gobmk` — VPU criticality varies across execution, including
//! low-but-nonzero stretches that defeat timeout gating.

use powerchop_bench::{banner, scale, write_csv};

fn main() {
    banner(
        "Figure 1 — VPU intensity over gobmk",
        "vector intensity varies across execution; low-criticality periods \
         include scarce-but-nonzero vector use",
    );
    let b = powerchop_workloads::by_name("gobmk").expect("gobmk exists");
    let program = b.program(scale());
    // 1 K-instruction shards over (more than) the paper's 200 K span.
    let shards = powerchop_bench::vector_shards(&program, 1_000, 4_000_000);

    let mut rows = Vec::new();
    for (i, v) in shards.iter().enumerate() {
        rows.push(format!("{i},{v}"));
    }
    write_csv("fig01_vpu_intensity", "shard,vector_ops_per_1k", &rows);

    // Console rendering: coarse sparkline sampled evenly across the run.
    let step = (shards.len() / 200).max(1);
    print!("intensity (sampled, 1k-inst shards): ");
    for v in shards.iter().step_by(step) {
        let c = match v {
            0 => '.',
            1..=4 => '-',
            5..=49 => 'o',
            _ => '#',
        };
        print!("{c}");
    }
    println!();
    let zero = shards.iter().filter(|v| **v == 0).count();
    let sparse = shards.iter().filter(|v| (1..=4).contains(*v)).count();
    let dense = shards.len() - zero - sparse;
    println!(
        "\nshards: {} total | V=0: {:.1}% | 0<V<=4: {:.1}% | V>4: {:.1}%",
        shards.len(),
        100.0 * zero as f64 / shards.len() as f64,
        100.0 * sparse as f64 / shards.len() as f64,
        100.0 * dense as f64 / shards.len() as f64,
    );
    println!("expected shape: alternating dense-vector and scalar stretches");
    assert!(
        dense > 0 && zero > 0,
        "gobmk must alternate vector intensity"
    );
}
