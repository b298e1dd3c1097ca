//! Figure 11: frequency of unit power-gating state changes under
//! PowerChop. The paper reports averages below 50 (BPU), 10 (VPU) and 5
//! (MLC) switches per million cycles — low enough to amortize switching
//! overheads.

use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run, write_csv};

fn main() {
    banner(
        "Figure 11 — unit state changes per million cycles",
        "averages: BPU < 50, VPU < 10, MLC < 5 switches per Mcycle",
    );
    println!(
        "{:<14} {:>9} {:>9} {:>9}",
        "bench", "VPU/Mcyc", "BPU/Mcyc", "MLC/Mcyc"
    );
    let mut rows = Vec::new();
    let (mut v, mut p, mut m) = (Vec::new(), Vec::new(), Vec::new());
    for b in powerchop_workloads::all() {
        let r = run(b, ManagerKind::PowerChop);
        let vpu = r.switches_per_mcycle(r.switches.vpu);
        let bpu = r.switches_per_mcycle(r.switches.bpu);
        let mlc = r.switches_per_mcycle(r.switches.mlc);
        println!("{:<14} {:>9.2} {:>9.2} {:>9.2}", b.name(), vpu, bpu, mlc);
        rows.push(format!("{},{vpu:.3},{bpu:.3},{mlc:.3}", b.name()));
        v.push(vpu);
        p.push(bpu);
        m.push(mlc);
    }
    write_csv(
        "fig11_switch_frequency",
        "bench,vpu_per_mcyc,bpu_per_mcyc,mlc_per_mcyc",
        &rows,
    );
    println!(
        "\naverages: VPU {:.1} (paper <10), BPU {:.1} (paper <50), MLC {:.1} (paper <5)",
        mean(&v),
        mean(&p),
        mean(&m)
    );
    assert!(mean(&p) < 50.0, "BPU switch rate out of band");
    assert!(mean(&v) < 25.0, "VPU switch rate far out of band");
    assert!(mean(&m) < 15.0, "MLC switch rate far out of band");
}
