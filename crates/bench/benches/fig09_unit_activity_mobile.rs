//! Figure 9: per-unit gating activity on the mobile core — fraction of
//! cycles each unit spends gated when PowerChop manages it in isolation.
//! The paper reports VPU off ~90 %+, BPU off ~40 % average, MLC way-gated
//! ~20 % average across MobileBench.

use powerchop::managers::ManagedSet;
use powerchop::ManagerKind;
use powerchop_bench::{banner, mean, run_with, write_csv};

fn main() {
    banner(
        "Figure 9 — unit activity, mobile core (one unit managed at a time)",
        "VPU off >90% on all apps; BPU off ~40% avg; MLC gated ~20% avg",
    );
    println!(
        "{:<10} {:>8} {:>8} {:>9} {:>9}",
        "bench", "VPU-off%", "BPU-off%", "MLC-half%", "MLC-one%"
    );
    let mut rows = Vec::new();
    let (mut vpu_all, mut bpu_all, mut mlc_all) = (Vec::new(), Vec::new(), Vec::new());
    for b in powerchop_workloads::suite(powerchop_workloads::Suite::MobileBench) {
        let vpu = run_with(b, ManagerKind::PowerChop, |c| {
            c.chop.managed = ManagedSet::VPU_ONLY
        });
        let bpu = run_with(b, ManagerKind::PowerChop, |c| {
            c.chop.managed = ManagedSet::BPU_ONLY
        });
        let mlc = run_with(b, ManagerKind::PowerChop, |c| {
            c.chop.managed = ManagedSet::MLC_ONLY
        });
        let vpu_off = 100.0 * vpu.gated.vpu_off_frac();
        let bpu_off = 100.0 * bpu.gated.bpu_off_frac();
        let mlc_half = 100.0 * mlc.gated.mlc_half as f64 / mlc.gated.total.max(1) as f64;
        let mlc_one = 100.0 * mlc.gated.mlc_one_frac();
        println!(
            "{:<10} {:>8.1} {:>8.1} {:>9.1} {:>9.1}",
            b.name(),
            vpu_off,
            bpu_off,
            mlc_half,
            mlc_one
        );
        rows.push(format!(
            "{},{vpu_off:.1},{bpu_off:.1},{mlc_half:.1},{mlc_one:.1}",
            b.name()
        ));
        vpu_all.push(vpu_off);
        bpu_all.push(bpu_off);
        mlc_all.push(mlc_half + mlc_one);
    }
    write_csv(
        "fig09_unit_activity_mobile",
        "bench,vpu_off,bpu_off,mlc_half,mlc_one",
        &rows,
    );
    println!(
        "\naverages: VPU off {:.0}% (paper >90%), BPU off {:.0}% (paper ~40%), MLC gated {:.0}% (paper ~20%)",
        mean(&vpu_all),
        mean(&bpu_all),
        mean(&mlc_all)
    );
    assert!(
        mean(&vpu_all) > 70.0,
        "mobile VPU must be gated most of the time"
    );
}
