//! Figure 10: per-unit gating activity on the server core (SPEC +
//! PARSEC), one unit managed at a time. The paper reports the VPU gated
//! ~90 % on SPEC-INT, surprisingly large fractions on some FP apps
//! (namd, dedup >90 %), the MLC at 1 way >40 % of cycles for several
//! apps (gems, milc, gcc, libquantum, streamcluster), and the BPU mostly
//! needed with exceptions (lbm, hmmer).

use powerchop::managers::ManagedSet;
use powerchop::ManagerKind;
use powerchop_bench::{banner, run_with, write_csv};
use powerchop_uarch::config::CoreKind;

fn main() {
    banner(
        "Figure 10 — unit activity, server core (one unit managed at a time)",
        "VPU off ~90% on SPEC-INT and on namd/dedup; MLC 1-way >40% on \
         gems/milc/gcc/libquantum/streamcluster; BPU gated on lbm/hmmer",
    );
    println!(
        "{:<14} {:>8} {:>8} {:>9} {:>9}",
        "bench", "VPU-off%", "BPU-off%", "MLC-half%", "MLC-one%"
    );
    let mut rows = Vec::new();
    let mut one_way_heavy = Vec::new();
    for b in powerchop_bench::benchmarks_for(CoreKind::Server) {
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
            "{:<14} {:>8.1} {:>8.1} {:>9.1} {:>9.1}",
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
        if mlc_one > 40.0 {
            one_way_heavy.push(b.name());
        }
    }
    write_csv(
        "fig10_unit_activity_server",
        "bench,vpu_off,bpu_off,mlc_half,mlc_one",
        &rows,
    );
    println!("\napps with MLC at 1 way >40% of cycles: {one_way_heavy:?}");
    println!("paper lists gems, milc, gcc, libquantum, streamcluster among these");
    for expect in ["gems", "libquantum", "streamcluster"] {
        assert!(
            one_way_heavy.contains(&expect),
            "{expect} should way-gate >40%"
        );
    }
}
