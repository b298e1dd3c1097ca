//! Calibration probe: prints per-benchmark PowerChop behaviour so the
//! reproduction's thresholds and power parameters can be sanity-checked
//! against the paper's reported shapes.

use powerchop::ManagerKind;
use powerchop_bench::{run, run_with};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if names.is_empty() {
        vec![
            "gobmk",
            "namd",
            "gems",
            "hmmer",
            "libquantum",
            "msn",
            "amazon",
            "lbm",
        ]
    } else {
        names.iter().map(|s| s.as_str()).collect()
    };
    println!(
        "{:<14} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>6} {:>7} {:>7}",
        "bench",
        "Minst",
        "ipcF",
        "ipcC",
        "slow%",
        "pwr-%",
        "leak-%",
        "vpuOff",
        "bpuOff",
        "mlcGate",
        "sw/Mc",
        "pvtMiss",
        "phases"
    );
    for name in names {
        let b = powerchop_workloads::by_name(name).unwrap_or_else(|| panic!("unknown {name}"));
        let full = run(b, ManagerKind::FullPower);
        let chop = run_with(b, ManagerKind::PowerChop, |_| {});
        let pvt = chop.pvt.unwrap();
        let cde = chop.cde.unwrap();
        println!(
            "{:<14} {:>7.2} {:>7.3} {:>6.3} {:>6.1} {:>6.1} {:>6.1} | {:>6.2} {:>6.2} {:>7.2} | {:>6.1} {:>7.4} {:>7}",
            b.name(),
            chop.instructions as f64 / 1e6,
            full.ipc(),
            chop.ipc(),
            100.0 * chop.slowdown_vs(&full),
            100.0 * chop.power_reduction_vs(&full),
            100.0 * chop.leakage_reduction_vs(&full),
            chop.gated.vpu_off_frac(),
            chop.gated.bpu_off_frac(),
            chop.gated.mlc_gated_frac(),
            chop.switches_per_mcycle(chop.switches.total()),
            100.0 * pvt.misses() as f64 / chop.bt.translation_executions.max(1) as f64,
            cde.decided,
        );
    }
}
