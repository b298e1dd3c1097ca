//! Experiment harness shared by every figure/table bench target.
//!
//! Each bench target (`benches/fig*.rs`, `benches/tab*.rs`,
//! `benches/abl*.rs`) regenerates one figure or table from the paper's
//! evaluation, printing the same rows/series the paper reports and writing
//! a CSV copy under `bench_results/`. See `DESIGN.md` §3 for the
//! experiment index and `EXPERIMENTS.md` for recorded paper-vs-measured
//! results.
//!
//! Environment knobs:
//!
//! - `POWERCHOP_BUDGET` — instruction budget per run (default 12,000,000),
//! - `POWERCHOP_SCALE` — workload scale factor (default 1.0).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use powerchop::{ManagerKind, RunConfig, RunReport};
use powerchop_uarch::config::CoreKind;
use powerchop_workloads::{Benchmark, Scale, Suite};

/// The workload scale factor (from `POWERCHOP_SCALE`, default 1.0).
#[must_use]
pub fn scale() -> Scale {
    Scale(
        std::env::var("POWERCHOP_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0),
    )
}

/// The run configuration for a benchmark's design point (budget from
/// `POWERCHOP_BUDGET`).
#[must_use]
pub fn config_for(benchmark: &Benchmark) -> RunConfig {
    RunConfig::for_kind(benchmark.core_kind())
}

/// Runs `benchmark` under `kind` with the default configuration.
///
/// # Panics
///
/// Panics if the guest program faults (a workload bug).
#[must_use]
pub fn run(benchmark: &Benchmark, kind: ManagerKind) -> RunReport {
    run_with(benchmark, kind, |_| {})
}

/// Runs `benchmark` under `kind`, letting `tweak` adjust the
/// configuration first.
///
/// # Panics
///
/// Panics if the guest program faults (a workload bug).
#[must_use]
pub fn run_with(
    benchmark: &Benchmark,
    kind: ManagerKind,
    tweak: impl FnOnce(&mut RunConfig),
) -> RunReport {
    let mut cfg = config_for(benchmark);
    tweak(&mut cfg);
    let program = benchmark.program(scale());
    powerchop::run_program(&program, kind, &cfg)
        .unwrap_or_else(|e| panic!("{} faulted: {e}", benchmark.name()))
}

/// Runs `f` over `items` on the `powerchop-exec` work-stealing pool
/// (worker count from `POWERCHOP_JOBS`, defaulting to the CPU count),
/// returning results in item order. Figure/ablation sweeps compute run
/// reports through this and fold printing and CSV rows afterwards, so a
/// parallel sweep's output is byte-identical to a sequential one.
///
/// # Panics
///
/// Propagates the first job panic (a guest fault is a workload bug, the
/// same contract as [`run`]).
pub fn sweep<I: Sync, T: Send>(items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
    powerchop_exec::run_jobs(items, powerchop_exec::resolve_jobs(None), |_, item| f(item))
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("sweep job {} panicked: {}", p.index, p.message)))
        .collect()
}

/// The directory experiment CSVs are written to: `bench_results/` at the
/// workspace root, two levels above this crate's manifest, whatever the
/// working directory a bench target runs in.
#[must_use]
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results")
}

/// Writes an experiment's rows as CSV under `bench_results/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_err() {
        return; // best-effort: printing is the primary output
    }
    let path = dir.join(format!("{name}.csv"));
    if let Ok(mut f) = fs::File::create(&path) {
        let _ = writeln!(f, "{header}");
        for row in rows {
            let _ = writeln!(f, "{row}");
        }
        println!("[csv] {}", path.display());
    }
}

/// Prints an experiment banner.
pub fn banner(id: &str, paper: &str) {
    println!("\n=== {id} ===");
    println!("    paper: {paper}\n");
}

/// Arithmetic mean (0 for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-suite grouping order used across the paper's figures.
#[must_use]
pub fn suites() -> [Suite; 4] {
    [
        Suite::SpecInt,
        Suite::SpecFp,
        Suite::Parsec,
        Suite::MobileBench,
    ]
}

/// All benchmarks of a given core kind.
pub fn benchmarks_for(kind: CoreKind) -> impl Iterator<Item = &'static Benchmark> {
    powerchop_workloads::all()
        .iter()
        .filter(move |b| b.core_kind() == kind)
}

/// Architectural vector-operation counts per `shard`-instruction shard
/// (Figures 1 and 15): executes `program` on the bare guest CPU and
/// counts VPU-bound instructions in each consecutive shard.
///
/// # Panics
///
/// Panics if the guest program faults.
#[must_use]
pub fn vector_shards(program: &powerchop_gisa::Program, shard: u64, max_insts: u64) -> Vec<u32> {
    use powerchop_gisa::{Cpu, Memory};
    let mut cpu = Cpu::new(program);
    let mut mem = Memory::new();
    program.init_memory(&mut mem);
    let mut shards = Vec::new();
    let mut current = 0u32;
    let mut in_shard = 0u64;
    while !cpu.halted() && cpu.retired() < max_insts {
        let info = cpu.step(program, &mut mem).expect("guest program faulted");
        if info.class.uses_vpu() {
            current += 1;
        }
        in_shard += 1;
        if in_shard == shard {
            shards.push(current);
            current = 0;
            in_shard = 0;
        }
    }
    shards
}

/// IPC per `interval` retired instructions under a fixed unit
/// configuration (Figures 2 and 3): runs the full hybrid machine with no
/// power manager, after applying `configure` to the core once.
///
/// # Panics
///
/// Panics if the guest program faults.
#[must_use]
pub fn ipc_series(
    benchmark: &Benchmark,
    interval: u64,
    max_insts: u64,
    configure: impl FnOnce(&mut powerchop_uarch::core::CoreModel),
) -> Vec<f64> {
    use powerchop_bt::{BtConfig, Machine, MachineEvent};
    use powerchop_uarch::core::CoreModel;
    let cfg = config_for(benchmark);
    let program = benchmark.program(scale());
    let mut core = CoreModel::new(&cfg.core);
    configure(&mut core);
    let mut machine = Machine::new(&program, BtConfig::default());
    let mut series = Vec::new();
    let mut last_insts = 0u64;
    let mut last_cycles = 0u64;
    loop {
        if machine.retired() >= max_insts {
            break;
        }
        if matches!(
            machine.step(&mut core).expect("guest program faulted"),
            MachineEvent::Halted
        ) {
            break;
        }
        let insts = machine.retired();
        if insts - last_insts >= interval {
            let cycles = core.cycles();
            let d_insts = insts - last_insts;
            let d_cycles = cycles.saturating_sub(last_cycles).max(1);
            series.push(d_insts as f64 / d_cycles as f64);
            last_insts = insts;
            last_cycles = cycles;
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn results_dir_is_under_workspace() {
        let d = results_dir();
        assert!(d.ends_with("bench_results"));
        let root = d.parent().expect("bench_results has a parent");
        let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
        assert!(manifest.contains("[workspace]"), "{}", root.display());
        assert!(root.join("crates").is_dir(), "{}", root.display());
    }

    #[test]
    fn config_matches_core_kind() {
        let mobile = powerchop_workloads::by_name("msn").unwrap();
        assert_eq!(config_for(mobile).core.kind, CoreKind::Mobile);
        let server = powerchop_workloads::by_name("gcc").unwrap();
        assert_eq!(config_for(server).core.kind, CoreKind::Server);
    }
}
