//! The `suite` and `suite-storm` workloads: all 29 benchmarks under the
//! PowerChop manager, swept through `exec::run_jobs`, plus the traced
//! sequential driver and the decoupled interpreter/timing-model replay
//! that split host time across layers from outside the program.

use std::time::Instant;

use powerchop::managers::ManagerCtx;
use powerchop::{
    run_program, GatingController, JitMode, ManagerKind, PowerChopManager, PowerManager, RunConfig,
    RunReport,
};
use powerchop_bt::nucleus::Nucleus;
use powerchop_bt::{Machine, MachineEvent};
use powerchop_faults::{FaultConfig, FaultKind, FaultSchedule};
use powerchop_gisa::{Cpu, Memory};
use powerchop_power::EnergyLedger;
use powerchop_serve::report_to_json;
use powerchop_telemetry::export::JsonWriter;
use powerchop_telemetry::Tracer;
use powerchop_uarch::{CoreModel, ExecMode};
use powerchop_workloads::{all, Benchmark, Scale};

use crate::spans::{Agg, SpanLog};
use crate::stats::{median, percentile, ratio};
use crate::{Metric, Tally};

/// Every run simulates the full-size programs...
pub const SCALE: Scale = Scale(1.0);
/// ...under the repository's default per-run budget, set here rather
/// than read from `POWERCHOP_BUDGET` so the environment cannot resize
/// the benchmark.
pub const BUDGET: u64 = 12_000_000;
/// Sweep width: the load is sized for a two-CPU host.
pub const JOBS: usize = 2;
/// Set-up passes per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Per-run latencies a measured run collects at least, so that p90 has
/// ten samples beyond it.
const MIN_RUN_SAMPLES: usize = 100;
/// Instructions each benchmark replays through the decoupled
/// interpreter/timing-model split.
const REPLAY_CAP: u64 = 2_000_000;
/// Instructions the decoupled replay interprets before it times the
/// timing model over them.
const REPLAY_BATCH: usize = 4096;

/// The fault schedule a workload runs under: none for `suite`, the
/// seeded storm for `suite-storm`.
pub fn faults(storm: bool, seed: u64) -> Option<FaultConfig> {
    storm.then(|| FaultConfig::storm(seed))
}

/// The configuration of one benchmark's run.
pub fn run_config(b: &Benchmark, jit: JitMode, faults: Option<FaultConfig>) -> RunConfig {
    let mut cfg = RunConfig::for_kind(b.core_kind());
    cfg.max_instructions = BUDGET;
    cfg.jit = jit;
    cfg.faults = faults;
    cfg
}

/// What one benchmark run produced.
pub struct Job {
    pub report: RunReport,
    /// The bytes the correctness gate compares.
    pub artifact: String,
    /// Host time of the whole run: program build, set-up, simulation.
    pub host_ns: u64,
}

/// The run artifact: the report as the CLI and the daemon print it,
/// plus the BT, fault and degradation counters it leaves out.
pub fn artifact(r: &RunReport) -> String {
    format!(
        "{}\n{:?}\n{:?}\n{:?}",
        report_to_json(r),
        r.bt,
        r.faults,
        r.degrade
    )
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn run_one(b: &Benchmark, jit: JitMode, faults: Option<FaultConfig>) -> Result<Job, String> {
    let t = Instant::now();
    let program = b.program(SCALE);
    let report = run_program(
        &program,
        ManagerKind::PowerChop,
        &run_config(b, jit, faults),
    )
    .map_err(|e| format!("{}: {e}", b.name()))?;
    Ok(Job {
        artifact: artifact(&report),
        host_ns: elapsed_ns(t),
        report,
    })
}

/// One pass over the roster, in roster order.
pub struct Sweep {
    pub wall_ns: u64,
    pub jobs: Vec<Result<Job, String>>,
}

impl Sweep {
    fn ok(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter_map(|j| j.as_ref().ok())
    }

    /// `f` summed over the reports of the runs that completed.
    pub fn total(&self, f: impl Fn(&RunReport) -> u64) -> f64 {
        self.ok().map(|j| f(&j.report)).sum::<u64>() as f64
    }

    pub fn job_ns(&self) -> u64 {
        self.ok().map(|j| j.host_ns).sum()
    }
}

/// The roster through the parallel sweep engine at `jobs` workers.
pub fn sweep(jobs: usize, jit: JitMode, faults: Option<FaultConfig>) -> Sweep {
    let t = Instant::now();
    let results = powerchop_exec::run_jobs(all(), jobs, |_, b| run_one(b, jit, faults));
    Sweep {
        wall_ns: elapsed_ns(t),
        jobs: results
            .into_iter()
            .map(|r| r.map_err(|panic| panic.to_string()).and_then(|job| job))
            .collect(),
    }
}

/// The roster one benchmark after another through direct `run_program`
/// calls, bypassing the sweep engine.
pub fn sequential(jit: JitMode, faults: Option<FaultConfig>) -> Sweep {
    let t = Instant::now();
    let jobs = all().iter().map(|b| run_one(b, jit, faults)).collect();
    Sweep {
        wall_ns: elapsed_ns(t),
        jobs,
    }
}

/// Counts one operation per job of `got`; a job fails when it errored
/// or its artifact differs from the same benchmark's in `reference`.
pub fn check(tally: &mut Tally, what: &str, got: &Sweep, reference: &Sweep) {
    for (i, (job, want)) in got.jobs.iter().zip(&reference.jobs).enumerate() {
        let name = all()[i].name();
        let verdict = match (job, want) {
            (Ok(job), Ok(want)) if job.artifact == want.artifact => Ok(()),
            (Ok(_), Ok(_)) => Err(format!("{what}: {name} differs from the reference")),
            (Err(e), _) => Err(format!("{what}: {e}")),
            (_, Err(e)) => Err(format!("{what}: reference failed: {e}")),
        };
        tally.record(verdict);
    }
}

/// Host seconds in `Benchmark::program` plus `Simulation::new` across
/// the roster, once per set-up pass.
fn setup_passes(faults: Option<FaultConfig>) -> Result<Vec<f64>, String> {
    (0..SETUP_REPS)
        .map(|_| {
            let mut total = 0.0;
            for b in all() {
                let cfg = run_config(b, JitMode::Auto, faults);
                let t = Instant::now();
                let program = b.program(SCALE);
                let sim = powerchop::Simulation::new(&program, ManagerKind::PowerChop, &cfg)
                    .map_err(|e| format!("{}: {e}", b.name()))?;
                total += t.elapsed().as_secs_f64();
                drop(sim);
            }
            Ok(total)
        })
        .collect()
}

/// A measured (untraced) run of `suite` or `suite-storm`.
pub fn measure(
    storm: bool,
    seed: u64,
    seconds: u64,
) -> Result<(Tally, Vec<Metric>, String), String> {
    let faults = faults(storm, seed);
    let setup = setup_passes(faults)?;

    let started = Instant::now();
    let mut sweeps = Vec::new();
    let mut runs = 0;
    while started.elapsed().as_secs() < seconds || runs < MIN_RUN_SAMPLES {
        let s = sweep(JOBS, JitMode::Auto, faults);
        runs += s.jobs.len();
        sweeps.push(s);
    }
    let measured_s = started.elapsed().as_secs_f64();
    let peak = crate::host::peak_rss_mib()?;

    let reference = sequential(JitMode::Off, faults);
    let mut tally = Tally::default();
    for s in &sweeps {
        check(&mut tally, "sweep", s, &reference);
    }

    let mips: Vec<f64> = sweeps
        .iter()
        .map(|s| s.total(|r| r.instructions) / (s.wall_ns as f64 / 1e3))
        .collect();
    let latencies: Vec<f64> = sweeps
        .iter()
        .flat_map(|s| s.ok().map(|j| j.host_ns as f64 / 1e6))
        .collect();
    let metrics = vec![
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new("peak_rss_mib", "MiB", peak),
        Metric::new("sim_mips", "Minstr/s", median(&mips)),
        Metric::new("run_p50_ms", "ms", percentile(&latencies, 50.0)?),
        Metric::new("run_p90_ms", "ms", percentile(&latencies, 90.0)?),
    ];
    let per_sweep: Vec<String> = mips.iter().map(|m| format!("{m:.2}")).collect();
    let samples = format!(
        r#"{{"setup_s":{},"sim_mips":{},"run_p50_ms":{n},"run_p90_ms":{n},"measured_s":{measured_s},"sweep_mips":[{}]}}"#,
        setup.len(),
        mips.len(),
        per_sweep.join(","),
        n = latencies.len(),
    );
    Ok((tally, metrics, samples))
}

/// A payload-jittered fault magnitude in `[mean/2, mean)`, never zero:
/// the same draw `Simulation`'s dispatch loop makes.
fn jittered(payload: u64, mean: u64) -> u64 {
    let mean = mean.max(1);
    let half = mean / 2;
    (half + payload % (mean - half).max(1)).max(1)
}

/// Per-call-kind folds of one traced run.
#[derive(Default)]
struct Calls {
    translation: Agg,
    install: Agg,
    interp: Agg,
    halt: Agg,
    on_translation: Agg,
    next_due: Agg,
    deliver: Agg,
    raise: Agg,
    context_switch: Agg,
    invalidate: Agg,
    on_fault: Agg,
    add_stall: Agg,
    sync: Agg,
}

/// Runs one benchmark through `Simulation`'s dispatch loop rebuilt from
/// public calls, timing each call into a layer, and returns the report
/// `Simulation::into_report` would build.
pub fn traced_run(
    b: &Benchmark,
    cfg: &RunConfig,
    run: u64,
    log: &mut SpanLog,
) -> Result<RunReport, String> {
    let root = log.open("run", run, None);
    let setup = log.open("setup", run, Some(root));
    let program = b.program(SCALE);
    let mut core = CoreModel::new(&cfg.core);
    let mut ledger = EnergyLedger::new(cfg.power.clone());
    // PowerChop gates semantically (only the timeout baseline does not).
    let mut controller = GatingController::new(&cfg.core, true);
    let mut nucleus = Nucleus::new();
    let mut tracer = Tracer::disabled();
    let mut machine = Machine::new(&program, cfg.bt);
    machine.set_jit_mode(cfg.jit);
    let mut manager = PowerChopManager::new(cfg.chop.clone(), cfg.record_windows);
    macro_rules! ctx {
        () => {
            ManagerCtx {
                core: &mut core,
                ledger: &mut ledger,
                controller: &mut controller,
                nucleus: &mut nucleus,
                trace: &mut tracer,
            }
        };
    }
    manager.init(&mut ctx!());
    let mut schedule = cfg.faults.map(FaultSchedule::new);
    log.close(setup);

    let mut c = Calls::default();
    // One clock read per boundary: each call's end is the next call's
    // start.
    let mut t = Instant::now();
    while machine.retired() < cfg.max_instructions {
        let event = machine
            .step(&mut core)
            .map_err(|e| format!("{}: {e}", b.name()))?;
        let stepped = Instant::now();
        match event {
            MachineEvent::Translation { id, instructions } => {
                c.translation.add(t, stepped);
                manager.on_translation(id, instructions, &mut ctx!());
                t = Instant::now();
                c.on_translation.add(stepped, t);
            }
            MachineEvent::Installed { .. } => {
                c.install.add(t, stepped);
                t = stepped;
            }
            MachineEvent::Halted => {
                c.halt.add(t, stepped);
                break;
            }
            _ => {
                c.interp.add(t, stepped);
                t = stepped;
            }
        }
        let Some(sched) = schedule.as_mut() else {
            continue;
        };
        let mut pending = sched.next_due(core.cycles());
        let due = Instant::now();
        c.next_due.add(t, due);
        t = due;
        if pending.is_none() {
            continue;
        }
        let fcfg = *sched.config();
        while let Some(event) = pending.take() {
            let a = Instant::now();
            match event.kind {
                FaultKind::AsyncInterrupt => {
                    let cycles = jittered(event.payload, fcfg.interrupt_handler_cycles);
                    nucleus.raise(&mut core, cycles);
                    c.raise.add(a, Instant::now());
                }
                FaultKind::ContextSwitch => {
                    machine.on_context_switch();
                    let b = Instant::now();
                    c.context_switch.add(a, b);
                    core.add_stall(fcfg.context_switch_cycles.max(1));
                    let d = Instant::now();
                    c.add_stall.add(b, d);
                    manager.on_fault(event.kind, event.payload, &mut ctx!());
                    c.on_fault.add(d, Instant::now());
                }
                FaultKind::RegionCacheInvalidation => {
                    machine.invalidate_regions(fcfg.region_invalidate_fraction, event.payload);
                    c.invalidate.add(a, Instant::now());
                }
                FaultKind::PvtCorruption | FaultKind::PvtEviction => {
                    manager.on_fault(event.kind, event.payload, &mut ctx!());
                    c.on_fault.add(a, Instant::now());
                }
                FaultKind::WorkloadPerturbation => {
                    core.add_stall(jittered(event.payload, fcfg.perturb_stall_cycles));
                    c.add_stall.add(a, Instant::now());
                }
            }
            pending = sched.next_due(core.cycles());
            let end = Instant::now();
            c.deliver.add(t, end);
            t = end;
        }
    }
    let synced = Instant::now();
    controller.sync(&core, &mut ledger);
    c.sync.add(synced, Instant::now());

    let finish = log.open("report", run, Some(root));
    let report = RunReport {
        name: program.name().to_owned(),
        manager: manager.name(),
        core_kind: cfg.core.kind,
        instructions: machine.retired(),
        cycles: core.cycles(),
        stats: core.stats(),
        bt: machine.stats(),
        energy: ledger.report(),
        gated: controller.gated_cycles(),
        switches: controller.switches(),
        nucleus: nucleus.stats(),
        pvt: manager.pvt_stats(),
        cde: manager.cde_stats(),
        windows: manager.take_window_records(),
        faults: schedule.as_ref().map(FaultSchedule::stats),
        degrade: manager.degrade_stats(),
        jit: machine.jit_report(),
    };
    log.close(finish);
    log.close(root);

    for (name, agg) in [
        ("bt.translation", &c.translation),
        ("bt.install", &c.install),
        ("bt.interp", &c.interp),
        ("bt.halt", &c.halt),
        ("powerchop.on_translation", &c.on_translation),
        ("faults.next_due", &c.next_due),
        ("power.sync", &c.sync),
    ] {
        log.push_agg(name, run, root, agg);
    }
    if let Some(deliver) = log.push_agg("faults.deliver", run, root, &c.deliver) {
        for (name, agg) in [
            ("bt.nucleus.raise", &c.raise),
            ("bt.on_context_switch", &c.context_switch),
            ("bt.invalidate_regions", &c.invalidate),
            ("powerchop.on_fault", &c.on_fault),
            ("uarch.add_stall", &c.add_stall),
        ] {
            log.push_agg(name, run, deliver, agg);
        }
    }
    Ok(report)
}

/// The traced driver over the whole roster; returns its host time. Each
/// report is checked against the untraced run of the same benchmark.
fn traced_sweep(
    faults: Option<FaultConfig>,
    untraced: &Sweep,
    tally: &mut Tally,
    log: &mut SpanLog,
) -> u64 {
    let t = Instant::now();
    for (i, b) in all().iter().enumerate() {
        let cfg = run_config(b, JitMode::Auto, faults);
        let got = traced_run(b, &cfg, i as u64, log);
        let verdict = match (&got, &untraced.jobs[i]) {
            (Ok(r), Ok(want)) if artifact(r) == want.artifact => Ok(()),
            (Ok(_), Ok(_)) => Err(format!(
                "traced {}: differs from the untraced run",
                b.name()
            )),
            (Err(e), _) => Err(format!("traced {e}")),
            (_, Err(e)) => Err(format!("untraced {e}")),
        };
        tally.record(verdict);
    }
    elapsed_ns(t)
}

/// Interprets up to [`REPLAY_CAP`] instructions of `b` in batches with
/// `Cpu::step`, then runs `CoreModel::on_step` over each batch, timing
/// the two apart. Returns (instructions, interpreter ns, timing ns).
fn replay(b: &Benchmark, run: u64, log: &mut SpanLog) -> Result<(u64, u64, u64), String> {
    let root = log.open("replay", run, None);
    let program = b.program(SCALE);
    let mut cpu = Cpu::new(&program);
    let mut mem = Memory::new();
    program.init_memory(&mut mem);
    let mut core = CoreModel::new(&run_config(b, JitMode::Off, None).core);
    let mut buf = Vec::with_capacity(REPLAY_BATCH);
    let (mut gisa, mut uarch) = (Agg::default(), Agg::default());
    while !cpu.halted() && cpu.retired() < REPLAY_CAP {
        buf.clear();
        let t0 = Instant::now();
        while buf.len() < REPLAY_BATCH && !cpu.halted() {
            buf.push(
                cpu.step(&program, &mut mem)
                    .map_err(|e| format!("{}: {e}", b.name()))?,
            );
        }
        let t1 = Instant::now();
        for info in &buf {
            core.on_step(info, ExecMode::Translated);
        }
        uarch.add(t1, Instant::now());
        gisa.add(t0, t1);
    }
    std::hint::black_box(core.cycles());
    log.close(root);
    log.push_agg("gisa.step", run, root, &gisa);
    log.push_agg("uarch.on_step", run, root, &uarch);
    Ok((cpu.retired(), gisa.busy_ns, uarch.busy_ns))
}

/// Host ms of `ns`.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The traced profile of the suite layers: the clean roster (dispatch,
/// JIT, timing model, manager), the storm roster (install, interpreter,
/// fault delivery) and the decoupled replay. `logs` receives the spans
/// of each, in that order.
pub fn profile(
    seed: u64,
    tally: &mut Tally,
    samples: &mut JsonWriter,
    logs: &mut Vec<(&'static str, SpanLog)>,
) -> Result<Vec<Metric>, String> {
    let storm = faults(true, seed);

    // Clean roster: JIT off and on one after another (the speed-up and
    // the traced driver's untraced twin), then the sweep engine.
    let off = sequential(JitMode::Off, None);
    let on = sequential(JitMode::Auto, None);
    check(tally, "jit-on", &on, &off);
    let swept = sweep(JOBS, JitMode::Auto, None);
    check(tally, "sweep", &swept, &off);
    let mut clean_log = SpanLog::new();
    let clean_traced_ns = traced_sweep(None, &on, tally, &mut clean_log);

    // Storm roster.
    let storm_on = sequential(JitMode::Auto, storm);
    let storm_swept = sweep(JOBS, JitMode::Auto, storm);
    check(tally, "storm sweep", &storm_swept, &storm_on);
    let mut storm_log = SpanLog::new();
    let storm_traced_ns = traced_sweep(storm, &storm_on, tally, &mut storm_log);

    let mut replay_log = SpanLog::new();
    let (mut instrs, mut gisa_ns, mut uarch_ns) = (0, 0, 0);
    for (i, b) in all().iter().enumerate() {
        let (n, g, u) = replay(b, i as u64, &mut replay_log)?;
        instrs += n;
        gisa_ns += g;
        uarch_ns += u;
    }

    let r = |f: &dyn Fn(&RunReport) -> u64| on.total(f);
    let jit = |f: fn(&powerchop::JitReport) -> u64| on.total(|x| x.jit.as_ref().map_or(0, f));
    let translated = r(&|x| x.bt.translated_instructions);
    let executions = r(&|x| x.bt.translation_executions);
    let cycles = r(&|x| x.cycles);

    let cl = &clean_log;
    let st = &storm_log;
    let translation_calls = cl.calls("bt.translation");
    let on_translation_calls = cl.calls("powerchop.on_translation");
    let install_calls = st.calls("bt.install");
    let busy = swept.job_ns() + storm_swept.job_ns();
    let wall = swept.wall_ns + storm_swept.wall_ns;
    let untraced = on.job_ns() + storm_on.job_ns();

    let metrics = vec![
        Metric::new("bt.translation.calls", "count", translation_calls as f64),
        Metric::new(
            "bt.translation.self_ms",
            "ms",
            ms(cl.self_ns("bt.translation")),
        ),
        Metric::new(
            "bt.translation.ns_per_instr",
            "ns/instr",
            ratio(cl.self_ns("bt.translation") as f64, translated),
        ),
        Metric::new(
            "gisa.step.ns_per_instr",
            "ns/instr",
            ratio(gisa_ns as f64, instrs as f64),
        ),
        Metric::new(
            "uarch.on_step.ns_per_instr",
            "ns/instr",
            ratio(uarch_ns as f64, instrs as f64),
        ),
        Metric::new(
            "jit.sweep_speedup",
            "x",
            ratio(off.wall_ns as f64, on.wall_ns as f64),
        ),
        Metric::new(
            "jit.exec_hit_ratio",
            "ratio",
            ratio(jit(|j| j.stats.exec_hits), executions),
        ),
        Metric::new(
            "jit.translations_compiled",
            "count",
            jit(|j| j.stats.translations_compiled),
        ),
        Metric::new("jit.code_bytes", "bytes", jit(|j| j.stats.code_bytes)),
        Metric::new(
            "powerchop.on_translation.self_ms",
            "ms",
            ms(cl.self_ns("powerchop.on_translation")),
        ),
        Metric::new(
            "powerchop.on_translation.ns_per_call",
            "ns",
            ratio(
                cl.self_ns("powerchop.on_translation") as f64,
                on_translation_calls as f64,
            ),
        ),
        Metric::new(
            "powerchop.pvt_hit_ratio",
            "ratio",
            ratio(
                r(&|x| x.pvt.map_or(0, |p| p.hits)),
                r(&|x| x.pvt.map_or(0, |p| p.lookups)),
            ),
        ),
        Metric::new(
            "powerchop.switches_per_mcycle",
            "1/Mcycle",
            ratio(r(&|x| x.switches.total()) * 1e6, cycles),
        ),
        Metric::new("bt.install.calls", "count", install_calls as f64),
        Metric::new("bt.install.self_ms", "ms", ms(st.self_ns("bt.install"))),
        Metric::new(
            "bt.install.us_per_call",
            "us",
            ratio(st.self_ns("bt.install") as f64 / 1e3, install_calls as f64),
        ),
        Metric::new("bt.interp.calls", "count", st.calls("bt.interp") as f64),
        Metric::new("bt.interp.self_ms", "ms", ms(st.self_ns("bt.interp"))),
        Metric::new(
            "bt.translations_built",
            "count",
            storm_on.total(|x| x.bt.translations_built),
        ),
        Metric::new(
            "faults.deliver.calls",
            "count",
            st.calls("faults.deliver") as f64,
        ),
        Metric::new(
            "faults.deliver.self_ms",
            "ms",
            ms(st.self_ns("faults.deliver")),
        ),
        Metric::new(
            "faults.delivered",
            "count",
            storm_on.total(|x| x.faults.map_or(0, |f| f.total())),
        ),
        Metric::new(
            "exec.busy_ratio",
            "ratio",
            ratio(busy as f64, (JOBS as u64 * wall) as f64),
        ),
        Metric::new(
            "bt.translated_ratio",
            "ratio",
            ratio(translated, r(&|x| x.instructions)),
        ),
        Metric::new("bt.trace_len_mean", "instr", ratio(translated, executions)),
        Metric::new(
            "bt.side_exit_ratio",
            "ratio",
            ratio(r(&|x| x.bt.side_exits), executions),
        ),
        Metric::new(
            "uarch.ipc",
            "instr/cycle",
            ratio(r(&|x| x.instructions), cycles),
        ),
        Metric::new(
            "uarch.mlc_hit_ratio",
            "ratio",
            ratio(r(&|x| x.stats.mlc_hits), r(&|x| x.stats.mlc_accesses)),
        ),
        Metric::new(
            "uarch.mispredict_ratio",
            "ratio",
            ratio(r(&|x| x.stats.mispredicts), r(&|x| x.stats.branches)),
        ),
        Metric::new(
            "trace.overhead_ratio",
            "ratio",
            ratio((clean_traced_ns + storm_traced_ns) as f64, untraced as f64) - 1.0,
        ),
    ];
    samples.field_u64("suite.runs", on.ok().count() as u64);
    samples.field_u64("suite-storm.runs", storm_on.ok().count() as u64);
    samples.field_u64("replay.instructions", instrs);
    logs.push(("suite", clean_log));
    logs.push(("suite-storm", storm_log));
    logs.push(("replay", replay_log));
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two benchmarks with the shortest mean trace and the two with
    /// the longest, at the full budget.
    const PICKS: [&str; 4] = ["perlbench", "sjeng", "gems", "streamcluster"];

    #[test]
    fn traced_driver_matches_simulation_byte_for_byte() {
        for name in PICKS {
            let b = powerchop_workloads::by_name(name).expect("benchmark on the roster");
            for jit in [JitMode::Auto, JitMode::Off] {
                for faults in [None, faults(true, 0xC0FFEE)] {
                    let mut cfg = run_config(b, jit, faults);
                    cfg.max_instructions = 300_000;
                    let program = b.program(SCALE);
                    let want = run_program(&program, ManagerKind::PowerChop, &cfg)
                        .expect("untraced run completes");
                    let mut log = SpanLog::new();
                    let got = traced_run(b, &cfg, 0, &mut log).expect("traced run completes");
                    assert_eq!(
                        artifact(&got),
                        artifact(&want),
                        "{name} jit={jit} storm={}",
                        faults.is_some()
                    );
                    assert_eq!(got.jit, want.jit, "{name} jit={jit}");
                    assert!(log.calls("bt.translation") > 0, "{name}");
                }
            }
        }
    }
}
