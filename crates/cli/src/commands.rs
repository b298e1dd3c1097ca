//! Command implementations.

use std::collections::HashMap;

use powerchop::{
    read_meta, run_program, run_program_traced, ManagerKind, RunConfig, RunReport, Simulation,
    STEP_CHUNK,
};
use powerchop_durable::write_atomic;
use powerchop_faults::FaultConfig;
use powerchop_gisa::Program;
use powerchop_serve::durability::{snapshot_meta, Prepared};
use powerchop_serve::DEFAULT_FAULT_SEED;
use powerchop_telemetry::export::JsonWriter;
use powerchop_telemetry::{export, timeline, TelemetryConfig, Tracer};
use powerchop_uarch::cache::MlcWayState;
use powerchop_uarch::config::{CoreConfig, CoreKind};
use powerchop_workloads::{Benchmark, Scale, Suite};

use crate::args::{parse_manager, Command, RunOpts, USAGE};
use crate::CliError;

/// Executes a parsed command.
///
/// # Errors
///
/// Propagates [`CliError`]s from lookups, I/O and guest execution.
pub fn dispatch(command: Command) -> Result<(), CliError> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Info => info(),
        Command::List { suite } => list(suite.as_deref()),
        Command::Run { bench, opts } => run_one(&bench, &opts),
        Command::RunAll { opts } => run_all(&opts),
        Command::Compare { bench, opts } => compare(&bench, &opts),
        Command::Timeline { bench, opts } => timeline_cmd(&bench, &opts),
        Command::Asm { path, opts } => run_asm(&path, &opts),
        Command::Profile { bench, opts } => profile_bench(&bench, &opts),
        Command::Trace { bench, opts } => trace_cmd(&bench, &opts),
        Command::Stress { bench, opts } => stress(bench.as_deref(), &opts),
        Command::Checkpoint {
            bench,
            at,
            out,
            opts,
        } => checkpoint_cmd(&bench, at, out.as_deref(), &opts),
        Command::Resume { path, json } => resume_cmd(&path, json),
        Command::Supervise { benches, opts, sup } => {
            crate::supervise::supervise(&benches, opts, &sup)
        }
        Command::Serve { opts } => serve_cmd(&opts),
        Command::Soak { opts } => crate::soak::soak_cmd(&opts),
        Command::Top { opts } => crate::top::top_cmd(&opts),
    }
}

/// Validates a directory flag up front: the path must be creatable and
/// writable *now*, so a typo'd `--journal-dir` fails at startup with
/// the flag name and raw value (the parse-error convention) instead of
/// surfacing as a confusing bind error — or worse, a daemon that only
/// discovers its journal is read-only at the first crash.
fn validate_writable_dir(flag: &str, raw: &str) -> Result<(), CliError> {
    let check = || -> std::io::Result<()> {
        std::fs::create_dir_all(raw)?;
        let probe = std::path::Path::new(raw).join(".powerchop-writable");
        std::fs::write(&probe, b"probe")?;
        std::fs::remove_file(&probe)
    };
    check().map_err(|e| {
        CliError(format!(
            "{flag}: invalid value {raw:?}: {e} (expected a writable directory path)"
        ))
    })
}

/// The `serve` command: bind the daemon, announce the resolved address
/// on stdout (port 0 picks a free port, so callers need the real one),
/// and block until an in-protocol shutdown drains it. With
/// `--supervised` this process instead becomes the self-healing parent
/// and the daemon runs as a respawnable child.
fn serve_cmd(opts: &crate::args::ServeOpts) -> Result<(), CliError> {
    // Both modes validate the durability directories up front; the
    // respawn parent additionally needs them validated *before* the
    // first child is forked, not on its own crash path.
    if let Some(dir) = &opts.server.journal_dir {
        validate_writable_dir("--journal-dir", dir)?;
    }
    if let Some(dir) = &opts.server.cache_dir {
        validate_writable_dir("--cache-dir", dir)?;
    }
    if opts.supervised {
        return crate::respawn::serve_supervised(opts);
    }
    let server = powerchop_serve::Server::bind(&opts.server)?;
    println!("powerchop-serve listening on {}", server.local_addr());
    std::io::Write::flush(&mut std::io::stdout())?;
    server.run()?;
    println!("powerchop-serve drained; exiting");
    Ok(())
}

fn suite_by_name(name: &str) -> Result<Suite, CliError> {
    Suite::by_name(name).ok_or_else(|| {
        CliError(format!(
            "unknown suite `{name}` (expected spec-int|spec-fp|parsec|mobile)"
        ))
    })
}

pub(crate) fn benchmark(name: &str) -> Result<&'static Benchmark, CliError> {
    powerchop_workloads::by_name(name).ok_or_else(|| {
        CliError(format!(
            "unknown benchmark `{name}` — try `powerchop-cli list`"
        ))
    })
}

/// The tracer a command's options ask for: recording when `--trace` or
/// `--metrics` was given, the no-op tracer otherwise.
pub(crate) fn tracer_for(opts: &RunOpts) -> Tracer {
    if opts.wants_telemetry() {
        Tracer::enabled(TelemetryConfig::default())
    } else {
        Tracer::disabled()
    }
}

/// Writes the requested telemetry artifacts from a finished tracer: the
/// Chrome trace-event JSON to `trace` and the Prometheus text dump to
/// `metrics` (each skipped when not requested or the tracer is inert).
pub(crate) fn write_telemetry(
    tracer: &Tracer,
    trace: Option<&str>,
    metrics: Option<&str>,
) -> Result<(), CliError> {
    let Some(rec) = tracer.recorder() else {
        return Ok(());
    };
    if let Some(path) = trace {
        std::fs::write(path, export::chrome_trace_json(&rec.events()))?;
        eprintln!("wrote Chrome trace to {path}");
    }
    if let Some(path) = metrics {
        std::fs::write(path, rec.metrics().to_prometheus_text())?;
        eprintln!("wrote Prometheus metrics to {path}");
    }
    Ok(())
}

/// Writes one sweep run's telemetry: `--trace`/`--metrics` fan out to
/// [`per_bench_path`]s, so concurrent runs never collide (the "wrote
/// ..." notes go to stderr, not the report).
pub(crate) fn write_bench_telemetry(
    tracer: &Tracer,
    opts: &RunOpts,
    bench: &str,
) -> Result<(), CliError> {
    let path = |flag: &Option<String>| flag.as_deref().map(|p| per_bench_path(p, bench));
    write_telemetry(
        tracer,
        path(&opts.trace).as_deref(),
        path(&opts.metrics).as_deref(),
    )
}

/// Derives the per-benchmark output path sweeps use: `out.json` becomes
/// `out-<bench>.json` so one `--trace`/`--metrics` flag fans out without
/// the runs overwriting each other.
pub(crate) fn per_bench_path(path: &str, bench: &str) -> String {
    let p = std::path::Path::new(path);
    let stem = p
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("telemetry");
    let ext = p
        .extension()
        .and_then(|s| s.to_str())
        .map(|e| format!(".{e}"))
        .unwrap_or_default();
    p.with_file_name(format!("{stem}-{bench}{ext}"))
        .to_string_lossy()
        .into_owned()
}

fn list(suite: Option<&str>) -> Result<(), CliError> {
    let filter = suite.map(suite_by_name).transpose()?;
    println!("{:<14} {:<12} {:<7}", "benchmark", "suite", "core");
    for b in powerchop_workloads::all() {
        if filter.is_some_and(|s| s != b.suite()) {
            continue;
        }
        println!(
            "{:<14} {:<12} {:<7}",
            b.name(),
            b.suite().to_string(),
            b.core_kind()
        );
    }
    Ok(())
}

fn info() -> Result<(), CliError> {
    for cfg in [CoreConfig::server(), CoreConfig::mobile()] {
        println!(
            "{}: {}-wide issue, {}-lane VPU ({:.0}% area), {} KiB {}-way MLC ({:.0}% area), \
             tournament BPU {}-entry BTB ({:.0}% area)",
            cfg.kind,
            cfg.issue_width,
            cfg.simd_lanes,
            100.0 * cfg.area.vpu,
            cfg.mlc.size_kib,
            cfg.mlc.ways,
            100.0 * cfg.area.mlc,
            cfg.bpu.large_btb_entries,
            100.0 * cfg.area.bpu,
        );
    }
    Ok(())
}

fn print_report(r: &RunReport) {
    println!("program        {}", r.name);
    println!("manager        {}", r.manager);
    println!("core           {}", r.core_kind);
    println!("instructions   {}", r.instructions);
    println!("cycles         {}", r.cycles);
    println!("IPC            {:.3}", r.ipc());
    println!("avg power      {:.3} W", r.energy.avg_power_w);
    println!("  leakage      {:.3} W", r.energy.leakage_power_w);
    println!("  dynamic      {:.3} W", r.energy.dynamic_power_w);
    println!("energy         {:.3} mJ", r.energy.total_j * 1e3);
    println!("VPU gated      {:.1} %", 100.0 * r.gated.vpu_off_frac());
    println!("BPU gated      {:.1} %", 100.0 * r.gated.bpu_off_frac());
    println!("MLC way-gated  {:.1} %", 100.0 * r.gated.mlc_gated_frac());
    println!(
        "switches       {} (VPU {}, BPU {}, MLC {})",
        r.switches.total(),
        r.switches.vpu,
        r.switches.bpu,
        r.switches.mlc
    );
    if let (Some(pvt), Some(cde)) = (r.pvt, r.cde) {
        println!(
            "phases         {} decided ({} PVT lookups, {} misses, {} re-registered)",
            cde.decided,
            pvt.lookups,
            pvt.misses(),
            cde.reregistered
        );
    }
}

fn run_one(bench: &str, opts: &RunOpts) -> Result<(), CliError> {
    let pr = prepare(bench, opts)?;
    let (report, tracer) = run_program_traced(&pr.program, pr.kind, &pr.cfg, tracer_for(opts))?;
    write_telemetry(&tracer, opts.trace.as_deref(), opts.metrics.as_deref())?;
    if opts.json {
        println!("{}", report_to_json(&report));
    } else {
        print_report(&report);
    }
    Ok(())
}

/// The `trace` command: run with the flight recorder always on and
/// render the phase/gating timeline from the recorded event stream
/// (plus any `--trace`/`--metrics` files the flags asked for).
fn trace_cmd(bench: &str, opts: &RunOpts) -> Result<(), CliError> {
    let pr = prepare(bench, opts)?;
    let tracer = Tracer::enabled(TelemetryConfig::default());
    let (report, tracer) = run_program_traced(&pr.program, pr.kind, &pr.cfg, tracer)?;
    write_telemetry(&tracer, opts.trace.as_deref(), opts.metrics.as_deref())?;
    if let Some(rec) = tracer.recorder() {
        println!(
            "{bench} ({}, {} manager): {} instructions, {} cycles",
            report.core_kind, report.manager, report.instructions, report.cycles
        );
        print!("{}", timeline::render(&rec.events(), report.cycles, 96));
        if rec.ring().dropped() > 0 {
            println!(
                "note: ring wrapped — {} oldest event(s) dropped; early history is missing",
                rec.ring().dropped()
            );
        }
    }
    Ok(())
}

// The report serializer lives in `powerchop-serve` now (the daemon's
// bit-identical-reply contract depends on it); re-exported here so
// existing `cli::commands::report_to_json` callers keep working.
pub use powerchop_serve::report_to_json;

/// `run --all`: every benchmark, fanned out on the work-stealing pool.
/// Jobs only compute; all printing happens after the pool drains, folding
/// results in benchmark order, so stdout is byte-identical at any
/// `--jobs` value.
fn run_all(opts: &RunOpts) -> Result<(), CliError> {
    let benches: Vec<&'static Benchmark> = powerchop_workloads::all().iter().collect();
    let jobs = powerchop_exec::resolve_jobs(opts.jobs);
    let results = powerchop_exec::run_jobs(&benches, jobs, |_, b| -> Result<RunReport, CliError> {
        let pr = prepare(b.name(), opts)?;
        let (report, tracer) = run_program_traced(&pr.program, pr.kind, &pr.cfg, tracer_for(opts))?;
        write_bench_telemetry(&tracer, opts, b.name())?;
        Ok(report)
    });

    let mut reports = Vec::with_capacity(benches.len());
    let mut failures = Vec::new();
    for (b, result) in benches.iter().zip(results) {
        match result {
            Ok(Ok(report)) => reports.push(report),
            Ok(Err(e)) => failures.push(format!("{}: {e}", b.name())),
            Err(p) => failures.push(format!("{}: panicked: {}", b.name(), p.message)),
        }
    }
    if opts.json {
        let mut w = JsonWriter::array();
        for r in &reports {
            w.push_raw(&report_to_json(r));
        }
        println!("{}", w.finish());
    } else {
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print_report(r);
        }
        // Stderr, so stdout stays identical at every thread count.
        eprintln!(
            "ran {} benchmarks on {jobs} worker thread(s)",
            reports.len()
        );
    }
    if !failures.is_empty() {
        return Err(CliError(format!(
            "{} benchmark(s) failed: {}",
            failures.len(),
            failures.join("; ")
        )));
    }
    Ok(())
}

fn compare(bench: &str, opts: &RunOpts) -> Result<(), CliError> {
    let pr = prepare(bench, opts)?;
    let full = run_program(&pr.program, ManagerKind::FullPower, &pr.cfg)?;
    let chop = run_program(&pr.program, ManagerKind::PowerChop, &pr.cfg)?;
    println!("{bench} on the {} core:", pr.cfg.core.kind);
    println!("  IPC            {:.3} -> {:.3}", full.ipc(), chop.ipc());
    println!(
        "  power          {:.2} W -> {:.2} W ({:+.1} %)",
        full.energy.avg_power_w,
        chop.energy.avg_power_w,
        -100.0 * chop.power_reduction_vs(&full)
    );
    println!(
        "  leakage        {:.2} W -> {:.2} W ({:+.1} %)",
        full.energy.leakage_power_w,
        chop.energy.leakage_power_w,
        -100.0 * chop.leakage_reduction_vs(&full)
    );
    println!("  slowdown       {:.2} %", 100.0 * chop.slowdown_vs(&full));
    println!(
        "  energy/instr   {:+.1} %",
        -100.0 * chop.energy_reduction_vs(&full)
    );
    Ok(())
}

fn timeline_cmd(bench: &str, opts: &RunOpts) -> Result<(), CliError> {
    let mut pr = prepare(bench, opts)?;
    pr.cfg.record_windows = true;
    let report = run_program(&pr.program, ManagerKind::PowerChop, &pr.cfg)?;
    print_timeline(&report);
    Ok(())
}

fn print_timeline(report: &RunReport) {
    let mut names: HashMap<_, char> = HashMap::new();
    let mut next = b'A';
    let line = |f: &dyn Fn(&powerchop::managers::WindowRecord) -> char, tag: &str| {
        print!("{tag:<10}");
        for w in &report.windows {
            print!("{}", f(w));
        }
        println!();
    };
    print!("{:<10}", "phase");
    for w in &report.windows {
        let c = *names.entry(w.signature).or_insert_with(|| {
            let c = next as char;
            next = (next + 1).min(b'z');
            c
        });
        print!("{c}");
    }
    println!();
    line(&|w| if w.policy.vpu_on { '#' } else { '.' }, "VPU");
    line(&|w| if w.policy.bpu_on { '#' } else { '.' }, "BPU");
    line(
        &|w| match w.policy.mlc {
            MlcWayState::Full => '8',
            MlcWayState::Half => '4',
            MlcWayState::Quarter => '2',
            MlcWayState::One => '1',
        },
        "MLC",
    );
    println!(
        "\n{} windows, {} phases, {} policy switches ('#' on, '.' gated, MLC digit = ways)",
        report.windows.len(),
        names.len(),
        report.switches.total()
    );
}

fn run_asm(path: &str, opts: &RunOpts) -> Result<(), CliError> {
    let source = std::fs::read_to_string(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program");
    let program: Program = powerchop_gisa::asm::assemble(name, &source)?;
    let pr = prepare_program(program, CoreKind::Server, opts);
    let report = run_program(&pr.program, pr.kind, &pr.cfg)?;
    if opts.json {
        println!("{}", report_to_json(&report));
    } else {
        print_report(&report);
    }
    Ok(())
}

/// Prepares `program` on the `core` design point from the run-shaping
/// flags: the shared [`Prepared::new`] builder (budget, fault schedule,
/// run key), then `--jit` on top, so every run command, `checkpoint`,
/// `resume` and `supervise` reconstruct a run identically.
fn prepare_program(program: Program, core: CoreKind, opts: &RunOpts) -> Prepared {
    let spec = opts.spec(program.name());
    let mut pr = Prepared::new(program, RunConfig::for_kind(core), &spec);
    if let Some(jit) = opts.jit {
        pr.cfg.jit = jit;
    }
    pr
}

/// Prepares benchmark `bench` at `opts.scale` (see [`prepare_program`]).
pub(crate) fn prepare(bench: &str, opts: &RunOpts) -> Result<Prepared, CliError> {
    let b = benchmark(bench)?;
    Ok(prepare_program(
        b.program(Scale(opts.scale)),
        b.core_kind(),
        opts,
    ))
}

fn checkpoint_cmd(bench: &str, at: u64, out: Option<&str>, opts: &RunOpts) -> Result<(), CliError> {
    let pr = prepare(bench, opts)?;
    let mut sim = Simulation::new(&pr.program, pr.kind, &pr.cfg)?;
    while !sim.is_done() && sim.retired() < at {
        sim.step_chunk(STEP_CHUNK)?;
    }
    let bytes = sim.snapshot(&snapshot_meta(&opts.spec(bench)));
    let default_name = format!("{bench}.ckpt");
    let path = std::path::Path::new(out.unwrap_or(&default_name));
    write_atomic(path, &bytes)?;
    println!(
        "wrote {} ({} bytes) at {} retired instructions{}",
        path.display(),
        bytes.len(),
        sim.retired(),
        if sim.is_done() {
            " (run already complete)"
        } else {
            ""
        }
    );
    Ok(())
}

fn resume_cmd(path: &str, json: bool) -> Result<(), CliError> {
    let bytes = std::fs::read(path)?;
    let meta = read_meta(&bytes).map_err(|e| CliError(format!("{path}: {e}")))?;
    let opts = RunOpts {
        manager: parse_manager(&meta.manager)?,
        budget: meta.budget,
        scale: meta.scale,
        seed: meta.fault_seed,
        storm: meta.storm,
        ..RunOpts::default()
    };
    let pr = prepare(&meta.benchmark, &opts)?;
    let mut sim = Simulation::restore(&pr.program, pr.kind, &pr.cfg, &bytes)
        .map_err(|e| CliError(format!("{path}: {e}")))?;
    let resumed_at = sim.retired();
    sim.run_to_completion()?;
    let report = sim.into_report();
    if json {
        println!("{}", report_to_json(&report));
    } else {
        println!(
            "resumed {} at {} retired instructions",
            meta.benchmark, resumed_at
        );
        print_report(&report);
    }
    Ok(())
}

/// One benchmark's stress outcome; the default row is a benchmark that
/// panicked before anything could be measured.
#[derive(Default)]
struct StressRow {
    name: &'static str,
    survived: bool,
    instructions: u64,
    slowdown: f64,
    faults: u64,
    anomalies: u64,
    failsafes: u64,
    pinned: u64,
}

fn stress_one(
    b: &'static Benchmark,
    fault_cfg: FaultConfig,
    opts: &RunOpts,
) -> Result<StressRow, CliError> {
    let Prepared {
        program, kind, cfg, ..
    } = prepare(b.name(), opts)?;
    let mut clean_cfg = cfg.clone();
    clean_cfg.faults = None;
    let mut faulted_cfg = cfg;
    faulted_cfg.faults = Some(fault_cfg);

    let clean = run_program(&program, ManagerKind::FullPower, &clean_cfg)?;
    let (faulted, tracer) = run_program_traced(&program, kind, &faulted_cfg, tracer_for(opts))?;
    write_bench_telemetry(&tracer, opts, b.name())?;
    let degrade = faulted.degrade.unwrap_or_default();
    Ok(StressRow {
        name: b.name(),
        survived: true,
        instructions: faulted.instructions,
        slowdown: faulted.slowdown_vs(&clean),
        faults: faulted.faults.map_or(0, |f| f.total()),
        anomalies: degrade.anomalies,
        failsafes: degrade.failsafe_transitions,
        pinned: degrade.phases_pinned,
    })
}

fn stress(bench: Option<&str>, opts: &RunOpts) -> Result<(), CliError> {
    let seed = opts.seed.unwrap_or(DEFAULT_FAULT_SEED);
    let fault_cfg = if opts.storm {
        FaultConfig::storm(seed)
    } else {
        FaultConfig::default_rates(seed)
    };
    let benches: Vec<&'static Benchmark> = match bench {
        Some(name) => vec![benchmark(name)?],
        None => powerchop_workloads::all().iter().collect(),
    };

    // Fan the per-benchmark runs out on the job pool; rows fold back in
    // benchmark order, so the table and JSON below are byte-identical at
    // any thread count. The survival guarantee is the whole point of the
    // command, so a job that panics (the pool catches it) becomes a
    // failed row rather than taking down the sweep.
    let jobs = powerchop_exec::resolve_jobs(opts.jobs);
    let results = powerchop_exec::run_jobs(&benches, jobs, |_, b| stress_one(b, fault_cfg, opts));
    let mut rows = Vec::with_capacity(benches.len());
    for (b, result) in benches.iter().zip(results) {
        match result {
            Ok(row) => rows.push(row?),
            Err(_) => rows.push(StressRow {
                name: b.name(),
                ..StressRow::default()
            }),
        }
    }

    if opts.json {
        let mut runs = JsonWriter::array();
        for r in &rows {
            let mut o = JsonWriter::object();
            o.field_str("benchmark", r.name);
            o.field_bool("survived", r.survived);
            o.field_u64("instructions", r.instructions);
            o.field_f64("slowdown", r.slowdown, 6);
            o.field_u64("faults", r.faults);
            o.field_u64("anomalies", r.anomalies);
            o.field_u64("failsafe_transitions", r.failsafes);
            o.field_u64("phases_pinned", r.pinned);
            runs.push_raw(&o.finish());
        }
        let mut w = JsonWriter::object();
        w.field_u64("seed", seed);
        w.field_bool("storm", opts.storm);
        w.field_raw("runs", &runs.finish());
        println!("{}", w.finish());
    } else {
        println!(
            "fault injection: seed {seed}{} — slowdown is vs a clean full-power run",
            if opts.storm {
                ", storm rates (10x)"
            } else {
                ", default rates"
            }
        );
        println!(
            "{:<14} {:>8} {:>12} {:>9} {:>8} {:>9} {:>9} {:>7}",
            "benchmark",
            "status",
            "insts",
            "slowdown",
            "faults",
            "anomalies",
            "failsafes",
            "pinned"
        );
        for r in &rows {
            println!(
                "{:<14} {:>8} {:>12} {:>8.2}% {:>8} {:>9} {:>9} {:>7}",
                r.name,
                if r.survived { "ok" } else { "PANIC" },
                r.instructions,
                100.0 * r.slowdown,
                r.faults,
                r.anomalies,
                r.failsafes,
                r.pinned
            );
        }
        let survivors = rows.iter().filter(|r| r.survived).count();
        let worst = rows.iter().fold(0.0f64, |m, r| m.max(r.slowdown));
        println!(
            "\n{survivors}/{} survived; worst slowdown {:.2}%",
            rows.len(),
            100.0 * worst
        );
    }
    if rows.iter().any(|r| !r.survived) {
        return Err(CliError(
            "at least one benchmark panicked under fault injection".into(),
        ));
    }
    Ok(())
}

fn profile_bench(bench: &str, opts: &RunOpts) -> Result<(), CliError> {
    let b = benchmark(bench)?;
    let program = b.program(Scale(opts.scale));
    let prof = powerchop_workloads::stats::profile(&program, opts.budget)?;
    println!("{bench} ({} suite, {} core):", b.suite(), b.core_kind());
    println!("  instructions   {}", prof.instructions);
    println!("  completed      {}", prof.completed);
    println!("  vector share   {:.2} %", 100.0 * prof.vector_share());
    println!("  branch share   {:.2} %", 100.0 * prof.branch_share());
    println!("  memory share   {:.2} %", 100.0 * prof.memory_share());
    println!("  data span      {} KiB", prof.touched_span_bytes / 1024);
    println!(
        "  sparse-V shards {:.1} % (0 < V <= 4 per 1000 insts)",
        100.0 * prof.sparse_vector_shard_fraction()
    );
    let mut classes: Vec<_> = prof.class_counts.iter().collect();
    classes.sort_by_key(|(_, n)| std::cmp::Reverse(**n));
    println!("  instruction mix:");
    for (class, n) in classes {
        println!(
            "    {:<10} {:>6.2} % ({n})",
            format!("{class:?}"),
            100.0 * *n as f64 / prof.instructions as f64
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_writable_dir_names_the_flag_and_raw_value() {
        let dir = std::env::temp_dir().join(format!("powerchop-cli-wdir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ok = dir.join("journal");
        validate_writable_dir("--journal-dir", &ok.to_string_lossy()).unwrap();
        // A regular file is not a writable directory.
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"x").unwrap();
        let raw = file.to_string_lossy().into_owned();
        let err = validate_writable_dir("--cache-dir", &raw).unwrap_err();
        assert!(err.0.starts_with("--cache-dir: invalid value"), "{err}");
        assert!(err.0.contains(&format!("{raw:?}")), "{err}");
        assert!(
            err.0.contains("expected a writable directory path"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_honours_the_jit_flag() {
        let argv: Vec<String> = ["checkpoint", "hmmer", "--jit", "off"]
            .map(str::to_owned)
            .to_vec();
        let Command::Checkpoint { bench, opts, .. } = crate::args::parse(&argv).unwrap() else {
            panic!("checkpoint parses to Command::Checkpoint");
        };
        let pr = prepare(&bench, &opts).unwrap();
        assert_eq!(pr.cfg.jit, powerchop::JitMode::Off);
        assert_eq!(snapshot_meta(&opts.spec(&bench)).benchmark, "hmmer");
    }

    #[test]
    fn suite_names_parse() {
        assert_eq!(suite_by_name("spec-int").unwrap(), Suite::SpecInt);
        assert_eq!(suite_by_name("mobilebench").unwrap(), Suite::MobileBench);
        assert!(suite_by_name("nope").is_err());
    }

    #[test]
    fn benchmark_lookup_errors_are_helpful() {
        let err = benchmark("doom").unwrap_err();
        assert!(err.to_string().contains("powerchop-cli list"));
        assert!(benchmark("gobmk").is_ok());
    }

    #[test]
    fn list_and_info_do_not_error() {
        list(None).unwrap();
        list(Some("parsec")).unwrap();
        info().unwrap();
    }

    #[test]
    fn run_compare_timeline_work_end_to_end() {
        let opts = RunOpts {
            budget: 300_000,
            scale: 0.05,
            ..RunOpts::default()
        };
        run_one("hmmer", &opts).unwrap();
        compare("hmmer", &opts).unwrap();
        timeline_cmd("hmmer", &opts).unwrap();
    }

    #[test]
    fn run_with_trace_writes_artifacts_and_trace_cmd_renders() {
        let dir = std::env::temp_dir().join(format!("powerchop-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("out.json");
        let metrics_path = dir.join("out.prom");
        let opts = RunOpts {
            budget: 300_000,
            scale: 0.05,
            seed: Some(7),
            trace: Some(trace_path.to_string_lossy().into_owned()),
            metrics: Some(metrics_path.to_string_lossy().into_owned()),
            ..RunOpts::default()
        };
        run_one("hmmer", &opts).unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        powerchop_telemetry::validate_json(&trace).expect("chrome trace is well-formed JSON");
        assert!(trace.contains("\"cat\":\"phase\""));
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(prom.contains("sim_instructions_total"));
        trace_cmd(
            "hmmer",
            &RunOpts {
                trace: None,
                metrics: None,
                ..opts
            },
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_bench_paths_keep_extension_and_directory() {
        assert_eq!(per_bench_path("out.json", "hmmer"), "out-hmmer.json");
        assert_eq!(per_bench_path("a/b/out.prom", "gcc"), "a/b/out-gcc.prom");
        assert_eq!(per_bench_path("noext", "namd"), "noext-namd");
    }

    #[test]
    fn json_report_is_well_formed() {
        let opts = RunOpts {
            budget: 200_000,
            scale: 0.05,
            ..RunOpts::default()
        };
        let pr = prepare("hmmer", &opts).unwrap();
        let report = run_program(&pr.program, pr.kind, &pr.cfg).unwrap();
        let json = report_to_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"ipc\"",
            "\"pvt_misses\"",
            "\"phases_decided\"",
            "\"vpu_off_frac\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No trailing commas and keys are comma-separated.
        assert!(!json.contains(",}"));
    }

    #[test]
    fn stress_single_bench_survives_and_reports() {
        let opts = RunOpts {
            budget: 300_000,
            scale: 0.05,
            seed: Some(1234),
            ..RunOpts::default()
        };
        stress(Some("hmmer"), &opts).unwrap();
        let storm = RunOpts {
            storm: true,
            ..opts.clone()
        };
        stress(Some("hmmer"), &storm).unwrap();
        assert!(stress(Some("doom"), &opts).is_err());
    }

    #[test]
    fn profile_command_prints_mix() {
        let opts = RunOpts {
            budget: 200_000,
            scale: 0.05,
            ..RunOpts::default()
        };
        profile_bench("namd", &opts).unwrap();
        assert!(profile_bench("doom", &opts).is_err());
    }

    #[test]
    fn asm_command_assembles_and_runs() {
        let dir = std::env::temp_dir().join("powerchop-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("loop.s");
        std::fs::write(
            &path,
            "li r0, 0\nli r1, 50000\ntop:\naddi r0, r0, 1\nblt r0, r1, top\nhalt\n",
        )
        .unwrap();
        run_asm(path.to_str().unwrap(), &RunOpts::default()).unwrap();
    }
}
