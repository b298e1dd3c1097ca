//! Hand-rolled argument parsing (no external dependencies).

use powerchop::ManagerKind;
use powerchop_serve::{RunSpec, ServerConfig};

use crate::CliError;

/// Parses a `--manager` value (aliases included) into its kind with
/// the paper-default parameters.
///
/// # Errors
///
/// Returns a [`CliError`] naming the expected spellings.
pub fn parse_manager(s: &str) -> Result<ManagerKind, CliError> {
    powerchop::manager_kind_by_name(s).ok_or_else(|| {
        CliError(format!(
            "unknown manager `{s}` (expected powerchop|full|minimal|timeout|drowsy)"
        ))
    })
}

/// Options shared by run-like commands.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Manager to use.
    pub manager: ManagerKind,
    /// Instruction budget.
    pub budget: u64,
    /// Workload scale factor.
    pub scale: f64,
    /// Emit machine-readable JSON instead of the human summary.
    pub json: bool,
    /// Fault-schedule seed (`None` uses the default when faults run).
    pub seed: Option<u64>,
    /// Use the 10× pathological fault rates.
    pub storm: bool,
    /// Chrome trace-event JSON output path (enables the flight recorder).
    pub trace: Option<String>,
    /// Prometheus metrics output path (enables the flight recorder).
    pub metrics: Option<String>,
    /// Worker threads for fan-out commands (`None` resolves through
    /// `POWERCHOP_JOBS` and then the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Native-JIT mode override (`None` honours `POWERCHOP_JIT`, then
    /// auto). JIT-on and JIT-off runs produce bit-identical reports; this
    /// only selects how guest code executes.
    pub jit: Option<powerchop::JitMode>,
}

impl RunOpts {
    /// Whether any flag asked for the flight recorder.
    #[must_use]
    pub fn wants_telemetry(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some()
    }

    /// The run these flags describe for benchmark `bench`, as the spec
    /// serve's protocol and durability layer speak. It carries no
    /// deadline: a CLI run is bounded by its budget, and `supervise`
    /// fixes each attempt's own.
    #[must_use]
    pub fn spec(&self, bench: &str) -> RunSpec {
        RunSpec {
            bench: bench.to_owned(),
            manager: self.manager,
            budget: self.budget,
            scale: self.scale,
            seed: self.seed,
            storm: self.storm,
            deadline_ms: u64::MAX,
        }
    }
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            manager: ManagerKind::PowerChop,
            budget: 8_000_000,
            scale: 1.0,
            json: false,
            seed: None,
            storm: false,
            trace: None,
            metrics: None,
            jobs: None,
            jit: None,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `help`
    Help,
    /// `info` — print the design points.
    Info,
    /// `list [suite]` — list benchmarks.
    List {
        /// Optional suite filter (`spec-int`, `spec-fp`, `parsec`, `mobile`).
        suite: Option<String>,
    },
    /// `run <bench>` — run one benchmark and print its report.
    Run {
        /// Benchmark name.
        bench: String,
        /// Run options.
        opts: RunOpts,
    },
    /// `run --all` — run every benchmark on the job pool and print each
    /// report (in benchmark order, regardless of thread count).
    RunAll {
        /// Run options.
        opts: RunOpts,
    },
    /// `compare <bench>` — full-power vs PowerChop.
    Compare {
        /// Benchmark name.
        bench: String,
        /// Run options (manager ignored).
        opts: RunOpts,
    },
    /// `timeline <bench>` — per-window phase/policy timeline.
    Timeline {
        /// Benchmark name.
        bench: String,
        /// Run options (manager ignored).
        opts: RunOpts,
    },
    /// `asm <file>` — assemble a guest-ISA text file and run it.
    Asm {
        /// Path to the assembly source.
        path: String,
        /// Run options.
        opts: RunOpts,
    },
    /// `profile <bench>` — architectural instruction-mix profile.
    Profile {
        /// Benchmark name.
        bench: String,
        /// Run options (manager ignored).
        opts: RunOpts,
    },
    /// `trace <bench>` — run with the flight recorder and render the
    /// event-stream phase/gating timeline in the terminal.
    Trace {
        /// Benchmark name.
        bench: String,
        /// Run options.
        opts: RunOpts,
    },
    /// `stress [bench]` — run under deterministic fault injection and
    /// report survival, degradation activity and bounded slowdown.
    Stress {
        /// Benchmark to stress; `None` stresses every benchmark.
        bench: Option<String>,
        /// Run options.
        opts: RunOpts,
    },
    /// `checkpoint <bench>` — run until an instruction mark and write a
    /// crash-safe snapshot.
    Checkpoint {
        /// Benchmark name.
        bench: String,
        /// Instructions to retire before snapshotting.
        at: u64,
        /// Snapshot output path (`None` uses `<bench>.ckpt`).
        out: Option<String>,
        /// Run options.
        opts: RunOpts,
    },
    /// `resume <file>` — restore a snapshot, run it to completion and
    /// print the report.
    Resume {
        /// Snapshot path.
        path: String,
        /// Emit the report as JSON.
        json: bool,
    },
    /// `supervise [bench...]` — crash-safe supervised batch sweep with
    /// deadlines, retries, panic isolation and a resumable journal.
    Supervise {
        /// Benchmarks to sweep; empty sweeps every benchmark.
        benches: Vec<String>,
        /// Run options.
        opts: RunOpts,
        /// Supervisor tuning.
        sup: SuperviseOpts,
    },
    /// `serve` — long-lived TCP daemon speaking newline-delimited JSON
    /// requests, with a Prometheus `/metrics` endpoint.
    Serve {
        /// Daemon tuning.
        opts: ServeOpts,
    },
    /// `soak` — boot an in-process daemon and drive a seeded storm of
    /// hostile and honest clients against it, then report whether it
    /// stayed correct and drained cleanly.
    Soak {
        /// Storm tuning.
        opts: SoakOpts,
    },
    /// `top` — live terminal dashboard over a running daemon: polls
    /// `/metrics` and the `health` op and renders qps, in-flight,
    /// latency quantiles, worker/recovery state and a sparkline
    /// history.
    Top {
        /// Dashboard tuning.
        opts: TopOpts,
    },
}

/// `top` dashboard tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopOpts {
    /// Daemon address to poll.
    pub addr: String,
    /// Milliseconds between polls.
    pub interval_ms: u64,
    /// Frames to render before exiting (0 runs until the daemon goes
    /// away or the terminal is closed).
    pub frames: u64,
}

impl Default for TopOpts {
    fn default() -> Self {
        TopOpts {
            addr: "127.0.0.1:7077".into(),
            interval_ms: 1_000,
            frames: 0,
        }
    }
}

/// `serve` daemon tuning knobs: the daemon's own configuration plus
/// the respawn policy `--supervised` runs it under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOpts {
    /// Everything that shapes the daemon itself.
    pub server: ServerConfig,
    /// Run under the self-healing respawn parent: the daemon is
    /// respawned after crashes at a bounded rate (requires
    /// `--journal-dir` to be useful, but works without it).
    pub supervised: bool,
    /// Respawn give-up threshold: crashes tolerated inside the restart
    /// window before the parent latches a storm verdict.
    pub max_restarts: u32,
    /// Restart-rate window in milliseconds.
    pub restart_window_ms: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            server: ServerConfig::default(),
            supervised: false,
            max_restarts: 10,
            restart_window_ms: 10_000,
        }
    }
}

/// `soak` storm tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakOpts {
    /// Master seed: every client's chaos schedule and request mix forks
    /// deterministically from it.
    pub seed: u64,
    /// Hostile clients (chaos-wrapped sockets).
    pub hostile: usize,
    /// Honest clients (well-formed requests, replies must be
    /// bit-identical to a local run).
    pub honest: usize,
    /// Requests each client sends.
    pub requests: usize,
    /// Instruction budget per soak run (kept small: the storm exercises
    /// the transport, not the simulator).
    pub budget: u64,
    /// Workload scale factor for soak runs.
    pub scale: f64,
    /// Daemon worker threads (`None` resolves through `POWERCHOP_JOBS`
    /// and then the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Crash-recovery drill cycles: each cycle SIGKILLs a real child
    /// daemon mid-sweep and restarts it, then the final boot must
    /// finish the sweep from its spill checkpoints with zero re-done
    /// chunks and bit-identical reports. Zero skips the drill.
    pub crash_cycles: usize,
}

impl Default for SoakOpts {
    fn default() -> Self {
        SoakOpts {
            seed: powerchop_serve::DEFAULT_FAULT_SEED,
            hostile: 4,
            honest: 2,
            requests: 8,
            budget: 200_000,
            scale: 0.05,
            jobs: Some(2),
            crash_cycles: 0,
        }
    }
}

/// Supervisor tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperviseOpts {
    /// State directory holding the journal and checkpoints.
    pub dir: String,
    /// Per-run wall-clock deadline in milliseconds.
    pub deadline_ms: u64,
    /// Maximum attempts per benchmark (first try + retries).
    pub max_attempts: u32,
    /// Base retry backoff in milliseconds (doubles per attempt).
    pub backoff_ms: u64,
    /// Instructions between periodic checkpoints.
    pub checkpoint_every: u64,
}

impl Default for SuperviseOpts {
    fn default() -> Self {
        SuperviseOpts {
            dir: "powerchop-supervise".into(),
            deadline_ms: 120_000,
            max_attempts: 3,
            backoff_ms: 100,
            checkpoint_every: 2_000_000,
        }
    }
}

/// Usage text printed by `help` and on parse errors.
pub const USAGE: &str = "\
powerchop-cli — run the PowerChop reproduction from the command line

USAGE:
    powerchop-cli <COMMAND> [OPTIONS]

COMMANDS:
    list [suite]           list benchmarks (suites: spec-int spec-fp parsec mobile)
    info                   print the server/mobile design points (Table I)
    run <bench>|--all      run one benchmark (or every benchmark) and print the
                           full report(s)
    compare <bench>        run full-power and PowerChop, print the comparison
    timeline <bench>       print the per-window phase/policy timeline
    asm <file.s>           assemble a guest-ISA text file and run it
    profile <bench>        architectural instruction-mix profile (no timing)
    trace <bench>          run with the flight recorder on and print the
                           phase/gating timeline from the event stream
    stress [bench]         run under deterministic fault injection (all benchmarks
                           when no operand) and report survival + degradation
    checkpoint <bench>     run until --at instructions, write a crash-safe snapshot
    resume <file.ckpt>     restore a snapshot, run to completion, print the report
    supervise [bench...]   crash-safe supervised sweep (all benchmarks when no
                           operand): deadlines, retries, panic isolation, and a
                           journal that survives kill -9
    serve                  long-lived TCP daemon: newline-delimited JSON requests
                           (run/sweep/status/health/metrics/shutdown), result
                           cache, bounded queue, connection hardening, and an
                           HTTP GET /metrics endpoint
    soak                   chaos soak: boot an in-process daemon, drive a seeded
                           storm of hostile + honest clients, verify honest
                           replies stayed bit-identical and the drain was clean
    top                    live terminal dashboard over a running daemon: qps,
                           in-flight, latency quantiles, worker/recovery state
                           and a sparkline history from /metrics + health
    help                   show this message

OPTIONS (run/compare/timeline/asm/stress/checkpoint/supervise):
    --manager <m>          powerchop|full|minimal|timeout|drowsy [default: powerchop]
    --budget <N>           instruction budget                    [default: 8000000]
    --scale <F>            workload scale factor                 [default: 1.0]
    --json                 (run/asm/stress/resume) print the report as JSON
    --seed <N>             (run/trace/stress/checkpoint/supervise) fault seed
    --storm                (run/trace/stress/checkpoint/supervise) 10x fault rates
    --trace <file>         (run/trace/stress/supervise) write a Chrome trace-event
                           JSON file (stress/supervise write one per benchmark)
    --metrics <file>       (run/trace/stress/supervise) write a Prometheus text
                           metrics dump (stress/supervise write one per benchmark)
    --jobs <N>             (run --all/stress/supervise) worker threads for the
                           sweep [default: $POWERCHOP_JOBS, then the number of
                           CPUs]; output is identical at every thread count
    --jit <m>              on|off|auto: native trace JIT for guest execution
                           [default: $POWERCHOP_JIT, then auto]. Reports are
                           bit-identical in every mode; only wall-clock changes

OPTIONS (checkpoint):
    --at <N>               instructions before the snapshot      [default: budget/2]
    --out <file>           snapshot path                         [default: <bench>.ckpt]

OPTIONS (supervise):
    --dir <path>           journal + checkpoint directory [default: powerchop-supervise]
    --deadline-ms <N>      per-run wall-clock deadline    [default: 120000]
    --max-attempts <N>     attempts per benchmark         [default: 3]
    --backoff-ms <N>       base retry backoff (doubles)   [default: 100]
    --checkpoint-every <N> instructions between snapshots [default: 2000000]

OPTIONS (serve):
    --addr <host:port>     listen address (port 0 = ephemeral) [default: 127.0.0.1:7077]
    --jobs <N>             simulation worker threads      [default: $POWERCHOP_JOBS,
                           then the number of CPUs]
    --queue-depth <N>      waiting jobs before busy replies    [default: 16]
    --cache-entries <N>    LRU result-cache size (0 disables)  [default: 64]
    --deadline-ms <N>      per-request deadline; 0 expires every uncached run
                           [default: 120000]
    --max-request-bytes <N> largest accepted request line      [default: 1048576]
    --max-budget <N>       largest accepted instruction budget [default: 1000000000]
    --max-connections <N>  concurrent connections before typed 503 shedding
                           [default: 64]
    --read-timeout-ms <N>  per-socket read timeout, 0 disables  [default: 30000]
    --write-timeout-ms <N> per-socket write timeout, 0 disables [default: 10000]
    --max-outbox-bytes <N> unflushed reply bytes one connection may queue before
                           the slow consumer is shed with a typed 408
                           [default: 1048576]
    --journal-dir <path>   fsync'd write-ahead intent journal + checkpoint
                           spills: accepted requests survive kill -9 and are
                           resumed on the next boot (omit to disable)
    --cache-dir <path>     persistent result-cache log: cache hits survive a
                           restart bit-identically (omit to keep memory-only)
    --spill-every <N>      instructions between checkpoint spills of in-flight
                           runs                                [default: 2000000]
    --supervised           self-healing mode: respawn the daemon after crashes
                           at a bounded rate, give up on a crash storm
    --max-restarts <N>     crashes tolerated per window before giving up
                           [default: 10]
    --restart-window-ms <N> restart-rate window                [default: 10000]
    --access-log <path>    structured JSONL access log: one RFC 8259 record per
                           request with its trace id, op, status and full span
                           breakdown (omit to disable)
    --slow-ms <N>          promote requests slower than N ms end to end to a
                           detailed access-log record (omit to never promote)
    --seed <N>             trace-id seed; fixing it makes the trace-id sequence
                           deterministic [default: per-process OS entropy]

OPTIONS (top):
    --addr <host:port>     daemon address to poll     [default: 127.0.0.1:7077]
    --interval-ms <N>      milliseconds between polls [default: 1000]
    --frames <N>           frames to render before exiting (0 = run until the
                           daemon goes away)          [default: 0]

OPTIONS (soak):
    --seed <N>             master storm seed (forks per client) [default: 3405691582]
    --hostile <N>          hostile (chaos-wrapped) clients      [default: 4]
    --honest <N>           honest clients                       [default: 2]
    --requests <N>         requests per client                  [default: 8]
    --budget <N>           instruction budget per soak run      [default: 200000]
    --scale <F>            workload scale factor                [default: 0.05]
    --jobs <N>             daemon worker threads                [default: 2]
    --crash-cycles <N>     crash-recovery drill: SIGKILL a real child daemon
                           mid-sweep N times, restart it, then verify the sweep
                           finishes from its spills with zero re-done chunks
                           and bit-identical reports            [default: 0 (off)]
";

/// Parses the shared run flags, handing unrecognized flags to `extra`
/// (which returns whether it consumed the flag).
fn parse_flags(
    rest: &[String],
    mut extra: impl FnMut(&str, &mut dyn FnMut() -> Result<String, CliError>) -> Result<bool, CliError>,
) -> Result<RunOpts, CliError> {
    let mut opts = RunOpts::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{flag} requires a value")))
        };
        match flag.as_str() {
            "--manager" => opts.manager = parse_manager(&value()?)?,
            "--budget" => opts.budget = parse_positive(flag, &value()?)?,
            "--scale" => opts.scale = parse_scale(flag, &value()?)?,
            "--json" => opts.json = true,
            "--seed" => opts.seed = Some(parse_int(flag, &value()?)?),
            "--storm" => opts.storm = true,
            "--trace" => opts.trace = Some(value()?),
            "--metrics" => opts.metrics = Some(value()?),
            "--jit" => {
                let v = value()?;
                opts.jit =
                    Some(powerchop::JitMode::parse(&v).ok_or_else(|| {
                        CliError(format!("--jit expects on|off|auto, got `{v}`"))
                    })?);
            }
            "--jobs" => {
                let n: usize = parse_int(flag, &value()?)?;
                opts.jobs = Some(if n == 0 {
                    // An empty pool can run nothing; clamp rather than
                    // error so scripted `--jobs $(nproc --ignore=...)`
                    // invocations degrade gracefully.
                    eprintln!("warning: --jobs 0 would make an empty pool; clamping to 1 worker");
                    1
                } else {
                    n
                });
            }
            other => {
                if !extra(other, &mut value)? {
                    return Err(CliError(format!("unknown option `{other}`\n\n{USAGE}")));
                }
            }
        }
    }
    Ok(opts)
}

fn parse_opts(rest: &[String]) -> Result<RunOpts, CliError> {
    parse_flags(rest, |_, _| Ok(false))
}

/// An integer type a numeric flag can carry, with a printable range for
/// error messages.
trait NumFlag: std::str::FromStr + Copy {
    /// The type's full value range, spelled for humans.
    const RANGE: &'static str;
    /// Whether the parsed value is zero (for the `>= 1` checks).
    fn is_zero(self) -> bool;
}

impl NumFlag for u32 {
    const RANGE: &'static str = "0..=4294967295";
    fn is_zero(self) -> bool {
        self == 0
    }
}

impl NumFlag for u64 {
    const RANGE: &'static str = "0..=18446744073709551615";
    fn is_zero(self) -> bool {
        self == 0
    }
}

impl NumFlag for usize {
    const RANGE: &'static str = "0..=18446744073709551615";
    fn is_zero(self) -> bool {
        self == 0
    }
}

/// Parses a numeric flag value. The error names the flag, quotes the
/// offending raw value, carries the parser's own diagnosis (empty,
/// non-digit, overflow, ...) and states the expected range — everything
/// needed to fix the invocation without reading the source.
fn parse_int<T: NumFlag>(flag: &str, raw: &str) -> Result<T, CliError>
where
    <T as std::str::FromStr>::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| {
        CliError(format!(
            "{flag}: invalid value {raw:?}: {e} (expected an integer in {})",
            T::RANGE
        ))
    })
}

/// Like [`parse_int`], additionally rejecting zero (for counts and
/// budgets where an empty quantity is meaningless).
fn parse_positive<T: NumFlag>(flag: &str, raw: &str) -> Result<T, CliError>
where
    <T as std::str::FromStr>::Err: std::fmt::Display,
{
    let n: T = parse_int(flag, raw)?;
    if n.is_zero() {
        return Err(CliError(format!(
            "{flag}: invalid value {raw:?}: must be at least 1"
        )));
    }
    Ok(n)
}

/// Parses a scale-factor flag: any finite number greater than zero.
/// `f64::from_str` happily accepts `NaN` and `inf`, which would poison
/// every downstream size computation, so they are rejected here.
fn parse_scale(flag: &str, raw: &str) -> Result<f64, CliError> {
    let v: f64 = raw.parse().map_err(|e| {
        CliError(format!(
            "{flag}: invalid value {raw:?}: {e} (expected a number)"
        ))
    })?;
    if !v.is_finite() || v <= 0.0 {
        return Err(CliError(format!(
            "{flag}: invalid value {raw:?}: must be a finite number greater than 0"
        )));
    }
    Ok(v)
}

/// Parses `argv` (without the program name) into a [`Command`].
///
/// # Errors
///
/// Returns usage errors for unknown commands/flags and missing operands.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some(command) = argv.first() else {
        return Ok(Command::Help);
    };
    let operand = || -> Result<String, CliError> {
        argv.get(1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .ok_or_else(|| CliError(format!("`{command}` needs an operand\n\n{USAGE}")))
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => Ok(Command::Info),
        "list" => Ok(Command::List {
            suite: argv.get(1).cloned(),
        }),
        "run" => {
            if argv.get(1).map(String::as_str) == Some("--all") {
                return Ok(Command::RunAll {
                    opts: parse_opts(&argv[2..])?,
                });
            }
            Ok(Command::Run {
                bench: operand()?,
                opts: parse_opts(&argv[2..])?,
            })
        }
        "compare" => Ok(Command::Compare {
            bench: operand()?,
            opts: parse_opts(&argv[2..])?,
        }),
        "timeline" => Ok(Command::Timeline {
            bench: operand()?,
            opts: parse_opts(&argv[2..])?,
        }),
        "asm" => Ok(Command::Asm {
            path: operand()?,
            opts: parse_opts(&argv[2..])?,
        }),
        "profile" => Ok(Command::Profile {
            bench: operand()?,
            opts: parse_opts(&argv[2..])?,
        }),
        "trace" => Ok(Command::Trace {
            bench: operand()?,
            opts: parse_opts(&argv[2..])?,
        }),
        "stress" => {
            // The operand is optional: `stress` alone stresses everything.
            let bench = argv.get(1).filter(|a| !a.starts_with("--")).cloned();
            let rest = if bench.is_some() {
                &argv[2..]
            } else {
                &argv[1..]
            };
            Ok(Command::Stress {
                bench,
                opts: parse_opts(rest)?,
            })
        }
        "checkpoint" => {
            let bench = operand()?;
            let mut at = None;
            let mut out = None;
            let opts = parse_flags(&argv[2..], |flag, value| match flag {
                "--at" => {
                    at = Some(parse_int(flag, &value()?)?);
                    Ok(true)
                }
                "--out" => {
                    out = Some(value()?);
                    Ok(true)
                }
                _ => Ok(false),
            })?;
            Ok(Command::Checkpoint {
                bench,
                at: at.unwrap_or(opts.budget / 2),
                out,
                opts,
            })
        }
        "resume" => {
            let path = operand()?;
            let mut json = false;
            for flag in &argv[2..] {
                match flag.as_str() {
                    "--json" => json = true,
                    other => return Err(CliError(format!("unknown option `{other}`\n\n{USAGE}"))),
                }
            }
            Ok(Command::Resume { path, json })
        }
        "supervise" => {
            // Leading non-flag operands are benchmark names.
            let mut benches = Vec::new();
            let mut i = 1;
            while let Some(a) = argv.get(i) {
                if a.starts_with("--") {
                    break;
                }
                benches.push(a.clone());
                i += 1;
            }
            let mut sup = SuperviseOpts::default();
            let opts = parse_flags(&argv[i..], |flag, value| match flag {
                "--dir" => {
                    sup.dir = value()?;
                    Ok(true)
                }
                "--deadline-ms" => {
                    sup.deadline_ms = parse_int(flag, &value()?)?;
                    Ok(true)
                }
                "--max-attempts" => {
                    sup.max_attempts = parse_positive(flag, &value()?)?;
                    Ok(true)
                }
                "--backoff-ms" => {
                    sup.backoff_ms = parse_int(flag, &value()?)?;
                    Ok(true)
                }
                "--checkpoint-every" => {
                    sup.checkpoint_every = parse_positive(flag, &value()?)?;
                    Ok(true)
                }
                _ => Ok(false),
            })?;
            Ok(Command::Supervise { benches, opts, sup })
        }
        "serve" => {
            let mut opts = ServeOpts::default();
            let server = &mut opts.server;
            let mut it = argv[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError(format!("{flag} requires a value")))
                };
                match flag.as_str() {
                    "--addr" => server.addr = value()?,
                    "--jobs" => {
                        let n: usize = parse_int(flag, &value()?)?;
                        server.jobs = Some(if n == 0 {
                            eprintln!(
                                "warning: --jobs 0 would make an empty pool; clamping to 1 worker"
                            );
                            1
                        } else {
                            n
                        });
                    }
                    "--queue-depth" => server.queue_depth = parse_positive(flag, &value()?)?,
                    "--cache-entries" => server.cache_entries = parse_int(flag, &value()?)?,
                    "--deadline-ms" => server.deadline_ms = parse_int(flag, &value()?)?,
                    "--max-request-bytes" => {
                        server.max_request_bytes = parse_positive(flag, &value()?)?;
                    }
                    "--max-budget" => server.max_budget = parse_positive(flag, &value()?)?,
                    "--max-connections" => {
                        server.max_connections = parse_positive(flag, &value()?)?
                    }
                    "--read-timeout-ms" => server.read_timeout_ms = parse_int(flag, &value()?)?,
                    "--write-timeout-ms" => server.write_timeout_ms = parse_int(flag, &value()?)?,
                    "--max-outbox-bytes" => {
                        server.max_outbox_bytes = parse_positive(flag, &value()?)?;
                    }
                    "--journal-dir" => server.journal_dir = Some(value()?),
                    "--cache-dir" => server.cache_dir = Some(value()?),
                    "--spill-every" => server.spill_every = parse_positive(flag, &value()?)?,
                    "--supervised" => opts.supervised = true,
                    "--max-restarts" => opts.max_restarts = parse_positive(flag, &value()?)?,
                    "--restart-window-ms" => {
                        opts.restart_window_ms = parse_positive(flag, &value()?)?;
                    }
                    "--access-log" => server.access_log = Some(value()?),
                    "--slow-ms" => server.slow_ms = Some(parse_int(flag, &value()?)?),
                    "--seed" => server.seed = Some(parse_int(flag, &value()?)?),
                    other => return Err(CliError(format!("unknown option `{other}`\n\n{USAGE}"))),
                }
            }
            Ok(Command::Serve { opts })
        }
        "top" => {
            let mut opts = TopOpts::default();
            let mut it = argv[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError(format!("{flag} requires a value")))
                };
                match flag.as_str() {
                    "--addr" => opts.addr = value()?,
                    "--interval-ms" => opts.interval_ms = parse_positive(flag, &value()?)?,
                    "--frames" => opts.frames = parse_int(flag, &value()?)?,
                    other => return Err(CliError(format!("unknown option `{other}`\n\n{USAGE}"))),
                }
            }
            Ok(Command::Top { opts })
        }
        "soak" => {
            let mut opts = SoakOpts::default();
            let mut it = argv[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError(format!("{flag} requires a value")))
                };
                match flag.as_str() {
                    "--seed" => opts.seed = parse_int(flag, &value()?)?,
                    "--hostile" => opts.hostile = parse_int(flag, &value()?)?,
                    "--honest" => opts.honest = parse_int(flag, &value()?)?,
                    "--requests" => opts.requests = parse_positive(flag, &value()?)?,
                    "--budget" => opts.budget = parse_positive(flag, &value()?)?,
                    "--scale" => opts.scale = parse_scale(flag, &value()?)?,
                    "--jobs" => opts.jobs = Some(parse_positive(flag, &value()?)?),
                    "--crash-cycles" => opts.crash_cycles = parse_int(flag, &value()?)?,
                    other => return Err(CliError(format!("unknown option `{other}`\n\n{USAGE}"))),
                }
            }
            Ok(Command::Soak { opts })
        }
        other => Err(CliError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_serve::durability::manager_label;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
    }

    #[test]
    fn run_with_defaults() {
        let c = parse(&argv("run gobmk")).unwrap();
        assert_eq!(
            c,
            Command::Run {
                bench: "gobmk".into(),
                opts: RunOpts::default()
            }
        );
    }

    #[test]
    fn run_with_options() {
        let c = parse(&argv(
            "run namd --manager timeout --budget 1000 --scale 0.5",
        ))
        .unwrap();
        match c {
            Command::Run { bench, opts } => {
                assert_eq!(bench, "namd");
                assert_eq!(opts.manager, parse_manager("timeout").unwrap());
                assert_eq!(opts.budget, 1000);
                assert!((opts.scale - 0.5).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn manager_aliases() {
        assert!(matches!(
            parse_manager("drowsy").unwrap(),
            ManagerKind::DrowsyMlc { .. }
        ));
        assert_eq!(parse_manager("chop").unwrap(), ManagerKind::PowerChop);
        assert_eq!(parse_manager("full-power").unwrap(), ManagerKind::FullPower);
        assert_eq!(parse_manager("min").unwrap(), ManagerKind::MinimalPower);
        assert_eq!(
            parse_manager("bogus").unwrap_err().0,
            "unknown manager `bogus` (expected powerchop|full|minimal|timeout|drowsy)"
        );
    }

    #[test]
    fn errors_on_missing_operand_and_bad_flags() {
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("run gobmk --bogus 1")).is_err());
        assert!(parse(&argv("run gobmk --budget abc")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn stress_parses_with_and_without_operand() {
        match parse(&argv("stress --seed 42 --storm --budget 1000")).unwrap() {
            Command::Stress { bench, opts } => {
                assert_eq!(bench, None);
                assert_eq!(opts.seed, Some(42));
                assert!(opts.storm);
                assert_eq!(opts.budget, 1000);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("stress hmmer --json")).unwrap() {
            Command::Stress { bench, opts } => {
                assert_eq!(bench.as_deref(), Some("hmmer"));
                assert!(opts.json);
                assert_eq!(opts.seed, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("stress --seed nope")).is_err());
    }

    #[test]
    fn checkpoint_resume_supervise_parse() {
        match parse(&argv("checkpoint hmmer --at 1000 --out snap.ckpt --seed 7")).unwrap() {
            Command::Checkpoint {
                bench,
                at,
                out,
                opts,
            } => {
                assert_eq!(bench, "hmmer");
                assert_eq!(at, 1000);
                assert_eq!(out.as_deref(), Some("snap.ckpt"));
                assert_eq!(opts.seed, Some(7));
            }
            other => panic!("unexpected {other:?}"),
        }
        // `--at` defaults to half the budget.
        match parse(&argv("checkpoint hmmer --budget 4000")).unwrap() {
            Command::Checkpoint { at, out, .. } => {
                assert_eq!(at, 2000);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse(&argv("resume snap.ckpt --json")).unwrap(),
            Command::Resume {
                path: "snap.ckpt".into(),
                json: true
            }
        );
        assert!(parse(&argv("resume snap.ckpt --bogus")).is_err());
        match parse(&argv(
            "supervise hmmer namd --dir state --deadline-ms 500 --max-attempts 2 \
             --backoff-ms 10 --checkpoint-every 5000 --budget 9000",
        ))
        .unwrap()
        {
            Command::Supervise { benches, opts, sup } => {
                assert_eq!(benches, vec!["hmmer".to_owned(), "namd".to_owned()]);
                assert_eq!(opts.budget, 9000);
                assert_eq!(sup.dir, "state");
                assert_eq!(sup.deadline_ms, 500);
                assert_eq!(sup.max_attempts, 2);
                assert_eq!(sup.backoff_ms, 10);
                assert_eq!(sup.checkpoint_every, 5000);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("supervise")).unwrap() {
            Command::Supervise { benches, sup, .. } => {
                assert!(benches.is_empty());
                assert_eq!(sup, SuperviseOpts::default());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn manager_canonical_names_round_trip() {
        for name in ["powerchop", "full", "minimal", "timeout", "drowsy"] {
            let kind = parse_manager(name).unwrap();
            assert_eq!(manager_label(kind), name);
            assert_eq!(parse_manager(manager_label(kind)).unwrap(), kind);
        }
    }

    #[test]
    fn trace_and_metrics_flags_parse() {
        match parse(&argv(
            "run gobmk --trace out.json --metrics out.prom --seed 9",
        ))
        .unwrap()
        {
            Command::Run { opts, .. } => {
                assert_eq!(opts.trace.as_deref(), Some("out.json"));
                assert_eq!(opts.metrics.as_deref(), Some("out.prom"));
                assert_eq!(opts.seed, Some(9));
                assert!(opts.wants_telemetry());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("trace hmmer --storm --budget 5000")).unwrap() {
            Command::Trace { bench, opts } => {
                assert_eq!(bench, "hmmer");
                assert!(opts.storm);
                assert_eq!(opts.budget, 5000);
                assert!(!opts.wants_telemetry());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("trace")).is_err());
        assert!(parse(&argv("run gobmk --trace")).is_err());
    }

    #[test]
    fn jobs_flag_and_run_all_parse() {
        match parse(&argv("run --all --jobs 4 --budget 1000 --json")).unwrap() {
            Command::RunAll { opts } => {
                assert_eq!(opts.jobs, Some(4));
                assert_eq!(opts.budget, 1000);
                assert!(opts.json);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("stress --jobs 2")).unwrap() {
            Command::Stress { bench, opts } => {
                assert_eq!(bench, None);
                assert_eq!(opts.jobs, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        // An unspecified `--jobs` resolves later (env, then CPU count).
        match parse(&argv("run gobmk")).unwrap() {
            Command::Run { opts, .. } => assert_eq!(opts.jobs, None),
            other => panic!("unexpected {other:?}"),
        }
        // `--jobs 0` clamps to one worker (with a warning) instead of
        // erroring out or building an empty pool.
        match parse(&argv("run --all --jobs 0")).unwrap() {
            Command::RunAll { opts } => assert_eq!(opts.jobs, Some(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run --all --jobs nope")).is_err());
    }

    #[test]
    fn numeric_flag_errors_name_flag_value_and_range() {
        let err = parse(&argv("run gobmk --budget 12x")).unwrap_err().0;
        assert!(err.contains("--budget"), "{err}");
        assert!(err.contains("\"12x\""), "{err}");
        assert!(err.contains("0..=18446744073709551615"), "{err}");
        let err = parse(&argv("supervise --max-attempts -1")).unwrap_err().0;
        assert!(err.contains("--max-attempts"), "{err}");
        assert!(err.contains("\"-1\""), "{err}");
        assert!(err.contains("0..=4294967295"), "{err}");
    }

    #[test]
    fn numeric_flags_reject_out_of_range_values() {
        // Zero budgets/counts are meaningless and refused up front.
        assert!(parse(&argv("run gobmk --budget 0")).is_err());
        assert!(parse(&argv("supervise --max-attempts 0")).is_err());
        assert!(parse(&argv("supervise --checkpoint-every 0")).is_err());
        // A scale must be a finite number greater than zero; the float
        // parser itself would happily accept NaN/inf.
        for bad in ["0", "-1", "nan", "NaN", "inf", "-inf", "1e999"] {
            let err = parse(&[
                "run".into(),
                "gobmk".into(),
                "--scale".into(),
                (*bad).into(),
            ])
            .unwrap_err()
            .0;
            assert!(err.contains("--scale"), "{bad}: {err}");
        }
        // Zero remains meaningful where it has defined semantics.
        assert!(parse(&argv("supervise --deadline-ms 0")).is_ok());
        assert!(parse(&argv("checkpoint hmmer --at 0")).is_ok());
    }

    #[test]
    fn serve_command_parses_with_defaults_and_overrides() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                opts: ServeOpts::default()
            }
        );
        match parse(&argv(
            "serve --addr 127.0.0.1:0 --jobs 2 --queue-depth 3 --cache-entries 5 \
             --deadline-ms 9000 --max-request-bytes 4096 --max-budget 500000 \
             --max-connections 7 --read-timeout-ms 1500 --write-timeout-ms 900 \
             --max-outbox-bytes 65536",
        ))
        .unwrap()
        {
            Command::Serve { opts } => {
                assert_eq!(opts.server.addr, "127.0.0.1:0");
                assert_eq!(opts.server.jobs, Some(2));
                assert_eq!(opts.server.queue_depth, 3);
                assert_eq!(opts.server.cache_entries, 5);
                assert_eq!(opts.server.deadline_ms, 9000);
                assert_eq!(opts.server.max_request_bytes, 4096);
                assert_eq!(opts.server.max_budget, 500_000);
                assert_eq!(opts.server.max_connections, 7);
                assert_eq!(opts.server.read_timeout_ms, 1500);
                assert_eq!(opts.server.write_timeout_ms, 900);
                assert_eq!(opts.server.max_outbox_bytes, 65_536);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ServeOpts::default().server.max_outbox_bytes, 1 << 20);
        assert!(parse(&argv("serve --queue-depth 0")).is_err());
        assert!(parse(&argv("serve --max-connections 0")).is_err());
        // A zero outbox cap would shed every pipelined client instantly.
        assert!(parse(&argv("serve --max-outbox-bytes 0")).is_err());
        assert!(parse(&argv("serve --bogus")).is_err());
        // Durability and supervision are opt-in and parse together.
        match parse(&argv(
            "serve --journal-dir wal --cache-dir cache --spill-every 50000 \
             --supervised --max-restarts 3 --restart-window-ms 5000",
        ))
        .unwrap()
        {
            Command::Serve { opts } => {
                assert_eq!(opts.server.journal_dir.as_deref(), Some("wal"));
                assert_eq!(opts.server.cache_dir.as_deref(), Some("cache"));
                assert_eq!(opts.server.spill_every, 50_000);
                assert!(opts.supervised);
                assert_eq!(opts.max_restarts, 3);
                assert_eq!(opts.restart_window_ms, 5_000);
            }
            other => panic!("unexpected {other:?}"),
        }
        let d = ServeOpts::default();
        assert_eq!(d.server.journal_dir, None, "durability is opt-in");
        assert_eq!(d.server.cache_dir, None);
        assert!(!d.supervised);
        // A zero spill interval would spill every chunk forever; a zero
        // restart budget could never respawn.
        assert!(parse(&argv("serve --spill-every 0")).is_err());
        assert!(parse(&argv("serve --max-restarts 0")).is_err());
        assert!(parse(&argv("serve --restart-window-ms 0")).is_err());
        assert!(
            parse(&argv("serve --journal-dir")).is_err(),
            "needs a value"
        );
        // Cache 0 (disabled), deadline 0 and socket timeouts 0
        // (blocking sockets) stay legal.
        assert!(parse(&argv(
            "serve --cache-entries 0 --deadline-ms 0 --read-timeout-ms 0 --write-timeout-ms 0"
        ))
        .is_ok());
    }

    #[test]
    fn serve_observability_flags_parse() {
        match parse(&argv(
            "serve --access-log access.jsonl --slow-ms 250 --seed 42",
        ))
        .unwrap()
        {
            Command::Serve { opts } => {
                assert_eq!(opts.server.access_log.as_deref(), Some("access.jsonl"));
                assert_eq!(opts.server.slow_ms, Some(250));
                assert_eq!(opts.server.seed, Some(42));
            }
            other => panic!("unexpected {other:?}"),
        }
        let d = ServeOpts::default();
        assert_eq!(d.server.access_log, None, "the access log is opt-in");
        assert_eq!(d.server.slow_ms, None);
        assert_eq!(d.server.seed, None, "trace ids default to entropy");
        // `--slow-ms 0` promotes everything — legal, for harnesses.
        assert!(parse(&argv("serve --slow-ms 0")).is_ok());
        assert!(parse(&argv("serve --access-log")).is_err(), "needs a value");
        assert!(parse(&argv("serve --seed nope")).is_err());
    }

    #[test]
    fn top_command_parses_with_defaults_and_overrides() {
        assert_eq!(
            parse(&argv("top")).unwrap(),
            Command::Top {
                opts: TopOpts::default()
            }
        );
        match parse(&argv("top --addr 127.0.0.1:9 --interval-ms 100 --frames 3")).unwrap() {
            Command::Top { opts } => {
                assert_eq!(opts.addr, "127.0.0.1:9");
                assert_eq!(opts.interval_ms, 100);
                assert_eq!(opts.frames, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A zero poll interval would spin on the daemon.
        assert!(parse(&argv("top --interval-ms 0")).is_err());
        assert!(parse(&argv("top --bogus")).is_err());
    }

    #[test]
    fn soak_command_parses_with_defaults_and_overrides() {
        assert_eq!(
            parse(&argv("soak")).unwrap(),
            Command::Soak {
                opts: SoakOpts::default()
            }
        );
        match parse(&argv(
            "soak --seed 9 --hostile 6 --honest 3 --requests 4 \
             --budget 100000 --scale 0.1 --jobs 1",
        ))
        .unwrap()
        {
            Command::Soak { opts } => {
                assert_eq!(opts.seed, 9);
                assert_eq!(opts.hostile, 6);
                assert_eq!(opts.honest, 3);
                assert_eq!(opts.requests, 4);
                assert_eq!(opts.budget, 100_000);
                assert!((opts.scale - 0.1).abs() < 1e-12);
                assert_eq!(opts.jobs, Some(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        // A storm with no clients at all is legal (it only checks boot +
        // drain), but zero requests per client is meaningless.
        assert!(parse(&argv("soak --hostile 0 --honest 0")).is_ok());
        assert!(parse(&argv("soak --requests 0")).is_err());
        assert!(parse(&argv("soak --bogus")).is_err());
        // The crash-recovery drill is off by default and opt-in by count.
        assert_eq!(SoakOpts::default().crash_cycles, 0);
        match parse(&argv("soak --crash-cycles 3")).unwrap() {
            Command::Soak { opts } => assert_eq!(opts.crash_cycles, 3),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("soak --crash-cycles x")).is_err());
    }

    #[test]
    fn json_flag_parses() {
        match parse(&argv("run gcc --json")).unwrap() {
            Command::Run { opts, .. } => assert!(opts.json),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn list_accepts_optional_suite() {
        assert_eq!(parse(&argv("list")).unwrap(), Command::List { suite: None });
        assert_eq!(
            parse(&argv("list mobile")).unwrap(),
            Command::List {
                suite: Some("mobile".into())
            }
        );
    }

    #[test]
    fn timeout_manager_uses_paper_cycles() {
        match parse_manager("timeout").unwrap() {
            powerchop::ManagerKind::TimeoutVpu { timeout_cycles } => {
                assert_eq!(timeout_cycles, 20_000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
