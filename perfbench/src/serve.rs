//! The `serve` workload: an in-process `serve::Server` on loopback with
//! durability on, driven by two closed-loop connections. The hit
//! connection replays run requests whose results are cached; the cold
//! connection sends a seeded stream of distinct runs, about half of
//! which cross the daemon's checkpoint-spill interval.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use powerchop::{run_program, JitMode, ManagerKind, RunConfig, Simulation, SnapshotMeta};
use powerchop_faults::SimRng;
use powerchop_serve::json::Json;
use powerchop_serve::protocol::run_reply;
use powerchop_serve::{report_to_json, strip_trace_id, Server, ServerConfig};
use powerchop_telemetry::export::JsonWriter;
use powerchop_telemetry::Phase;
use powerchop_workloads::{all, by_name};

use crate::spans::{Agg, SpanLog};
use crate::stats::{mean, median, percentile, ratio};
use crate::suite::SCALE;
use crate::{Metric, Tally};

/// Distinct cached requests the hit connection cycles through. The
/// daemon's default cache holds 64 replies.
pub const HIT_KEYS: usize = 32;
/// Budgets of the hit requests: small, so warming the cache is cheap.
const HIT_BUDGETS: (u64, u64) = (100_000, 400_000);
/// Budget strata of the cold stream, together 0.5M-4M instructions.
/// Each round of the stream sends every benchmark once per stratum, so
/// the mix of work a run sees barely depends on the seed.
const COLD_STRATA: [(u64, u64); 4] = [
    (500_000, 1_375_000),
    (1_375_000, 2_250_000),
    (2_250_000, 3_125_000),
    (3_125_000, 4_000_000),
];
/// Rounds of the cold stream; far more requests than one run sends.
const COLD_ROUNDS: usize = 4;
/// Cold latencies a run collects at least, so that p90 has ten samples
/// beyond it.
const MIN_COLD_SAMPLES: usize = 100;
/// Daemon boots timed for `setup_s`; the last one serves the traffic.
const SETUP_BOOTS: usize = 15;
/// Pool width: the load is sized for a two-CPU host.
const SERVE_JOBS: usize = 2;
/// Fixed trace-id seed, so the daemon's own ids repeat across runs.
const TRACE_SEED: u64 = 0x5EED_7ACE;
/// Dispatch-loop iterations per `Simulation::step_chunk` in the daemon,
/// where spill checks happen.
const STEP_CHUNK: u64 = 65_536;
/// Cold runs replayed to time `Simulation::snapshot` and
/// `durable::write_atomic` at their spill points.
const SPILL_SAMPLE: usize = 12;

/// One `run` request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Spec {
    pub bench: &'static str,
    pub budget: u64,
}

impl Spec {
    pub fn line(&self) -> String {
        format!(
            r#"{{"op":"run","bench":"{}","budget":{}}}"#,
            self.bench, self.budget
        )
    }

    /// The configuration the daemon runs this request under.
    pub fn config(&self, jit: JitMode) -> RunConfig {
        let b = by_name(self.bench).expect("specs name roster benchmarks");
        let mut cfg = RunConfig::for_kind(b.core_kind());
        cfg.max_instructions = self.budget;
        cfg.jit = jit;
        cfg
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Everything the two connections send, derived from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub hits: Vec<Spec>,
    /// The order the hit connection cycles through `hits`.
    pub hit_order: Vec<usize>,
    pub cold: Vec<Spec>,
}

impl Schedule {
    pub fn new(seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let mut seen = HashSet::new();
        let mut draw = |bench: &'static str, (lo, hi): (u64, u64), rng: &mut SimRng| loop {
            let spec = Spec {
                bench,
                budget: rng.gen_range_between(lo, hi),
            };
            if seen.insert(spec.clone()) {
                return spec;
            }
        };
        let roster = all();
        let hits: Vec<Spec> = (0..HIT_KEYS)
            .map(|i| draw(roster[i % roster.len()].name(), HIT_BUDGETS, &mut rng))
            .collect();
        let mut hit_order: Vec<usize> = (0..HIT_KEYS).collect();
        shuffle(&mut hit_order, &mut rng);
        let mut cold = Vec::new();
        for _ in 0..COLD_ROUNDS {
            let mut round: Vec<Spec> = roster
                .iter()
                .flat_map(|b| COLD_STRATA.map(|s| (b.name(), s)))
                .map(|(bench, stratum)| draw(bench, stratum, &mut rng))
                .collect();
            shuffle(&mut round, &mut rng);
            cold.extend(round);
        }
        Schedule {
            hits,
            hit_order,
            cold,
        }
    }
}

/// One blocking NDJSON connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
            writer: stream,
        })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(reply.trim_end().to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A daemon serving on its own thread, over its own state directory.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl Daemon {
    /// The daemon's settings: defaults except a fixed trace seed, a
    /// two-worker pool, and fresh journal and cache directories (created
    /// here) under `dir`.
    fn config(dir: &Path, access_log: bool) -> Result<ServerConfig, String> {
        let sub = |name: &str| -> Result<String, String> {
            let path = dir.join(name);
            std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(path.to_string_lossy().into_owned())
        };
        Ok(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: Some(SERVE_JOBS),
            journal_dir: Some(sub("journal")?),
            cache_dir: Some(sub("cache")?),
            access_log: access_log.then(|| dir.join("access.jsonl").to_string_lossy().into_owned()),
            seed: Some(TRACE_SEED),
            ..ServerConfig::default()
        })
    }

    /// Binds a daemon over `dir` and serves it on its own thread.
    fn boot(cfg: &ServerConfig, dir: PathBuf) -> Result<Self, String> {
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { addr, thread, dir })
    }

    fn health(&self) -> Result<(), String> {
        let reply = Client::connect(self.addr)?.call(r#"{"op":"health"}"#)?;
        if reply.contains(r#""healthy":true"#) {
            Ok(())
        } else {
            Err(format!("unhealthy daemon: {reply}"))
        }
    }

    /// Scrapes `/metrics` over plain HTTP into counter values by name.
    fn scrape(&self) -> Result<BTreeMap<String, f64>, String> {
        let mut stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut text = String::new();
        stream
            .read_to_string(&mut text)
            .map_err(|e| e.to_string())?;
        Ok(text
            .lines()
            .filter(|l| l.starts_with("serve_"))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_owned(), value.parse().ok()?))
            })
            .collect())
    }

    /// Drains the daemon in-protocol and waits for its thread.
    fn shutdown(self) -> Result<PathBuf, String> {
        Client::connect(self.addr)?.call(r#"{"op":"shutdown"}"#)?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(self.dir),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_owned()),
        }
    }
}

/// Direct runs of `specs` on two threads, JIT off: each report's JSON
/// and the guest instructions it retired.
fn direct_reports(specs: &[&Spec]) -> Vec<Result<(String, u64), String>> {
    powerchop_exec::run_jobs(specs, SERVE_JOBS, |_, spec| {
        let program = by_name(spec.bench)
            .expect("specs name roster benchmarks")
            .program(SCALE);
        let report = run_program(&program, ManagerKind::PowerChop, &spec.config(JitMode::Off))
            .map_err(|e| format!("{}: {e}", spec.bench))?;
        Ok((report_to_json(&report), report.instructions))
    })
    .into_iter()
    .map(|r| r.map_err(|p| p.to_string()).and_then(|x| x))
    .collect()
}

/// The reply, trace id stripped, a request with this report must get.
fn expected_reply(report_json: &str, cached: bool) -> String {
    strip_trace_id(&run_reply(0, cached, report_json))
}

struct ColdSample {
    /// Position of the request in the schedule's cold stream.
    index: usize,
    sent: Instant,
    latency_ns: u64,
    reply: String,
}

/// What one timed window of traffic produced.
struct Traffic {
    started: Instant,
    wall_ns: u64,
    hit_latency_ns: Vec<u64>,
    /// The hit requests folded into one aggregate span.
    hit_calls: Agg,
    hit_failures: Vec<String>,
    cold: Vec<ColdSample>,
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs both closed loops until `seconds` have passed and the cold
/// connection has at least [`MIN_COLD_SAMPLES`] replies.
fn drive(
    addr: SocketAddr,
    schedule: &Schedule,
    hit_expected: &[String],
    seconds: u64,
) -> Result<Traffic, String> {
    let stop = AtomicBool::new(false);
    let hit_lines: Vec<String> = schedule.hits.iter().map(Spec::line).collect();
    let started = Instant::now();
    let (hits, cold) = std::thread::scope(|scope| {
        let hits = scope.spawn(|| -> Result<(Vec<u64>, Agg, Vec<String>), String> {
            let mut client = Client::connect(addr)?;
            let (mut latencies, mut calls, mut failures) = (Vec::new(), Agg::default(), Vec::new());
            for &i in schedule.hit_order.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let t = Instant::now();
                let reply = client.call(&hit_lines[i])?;
                let done = Instant::now();
                latencies.push(u64::try_from((done - t).as_nanos()).unwrap_or(u64::MAX));
                calls.add(t, done);
                if strip_trace_id(&reply) != hit_expected[i] {
                    failures.push(format!("hit {}: {reply}", hit_lines[i]));
                }
            }
            Ok((latencies, calls, failures))
        });
        let cold = (|| -> Result<Vec<ColdSample>, String> {
            let mut client = Client::connect(addr)?;
            let mut out = Vec::new();
            for (index, spec) in schedule.cold.iter().enumerate() {
                if started.elapsed().as_secs() >= seconds && out.len() >= MIN_COLD_SAMPLES {
                    break;
                }
                let sent = Instant::now();
                let reply = client.call(&spec.line())?;
                out.push(ColdSample {
                    index,
                    sent,
                    latency_ns: elapsed_ns(sent),
                    reply,
                });
            }
            Ok(out)
        })();
        stop.store(true, Ordering::Relaxed);
        let hits = hits
            .join()
            .unwrap_or_else(|_| Err("hit client panicked".to_owned()));
        (hits, cold)
    });
    let (hit_latency_ns, hit_calls, hit_failures) = hits?;
    Ok(Traffic {
        started,
        wall_ns: elapsed_ns(started),
        hit_latency_ns,
        hit_calls,
        hit_failures,
        cold: cold?,
    })
}

/// One daemon's life under the workload's traffic.
struct Session {
    schedule: Schedule,
    traffic: Traffic,
    /// Guest instructions each cold sample's run retired.
    cold_instructions: Vec<u64>,
    peak_rss_mib: f64,
    setup_s: Vec<f64>,
    metrics_before: BTreeMap<String, f64>,
    metrics_after: BTreeMap<String, f64>,
    /// The daemon's state directory, left for the caller to inspect.
    dir: PathBuf,
}

/// Boots the daemon (timing `boots` boots for `setup_s`), warms the
/// cache with the hit requests, drives the timed window, drains the
/// daemon and checks every reply against a direct run.
fn session(
    seed: u64,
    seconds: u64,
    out: &Path,
    boots: usize,
    access_log: bool,
    tally: &mut Tally,
) -> Result<Session, String> {
    let schedule = Schedule::new(seed);
    let fresh = |n: usize| out.join(format!("serve-{}-{n}", std::process::id()));
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for n in 0..boots {
        let dir = fresh(n);
        // Leftovers of an earlier crashed run would not be fresh.
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = Daemon::config(&dir, access_log)?;
        let t = Instant::now();
        let d = Daemon::boot(&cfg, dir)?;
        d.health()?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(previous) = daemon.replace(d) {
            let dir = Daemon::shutdown(previous)?;
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let daemon = daemon.ok_or("no daemon booted")?;

    let hit_specs: Vec<&Spec> = schedule.hits.iter().collect();
    let mut hit_expected = Vec::new();
    let mut warm = Client::connect(daemon.addr)?;
    for (spec, direct) in hit_specs.iter().zip(direct_reports(&hit_specs)) {
        let (json, _) = direct?;
        let reply = warm.call(&spec.line())?;
        tally.record(if strip_trace_id(&reply) == expected_reply(&json, false) {
            Ok(())
        } else {
            Err(format!("warm-up {}: {reply}", spec.line()))
        });
        hit_expected.push(expected_reply(&json, true));
    }
    drop(warm);

    let metrics_before = daemon.scrape()?;
    let traffic = drive(daemon.addr, &schedule, &hit_expected, seconds)?;
    let metrics_after = daemon.scrape()?;
    let peak_rss_mib = crate::host::peak_rss_mib()?;
    let dir = daemon.shutdown()?;

    tally.attempted += traffic.hit_latency_ns.len() as u64;
    tally.failed += traffic.hit_failures.len() as u64;
    tally
        .failures
        .extend(traffic.hit_failures.iter().take(5).cloned());
    let sent: Vec<&Spec> = traffic
        .cold
        .iter()
        .map(|s| &schedule.cold[s.index])
        .collect();
    let mut cold_instructions = Vec::new();
    for (sample, direct) in traffic.cold.iter().zip(direct_reports(&sent)) {
        let verdict = match direct {
            Ok((json, instructions))
                if strip_trace_id(&sample.reply) == expected_reply(&json, false) =>
            {
                cold_instructions.push(instructions);
                Ok(())
            }
            Ok(_) => Err(format!("cold: {}", sample.reply)),
            Err(e) => Err(format!("cold reference: {e}")),
        };
        tally.record(verdict);
    }
    Ok(Session {
        schedule,
        traffic,
        cold_instructions,
        peak_rss_mib,
        setup_s,
        metrics_before,
        metrics_after,
        dir,
    })
}

fn cold_ms(session: &Session) -> Vec<f64> {
    session
        .traffic
        .cold
        .iter()
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect()
}

/// A measured (untraced) run of `serve`.
pub fn measure(
    seed: u64,
    seconds: u64,
    out: &Path,
) -> Result<(Tally, Vec<Metric>, String), String> {
    let mut tally = Tally::default();
    let s = session(seed, seconds, out, SETUP_BOOTS, false, &mut tally)?;
    let _ = std::fs::remove_dir_all(&s.dir);
    let cold = cold_ms(&s);
    let cold_ns: u64 = s.traffic.cold.iter().map(|c| c.latency_ns).sum();
    let metrics = vec![
        Metric::new("setup_s", "s", median(&s.setup_s)),
        Metric::new("peak_rss_mib", "MiB", s.peak_rss_mib),
        Metric::new(
            "sim_mips",
            "Minstr/s",
            ratio(
                s.cold_instructions.iter().sum::<u64>() as f64,
                cold_ns as f64 / 1e3,
            ),
        ),
        Metric::new("run_p50_ms", "ms", percentile(&cold, 50.0)?),
        Metric::new("run_p90_ms", "ms", percentile(&cold, 90.0)?),
    ];
    let samples = format!(
        r#"{{"setup_s":{},"sim_mips":{n},"run_p50_ms":{n},"run_p90_ms":{n},"hit_requests":{},"measured_s":{}}}"#,
        s.setup_s.len(),
        s.traffic.hit_latency_ns.len(),
        s.traffic.wall_ns as f64 / 1e9,
        n = cold.len(),
    );
    Ok((tally, metrics, samples))
}

/// Access-log phase means over `records`, in µs.
fn phase_means(records: &[&Json], phases: &[Phase]) -> Vec<f64> {
    phases
        .iter()
        .map(|phase| {
            let key = format!("{}_us", phase.label());
            let values: Vec<f64> = records
                .iter()
                .filter_map(|r| r.get("spans")?.get(&key)?.as_f64())
                .collect();
            mean(&values)
        })
        .collect()
}

/// Checkpoint spills the daemon journaled.
fn journaled_spills(dir: &Path) -> Result<u64, String> {
    let path = powerchop_durable::journal_path(&dir.join("journal"));
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spills = powerchop_durable::read_frames(&bytes)
        .frames
        .iter()
        .filter(|f| {
            matches!(
                powerchop_durable::Record::decode(f),
                Ok(powerchop_durable::Record::Spill { .. })
            )
        })
        .count();
    Ok(spills as u64)
}

/// One sample per replayed spill point.
#[derive(Default)]
struct SpillTimes {
    snapshot_ms: Vec<f64>,
    snapshot_mib: Vec<f64>,
    write_ms: Vec<f64>,
}

/// Replays the first cold runs that cross the spill interval, timing
/// `Simulation::snapshot` and `durable::write_atomic` at each point
/// where the daemon spilled.
/// `specs` pairs each request with its index in the cold stream, the id
/// its spans carry.
fn replay_spills(
    specs: &[(u64, &Spec)],
    dir: &Path,
    log: &mut SpanLog,
) -> Result<SpillTimes, String> {
    let spill_every = ServerConfig::default().spill_every;
    let mut times = SpillTimes::default();
    let path = dir.join("replay.ckpt");
    for &(run, spec) in specs
        .iter()
        .filter(|(_, s)| s.budget > spill_every)
        .take(SPILL_SAMPLE)
    {
        let program = by_name(spec.bench)
            .expect("specs name roster benchmarks")
            .program(SCALE);
        let root = log.open("serve.cold.replay", run, None);
        let mut sim = Simulation::new(
            &program,
            ManagerKind::PowerChop,
            &spec.config(JitMode::Auto),
        )
        .map_err(|e| e.to_string())?;
        let meta = SnapshotMeta {
            benchmark: spec.bench.to_owned(),
            scale: SCALE.0,
            manager: "powerchop".to_owned(),
            budget: spec.budget,
            fault_seed: None,
            storm: false,
        };
        let mut last = 0;
        while !sim.is_done() {
            sim.step_chunk(STEP_CHUNK).map_err(|e| e.to_string())?;
            if sim.retired() - last < spill_every {
                continue;
            }
            let t = Instant::now();
            let bytes = sim.snapshot(&meta);
            let written = Instant::now();
            powerchop_durable::write_atomic(&path, &bytes).map_err(|e| e.to_string())?;
            let done = Instant::now();
            log.push("checkpoint.snapshot", run, Some(root), t, written);
            log.push("durable.write_atomic", run, Some(root), written, done);
            times.snapshot_ms.push((written - t).as_secs_f64() * 1e3);
            times.write_ms.push((done - written).as_secs_f64() * 1e3);
            times
                .snapshot_mib
                .push(bytes.len() as f64 / (1024.0 * 1024.0));
            last = sim.retired();
        }
        log.close(root);
    }
    let _ = std::fs::remove_file(&path);
    Ok(times)
}

/// The traced profile of the serve layers: one untraced session for the
/// hit connection's own figures, then the same schedule with the access
/// log on, `/metrics` scraped around it, and the spill points of its
/// cold runs replayed. Each session lasts half of `seconds`.
pub fn profile(
    seed: u64,
    seconds: u64,
    out: &Path,
    tally: &mut Tally,
    samples: &mut JsonWriter,
    logs: &mut Vec<(&'static str, SpanLog)>,
) -> Result<Vec<Metric>, String> {
    let seconds = (seconds / 2).max(1);
    let mut log = SpanLog::new();
    let plain = session(seed, seconds, out, 1, false, tally)?;
    let _ = std::fs::remove_dir_all(&plain.dir);
    let hits_us: Vec<f64> = plain
        .traffic
        .hit_latency_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();

    let traced = session(seed, seconds, out, 1, true, tally)?;
    let log_path = traced.dir.join("access.jsonl");
    let text =
        std::fs::read_to_string(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let records: Vec<Json> = text
        .lines()
        .map(Json::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("access log: {e}"))?;
    let runs: Vec<&Json> = records
        .iter()
        .filter(|r| r.get("op").and_then(Json::as_str) == Some("run"))
        .collect();
    let cached = |r: &&Json| r.get("cached").and_then(Json::as_bool) == Some(true);
    let hit_records: Vec<&Json> = runs.iter().copied().filter(cached).collect();
    // The first HIT_KEYS misses are the warm-up, before the window.
    let cold_records: Vec<&Json> = runs
        .iter()
        .copied()
        .filter(|r| !cached(r))
        .skip(HIT_KEYS)
        .collect();
    let counter = |name: &str| {
        traced.metrics_after.get(name).copied().unwrap_or(0.0)
            - traced.metrics_before.get(name).copied().unwrap_or(0.0)
    };
    let requests = (traced.traffic.hit_latency_ns.len() + traced.traffic.cold.len()) as f64;
    let spills = journaled_spills(&traced.dir)?;

    let traffic = &traced.traffic;
    let window = log.push(
        "serve.window",
        0,
        None,
        traffic.started,
        traffic.started + Duration::from_nanos(traffic.wall_ns),
    );
    log.push_agg("serve.hit.request", 0, window, &traffic.hit_calls);
    for c in &traffic.cold {
        let end = c.sent + Duration::from_nanos(c.latency_ns);
        log.push(
            "serve.cold.request",
            c.index as u64,
            Some(window),
            c.sent,
            end,
        );
    }
    let sent: Vec<(u64, &Spec)> = traffic
        .cold
        .iter()
        .map(|c| (c.index as u64, &traced.schedule.cold[c.index]))
        .collect();
    let spill = replay_spills(&sent, &traced.dir, &mut log)?;
    let _ = std::fs::remove_dir_all(&traced.dir);
    logs.push(("serve", log));
    if spill.snapshot_ms.is_empty() {
        return Err("no replayed cold run crossed the spill interval".to_owned());
    }
    samples.field_u64("serve.hit.p50_us", hits_us.len() as u64);
    samples.field_u64("serve.hit.p99_us", hits_us.len() as u64);
    samples.field_u64("serve.hit.phases", hit_records.len() as u64);
    samples.field_u64("serve.cold.phases", cold_records.len() as u64);
    samples.field_u64("checkpoint.snapshot", spill.snapshot_ms.len() as u64);

    // Cache hits never queue, compute or journal: those phases are zero
    // by construction and are left out of the hit breakdown.
    let hit_phases = [Phase::Accept, Phase::Parse, Phase::Cache, Phase::Respond];
    let mut metrics = Vec::new();
    for (phase, value) in hit_phases
        .iter()
        .zip(phase_means(&hit_records, &hit_phases))
    {
        metrics.push(Metric::new(
            format!("serve.hit.{}_us", phase.label()),
            "us",
            value,
        ));
    }
    for (phase, value) in Phase::ALL
        .iter()
        .zip(phase_means(&cold_records, &Phase::ALL))
    {
        metrics.push(Metric::new(
            format!("serve.cold.{}_us", phase.label()),
            "us",
            value,
        ));
    }
    metrics.extend([
        Metric::new(
            "serve.epoll_wakeups_per_req",
            "count",
            ratio(counter("serve_epoll_wakeups_total"), requests),
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            "ratio",
            ratio(
                counter("serve_cache_hits_total"),
                counter("serve_cache_hits_total") + counter("serve_cache_misses_total"),
            ),
        ),
        Metric::new(
            "serve.hit.rps",
            "1/s",
            hits_us.len() as f64 / (plain.traffic.wall_ns as f64 / 1e9),
        ),
        Metric::new("serve.hit.p50_us", "us", percentile(&hits_us, 50.0)?),
        Metric::new("serve.hit.p99_us", "us", percentile(&hits_us, 99.0)?),
        Metric::new("checkpoint.snapshot_ms", "ms", median(&spill.snapshot_ms)),
        Metric::new(
            "checkpoint.snapshot_mib",
            "MiB",
            median(&spill.snapshot_mib),
        ),
        Metric::new("durable.write_atomic_ms", "ms", median(&spill.write_ms)),
        Metric::new("durable.spills", "count", spills as f64),
    ]);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop::config_fingerprint;
    use powerchop_checkpoint::run_key;
    use powerchop_serve::cache::ShardedCache;

    /// The daemon's result-cache key for `spec`.
    fn key(spec: &Spec) -> u128 {
        let program = by_name(spec.bench)
            .expect("specs name roster benchmarks")
            .program(SCALE);
        run_key(
            program.fingerprint(),
            config_fingerprint(ManagerKind::PowerChop, &spec.config(JitMode::Auto)),
        )
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_distinct() {
        let a = Schedule::new(7);
        assert_eq!(a, Schedule::new(7));
        assert_ne!(a.cold, Schedule::new(8).cold);
        assert_eq!(a.hits.len(), HIT_KEYS);
        let mut keys = HashSet::new();
        for spec in a.hits.iter().chain(&a.cold) {
            assert!(keys.insert(key(spec)), "repeated request {spec:?}");
        }
        let crossing = a.cold.iter().filter(|s| s.budget > 2_000_000).count();
        let share = crossing as f64 / a.cold.len() as f64;
        assert!((0.4..0.6).contains(&share), "{share} of cold runs cross 2M");
    }

    #[test]
    fn hit_keys_survive_the_cold_stream_in_the_default_cache() {
        let defaults = ServerConfig::default();
        for seed in [1, 2, 0xC0FFEE] {
            let schedule = Schedule::new(seed);
            let cache = ShardedCache::new(defaults.cache_entries, SERVE_JOBS);
            let hits: Vec<u128> = schedule.hits.iter().map(key).collect();
            for &key in &hits {
                cache.put(key, String::new());
            }
            // Between two cold replies the hit connection touches every
            // hit key many times over; one full cycle is the weakest
            // case.
            for cold in &schedule.cold {
                cache.put(key(cold), String::new());
                for &key in &hits {
                    assert!(
                        cache.get(key).is_some(),
                        "seed {seed}: a hit key was evicted"
                    );
                }
            }
        }
    }
}
