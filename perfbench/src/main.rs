//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite|suite-storm|serve> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures one workload untraced and prints every
//! end-to-end metric; with `--trace 1` it runs the traced profile, which
//! times the public calls into each layer and prints every per-layer
//! metric. Either way it checks every output against a reference run,
//! writes a detail record (and, when traced, the spans) under `out/` of
//! this package, and prints as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `BENCHMARK.json`
//! at the repository root lists the metrics; `METRICS.md` beside this
//! package's manifest says what each one measures and why.

mod host;
mod serve;
mod spans;
mod stats;
mod suite;

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use powerchop_telemetry::export::{validate_json, JsonWriter};

/// One reported figure.
pub struct Metric {
    name: Cow<'static, str>,
    unit: &'static str,
    value: f64,
}

impl Metric {
    pub fn new(name: impl Into<Cow<'static, str>>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Operations checked for correctness, and the ones that failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Suite,
    SuiteStorm,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "suite" => Some(Workload::Suite),
            "suite-storm" => Some(Workload::SuiteStorm),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::SuiteStorm => "suite-storm",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: {value:?} is not 0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Where detail records, spans and the daemon's state directories go.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut w = JsonWriter::object();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        let mut v = JsonWriter::object();
        v.field_raw("value", &format!("{}", m.value));
        v.field_str("unit", m.unit);
        w.field_raw(&m.name, &v.finish());
    }
    Ok(w.finish())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<String, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );

    let (tally, metrics, samples) = if args.trace {
        let mut tally = Tally::default();
        let mut samples = JsonWriter::object();
        let mut logs = Vec::new();
        let mut metrics = suite::profile(args.seed, &mut tally, &mut samples, &mut logs)?;
        metrics.extend(serve::profile(
            args.seed,
            args.seconds,
            &out,
            &mut tally,
            &mut samples,
            &mut logs,
        )?);
        let mut spans = JsonWriter::object();
        for (context, log) in &logs {
            spans.field_raw(context, &log.to_json()?);
        }
        let spans = spans.finish();
        validate_json(&spans).map_err(|e| e.to_string())?;
        write(&out.join(format!("spans-{stem}.json")), &spans)?;
        (tally, metrics, samples.finish())
    } else {
        match args.workload {
            Workload::Suite => suite::measure(false, args.seed, args.seconds)?,
            Workload::SuiteStorm => suite::measure(true, args.seed, args.seconds)?,
            Workload::Serve => serve::measure(args.seed, args.seconds, &out)?,
        }
    };

    let metrics = metrics_json(&metrics)?;
    let mut detail = JsonWriter::object();
    detail.field_str("workload", args.workload.name());
    detail.field_raw(
        "provenance",
        &host::provenance(args.seed, args.seconds, args.trace),
    );
    detail.field_raw("samples", &samples);
    detail.field_u64("attempted", tally.attempted);
    detail.field_u64("failed", tally.failed);
    detail.field_f64(
        "failed_ratio",
        stats::ratio(tally.failed as f64, tally.attempted as f64),
        6,
    );
    let mut failures = JsonWriter::array();
    for f in &tally.failures {
        failures.push_str_elem(f);
    }
    detail.field_raw("failures", &failures.finish());
    detail.field_raw("metrics", &metrics);
    let detail = detail.finish();
    validate_json(&detail).map_err(|e| e.to_string())?;
    write(&out.join(format!("{stem}.json")), &detail)?;
    println!("{detail}");

    let mut result = JsonWriter::object();
    result.field_bool("correct", tally.failed == 0 && tally.attempted > 0);
    result.field_u64("attempted", tally.attempted);
    result.field_u64("failed", tally.failed);
    result.field_raw("metrics", &metrics);
    Ok(result.finish())
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
