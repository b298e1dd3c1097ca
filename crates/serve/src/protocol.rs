//! The newline-delimited JSON request protocol.
//!
//! One request per line, one reply per line. Every request is a JSON
//! object with an `"op"` field:
//!
//! | op         | extra fields                                              |
//! |------------|-----------------------------------------------------------|
//! | `run`      | `bench` (required), `manager`, `budget`, `scale`, `seed`, `storm`, `deadline_ms` |
//! | `sweep`    | `benches` (array) or `suite`, plus the `run` knobs        |
//! | `status`   | —                                                         |
//! | `health`   | —                                                         |
//! | `metrics`  | —                                                         |
//! | `shutdown` | —                                                         |
//!
//! Error replies are `{"ok":false,"code":N,"error":"<slug>","message":...}`
//! with HTTP-flavored codes: 400 bad request, 404 unknown benchmark,
//! 408 deadline expired or slow client, 429 queue full, 500 internal,
//! 503 draining / overloaded.
//! Validation here mirrors the CLI flag parsers in `powerchop-cli`
//! exactly — a request the daemon accepts is a run the CLI would accept.
//! Fields an op does not know are ignored.

use powerchop::ManagerKind;
use powerchop_faults::FaultConfig;
use powerchop_telemetry::export::JsonWriter;

use crate::json::Json;

/// The fault-schedule seed used when `storm` is set without a `seed`
/// (also the CLI `stress` default, which aliases this constant).
pub const DEFAULT_FAULT_SEED: u64 = 0xCAFE_BABE;

/// Largest accepted `scale`: generous for experiments, small enough
/// that one request cannot ask for a terabyte-scale working set.
pub const MAX_SCALE: f64 = 1000.0;

/// The fault schedule implied by `seed`/`storm` (`None` runs clean).
#[must_use]
pub fn fault_config(seed: Option<u64>, storm: bool) -> Option<FaultConfig> {
    if seed.is_none() && !storm {
        return None;
    }
    let seed = seed.unwrap_or(DEFAULT_FAULT_SEED);
    Some(if storm {
        FaultConfig::storm(seed)
    } else {
        FaultConfig::default_rates(seed)
    })
}

/// Server-imposed request limits, from [`crate::ServerConfig`].
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest accepted instruction budget.
    pub max_budget: u64,
    /// Per-request wall-clock deadline cap in milliseconds; a request
    /// may shrink its own deadline but never extend past this.
    pub deadline_ms: u64,
}

/// A typed request failure, carried to the client as an error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqError {
    /// HTTP-flavored status code.
    pub code: u16,
    /// Stable machine-readable slug (`bad-request`, `busy`, ...).
    pub slug: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ReqError {
    /// 400: the request is malformed or out of range.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            code: 400,
            slug: "bad-request",
            message: message.into(),
        }
    }

    /// 404: the named benchmark does not exist.
    #[must_use]
    pub fn not_found(message: impl Into<String>) -> Self {
        Self {
            code: 404,
            slug: "not-found",
            message: message.into(),
        }
    }

    /// 408: the run outlived its wall-clock deadline.
    #[must_use]
    pub fn deadline(deadline_ms: u64) -> Self {
        Self {
            code: 408,
            slug: "deadline",
            message: format!("run exceeded its {deadline_ms} ms deadline"),
        }
    }

    /// 429: the job queue is full — retry later.
    #[must_use]
    pub fn busy(queue_depth: usize) -> Self {
        Self {
            code: 429,
            slug: "busy",
            message: format!("job queue full ({queue_depth} waiting); retry later"),
        }
    }

    /// 500: the run failed or panicked inside the simulator.
    #[must_use]
    pub fn internal(message: impl Into<String>) -> Self {
        Self {
            code: 500,
            slug: "internal",
            message: message.into(),
        }
    }

    /// 503: the daemon is draining and accepts no new work.
    #[must_use]
    pub fn draining() -> Self {
        Self {
            code: 503,
            slug: "draining",
            message: "daemon is draining; no new work accepted".into(),
        }
    }

    /// 503: the max-connections gate is full — the connection is shed.
    #[must_use]
    pub fn overloaded(max_connections: usize) -> Self {
        Self {
            code: 503,
            slug: "overloaded",
            message: format!("connection limit reached ({max_connections}); retry later"),
        }
    }

    /// 408: the client was too slow to send (or receive) a full line.
    #[must_use]
    pub fn slow_client(timeout_ms: u64) -> Self {
        Self {
            code: 408,
            slug: "slow-client",
            message: format!("no complete request line within {timeout_ms} ms; closing"),
        }
    }

    /// 408: the client stopped absorbing replies and its per-connection
    /// outbox overflowed — the slow-consumer twin of [`slow_client`]
    /// (same typed 408 disconnect, write side instead of read side).
    ///
    /// [`slow_client`]: ReqError::slow_client
    #[must_use]
    pub fn backpressure(max_outbox_bytes: usize) -> Self {
        Self {
            code: 408,
            slug: "slow-client",
            message: format!(
                "unread replies exceeded the {max_outbox_bytes}-byte outbox; closing slow consumer"
            ),
        }
    }
}

impl std::fmt::Display for ReqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.code, self.slug, self.message)
    }
}

impl std::error::Error for ReqError {}

/// One fully validated simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Benchmark name (validated to exist).
    pub bench: String,
    /// Power manager to run under.
    pub manager: ManagerKind,
    /// Instruction budget, `1..=limits.max_budget`.
    pub budget: u64,
    /// Workload scale factor, finite and in `(0, MAX_SCALE]`.
    pub scale: f64,
    /// Optional fault-injection seed.
    pub seed: Option<u64>,
    /// Storm-rate fault injection.
    pub storm: bool,
    /// Effective wall-clock deadline for this run, already clamped to
    /// the server cap. Zero is an immediately-expired deadline.
    pub deadline_ms: u64,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run one benchmark.
    Run(Box<RunSpec>),
    /// Run a batch of benchmarks.
    Sweep(Vec<RunSpec>),
    /// Report queue/cache/drain state.
    Status,
    /// Report liveness/readiness: drain state, worker and queue counts,
    /// connections and the recovery ledger.
    Health,
    /// Return the Prometheus metrics text.
    Metrics,
    /// Begin a graceful drain.
    Shutdown,
}

fn want_str<'a>(v: &'a Json, key: &str) -> Result<Option<&'a str>, ReqError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s)),
        Some(_) => Err(ReqError::bad_request(format!(
            "field {key:?} must be a string"
        ))),
    }
}

fn want_u64(v: &Json, key: &str) -> Result<Option<u64>, ReqError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n.as_u64().map(Some).ok_or_else(|| {
            ReqError::bad_request(format!(
                "field {key:?} must be a non-negative integer no larger than 2^53"
            ))
        }),
    }
}

fn want_f64(v: &Json, key: &str) -> Result<Option<f64>, ReqError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(ReqError::bad_request(format!(
            "field {key:?} must be a number"
        ))),
    }
}

fn want_bool(v: &Json, key: &str) -> Result<Option<bool>, ReqError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(ReqError::bad_request(format!(
            "field {key:?} must be a boolean"
        ))),
    }
}

/// Builds one validated [`RunSpec`] from a request object, using
/// `bench` rather than the object's own `bench` field when given (the
/// sweep op shares one set of knobs across many benchmarks).
fn run_spec(v: &Json, limits: &Limits, bench: Option<&str>) -> Result<RunSpec, ReqError> {
    let bench = match bench {
        Some(name) => name.to_owned(),
        None => want_str(v, "bench")?
            .ok_or_else(|| ReqError::bad_request("missing required field \"bench\""))?
            .to_owned(),
    };
    if powerchop_workloads::by_name(&bench).is_none() {
        return Err(ReqError::not_found(format!(
            "unknown benchmark {bench:?} — ask op \"status\" or `powerchop-cli list` for the roster"
        )));
    }
    let manager_name = want_str(v, "manager")?.unwrap_or("powerchop");
    let manager = powerchop::manager_kind_by_name(manager_name).ok_or_else(|| {
        ReqError::bad_request(format!(
            "unknown manager {manager_name:?} (expected powerchop|full|minimal|timeout|drowsy)"
        ))
    })?;
    let budget = want_u64(v, "budget")?.unwrap_or(8_000_000);
    if budget == 0 || budget > limits.max_budget {
        return Err(ReqError::bad_request(format!(
            "field \"budget\" must be in 1..={} (got {budget})",
            limits.max_budget
        )));
    }
    let scale = want_f64(v, "scale")?.unwrap_or(1.0);
    if !scale.is_finite() || scale <= 0.0 || scale > MAX_SCALE {
        return Err(ReqError::bad_request(format!(
            "field \"scale\" must be a finite number in (0, {MAX_SCALE}] (got {scale})"
        )));
    }
    let seed = want_u64(v, "seed")?;
    let storm = want_bool(v, "storm")?.unwrap_or(false);
    let deadline_ms = want_u64(v, "deadline_ms")?
        .unwrap_or(limits.deadline_ms)
        .min(limits.deadline_ms);
    Ok(RunSpec {
        bench,
        manager,
        budget,
        scale,
        seed,
        storm,
        deadline_ms,
    })
}

/// The benchmark roster a sweep request names: an explicit `benches`
/// array, a whole `suite`, or (neither) every benchmark.
fn sweep_benches(v: &Json) -> Result<Vec<String>, ReqError> {
    match (v.get("benches"), want_str(v, "suite")?) {
        (Some(_), Some(_)) => Err(ReqError::bad_request(
            "give either \"benches\" or \"suite\", not both",
        )),
        (Some(Json::Arr(items)), None) => {
            if items.is_empty() {
                return Err(ReqError::bad_request("field \"benches\" must not be empty"));
            }
            items
                .iter()
                .map(|item| {
                    item.as_str().map(str::to_owned).ok_or_else(|| {
                        ReqError::bad_request("field \"benches\" must be an array of strings")
                    })
                })
                .collect()
        }
        (Some(_), None) => Err(ReqError::bad_request(
            "field \"benches\" must be an array of strings",
        )),
        (None, Some(name)) => {
            let suite = match name {
                "spec-int" | "specint" => powerchop_workloads::Suite::SpecInt,
                "spec-fp" | "specfp" => powerchop_workloads::Suite::SpecFp,
                "parsec" => powerchop_workloads::Suite::Parsec,
                "mobile" | "mobilebench" => powerchop_workloads::Suite::MobileBench,
                other => {
                    return Err(ReqError::bad_request(format!(
                        "unknown suite {other:?} (expected spec-int|spec-fp|parsec|mobile)"
                    )))
                }
            };
            Ok(powerchop_workloads::suite(suite)
                .map(|b| b.name().to_owned())
                .collect())
        }
        (None, None) => Ok(powerchop_workloads::all()
            .iter()
            .map(|b| b.name().to_owned())
            .collect()),
    }
}

/// Parses and validates one request line.
///
/// # Errors
///
/// Returns a [`ReqError`] (400/404) describing exactly which field was
/// malformed; the daemon sends it back verbatim as the error reply.
pub fn parse_request(line: &str, limits: &Limits) -> Result<Request, ReqError> {
    let v = Json::parse(line).map_err(|e| ReqError::bad_request(format!("invalid JSON: {e}")))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(ReqError::bad_request("request must be a JSON object"));
    }
    let op = want_str(&v, "op")?
        .ok_or_else(|| ReqError::bad_request("missing required field \"op\""))?;
    match op {
        "run" => Ok(Request::Run(Box::new(run_spec(&v, limits, None)?))),
        "sweep" => {
            let specs = sweep_benches(&v)?
                .iter()
                .map(|bench| run_spec(&v, limits, Some(bench)))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Sweep(specs))
        }
        "status" => Ok(Request::Status),
        "health" => Ok(Request::Health),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ReqError::bad_request(format!(
            "unknown op {other:?} (expected run|sweep|status|health|metrics|shutdown)"
        ))),
    }
}

/// Renders an error reply line. `trace` is the request's trace id,
/// echoed back so even shed requests (408/429/503) stay attributable;
/// zero means "no trace assigned" (e.g. the connection was rejected
/// before a request existed) and omits the field.
#[must_use]
pub fn error_reply(e: &ReqError, trace: u64) -> String {
    let mut w = JsonWriter::object();
    w.field_bool("ok", false);
    w.field_u64("code", u64::from(e.code));
    w.field_str("error", e.slug);
    w.field_str("message", &e.message);
    if trace != 0 {
        w.field_str("trace_id", &powerchop_telemetry::format_trace_id(trace));
    }
    w.finish()
}

/// Renders a successful `run` reply. `report_json` is spliced in raw,
/// so the embedded report is byte-identical to `powerchop-cli run
/// --json` output for the same request; the `trace_id` field is the
/// one request-unique part of the envelope.
#[must_use]
pub fn run_reply(trace: u64, cached: bool, report_json: &str) -> String {
    let mut w = JsonWriter::object();
    w.field_bool("ok", true);
    w.field_str("op", "run");
    w.field_bool("cached", cached);
    w.field_str("trace_id", &powerchop_telemetry::format_trace_id(trace));
    w.field_raw("report", report_json);
    w.finish()
}

/// Removes the `,"trace_id":"..."` field from a reply line. Replies
/// are deterministic except for the per-request trace id, so clients
/// (and the bit-identity tests) compare `strip_trace_id(reply)`
/// against a baseline byte-for-byte.
#[must_use]
pub fn strip_trace_id(reply: &str) -> String {
    const NEEDLE: &str = ",\"trace_id\":\"";
    let Some(start) = reply.find(NEEDLE) else {
        return reply.to_owned();
    };
    let rest = &reply[start + NEEDLE.len()..];
    let Some(endq) = rest.find('"') else {
        return reply.to_owned();
    };
    let mut out = String::with_capacity(reply.len());
    out.push_str(&reply[..start]);
    out.push_str(&rest[endq + 1..]);
    out
}

/// One benchmark's outcome inside a sweep reply.
#[derive(Debug)]
pub enum SweepOutcome {
    /// The run completed; the reply embeds its report.
    Done {
        /// Served from the result cache.
        cached: bool,
        /// The report JSON.
        report: String,
    },
    /// The run failed; the reply embeds the typed error.
    Failed(ReqError),
}

/// Renders a `sweep` reply. The envelope is `ok:true` whenever the
/// sweep itself was dispatched; per-benchmark failures are typed rows.
/// The trace id sits on the envelope only — rows stay deterministic.
#[must_use]
pub fn sweep_reply(trace: u64, rows: &[(String, SweepOutcome)]) -> String {
    let mut items = JsonWriter::array();
    let mut completed = 0u64;
    for (bench, outcome) in rows {
        let mut row = JsonWriter::object();
        row.field_str("bench", bench);
        match outcome {
            SweepOutcome::Done { cached, report } => {
                completed += 1;
                row.field_bool("ok", true);
                row.field_bool("cached", *cached);
                row.field_raw("report", report);
            }
            SweepOutcome::Failed(e) => {
                row.field_bool("ok", false);
                row.field_u64("code", u64::from(e.code));
                row.field_str("error", e.slug);
                row.field_str("message", &e.message);
            }
        }
        items.push_raw(&row.finish());
    }
    let mut w = JsonWriter::object();
    w.field_bool("ok", true);
    w.field_str("op", "sweep");
    w.field_str("trace_id", &powerchop_telemetry::format_trace_id(trace));
    w.field_u64("count", rows.len() as u64);
    w.field_u64("completed", completed);
    w.field_raw("results", &items.finish());
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits {
            max_budget: 1_000_000_000,
            deadline_ms: 120_000,
        }
    }

    fn bad(line: &str) -> ReqError {
        parse_request(line, &limits()).expect_err(line)
    }

    #[test]
    fn run_requests_parse_with_defaults_and_overrides() {
        let r = parse_request(r#"{"op":"run","bench":"hmmer"}"#, &limits()).unwrap();
        let Request::Run(spec) = r else {
            panic!("expected run")
        };
        assert_eq!(spec.bench, "hmmer");
        assert_eq!(spec.manager, ManagerKind::PowerChop);
        assert_eq!(spec.budget, 8_000_000);
        assert_eq!(spec.scale, 1.0);
        assert_eq!(spec.seed, None);
        assert!(!spec.storm);
        assert_eq!(spec.deadline_ms, 120_000);

        let r = parse_request(
            r#"{"op":"run","bench":"gcc","manager":"full","budget":5,"scale":0.25,"seed":9,"storm":true,"deadline_ms":50}"#,
            &limits(),
        )
        .unwrap();
        let Request::Run(spec) = r else {
            panic!("expected run")
        };
        assert_eq!(spec.manager, ManagerKind::FullPower);
        assert_eq!(spec.budget, 5);
        assert_eq!(spec.scale, 0.25);
        assert_eq!(spec.seed, Some(9));
        assert!(spec.storm);
        assert_eq!(spec.deadline_ms, 50);
    }

    #[test]
    fn deadlines_clamp_to_the_server_cap() {
        let r = parse_request(
            r#"{"op":"run","bench":"hmmer","deadline_ms":999999999}"#,
            &limits(),
        )
        .unwrap();
        let Request::Run(spec) = r else {
            panic!("expected run")
        };
        assert_eq!(spec.deadline_ms, 120_000, "cannot extend past the cap");
    }

    #[test]
    fn malformed_requests_get_typed_400s() {
        for (line, needle) in [
            ("", "invalid JSON"),
            ("{", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{}", "\"op\""),
            (r#"{"op":"reboot"}"#, "unknown op"),
            (r#"{"op":"run"}"#, "\"bench\""),
            (r#"{"op":"run","bench":7}"#, "must be a string"),
            (
                r#"{"op":"run","bench":"hmmer","manager":"warp"}"#,
                "unknown manager",
            ),
            (r#"{"op":"run","bench":"hmmer","budget":0}"#, "budget"),
            (
                r#"{"op":"run","bench":"hmmer","budget":-3}"#,
                "non-negative integer",
            ),
            (
                r#"{"op":"run","bench":"hmmer","budget":2000000000}"#,
                "budget",
            ),
            (r#"{"op":"run","bench":"hmmer","scale":0}"#, "scale"),
            (r#"{"op":"run","bench":"hmmer","scale":-1}"#, "scale"),
            (
                r#"{"op":"run","bench":"hmmer","scale":1e999}"#,
                "invalid JSON",
            ),
            (r#"{"op":"run","bench":"hmmer","storm":"yes"}"#, "boolean"),
            (r#"{"op":"sweep","benches":[]}"#, "must not be empty"),
            (r#"{"op":"sweep","benches":"hmmer"}"#, "array of strings"),
            (
                r#"{"op":"sweep","benches":["hmmer"],"suite":"parsec"}"#,
                "not both",
            ),
            (r#"{"op":"sweep","suite":"doom"}"#, "unknown suite"),
        ] {
            let e = bad(line);
            assert_eq!(e.code, 400, "{line}: {e}");
            assert!(e.message.contains(needle), "{line}: {e}");
        }
        let e = bad(r#"{"op":"run","bench":"doom"}"#);
        assert_eq!(e.code, 404);
        assert_eq!(e.slug, "not-found");
    }

    #[test]
    fn sweep_rosters_resolve() {
        let Request::Sweep(all) = parse_request(r#"{"op":"sweep"}"#, &limits()).unwrap() else {
            panic!("expected sweep")
        };
        assert_eq!(all.len(), powerchop_workloads::all().len());

        let Request::Sweep(named) = parse_request(
            r#"{"op":"sweep","benches":["hmmer","namd"],"budget":10}"#,
            &limits(),
        )
        .unwrap() else {
            panic!("expected sweep")
        };
        assert_eq!(named.len(), 2);
        assert!(named.iter().all(|s| s.budget == 10));

        let Request::Sweep(suite) =
            parse_request(r#"{"op":"sweep","suite":"parsec"}"#, &limits()).unwrap()
        else {
            panic!("expected sweep")
        };
        assert!(!suite.is_empty());
        // A sweep naming an unknown benchmark fails as a whole with 404.
        let e = bad(r#"{"op":"sweep","benches":["hmmer","doom"]}"#);
        assert_eq!(e.code, 404);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let plain = parse_request(r#"{"op":"run","bench":"hmmer"}"#, &limits()).unwrap();
        let extra = parse_request(
            r#"{"op":"run","bench":"hmmer","chaos":"panic","colour":[1,2]}"#,
            &limits(),
        )
        .unwrap();
        assert_eq!(plain, extra);
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(
            parse_request(r#"{"op":"status"}"#, &limits()).unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"op":"health"}"#, &limits()).unwrap(),
            Request::Health
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#, &limits()).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#, &limits()).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn replies_are_well_formed_json() {
        let err = error_reply(&ReqError::busy(4), 0xBEEF);
        powerchop_telemetry::validate_json(&err).expect("error reply is valid JSON");
        assert!(err.contains("\"code\":429"));
        assert!(err.contains("\"trace_id\":\"000000000000beef\""));
        assert!(
            !error_reply(&ReqError::busy(4), 0).contains("trace_id"),
            "a zero trace id is omitted"
        );

        let run = run_reply(0xBEEF, true, r#"{"program":"x"}"#);
        powerchop_telemetry::validate_json(&run).expect("run reply is valid JSON");
        assert!(run.contains("\"cached\":true"));
        assert!(run.contains("\"trace_id\":\"000000000000beef\""));

        let sweep = sweep_reply(
            0xBEEF,
            &[
                (
                    "hmmer".into(),
                    SweepOutcome::Done {
                        cached: false,
                        report: r#"{"program":"hmmer"}"#.into(),
                    },
                ),
                ("namd".into(), SweepOutcome::Failed(ReqError::deadline(5))),
            ],
        );
        powerchop_telemetry::validate_json(&sweep).expect("sweep reply is valid JSON");
        assert!(sweep.contains("\"completed\":1"));
        assert!(sweep.contains("\"code\":408"));
        assert!(sweep.contains("\"trace_id\":\"000000000000beef\""));
    }

    #[test]
    fn strip_trace_id_recovers_the_untraced_envelope() {
        let traced = run_reply(0xBEEF, false, r#"{"program":"x"}"#);
        assert_eq!(
            strip_trace_id(&traced),
            r#"{"ok":true,"op":"run","cached":false,"report":{"program":"x"}}"#
        );
        let untraced = r#"{"ok":true,"op":"status"}"#;
        assert_eq!(
            strip_trace_id(untraced),
            untraced,
            "no-op without the field"
        );
    }

    #[test]
    fn fault_configs_mirror_the_cli() {
        assert!(fault_config(None, false).is_none());
        assert!(fault_config(Some(7), false).is_some());
        assert!(fault_config(None, true).is_some());
    }
}
