//! `top`: a live terminal dashboard over a running `powerchop-serve`.
//!
//! Dependency-free by construction: each frame polls the daemon's HTTP
//! `GET /metrics` endpoint for the Prometheus exposition (counters,
//! gauges and the per-op latency quantile estimates the daemon derives
//! from its log2 histograms) and the JSON `health` op for the
//! drain/worker/recovery story, then redraws one compact screen with
//! ANSI escapes. The qps history renders through
//! [`powerchop_telemetry::timeline::sparkline`] — the same rendering
//! primitives the `trace` timeline uses.

use std::collections::HashMap;
use std::io::Write;
use std::time::Duration;

use powerchop_serve::json::Json;
use powerchop_telemetry::timeline;

use crate::args::TopOpts;
use crate::client::{request, scrape};
use crate::CliError;

/// Socket timeout for each poll: a wedged daemon must stall one frame,
/// not the dashboard forever.
const POLL_TIMEOUT: Duration = Duration::from_secs(5);

/// Sparkline width in columns.
const SPARK_WIDTH: usize = 48;

/// One polled view of the daemon, flattened from `/metrics` + `health`.
#[derive(Debug, Default, Clone)]
struct Snapshot {
    requests_total: f64,
    inflight_requests: f64,
    queued: f64,
    connections: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    p999: f64,
    healthy: bool,
    draining: bool,
    workers: f64,
    recovery_active: bool,
    runs_resumed: f64,
}

/// Polls `/metrics` and the JSON `health` op.
fn poll(addr: &str) -> Result<(HashMap<String, f64>, Json), CliError> {
    let metrics = scrape(addr, POLL_TIMEOUT)?;
    let reply = request(addr, r#"{"op":"health"}"#, POLL_TIMEOUT)?;
    let health = Json::parse(&reply)
        .map_err(|e| CliError(format!("{addr}: malformed health reply: {e}")))?;
    Ok((metrics, health))
}

/// Folds one `/metrics` + `health` poll into a [`Snapshot`].
fn snapshot(metrics: &HashMap<String, f64>, health: &Json) -> Snapshot {
    let m = |key: &str| metrics.get(key).copied().unwrap_or(0.0);
    let hu = |key: &str| health.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let hb = |key: &str| health.get(key).and_then(Json::as_bool).unwrap_or(false);
    Snapshot {
        requests_total: m("serve_requests_total"),
        inflight_requests: m("serve_inflight_requests"),
        queued: m("serve_queue_depth"),
        connections: m("serve_connections"),
        p50: m(r#"serve_request_duration_ms_p50{op="run"}"#),
        p90: m(r#"serve_request_duration_ms_p90{op="run"}"#),
        p99: m(r#"serve_request_duration_ms_p99{op="run"}"#),
        p999: m(r#"serve_request_duration_ms_p999{op="run"}"#),
        healthy: hb("healthy"),
        draining: hb("draining"),
        workers: hu("workers"),
        recovery_active: hb("recovery_active"),
        runs_resumed: hu("runs_resumed"),
    }
}

/// Renders one dashboard frame (without the screen-clear escape, so
/// the pure text is unit-testable).
fn render_frame(addr: &str, snap: &Snapshot, qps: f64, history: &[f64]) -> String {
    let verdict = if snap.draining {
        "DRAINING"
    } else if snap.healthy {
        "healthy"
    } else {
        "UNHEALTHY"
    };
    let recovery = if snap.recovery_active {
        "resuming"
    } else {
        "idle"
    };
    let mut out = String::new();
    out.push_str(&format!("powerchop-serve top — {addr}   [{verdict}]\n"));
    out.push_str(&format!(
        "traffic   {qps:8.1} qps   in-flight {:>3}   queued {:>3}   connections {:>3}\n",
        snap.inflight_requests as u64, snap.queued as u64, snap.connections as u64,
    ));
    out.push_str(&format!(
        "latency   p50 {:.0}ms   p90 {:.0}ms   p99 {:.0}ms   p999 {:.0}ms   (op=run)\n",
        snap.p50, snap.p90, snap.p99, snap.p999,
    ));
    out.push_str(&format!("workers   {}\n", snap.workers as u64));
    out.push_str(&format!(
        "recovery  {recovery}   {} runs resumed\n",
        snap.runs_resumed as u64,
    ));
    out.push_str(&format!(
        "qps       {}\n",
        timeline::sparkline(history, SPARK_WIDTH)
    ));
    out
}

/// The `top` command: poll, diff, redraw, sleep — until the frame
/// budget runs out or the daemon goes away.
///
/// # Errors
///
/// Returns a [`CliError`] when the very first poll fails (wrong
/// address, daemon not running). After a successful first frame a
/// failing poll ends the dashboard cleanly — the usual way out is the
/// daemon shutting down.
pub fn top_cmd(opts: &TopOpts) -> Result<(), CliError> {
    let mut history: Vec<f64> = Vec::new();
    let mut prev_requests: Option<f64> = None;
    let mut frame = 0u64;
    loop {
        let (metrics, health) = match poll(&opts.addr) {
            Ok(ok) => ok,
            Err(e) if frame == 0 => return Err(e),
            Err(_) => {
                println!("powerchop-serve top: {} went away; exiting", opts.addr);
                return Ok(());
            }
        };
        let snap = snapshot(&metrics, &health);
        let interval_s = opts.interval_ms as f64 / 1_000.0;
        let qps = prev_requests
            .map(|prev| ((snap.requests_total - prev) / interval_s).max(0.0))
            .unwrap_or(0.0);
        prev_requests = Some(snap.requests_total);
        history.push(qps);
        if history.len() > SPARK_WIDTH {
            history.remove(0);
        }
        // ANSI clear-and-home between frames; harmless when redirected.
        print!(
            "\x1b[2J\x1b[H{}",
            render_frame(&opts.addr, &snap, qps, &history)
        );
        std::io::stdout().flush()?;
        frame += 1;
        if opts.frames != 0 && frame >= opts.frames {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_folds_metrics_and_health_and_degrades_on_missing_keys() {
        let mut metrics = HashMap::new();
        metrics.insert("serve_requests_total".to_owned(), 10.0);
        metrics.insert(r#"serve_request_duration_ms_p50{op="run"}"#.to_owned(), 3.0);
        let health = Json::parse(
            "{\"healthy\":true,\"draining\":false,\"workers\":4,\
             \"recovery_active\":false,\"runs_resumed\":2}",
        )
        .expect("valid health");
        let s = snapshot(&metrics, &health);
        assert!((s.requests_total - 10.0).abs() < f64::EPSILON);
        assert!((s.p50 - 3.0).abs() < f64::EPSILON);
        assert!((s.p99).abs() < f64::EPSILON, "missing quantile reads as 0");
        assert!(s.healthy);
        assert!((s.workers - 4.0).abs() < f64::EPSILON);
        assert!((s.runs_resumed - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn rendered_frame_carries_every_dashboard_row() {
        let snap = Snapshot {
            requests_total: 100.0,
            inflight_requests: 2.0,
            queued: 1.0,
            connections: 3.0,
            p50: 4.0,
            p90: 9.0,
            p99: 20.0,
            p999: 21.0,
            healthy: true,
            draining: false,
            workers: 4.0,
            recovery_active: true,
            runs_resumed: 5.0,
        };
        let frame = render_frame("127.0.0.1:7077", &snap, 12.5, &[0.0, 6.0, 12.5]);
        assert!(frame.contains("[healthy]"), "{frame}");
        assert!(frame.contains("12.5 qps"), "{frame}");
        assert!(frame.contains("p99 20ms"), "{frame}");
        assert!(frame.contains("workers   4\n"), "{frame}");
        assert!(frame.contains("resuming"), "{frame}");
        assert!(frame.contains('█'), "sparkline renders: {frame}");
        let drained = Snapshot {
            draining: true,
            ..snap
        };
        assert!(render_frame("x", &drained, 0.0, &[]).contains("[DRAINING]"));
    }
}
