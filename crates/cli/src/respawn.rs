//! The `serve --supervised` self-healing loop.
//!
//! A crash-consistent daemon is only half a durability story: someone
//! has to restart it. This module is that someone — a parent process
//! that respawns the daemon after crashes at a bounded rate, using
//! [`RestartTracker`]'s sliding-window policy,
//! and gives up (latched, loudly) on a crash storm instead of melting
//! the host with a respawn loop. Paired with `--journal-dir`, every
//! respawn replays the journal and resumes interrupted work, so the
//! crash-restart cycle converges instead of re-doing the same runs
//! forever.
//!
//! The loop itself is pure control flow over two injected closures
//! (spawn a child, read a clock), so the storm/give-up policy is unit
//! tested without ever forking a process; the production entry point
//! re-invokes the current executable with the same `serve` flags minus
//! the supervision ones.

use std::time::Instant;

use crate::args::ServeOpts;
use crate::restart::{RestartPolicy, RestartTracker, RestartVerdict};
use crate::retry::{stream_label, RetryPolicy};
use crate::CliError;

/// How one supervised child generation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChildOutcome {
    /// The daemon exited successfully (in-protocol shutdown drained it).
    Drained,
    /// The daemon died: killed by a signal or exited nonzero. The
    /// string is a human-readable status for the log line.
    Crashed(String),
}

/// How a supervision session ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorVerdict {
    /// The daemon drained cleanly after `respawns` crash recoveries.
    Drained {
        /// Crashes survived before the clean exit.
        respawns: u64,
    },
    /// The restart-rate cap latched: the daemon is crashing faster than
    /// the policy tolerates and respawning it would be a fork bomb.
    GaveUp {
        /// Crashes recorded, the last one included.
        crashes: u64,
    },
}

/// The supervision loop, decoupled from process spawning: `spawn` runs
/// one child generation to its end, `now_ms` is the restart-rate clock,
/// `backoff` sleeps between a crash and its respawn (attempt-numbered
/// for seeded jitter). Only `spawn`'s own errors (the binary cannot
/// even be launched) propagate as `Err`.
///
/// # Errors
///
/// Propagates spawn failures verbatim.
pub fn supervise_loop(
    policy: RestartPolicy,
    mut spawn: impl FnMut() -> Result<ChildOutcome, CliError>,
    mut now_ms: impl FnMut() -> u64,
    mut backoff: impl FnMut(u32),
) -> Result<SupervisorVerdict, CliError> {
    let mut tracker = RestartTracker::new(policy);
    let mut attempt = 0u32;
    loop {
        match spawn()? {
            ChildOutcome::Drained => {
                return Ok(SupervisorVerdict::Drained {
                    respawns: tracker.total(),
                });
            }
            ChildOutcome::Crashed(status) => {
                let verdict = tracker.record(now_ms());
                eprintln!(
                    "powerchop-serve[supervisor]: daemon died ({status}); {} crash(es) in window",
                    tracker.in_window()
                );
                if verdict == RestartVerdict::Storm {
                    eprintln!(
                        "powerchop-serve[supervisor]: crash storm — giving up after {} crashes",
                        tracker.total()
                    );
                    return Ok(SupervisorVerdict::GaveUp {
                        crashes: tracker.total(),
                    });
                }
                attempt = attempt.saturating_add(1);
                backoff(attempt);
            }
        }
    }
}

/// Rebuilds the child's `serve` argv from the parsed options, minus the
/// supervision flags (the child must serve, not supervise) and with
/// every durability/hardening flag spelled back out.
pub fn child_argv(opts: &ServeOpts) -> Vec<String> {
    let server = &opts.server;
    let mut argv = vec![
        "serve".to_owned(),
        "--addr".to_owned(),
        server.addr.clone(),
        "--queue-depth".to_owned(),
        server.queue_depth.to_string(),
        "--cache-entries".to_owned(),
        server.cache_entries.to_string(),
        "--deadline-ms".to_owned(),
        server.deadline_ms.to_string(),
        "--max-request-bytes".to_owned(),
        server.max_request_bytes.to_string(),
        "--max-budget".to_owned(),
        server.max_budget.to_string(),
        "--max-connections".to_owned(),
        server.max_connections.to_string(),
        "--read-timeout-ms".to_owned(),
        server.read_timeout_ms.to_string(),
        "--write-timeout-ms".to_owned(),
        server.write_timeout_ms.to_string(),
        "--max-outbox-bytes".to_owned(),
        server.max_outbox_bytes.to_string(),
        "--spill-every".to_owned(),
        server.spill_every.to_string(),
    ];
    if let Some(jobs) = server.jobs {
        argv.push("--jobs".to_owned());
        argv.push(jobs.to_string());
    }
    if let Some(dir) = &server.journal_dir {
        argv.push("--journal-dir".to_owned());
        argv.push(dir.clone());
    }
    if let Some(dir) = &server.cache_dir {
        argv.push("--cache-dir".to_owned());
        argv.push(dir.clone());
    }
    if let Some(path) = &server.access_log {
        argv.push("--access-log".to_owned());
        argv.push(path.clone());
    }
    if let Some(ms) = server.slow_ms {
        argv.push("--slow-ms".to_owned());
        argv.push(ms.to_string());
    }
    if let Some(seed) = server.seed {
        argv.push("--seed".to_owned());
        argv.push(seed.to_string());
    }
    argv
}

/// The production `serve --supervised` entry point: respawn the real
/// daemon (this very executable, re-invoked) until it drains cleanly or
/// the crash-rate policy gives up.
///
/// # Errors
///
/// Fails when the executable cannot be re-invoked or when supervision
/// ends in a latched give-up.
pub fn serve_supervised(opts: &ServeOpts) -> Result<(), CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError(format!("--supervised: cannot locate own executable: {e}")))?;
    let argv = child_argv(opts);
    let policy = RestartPolicy::new(opts.restart_window_ms, opts.max_restarts);
    // Seeded-jitter backoff between respawns: enough to let a transient
    // cause (port teardown, filesystem pressure) clear, deterministic
    // for a given address.
    let retry = RetryPolicy::new(50, 2_000);
    let stream = stream_label(&opts.server.addr);
    let epoch = Instant::now();
    let verdict = supervise_loop(
        policy,
        || {
            let status = std::process::Command::new(&exe)
                .args(&argv)
                .status()
                .map_err(|e| CliError(format!("--supervised: cannot spawn daemon: {e}")))?;
            if status.success() {
                Ok(ChildOutcome::Drained)
            } else {
                Ok(ChildOutcome::Crashed(status.to_string()))
            }
        },
        || u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX),
        |attempt| {
            std::thread::sleep(std::time::Duration::from_millis(
                retry.delay_ms(0xD1CE, stream, attempt),
            ));
        },
    )?;
    match verdict {
        SupervisorVerdict::Drained { respawns } => {
            if respawns > 0 {
                println!("powerchop-serve supervisor: drained cleanly after {respawns} respawn(s)");
            }
            Ok(())
        }
        SupervisorVerdict::GaveUp { crashes } => Err(CliError(format!(
            "--supervised: daemon crashed {crashes} time(s), exceeding {} per {}ms; giving up",
            opts.max_restarts, opts.restart_window_ms
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ServeOpts;

    fn policy() -> RestartPolicy {
        RestartPolicy::new(1_000, 2)
    }

    #[test]
    fn clean_exit_ends_supervision_immediately() {
        let mut spawns = 0;
        let verdict = supervise_loop(
            policy(),
            || {
                spawns += 1;
                Ok(ChildOutcome::Drained)
            },
            || 0,
            |_| {},
        )
        .expect("no spawn errors");
        assert_eq!(spawns, 1);
        assert_eq!(verdict, SupervisorVerdict::Drained { respawns: 0 });
    }

    #[test]
    fn crashes_under_the_rate_cap_are_respawned() {
        let mut spawns = 0;
        let mut backoffs = Vec::new();
        let verdict = supervise_loop(
            policy(),
            || {
                spawns += 1;
                Ok(if spawns <= 2 {
                    ChildOutcome::Crashed("signal: 9".into())
                } else {
                    ChildOutcome::Drained
                })
            },
            // Spread the crashes over time so the window never fills.
            {
                let mut clock = 0;
                move || {
                    clock += 10_000;
                    clock
                }
            },
            |attempt| backoffs.push(attempt),
        )
        .expect("no spawn errors");
        assert_eq!(spawns, 3, "two crashes, then the clean generation");
        assert_eq!(verdict, SupervisorVerdict::Drained { respawns: 2 });
        assert_eq!(backoffs, vec![1, 2], "attempt-numbered backoff");
    }

    #[test]
    fn a_crash_storm_latches_give_up() {
        let mut spawns = 0;
        let verdict = supervise_loop(
            policy(),
            || {
                spawns += 1;
                Ok(ChildOutcome::Crashed("exit status: 101".into()))
            },
            || 0, // every crash inside one window
            |_| {},
        )
        .expect("no spawn errors");
        // max_restarts = 2: the third crash inside the window is the storm.
        assert_eq!(verdict, SupervisorVerdict::GaveUp { crashes: 3 });
        assert_eq!(spawns, 3, "no respawn after the storm verdict");
    }

    #[test]
    fn spawn_errors_propagate() {
        let err = supervise_loop(
            policy(),
            || Err(CliError("no such binary".into())),
            || 0,
            |_| {},
        )
        .expect_err("spawn failure is fatal");
        assert!(err.0.contains("no such binary"));
    }

    #[test]
    fn child_argv_strips_supervision_and_keeps_durability() {
        let opts = ServeOpts {
            server: powerchop_serve::ServerConfig {
                addr: "127.0.0.1:0".into(),
                jobs: Some(2),
                journal_dir: Some("wal".into()),
                cache_dir: Some("cache".into()),
                spill_every: 50_000,
                ..powerchop_serve::ServerConfig::default()
            },
            supervised: true,
            ..ServeOpts::default()
        };
        let argv = child_argv(&opts);
        assert_eq!(argv[0], "serve");
        assert!(!argv.iter().any(|a| a == "--supervised"));
        assert!(!argv.iter().any(|a| a == "--max-restarts"));
        assert!(!argv.iter().any(|a| a == "--restart-window-ms"));
        for (flag, value) in [
            ("--journal-dir", "wal"),
            ("--cache-dir", "cache"),
            ("--spill-every", "50000"),
            ("--jobs", "2"),
            ("--addr", "127.0.0.1:0"),
            ("--max-outbox-bytes", "1048576"),
        ] {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .unwrap_or_else(|| panic!("{flag} missing from {argv:?}"));
            assert_eq!(argv[i + 1], value);
        }
        // The child argv must re-parse to an equivalent unsupervised config.
        match crate::args::parse(&argv).expect("child argv parses") {
            crate::args::Command::Serve { opts: reparsed } => {
                assert!(!reparsed.supervised);
                assert_eq!(reparsed.server, opts.server);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
