//! A dependency-free work-stealing job pool for embarrassingly parallel
//! sweeps.
//!
//! The paper's evaluation fans out over 29 workloads and dozens of design
//! points; every runner in this repo used to walk them one at a time on
//! one core. This crate parallelizes those sweeps without changing a
//! single output byte:
//!
//! - **Work stealing, not pre-partitioning.** Workers claim chunks of the
//!   job list through one shared atomic cursor, so a worker that lands a
//!   short benchmark immediately steals the next chunk instead of idling
//!   behind a long one. Chunks keep cursor traffic negligible while the
//!   tail of the sweep still load-balances chunk-by-chunk.
//! - **Deterministic merge.** Results are keyed by job index and returned
//!   in submission order. Callers fold reports, CSV rows and journal
//!   lines *after* the pool joins, so the merged output is bit-identical
//!   to a sequential run at any thread count.
//! - **Panic isolation.** Each job runs under `catch_unwind`; one
//!   panicking benchmark surfaces as a [`JobPanic`] in its slot while
//!   every other job completes normally.
//!
//! The pool is built on `std::thread::scope` — no channels, no queues, no
//! external crates — because sweep jobs are coarse (whole simulations):
//! the scheduling cost that matters is tail imbalance, not per-job
//! dispatch latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;

pub use pool::{SubmitError, WorkerPool};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A job that panicked instead of returning a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job in the submitted list.
    pub index: usize,
    /// The panic payload, when it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Extracts a displayable message from a caught panic payload.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "POWERCHOP_JOBS";

/// Resolves the worker count: an explicit request (e.g. `--jobs N`) wins,
/// then the `POWERCHOP_JOBS` environment variable, then
/// `std::thread::available_parallelism()`. The result is always >= 1.
#[must_use]
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    resolve_jobs_from(explicit, std::env::var(JOBS_ENV).ok().as_deref())
}

/// The environment-independent core of [`resolve_jobs`]: `env` is the
/// raw `POWERCHOP_JOBS` value, when the variable is set.
///
/// A zero worker count — whether explicit or from the environment —
/// would mean an empty pool, so it clamps to one worker with a warning
/// instead of being an error (or, worse, silently falling back to the
/// CPU count the caller asked to override). A value that does not parse
/// at all is reported on stderr and ignored, mirroring how
/// `POWERCHOP_BUDGET` is handled.
#[must_use]
pub fn resolve_jobs_from(explicit: Option<usize>, env: Option<&str>) -> usize {
    if let Some(n) = explicit {
        if n == 0 {
            eprintln!("warning: a zero worker count would make an empty pool; clamping to 1");
            return 1;
        }
        return n;
    }
    if let Some(raw) = env {
        match raw.trim().parse::<usize>() {
            Ok(0) => {
                eprintln!("warning: {JOBS_ENV}=0 would make an empty pool; clamping to 1 worker");
                return 1;
            }
            Ok(n) => return n,
            Err(_) => {
                eprintln!("warning: ignoring invalid {JOBS_ENV}={raw:?} (want a positive integer)")
            }
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` over every item of `items` on up to `jobs` worker threads and
/// returns one result per item, **in submission order**.
///
/// Scheduling is chunked work stealing: an atomic cursor hands out runs
/// of consecutive indices, sized so each worker claims the queue roughly
/// four times — small enough to balance a ragged tail, large enough that
/// cursor contention is unmeasurable. With `jobs <= 1` (or fewer than two
/// items) everything runs inline on the caller's thread; the returned
/// vector is identical either way.
///
/// A panicking job yields `Err(JobPanic)` in its slot and does not
/// disturb its neighbours.
pub fn run_jobs<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<Result<T, JobPanic>>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    let run_one = |index: usize| -> Result<T, JobPanic> {
        catch_unwind(AssertUnwindSafe(|| f(index, &items[index]))).map_err(|payload| JobPanic {
            index,
            message: panic_message(payload.as_ref()),
        })
    };

    if workers <= 1 {
        return (0..n).map(run_one).collect();
    }

    // Chunk size: each worker steals ~4 chunks over the sweep.
    let chunk = (n / (workers * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<T, JobPanic>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let run_one = &run_one;
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, Result<T, JobPanic>)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for index in start..(start + chunk).min(n) {
                        done.push((index, run_one(index)));
                    }
                }
                done
            }));
        }
        for handle in handles {
            // Workers catch job panics themselves, so a join error would
            // mean the *pool* is broken; its jobs are reported as
            // panicked rather than silently dropped.
            if let Ok(done) = handle.join() {
                for (index, result) in done {
                    slots[index] = Some(result);
                }
            }
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.unwrap_or(Err(JobPanic {
                index,
                message: String::from("worker thread died before reporting a result"),
            }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_submission_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * 3).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let out = run_jobs(&items, jobs, |_, v| v * 3);
            let got: Vec<u64> = out.into_iter().map(|r| r.expect("no panics")).collect();
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        run_jobs(&counters, 8, |_, c| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn panics_are_isolated_per_job() {
        let items: Vec<usize> = (0..20).collect();
        let out = run_jobs(&items, 4, |_, v| {
            assert!(v % 7 != 3, "boom at {v}");
            *v
        });
        for (i, r) in out.iter().enumerate() {
            if i % 7 == 3 {
                let err = r.as_ref().expect_err("should have panicked");
                assert_eq!(err.index, i);
                assert!(err.message.contains("boom"), "message: {}", err.message);
            } else {
                assert_eq!(*r.as_ref().expect("should have succeeded"), i);
            }
        }
    }

    #[test]
    fn string_panic_payloads_are_captured() {
        let items = [0usize];
        let out = run_jobs(&items, 1, |_, _| -> usize {
            // A `String` payload, unlike the `&str` from a literal panic.
            std::panic::panic_any(format!("dynamic {}", 42));
        });
        assert_eq!(out[0].as_ref().expect_err("panicked").message, "dynamic 42");
    }

    #[test]
    fn empty_job_list_returns_empty() {
        let items: Vec<u32> = Vec::new();
        let out = run_jobs(&items, 8, |_, v| *v);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_jobs_clamps_to_sequential() {
        let items = [1u32, 2, 3];
        let out = run_jobs(&items, 0, |i, v| (i, *v));
        let got: Vec<(usize, u32)> = out.into_iter().map(|r| r.expect("no panics")).collect();
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn resolve_jobs_prefers_explicit_then_env() {
        assert_eq!(resolve_jobs(Some(6)), 6);
        assert_eq!(resolve_jobs(Some(0)), 1, "explicit zero clamps to one");
        // Env handling is covered through `resolve_jobs_from` rather than
        // by mutating process-global env (tests run concurrently).
        assert!(resolve_jobs(None) >= 1);
        assert_eq!(resolve_jobs_from(None, Some("3")), 3);
        assert_eq!(resolve_jobs_from(Some(2), Some("7")), 2, "explicit wins");
    }

    #[test]
    fn env_zero_and_garbage_clamp_or_fall_back() {
        assert_eq!(
            resolve_jobs_from(None, Some("0")),
            1,
            "POWERCHOP_JOBS=0 must clamp to one worker, not fall back to the CPU count"
        );
        assert_eq!(resolve_jobs_from(None, Some(" 0 ")), 1);
        assert_eq!(
            resolve_jobs_from(Some(0), Some("8")),
            1,
            "explicit zero still clamps"
        );
        for garbage in ["abc", "-3", "1.5", ""] {
            let n = resolve_jobs_from(None, Some(garbage));
            assert!(
                n >= 1,
                "garbage {garbage:?} must fall back to a usable count"
            );
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let items = [10u32, 20];
        let out = run_jobs(&items, 16, |_, v| v + 1);
        let got: Vec<u32> = out.into_iter().map(|r| r.expect("no panics")).collect();
        assert_eq!(got, vec![11, 21]);
    }
}
