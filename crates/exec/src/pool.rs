//! A persistent worker pool with per-job completion callbacks and a
//! bounded queue.
//!
//! [`run_jobs`](crate::run_jobs) is the sweep engine: it takes a whole
//! job list up front, fans it out on scoped threads and joins. A
//! long-lived server has the opposite shape — jobs arrive one at a time,
//! each caller wants *its* result delivered, and when the backlog grows
//! the right answer is an explicit "busy" to the caller rather than an
//! unbounded queue. [`WorkerPool`] provides that shape:
//!
//! - **Bounded admission.** [`WorkerPool::submit`] refuses work with
//!   [`SubmitError::Busy`] once `queue_depth` jobs are waiting, so
//!   callers can shed load instead of letting latency grow without
//!   bound.
//! - **Completion callbacks.** Each accepted job carries a callback the
//!   worker calls with the job's result once it finishes, on the same
//!   worker thread. Nobody blocks waiting for a result, so a caller
//!   needs no thread of its own per job.
//! - **Panic isolation.** Jobs run under `catch_unwind`; a panicking job
//!   hands its callback a [`JobPanic`] and the worker lives on.
//! - **Crash-only callbacks.** A panic that escapes a completion
//!   callback is a bug in the caller, not in the job. The worker prints
//!   one line to stderr and aborts the process, so the process-level
//!   restart (`serve --supervised` plus boot recovery) takes over; no
//!   worker thread is ever respawned in place.
//! - **Graceful shutdown.** Dropping (or [`WorkerPool::close`]-ing) the
//!   pool stops admission, runs everything already queued, and joins
//!   the workers — every one but the caller's own, when a callback
//!   holding the pool's last owner drops it on a worker.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::JobPanic;

/// A queued job: runs the caller's work, settles the pool's accounting,
/// then calls the caller's completion callback.
type Job = Box<dyn FnOnce(&PoolShared) + Send + 'static>;

/// Why [`WorkerPool::submit`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full. This is deliberate backpressure: the
    /// caller should shed the request (HTTP 429 style) or retry later.
    Busy {
        /// The queue capacity that was exhausted.
        queue_depth: usize,
    },
    /// The pool is draining and accepts no new work.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { queue_depth } => {
                write!(f, "job queue is full ({queue_depth} waiting)")
            }
            SubmitError::Closed => f.write_str("pool is draining and accepts no new jobs"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Locks a mutex, recovering the guard from a poisoned lock (jobs catch
/// their own panics, so poison here only means a panic mid-bookkeeping;
/// the protected state is still a plain queue and counters).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait_on<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

struct PoolState {
    queue: VecDeque<Job>,
    open: bool,
    /// Jobs currently executing on a worker.
    active: usize,
    /// Submission sequence number, used as the [`JobPanic`] index.
    submitted: u64,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a job is queued or the pool closes.
    work_ready: Condvar,
}

/// A fixed set of worker threads consuming a bounded job queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    queue_depth: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue_depth)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads behind a queue holding at most
    /// `queue_depth` waiting jobs. Both sizes are clamped to at least 1
    /// — a zero-worker pool would deadlock every submission and a
    /// zero-depth queue could accept nothing.
    #[must_use]
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                open: true,
                active: 0,
                submitted: 0,
            }),
            work_ready: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
            queue_depth: queue_depth.max(1),
        }
    }

    /// Submits one job. A worker runs it and then calls `done` with its
    /// result, or with the [`JobPanic`] it raised (the submission
    /// sequence number is the index), on the same worker thread.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the queue already holds `queue_depth`
    /// waiting jobs, [`SubmitError::Closed`] when the pool is draining.
    /// A refused job and its callback are dropped uncalled.
    pub fn submit<T, F, D>(&self, job: F, done: D) -> Result<(), SubmitError>
    where
        F: FnOnce() -> T + Send + 'static,
        D: FnOnce(Result<T, JobPanic>) + Send + 'static,
    {
        let mut st = lock(&self.shared.state);
        if !st.open {
            return Err(SubmitError::Closed);
        }
        if st.queue.len() >= self.queue_depth {
            return Err(SubmitError::Busy {
                queue_depth: self.queue_depth,
            });
        }
        let index = usize::try_from(st.submitted).unwrap_or(usize::MAX);
        st.submitted += 1;
        st.queue.push_back(Box::new(move |shared: &PoolShared| {
            let outcome = catch_unwind(AssertUnwindSafe(job));
            // Settled before the callback runs: by the time a caller
            // hears of a result, the pool no longer counts it in flight.
            lock(&shared.state).active -= 1;
            done(outcome.map_err(|payload| JobPanic {
                index,
                message: crate::panic_message(payload.as_ref()),
            }));
        }));
        drop(st);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Jobs waiting in the queue (not yet running).
    #[must_use]
    pub fn queued(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// Jobs currently executing on a worker.
    #[must_use]
    pub fn inflight(&self) -> usize {
        lock(&self.shared.state).active
    }

    /// The number of worker threads the pool was sized for.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The queue capacity submissions are bounded by.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Stops admission, runs every queued job to completion and joins
    /// the workers. Dropping the pool does the same.
    pub fn close(self) {
        // Drop runs the shutdown.
    }

    fn shutdown(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.open = false;
        }
        self.shared.work_ready.notify_all();
        // A callback may hold the last owner of the pool, so the pool
        // can be dropped on one of its own workers. That worker leaves
        // its loop once the callback returns; joining it here would
        // deadlock.
        let me = std::thread::current().id();
        for handle in self.workers.drain(..) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.active += 1;
                    break job;
                }
                if !st.open {
                    return;
                }
                st = wait_on(&shared.work_ready, st);
            }
        };
        // The job's own panic was caught inside it; only the caller's
        // completion callback can unwind this far.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(shared))) {
            eprintln!(
                "powerchop-exec: a completion callback panicked ({}); aborting the process",
                crate::panic_message(payload.as_ref())
            );
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Instant;

    /// Submits `job` with a callback that forwards its result to the
    /// returned receiver.
    fn submit_recv<T: Send + 'static>(
        pool: &WorkerPool,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Result<mpsc::Receiver<Result<T, JobPanic>>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        pool.submit(job, move |result| {
            let _ = tx.send(result);
        })?;
        Ok(rx)
    }

    #[test]
    fn submit_delivers_the_result_to_the_callback() {
        let pool = WorkerPool::new(2, 8);
        let rx = submit_recv(&pool, || 6 * 7).unwrap();
        assert_eq!(rx.recv().unwrap().unwrap(), 42);
    }

    #[test]
    fn callbacks_deliver_each_result_independently() {
        let pool = WorkerPool::new(4, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..12usize {
            let tx = tx.clone();
            pool.submit(move || i * i, move |r| tx.send((i, r)).unwrap())
                .unwrap();
        }
        drop(tx);
        // Completion order is up to the workers; each callback carries
        // its own job's result.
        let mut got: Vec<(usize, usize)> = rx.iter().map(|(i, r)| (i, r.unwrap())).collect();
        got.sort_unstable();
        let want: Vec<(usize, usize)> = (0..12).map(|i| (i, i * i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_full_queue_is_busy_not_blocking() {
        let pool = WorkerPool::new(1, 1);
        let (release, gate) = mpsc::channel::<()>();
        // Occupy the single worker...
        let running = submit_recv(&pool, move || gate.recv().is_ok()).unwrap();
        // ...then fill the single queue slot. The worker may not have
        // dequeued the first job yet, so allow one retry.
        let queued = loop {
            match submit_recv(&pool, || true) {
                Ok(rx) => break rx,
                Err(SubmitError::Busy { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected {e}"),
            }
        };
        // Wait until the worker has actually picked up the first job so
        // the queue slot count is deterministic.
        while pool.inflight() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(
            pool.submit(|| true, |_| ()).unwrap_err(),
            SubmitError::Busy { queue_depth: 1 }
        );
        release.send(()).unwrap();
        assert!(running.recv().unwrap().unwrap());
        assert!(queued.recv().unwrap().unwrap());
    }

    #[test]
    fn panics_reach_the_callback_and_spare_the_worker() {
        let pool = WorkerPool::new(1, 4);
        let boom = submit_recv(&pool, || -> u32 { panic!("pool job blows up") }).unwrap();
        let err = boom.recv().unwrap().unwrap_err();
        assert_eq!(err.index, 0);
        assert!(err.message.contains("pool job blows up"), "{}", err.message);
        // The same (only) worker still serves later jobs.
        assert_eq!(
            submit_recv(&pool, || 5).unwrap().recv().unwrap().unwrap(),
            5
        );
    }

    #[test]
    fn the_callback_fires_exactly_once_per_job_whatever_its_outcome() {
        let fired = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<(&str, Result<u32, JobPanic>)>();
        {
            type Job = fn() -> u32;
            let pool = WorkerPool::new(1, 8);
            let jobs: [(&str, Job); 2] = [("ok", || 7), ("panic", || panic!("ordinary panic"))];
            for (name, job) in jobs {
                let (fired, tx) = (Arc::clone(&fired), tx.clone());
                pool.submit(job, move |r| {
                    fired.fetch_add(1, Ordering::SeqCst);
                    tx.send((name, r)).unwrap();
                })
                .unwrap();
            }
            // Dropping the pool runs everything queued and joins every
            // worker.
        }
        drop(tx);
        let got: Vec<(&str, Result<u32, JobPanic>)> = rx.iter().collect();
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], ("ok", Ok(7)));
        assert_eq!(got[1].0, "panic");
        assert!(got[1]
            .1
            .as_ref()
            .unwrap_err()
            .message
            .contains("ordinary panic"));
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let (tx, rx) = mpsc::channel::<u32>();
        {
            let pool = WorkerPool::new(1, 16);
            for i in 0..10 {
                let tx = tx.clone();
                pool.submit(move || tx.send(i).unwrap(), |_| ()).unwrap();
            }
            // Dropping here must run all ten queued jobs first.
        }
        drop(tx);
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got.len(), 10);
    }

    #[test]
    fn a_job_leaves_the_inflight_count_before_its_callback_runs() {
        let pool = WorkerPool::new(2, 8);
        let results: Vec<_> = (0..6)
            .map(|i| submit_recv(&pool, move || i).unwrap())
            .collect();
        for (i, rx) in results.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap().unwrap(), i);
        }
        // Every callback has fired, so nothing can still count as
        // queued or running.
        assert_eq!(pool.queued(), 0);
        assert_eq!(pool.inflight(), 0);
        pool.close();
    }

    #[test]
    fn a_pool_dropped_inside_its_own_callback_does_not_join_itself() {
        let pool = Arc::new(WorkerPool::new(2, 4));
        let owner = Arc::clone(&pool);
        let (release, gate) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        pool.submit(
            || 7,
            move |r| {
                gate.recv().unwrap();
                // The last owner lets go on a worker thread.
                drop(owner);
                tx.send(r.unwrap()).unwrap();
            },
        )
        .unwrap();
        drop(pool);
        release.send(()).unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn queue_wait_runs_from_submission_to_pickup() {
        let pool = WorkerPool::new(1, 4);
        let (release, gate) = mpsc::channel::<()>();
        let running = submit_recv(&pool, move || gate.recv().is_ok()).unwrap();
        // The queued job measures its own wait, the way the serve layer
        // attributes its queue span.
        let submitted = Instant::now();
        let queued = submit_recv(&pool, move || submitted.elapsed()).unwrap();
        // The queued job cannot start until the gate opens, so its
        // queue wait is at least this sleep.
        std::thread::sleep(std::time::Duration::from_millis(2));
        release.send(()).unwrap();
        assert!(running.recv().unwrap().unwrap());
        let waited = queued.recv().unwrap().unwrap();
        assert!(
            waited >= std::time::Duration::from_millis(2),
            "queued job waited {waited:?}"
        );
    }

    /// A panicking completion callback takes the whole process down.
    /// The test re-runs itself as a child, marked by an environment
    /// variable; the child's callback panics and the parent checks how
    /// the child died.
    #[test]
    fn a_panicking_callback_aborts_the_process() {
        const CHILD: &str = "POWERCHOP_EXEC_ABORT_CHILD";
        if std::env::var_os(CHILD).is_some() {
            let pool = WorkerPool::new(1, 1);
            pool.submit(|| 7, |_| panic!("callback blows up"))
                .expect("an idle pool accepts the job");
            // Closing waits for the queued job, whose callback aborts.
            pool.close();
            unreachable!("the callback's panic must abort the process");
        }
        let exe = std::env::current_exe().expect("the test binary has a path");
        let out = std::process::Command::new(exe)
            .args([
                "--exact",
                "pool::tests::a_panicking_callback_aborts_the_process",
                "--nocapture",
            ])
            .env(CHILD, "1")
            .output()
            .expect("the child test runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(
            out.status.signal(),
            Some(6),
            "the child must die by SIGABRT, not {}: {stderr}",
            out.status
        );
        assert!(
            stderr.contains(
                "powerchop-exec: a completion callback panicked (callback blows up); aborting the process"
            ),
            "{stderr}"
        );
    }

    #[test]
    fn zero_sized_pools_are_clamped() {
        let pool = WorkerPool::new(0, 0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.queue_depth(), 1);
        assert_eq!(
            submit_recv(&pool, || 1).unwrap().recv().unwrap().unwrap(),
            1
        );
    }
}
