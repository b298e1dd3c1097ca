//! Bounded restart-rate accounting for the `serve --supervised` parent.
//!
//! Respawning a crashed daemon is cheap and almost always right — until
//! the crash is deterministic, at which point respawning converts one
//! failure into a hot loop that burns a core and floods the log. The
//! [`RestartTracker`] draws that line: restarts inside a sliding window
//! are counted, and once the count exceeds the policy's cap the tracker
//! latches a *storm* verdict, on which the parent stops respawning and
//! exits with an error (see [`crate::respawn`]).

/// Restart-rate policy: at most `max_restarts` restarts per sliding
/// `window_ms` window before the tracker declares a storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Width of the sliding window, in milliseconds.
    pub window_ms: u64,
    /// Restarts tolerated inside one window before giving up.
    pub max_restarts: u32,
}

impl RestartPolicy {
    /// A policy with the given window and cap (cap is at least 1).
    #[must_use]
    pub fn new(window_ms: u64, max_restarts: u32) -> Self {
        RestartPolicy {
            window_ms,
            max_restarts: max_restarts.max(1),
        }
    }
}

impl Default for RestartPolicy {
    /// Ten restarts in ten seconds: generous for transient crashes,
    /// quick to latch on a deterministic crash loop.
    fn default() -> Self {
        RestartPolicy::new(10_000, 10)
    }
}

/// The supervisor's verdict for one restart event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartVerdict {
    /// Under the rate cap: respawn and carry on.
    Respawn,
    /// Over the rate cap (or already latched): stop respawning.
    Storm,
}

/// Sliding-window restart accounting. It takes time as an explicit
/// `now_ms` argument so tests drive it with a logical clock.
#[derive(Debug, Clone)]
pub struct RestartTracker {
    policy: RestartPolicy,
    recent_ms: Vec<u64>,
    total: u64,
    gave_up: bool,
}

impl RestartTracker {
    /// A fresh tracker under `policy`.
    #[must_use]
    pub fn new(policy: RestartPolicy) -> Self {
        RestartTracker {
            policy,
            recent_ms: Vec::new(),
            total: 0,
            gave_up: false,
        }
    }

    /// Records a restart at `now_ms` and returns the verdict.
    ///
    /// The storm verdict latches: once a tracker has given up it stays
    /// given up, because a supervisor that resumed the moment the
    /// window slid past would oscillate between crash loops and pauses.
    pub fn record(&mut self, now_ms: u64) -> RestartVerdict {
        self.total += 1;
        let window = self.policy.window_ms;
        self.recent_ms
            .retain(|&t| now_ms.saturating_sub(t) <= window);
        self.recent_ms.push(now_ms);
        if self.recent_ms.len() > self.policy.max_restarts as usize {
            self.gave_up = true;
        }
        if self.gave_up {
            RestartVerdict::Storm
        } else {
            RestartVerdict::Respawn
        }
    }

    /// Lifetime restart count, the one that latched the storm included.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Restarts currently inside the sliding window (as of the last
    /// [`RestartTracker::record`] call).
    #[must_use]
    pub fn in_window(&self) -> usize {
        self.recent_ms.len()
    }

    /// Whether the tracker has latched the storm verdict.
    #[must_use]
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }
}

impl Default for RestartTracker {
    fn default() -> Self {
        RestartTracker::new(RestartPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respawns_under_the_cap() {
        let mut t = RestartTracker::new(RestartPolicy::new(1_000, 3));
        assert_eq!(t.record(0), RestartVerdict::Respawn);
        assert_eq!(t.record(100), RestartVerdict::Respawn);
        assert_eq!(t.record(200), RestartVerdict::Respawn);
        assert!(!t.gave_up());
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn storm_past_the_cap_and_latches() {
        let mut t = RestartTracker::new(RestartPolicy::new(1_000, 3));
        for now in [0, 10, 20] {
            assert_eq!(t.record(now), RestartVerdict::Respawn);
        }
        assert_eq!(t.record(30), RestartVerdict::Storm);
        assert!(t.gave_up());
        // Latched: even a restart far outside the window stays stormy.
        assert_eq!(t.record(1_000_000), RestartVerdict::Storm);
        assert_eq!(t.total(), 5);
    }

    #[test]
    fn window_slides() {
        let mut t = RestartTracker::new(RestartPolicy::new(1_000, 2));
        assert_eq!(t.record(0), RestartVerdict::Respawn);
        assert_eq!(t.record(500), RestartVerdict::Respawn);
        // The t=0 event has aged out by t=1500, so this is 2-in-window.
        assert_eq!(t.record(1_500), RestartVerdict::Respawn);
        assert_eq!(t.in_window(), 2);
        assert!(!t.gave_up());
    }

    #[test]
    fn cap_of_zero_is_clamped_to_one() {
        let mut t = RestartTracker::new(RestartPolicy::new(1_000, 0));
        assert_eq!(t.record(0), RestartVerdict::Respawn);
        assert_eq!(t.record(1), RestartVerdict::Storm);
    }
}
