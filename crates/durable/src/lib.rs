//! Crash-consistency for the serve daemon and the CLI's `supervise`
//! sweep, which share these files through `powerchop_serve::durability`.
//!
//! A `kill -9` of `powerchop-serve` must not destroy the daemon's
//! warmed-up economy: accepted requests, partially-computed sweeps and
//! the LRU result cache all represent work that was expensive to do and
//! is cheap to keep. This crate provides the three durable artifacts
//! that survive the process:
//!
//! - **The intent journal** ([`Journal`]): an append-only, fsync'd,
//!   CRC32-framed write-ahead log of typed [`Record`]s. Accepted
//!   `run`/`sweep` requests are journaled *before* dispatch; spill
//!   markers record each mid-run checkpoint; a completion record retires
//!   the intent. [`replay`] walks the log on boot, stops at the first
//!   torn or corrupt frame (everything after a broken frame is
//!   unframed noise), and reports what it found and what it discarded.
//! - **Checkpoint spills**: periodic `Simulation::snapshot` containers
//!   written atomically (temp file + rename) under [`spill_path`], so an
//!   interrupted run resumes from its last chunk boundary with zero
//!   re-done chunks.
//! - **The result-cache log** ([`CacheLog`]): a write-through log of
//!   `(run_key, reply)` pairs in the same frame format, replayed on boot
//!   so cache hits survive a restart bit-identically.
//!
//! Framing reuses `powerchop-checkpoint`'s CRC machinery: each frame is
//! `magic, payload length, CRC-32(length || payload), payload`, all
//! little-endian, with the CRC computed streamingly over the length
//! prefix and payload. A frame whose magic, length, or CRC does not
//! check out ends the replay — by construction the journal is
//! append-only, so a broken frame can only be the torn tail of the
//! write that was in flight when the process died, or in-place
//! corruption that makes everything after it untrustworthy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod journal;
pub mod results;

pub use frame::{read_frames, FrameScan, FrameSink, TailVerdict, FRAME_MAGIC};
pub use journal::{compact, replay, Journal, JournalReplay, PendingIntent, Record, SpecRecord};
pub use results::{compact_results, replay_results, CacheLog, CacheReplay};

use std::path::{Path, PathBuf};

/// File name of the intent journal inside a journal directory.
pub const JOURNAL_FILE: &str = "intents.wal";

/// File name of the result-cache log inside a cache directory.
pub const RESULTS_FILE: &str = "results.wal";

/// Path of the intent journal inside `dir`.
#[must_use]
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// Path of the result-cache log inside `dir`.
#[must_use]
pub fn results_path(dir: &Path) -> PathBuf {
    dir.join(RESULTS_FILE)
}

/// Path of the checkpoint spill for intent `id`'s run of `bench`.
/// Keyed by intent id so two in-flight intents over the same benchmark
/// can never clobber each other's spills.
#[must_use]
pub fn spill_path(dir: &Path, id: u64, bench: &str) -> PathBuf {
    // Benchmark names are roster-validated (lowercase alphanumerics and
    // dashes), but sanitize anyway: a path separator in a file name must
    // never escape the journal directory.
    let safe: String = bench
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!("spill-{id:016x}-{safe}.ckpt"))
}

/// Writes `bytes` to `path` atomically: the full contents land in a
/// temp file first and are renamed into place, so a crash mid-write can
/// never leave a half-written spill where a valid one used to be.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_paths_are_distinct_per_intent_and_sanitized() {
        let dir = Path::new("/state");
        let a = spill_path(dir, 1, "hmmer");
        let b = spill_path(dir, 2, "hmmer");
        assert_ne!(a, b);
        let evil = spill_path(dir, 3, "../../etc/passwd");
        assert!(evil.starts_with(dir));
        assert!(!evil.to_string_lossy().contains(".."));
    }

    #[test]
    fn write_atomic_replaces_whole_files() {
        let dir = std::env::temp_dir().join(format!("pwc-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("a.ckpt");
        write_atomic(&path, b"first").expect("write");
        write_atomic(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
