//! Set-associative write-back caches with way-gating support.
//!
//! The middle-level cache (MLC) is the paper's L2: PowerChop keeps either
//! one way, half the ways, or all ways powered (paper §IV-C2), so the cache
//! model supports deactivating ways at run time. Deactivating a way writes
//! its dirty lines back (modelled by the caller using the returned count)
//! and loses its clean lines (paper Table I: "WB dirty lines, lose clean
//! lines, rewarm").

use crate::config::CacheConfig;
use powerchop_checkpoint::{ByteReader, ByteWriter, CheckpointError};

/// The MLC way-gating states (2-bit policy in the PVT, paper Fig. 6b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MlcWayState {
    /// A single way active (lowest power).
    One,
    /// A quarter of the ways active — the 4th code of the paper's 2-bit
    /// policy field (§IV-B3: "the number of states... can be
    /// increased"). No decided policy uses it; it exists so every 2-bit
    /// code decodes, e.g. from a corrupted PVT entry.
    Quarter,
    /// Half the ways active.
    Half,
    /// All ways active (full performance).
    Full,
}

impl MlcWayState {
    /// Number of active ways this state leaves in a cache of `total` ways.
    #[must_use]
    pub fn active_ways(self, total: u32) -> u32 {
        match self {
            MlcWayState::One => 1,
            MlcWayState::Quarter => (total / 4).max(1),
            MlcWayState::Half => (total / 2).max(1),
            MlcWayState::Full => total,
        }
    }

    /// Fraction of the cache's capacity (and thus leaky area) powered on.
    #[must_use]
    pub fn active_fraction(self, total: u32) -> f64 {
        f64::from(self.active_ways(total)) / f64::from(total)
    }

    /// The 2-bit PVT policy encoding used in the paper's Figure 6(b).
    #[must_use]
    pub fn policy_bits(self) -> u8 {
        match self {
            MlcWayState::Quarter => 0b00,
            MlcWayState::One => 0b01,
            MlcWayState::Half => 0b10,
            MlcWayState::Full => 0b11,
        }
    }

    /// Decodes the 2-bit policy-field encoding (inverse of
    /// [`MlcWayState::policy_bits`]; only the low 2 bits are read).
    #[must_use]
    pub fn from_policy_bits(bits: u8) -> MlcWayState {
        match bits & 0b11 {
            0b00 => MlcWayState::Quarter,
            0b01 => MlcWayState::One,
            0b10 => MlcWayState::Half,
            _ => MlcWayState::Full,
        }
    }
}

impl std::fmt::Display for MlcWayState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlcWayState::One => f.write_str("1-way"),
            MlcWayState::Quarter => f.write_str("quarter-ways"),
            MlcWayState::Half => f.write_str("half-ways"),
            MlcWayState::Full => f.write_str("all-ways"),
        }
    }
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether the miss evicted a dirty line (requiring a writeback to the
    /// next level).
    pub writeback: bool,
    /// Whether the access hit a *drowsy* line that had to be woken first
    /// (costs a wake-up cycle; see [`Cache::set_all_drowsy`]).
    pub woke_drowsy: bool,
}

/// Static metric names for one cache instance, passed to
/// [`Cache::sample_metrics_as`] so the L1D, MLC and LLC report under
/// distinct keys.
#[derive(Debug, Clone, Copy)]
pub struct CacheMetricNames {
    /// Counter name for total accesses.
    pub accesses: &'static str,
    /// Counter name for hits.
    pub hits: &'static str,
    /// Counter name for dirty writebacks.
    pub writebacks: &'static str,
    /// Gauge name for the currently-powered way count.
    pub active_ways: &'static str,
}

/// Cumulative cache event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Dirty evictions (capacity/conflict plus way-gating flushes).
    pub writebacks: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// A line's tag word: the tag (`addr >> line_shift`) in the low bits and
/// the state flags in the top three. Lines are at least 8 bytes, so a
/// tag never reaches bit 61. An invalid line's word is all zeros.
const VALID: u64 = 1 << 63;
const DIRTY: u64 = 1 << 62;
/// Low-retention-voltage state (drowsy caches, Flautner et al.): data is
/// retained but the line must be woken before it can be read.
const DROWSY: u64 = 1 << 61;
const FLAGS: u64 = VALID | DIRTY | DROWSY;
/// Line-offset bits needed to leave the flag bits free (8-byte lines).
const MIN_LINE_SHIFT: u32 = 3;
/// `Cache::last_tag` when no line is remembered: above every tag
/// (`addr >> line_shift` never reaches bit 61), so no address matches it.
const NO_LINE: u64 = u64::MAX;

/// A set-associative, write-back, write-allocate cache with LRU replacement
/// and run-time way deactivation.
///
/// Each line is a packed tag word (tag plus valid/dirty/drowsy flags)
/// and an LRU tick, kept in two flat arrays allocated zeroed, so an
/// access finds its hit or picks its victim in one scan of the set.
///
/// The cache also remembers which line its last [`Cache::access`] hit or
/// filled and where it sits, so a run of accesses to that one line can
/// be charged in O(1) with `Cache::repeat`. Every other mutation
/// forgets it, and it is never serialized.
///
/// # Examples
///
/// ```
/// use powerchop_uarch::cache::Cache;
/// use powerchop_uarch::config::CacheConfig;
///
/// let cfg = CacheConfig { size_kib: 64, ways: 4, line_bytes: 64, hit_latency: 12 };
/// let mut cache = Cache::new(&cfg);
/// assert!(!cache.access(0x1000, false).hit); // cold miss
/// assert!(cache.access(0x1000, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// Tag words, `ways` per set, set-major.
    tags: Vec<u64>,
    /// LRU ticks, parallel to `tags`: the access tick of the line's last
    /// touch (zero for an invalid line).
    ticks: Vec<u64>,
    num_sets: usize,
    ways: usize,
    active_ways: usize,
    line_shift: u32,
    /// Precomputed `num_sets - 1` (set count is a power of two), so set
    /// selection on the access path is a single shift-and-mask.
    set_mask: usize,
    tick: u64,
    awake_valid: usize,
    valid: usize,
    stats: CacheStats,
    /// Tag of the line the last `access` hit or filled, or `NO_LINE`.
    last_tag: u64,
    /// Index into `tags`/`ticks` of that line (meaningless under
    /// `NO_LINE`).
    last_slot: usize,
}

impl Cache {
    /// Creates an empty cache with the geometry of `cfg`, all ways active.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways, a set
    /// count that is not a power of two, or lines under 8 bytes), which
    /// would indicate a config bug.
    #[must_use]
    pub fn new(cfg: &CacheConfig) -> Self {
        let line_shift = cfg.line_bytes.trailing_zeros();
        assert!(
            line_shift >= MIN_LINE_SHIFT,
            "degenerate cache geometry {cfg:?}: lines under 8 B"
        );
        let (num_sets, ways) = (cfg.sets() as usize, cfg.ways as usize);
        assert!(
            num_sets > 0 && ways > 0,
            "degenerate cache geometry {cfg:?}"
        );
        Cache::with_geometry(num_sets, ways, line_shift)
    }

    /// An empty cache of `num_sets` sets of `ways` lines, each
    /// `1 << line_shift` bytes.
    fn with_geometry(num_sets: usize, ways: usize, line_shift: u32) -> Self {
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Cache {
            tags: vec![0; num_sets * ways],
            ticks: vec![0; num_sets * ways],
            num_sets,
            ways,
            active_ways: ways,
            line_shift,
            set_mask: num_sets - 1,
            tick: 0,
            awake_valid: 0,
            valid: 0,
            stats: CacheStats::default(),
            last_tag: NO_LINE,
            last_slot: 0,
        }
    }

    /// Total associativity.
    #[must_use]
    pub fn ways(&self) -> u32 {
        self.ways as u32
    }

    /// Currently active ways.
    #[must_use]
    pub fn active_ways(&self) -> u32 {
        self.active_ways as u32
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Folds this cache's counters into a telemetry registry under the
    /// given per-instance metric names (the same `Cache` type backs the
    /// L1D, MLC and LLC, so names cannot live on the type).
    pub fn sample_metrics_as(
        &self,
        names: &CacheMetricNames,
        reg: &mut powerchop_telemetry::MetricsRegistry,
    ) {
        reg.counter_set(names.accesses, self.stats.accesses);
        reg.counter_set(names.hits, self.stats.hits);
        reg.counter_set(names.writebacks, self.stats.writebacks);
        reg.gauge_set(names.active_ways, f64::from(self.active_ways()));
    }

    #[inline]
    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let set = ((addr >> self.line_shift) as usize) & self.set_mask;
        let base = set * self.ways;
        base..base + self.active_ways
    }

    /// Accesses `addr`, allocating on miss. Returns hit/writeback status.
    pub fn access(&mut self, addr: u64, is_store: bool) -> AccessOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        let tag = addr >> self.line_shift;
        let range = self.set_range(addr);
        self.last_tag = tag;
        let base = range.start;
        let tags = &mut self.tags[range.clone()];
        let ticks = &mut self.ticks[range];

        // One scan: stop at a hit, else remember the victim — the first
        // invalid way in way order, else the least recently used (an
        // invalid way ranks as tick 0, and ties keep the earliest way).
        // At least one way is always active (way-gating floors at one),
        // so the victim index is always in the set.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, (word, last)) in tags.iter_mut().zip(ticks.iter_mut()).enumerate() {
            if *word & !(DIRTY | DROWSY) == VALID | tag {
                *last = self.tick;
                if is_store {
                    *word |= DIRTY;
                }
                let woke_drowsy = *word & DROWSY != 0;
                if woke_drowsy {
                    *word &= !DROWSY;
                    self.awake_valid += 1;
                }
                self.stats.hits += 1;
                self.last_slot = base + way;
                return AccessOutcome {
                    hit: true,
                    writeback: false,
                    woke_drowsy,
                };
            }
            let age = if *word & VALID != 0 { *last } else { 0 };
            if age < oldest {
                oldest = age;
                victim = way;
            }
        }

        // Miss: allocate into the victim way.
        let old = tags[victim];
        let writeback = old & (VALID | DIRTY) == VALID | DIRTY;
        if writeback {
            self.stats.writebacks += 1;
        }
        if old & VALID == 0 {
            self.valid += 1;
            self.awake_valid += 1;
        } else if old & DROWSY != 0 {
            self.awake_valid += 1; // replaced by a freshly-awake line
        }
        tags[victim] = VALID | tag | if is_store { DIRTY } else { 0 };
        ticks[victim] = self.tick;
        self.last_slot = base + victim;
        AccessOutcome {
            hit: false,
            writeback,
            woke_drowsy: false,
        }
    }

    /// Whether `addr` lies in the line the last [`Cache::access`] hit or
    /// filled, with no mutation since: the one line [`Cache::repeat`]
    /// charges.
    #[must_use]
    #[inline]
    pub(crate) fn in_last_line(&self, addr: u64) -> bool {
        addr >> self.line_shift == self.last_tag
    }

    /// Charges `n` more accesses to the line the last [`Cache::access`]
    /// hit or filled, exactly as `n` more calls of `access` on it would:
    /// each is a hit that advances the LRU tick (the line's tick ends at
    /// the last one), a store dirties the line, and a drowsy line is
    /// woken once. It skips the set scan that `access` pays.
    ///
    /// # Panics
    ///
    /// Panics if no line is remembered: before the first `access`, or
    /// after [`Cache::set_active_ways`], [`Cache::set_all_drowsy`] or
    /// [`Cache::restore_from`] (each forgets it).
    #[inline]
    pub(crate) fn repeat(&mut self, n: u64, is_store: bool) {
        assert!(self.last_tag != NO_LINE, "repeat with no remembered line");
        self.tick += n;
        self.stats.accesses += n;
        self.stats.hits += n;
        self.ticks[self.last_slot] = self.tick;
        let word = &mut self.tags[self.last_slot];
        if is_store {
            *word |= DIRTY;
        }
        if *word & DROWSY != 0 {
            *word &= !DROWSY;
            self.awake_valid += 1;
        }
    }

    /// Whether `addr` is resident without touching LRU or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let tag = addr >> self.line_shift;
        self.tags[self.set_range(addr)]
            .iter()
            .any(|word| word & !(DIRTY | DROWSY) == VALID | tag)
    }

    /// Changes the number of active ways.
    ///
    /// Lines in deactivated ways are invalidated; the number of *dirty*
    /// lines flushed (each requiring a writeback to the next level) is
    /// returned so the caller can charge writeback time and energy.
    /// Re-activated ways come back empty (state was lost while gated).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds the cache's associativity.
    pub fn set_active_ways(&mut self, ways: u32) -> u64 {
        let ways = ways as usize;
        assert!(
            ways >= 1 && ways <= self.ways,
            "active ways {ways} outside 1..={}",
            self.ways
        );
        self.last_tag = NO_LINE;
        let mut flushed_dirty = 0;
        if ways < self.active_ways {
            for set in 0..self.num_sets {
                let base = set * self.ways;
                let gated = base + ways..base + self.active_ways;
                for word in &mut self.tags[gated.clone()] {
                    if *word & VALID != 0 {
                        self.valid -= 1;
                        if *word & DROWSY == 0 {
                            self.awake_valid -= 1;
                        }
                        if *word & DIRTY != 0 {
                            flushed_dirty += 1;
                        }
                    }
                    *word = 0;
                }
                self.ticks[gated].fill(0);
            }
            self.stats.writebacks += flushed_dirty;
        }
        self.active_ways = ways;
        flushed_dirty
    }

    /// Number of currently valid lines (used by tests and warm-up checks).
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|word| *word & VALID != 0).count()
    }

    /// Puts every valid line into the drowsy (low-retention-voltage)
    /// state. Data is retained; the next access to each line pays a
    /// wake-up cycle (reported via [`AccessOutcome::woke_drowsy`]). This
    /// is the periodic "simple policy" of drowsy caches (Flautner et
    /// al.), implemented as a comparison baseline to PowerChop's
    /// way-gating.
    ///
    /// Returns the number of lines put drowsy.
    pub fn set_all_drowsy(&mut self) -> usize {
        self.last_tag = NO_LINE;
        let mut count = 0;
        for word in &mut self.tags {
            if *word & (VALID | DROWSY) == VALID {
                *word |= DROWSY;
                count += 1;
            }
        }
        self.awake_valid = 0;
        count
    }

    /// Serializes all mutable cache state (line array, active-way count,
    /// LRU tick, residency counters, statistics). Geometry (sets, ways,
    /// line size) is config-derived and not written; restore must run on
    /// a cache built from the same [`CacheConfig`]. Each line is written
    /// as its tag, valid, dirty and drowsy flags, then its LRU tick.
    pub fn snapshot_to(&self, w: &mut ByteWriter) {
        for (word, last) in self.tags.iter().zip(&self.ticks) {
            w.put_u64(word & !FLAGS);
            w.put_bool(word & VALID != 0);
            w.put_bool(word & DIRTY != 0);
            w.put_bool(word & DROWSY != 0);
            w.put_u64(*last);
        }
        w.put_usize(self.active_ways);
        w.put_u64(self.tick);
        w.put_usize(self.awake_valid);
        w.put_usize(self.valid);
        w.put_u64(self.stats.accesses);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.writebacks);
    }

    /// Restores state written by [`Cache::snapshot_to`] in place.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the payload is truncated, a
    /// line's tag reaches the flag bits (no address can produce one), or
    /// the restored active-way count is outside this cache's geometry.
    pub fn restore_from(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        self.last_tag = NO_LINE;
        for (word, last) in self.tags.iter_mut().zip(self.ticks.iter_mut()) {
            let tag = r.take_u64()?;
            if tag & FLAGS != 0 {
                return Err(CheckpointError::Malformed {
                    what: "cache line tag reaches the flag bits",
                });
            }
            let mut packed = tag;
            for flag in [VALID, DIRTY, DROWSY] {
                if r.take_bool()? {
                    packed |= flag;
                }
            }
            *word = packed;
            *last = r.take_u64()?;
        }
        let active_ways = r.take_usize()?;
        if active_ways < 1 || active_ways > self.ways {
            return Err(CheckpointError::Malformed {
                what: "cache active way count",
            });
        }
        self.active_ways = active_ways;
        self.tick = r.take_u64()?;
        self.awake_valid = r.take_usize()?;
        self.valid = r.take_usize()?;
        self.stats.accesses = r.take_u64()?;
        self.stats.hits = r.take_u64()?;
        self.stats.writebacks = r.take_u64()?;
        Ok(())
    }

    /// Fraction of the cache's *capacity* currently awake (valid,
    /// non-drowsy lines over total lines): the share of the array leaking
    /// at full voltage. Invalid lines still leak at full voltage unless
    /// their ways are gated, so they count as awake.
    #[must_use]
    pub fn awake_fraction(&self) -> f64 {
        let total = self.num_sets * self.ways;
        let drowsy_lines = self.valid - self.awake_valid;
        (total - drowsy_lines) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 sets x `ways` ways x 64 B lines (too small to state as a
    /// whole-KiB `CacheConfig`).
    fn small_cache(ways: u32) -> Cache {
        Cache::with_geometry(4, ways as usize, 6)
    }

    /// Address helper: set index `set`, tag `tag` (4 sets, 64 B lines).
    fn addr(tag: u64, set: u64) -> u64 {
        (tag << 8) | (set << 6)
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small_cache(4);
        assert!(!c.access(addr(1, 0), false).hit);
        assert!(c.access(addr(1, 0), false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(2);
        c.access(addr(1, 0), false);
        c.access(addr(2, 0), false);
        c.access(addr(1, 0), false); // touch tag 1: tag 2 is now LRU
        c.access(addr(3, 0), false); // evicts tag 2
        assert!(c.probe(addr(1, 0)));
        assert!(!c.probe(addr(2, 0)));
        assert!(c.probe(addr(3, 0)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small_cache(1);
        c.access(addr(1, 0), true); // dirty
        let out = c.access(addr(2, 0), false); // evicts dirty line
        assert!(!out.hit);
        assert!(out.writeback);
        assert!(!out.woke_drowsy);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small_cache(1);
        c.access(addr(1, 0), false);
        let out = c.access(addr(2, 0), false);
        assert!(!out.writeback);
    }

    #[test]
    fn way_gating_flushes_dirty_and_loses_clean() {
        let mut c = small_cache(4);
        c.access(addr(1, 0), true); // will land in way 0
        c.access(addr(2, 0), false);
        c.access(addr(3, 0), true);
        c.access(addr(4, 0), false);
        assert_eq!(c.resident_lines(), 4);
        let flushed = c.set_active_ways(1);
        // Fill order is way 0..3, so way 0 (dirty tag 1) survives and the
        // only dirty line in a gated way is tag 3.
        assert_eq!(flushed, 1);
        assert!(c.probe(addr(1, 0)));
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(c.active_ways(), 1);
    }

    #[test]
    fn reduced_ways_shrink_effective_capacity() {
        let mut c = small_cache(4);
        c.set_active_ways(1);
        // Two conflicting tags in the same set now thrash.
        c.access(addr(1, 0), false);
        c.access(addr(2, 0), false);
        assert!(!c.access(addr(1, 0), false).hit);
    }

    #[test]
    fn regrowing_ways_starts_cold() {
        let mut c = small_cache(4);
        for t in 1..=4 {
            c.access(addr(t, 0), false);
        }
        c.set_active_ways(1);
        c.set_active_ways(4);
        // Whatever survived is only what way 0 held.
        assert!(c.resident_lines() <= 1);
    }

    #[test]
    #[should_panic(expected = "active ways")]
    fn zero_ways_is_rejected() {
        let mut c = small_cache(4);
        c.set_active_ways(0);
    }

    #[test]
    #[should_panic(expected = "lines under 8 B")]
    fn lines_under_eight_bytes_are_rejected() {
        let _ = Cache::new(&CacheConfig {
            size_kib: 1,
            ways: 4,
            line_bytes: 4,
            hit_latency: 1,
        });
    }

    #[test]
    fn restore_rejects_a_tag_in_the_flag_bits() {
        let mut c = small_cache(2);
        c.access(addr(1, 0), true);
        let mut w = ByteWriter::new();
        c.snapshot_to(&mut w);
        let mut bytes = w.into_bytes();
        let mut fresh = small_cache(2);
        assert!(fresh.restore_from(&mut ByteReader::new(&bytes)).is_ok());
        assert!(fresh.probe(addr(1, 0)));
        // The first line's tag is the first word; set its top bit.
        bytes[7] |= 0x80;
        assert!(matches!(
            small_cache(2).restore_from(&mut ByteReader::new(&bytes)),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn way_state_mapping_matches_paper() {
        assert_eq!(MlcWayState::Full.active_ways(8), 8);
        assert_eq!(MlcWayState::Half.active_ways(8), 4);
        assert_eq!(MlcWayState::One.active_ways(8), 1);
        // Server MLC: 1024 KiB 8-way -> 512 KiB 4-way or 128 KiB 1-way.
        assert!((MlcWayState::Half.active_fraction(8) - 0.5).abs() < 1e-12);
        assert!((MlcWayState::One.active_fraction(8) - 0.125).abs() < 1e-12);
        assert_eq!(MlcWayState::Full.policy_bits(), 0b11);
        assert_eq!(MlcWayState::Half.policy_bits(), 0b10);
        assert_eq!(MlcWayState::One.policy_bits(), 0b01);
        assert_eq!(MlcWayState::Quarter.policy_bits(), 0b00);
        assert_eq!(MlcWayState::Quarter.active_ways(8), 2);
        assert!(MlcWayState::One < MlcWayState::Quarter);
        assert!(MlcWayState::Quarter < MlcWayState::Half);
    }

    #[test]
    fn drowsy_lines_retain_data_and_wake_on_access() {
        let mut c = small_cache(4);
        c.access(addr(1, 0), true);
        c.access(addr(2, 1), false);
        assert_eq!(c.set_all_drowsy(), 2);
        assert!((c.awake_fraction() - (16.0 - 2.0) / 16.0).abs() < 1e-12);
        // Access wakes the line: still a hit, one wake event.
        let out = c.access(addr(1, 0), false);
        assert!(out.hit && out.woke_drowsy);
        // Second access: already awake.
        let out = c.access(addr(1, 0), false);
        assert!(out.hit && !out.woke_drowsy);
        assert!((c.awake_fraction() - (16.0 - 1.0) / 16.0).abs() < 1e-12);
    }

    #[test]
    fn drowsy_accounting_survives_eviction_and_way_gating() {
        let mut c = small_cache(2);
        c.access(addr(1, 0), true);
        c.access(addr(2, 0), false);
        c.set_all_drowsy();
        // Evicting a drowsy line with a new allocation keeps counts sane.
        c.access(addr(3, 0), false); // evicts LRU (tag 1, drowsy)
        assert!(c.awake_fraction() > 0.0 && c.awake_fraction() <= 1.0);
        // Way gating drowsy lines keeps counts sane too.
        c.set_all_drowsy();
        c.set_active_ways(1);
        assert!((c.awake_fraction() - 1.0).abs() < 1e-12 || c.awake_fraction() < 1.0);
        c.set_active_ways(2);
        c.access(addr(9, 0), false);
        assert!(c.awake_fraction() > 0.0);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small_cache(2);
        c.access(addr(1, 0), false);
        let before = c.stats();
        assert!(c.probe(addr(1, 0)));
        assert!(!c.probe(addr(9, 0)));
        assert_eq!(c.stats(), before);
    }

    fn snapshot_bytes(c: &Cache) -> Vec<u8> {
        let mut w = ByteWriter::new();
        c.snapshot_to(&mut w);
        w.into_bytes()
    }

    /// Drowses the remembered line and keeps it remembered. No public call
    /// sequence hands `repeat` a drowsy line (`set_all_drowsy` forgets the
    /// line), so this is how the test reaches `repeat`'s wake.
    fn drowse_last_line(c: &mut Cache) {
        let word = &mut c.tags[c.last_slot];
        if *word & DROWSY == 0 {
            *word |= DROWSY;
            c.awake_valid -= 1;
        }
    }

    #[test]
    fn repeat_matches_access_on_the_last_line() {
        for ways in [1u32, 2, 8, 16] {
            let lines = 4 * 4 * u64::from(ways);
            powerchop_faults::check::cases(&format!("repeat, {ways} ways"), 48, |rng| {
                let mut c = small_cache(ways);
                let mut last = None;
                for _ in 0..rng.gen_range(300) {
                    match rng.gen_range(20) {
                        0 => {
                            c.set_active_ways(1 + rng.gen_range(u64::from(ways)) as u32);
                        }
                        1 => {
                            c.set_all_drowsy();
                        }
                        2 => {
                            let bytes = snapshot_bytes(&c);
                            c.restore_from(&mut ByteReader::new(&bytes))
                                .expect("a cache restores its own snapshot");
                        }
                        _ => {
                            let a = rng.gen_range(lines * 64);
                            c.access(a, rng.gen_bool(0.3));
                            assert!(c.in_last_line(a), "access remembers its line");
                            last = Some(a);
                            continue;
                        }
                    }
                    if let Some(a) = last.take() {
                        assert!(!c.in_last_line(a), "gating, drowsing and restore forget");
                    }
                }
                let addr = match last {
                    Some(a) if rng.gen_bool(0.7) => a,
                    _ => {
                        let a = rng.gen_range(lines * 64);
                        c.access(a, rng.gen_bool(0.3));
                        a
                    }
                };
                if rng.gen_bool(0.3) {
                    drowse_last_line(&mut c);
                }
                let (n, store) = (1 + rng.gen_range(16), rng.gen_bool(0.5));
                let mut walked = c.clone();
                for _ in 0..n {
                    let a = (addr & !63) | rng.gen_range(64);
                    assert!(walked.access(a, store).hit);
                }
                c.repeat(n, store);
                assert!(c.in_last_line(addr));
                assert_eq!(c.stats(), walked.stats(), "stats");
                assert_eq!(snapshot_bytes(&c), snapshot_bytes(&walked), "snapshot");
                assert_eq!(
                    c.awake_fraction().to_bits(),
                    walked.awake_fraction().to_bits(),
                    "awake fraction"
                );
                assert_eq!(c.resident_lines(), walked.resident_lines(), "residency");
            });
        }
    }

    #[test]
    #[should_panic(expected = "no remembered line")]
    fn repeat_needs_a_remembered_line() {
        let mut c = small_cache(2);
        c.access(addr(1, 0), false);
        c.set_all_drowsy();
        c.repeat(1, false);
    }

    #[test]
    fn sets_do_not_interfere() {
        let mut c = small_cache(1);
        c.access(addr(1, 0), false);
        c.access(addr(1, 1), false);
        c.access(addr(1, 2), false);
        assert!(c.probe(addr(1, 0)));
        assert!(c.probe(addr(1, 1)));
        assert!(c.probe(addr(1, 2)));
    }
}
