//! Differential test of the packed, single-scan [`Cache`] against the
//! `Line`-struct, two-scan cache it replaced, kept here as a test-only
//! reference. Both are driven with the same seeded loads, stores,
//! way-gating changes, drowsy sweeps and snapshot/restore round trips
//! over 1-, 2-, 8- and 16-way geometries; every outcome, counter,
//! residency count, awake fraction and snapshot byte must agree.

use powerchop_checkpoint::{ByteReader, ByteWriter, CheckpointError};
use powerchop_faults::check::cases;
use powerchop_faults::SimRng;
use powerchop_uarch::cache::{AccessOutcome, Cache, CacheStats};
use powerchop_uarch::config::CacheConfig;

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Low-retention-voltage state (drowsy caches, Flautner et al.): data
    /// is retained but the line must be woken before it can be read.
    drowsy: bool,
    lru: u64,
}

/// The cache as it was before lines were packed: a `Line` struct per
/// way, a `find` scan for the hit and a `min_by_key` scan for the
/// victim.
#[derive(Debug, Clone)]
pub struct RefCache {
    lines: Vec<Line>,
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
}

impl RefCache {
    /// Creates an empty cache with the geometry of `cfg`, all ways active.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways), which
    /// would indicate a config bug.
    #[must_use]
    pub fn new(cfg: &CacheConfig) -> Self {
        let num_sets = cfg.sets() as usize;
        let ways = cfg.ways as usize;
        assert!(
            num_sets > 0 && ways > 0,
            "degenerate cache geometry {cfg:?}"
        );
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        RefCache {
            lines: vec![Line::default(); num_sets * ways],
            num_sets,
            ways,
            active_ways: ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: num_sets - 1,
            tick: 0,
            awake_valid: 0,
            valid: 0,
            stats: CacheStats::default(),
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

        // Hit path.
        if let Some(line) = self.lines[range.clone()]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.lru = self.tick;
            line.dirty |= is_store;
            let woke_drowsy = line.drowsy;
            if woke_drowsy {
                line.drowsy = false;
                self.awake_valid += 1;
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: false,
                woke_drowsy,
            };
        }

        // Miss: allocate into the LRU (or first invalid) active way.
        // At least one way is always active (way-gating floors at one),
        // so the fold finds a victim; the `range.start` fallback keeps
        // this total without a panicking branch.
        let victim = self.lines[range.clone()]
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .map_or(range.start, |(i, _)| range.start + i);
        let line = &mut self.lines[victim];
        let writeback = line.valid && line.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        if !line.valid {
            self.valid += 1;
            self.awake_valid += 1;
        } else if line.drowsy {
            self.awake_valid += 1; // replaced by a freshly-awake line
        }
        *line = Line {
            tag,
            valid: true,
            dirty: is_store,
            drowsy: false,
            lru: self.tick,
        };
        AccessOutcome {
            hit: false,
            writeback,
            woke_drowsy: false,
        }
    }

    /// Whether `addr` is resident without touching LRU or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let tag = addr >> self.line_shift;
        self.lines[self.set_range(addr)]
            .iter()
            .any(|l| l.valid && l.tag == tag)
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
        let mut flushed_dirty = 0;
        if ways < self.active_ways {
            for set in 0..self.num_sets {
                let base = set * self.ways;
                for line in &mut self.lines[base + ways..base + self.active_ways] {
                    if line.valid {
                        self.valid -= 1;
                        if !line.drowsy {
                            self.awake_valid -= 1;
                        }
                        if line.dirty {
                            flushed_dirty += 1;
                        }
                    }
                    *line = Line::default();
                }
            }
            self.stats.writebacks += flushed_dirty;
        }
        self.active_ways = ways;
        flushed_dirty
    }

    /// Number of currently valid lines (used by tests and warm-up checks).
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Puts every valid line into the drowsy (low-retention-voltage)
    /// state. Data is retained; the next access to each line pays a
    /// wake-up cycle (reported via `AccessOutcome::woke_drowsy`). This
    /// is the periodic "simple policy" of drowsy caches (Flautner et
    /// al.), implemented as a comparison baseline to PowerChop's
    /// way-gating.
    ///
    /// Returns the number of lines put drowsy.
    pub fn set_all_drowsy(&mut self) -> usize {
        let mut count = 0;
        for line in &mut self.lines {
            if line.valid && !line.drowsy {
                line.drowsy = true;
                count += 1;
            }
        }
        self.awake_valid = 0;
        count
    }

    /// Serializes all mutable cache state (line array, active-way count,
    /// LRU tick, residency counters, statistics). Geometry (sets, ways,
    /// line size) is config-derived and not written; restore must run on
    /// a cache built from the same `CacheConfig`.
    pub fn snapshot_to(&self, w: &mut ByteWriter) {
        for line in &self.lines {
            w.put_u64(line.tag);
            w.put_bool(line.valid);
            w.put_bool(line.dirty);
            w.put_bool(line.drowsy);
            w.put_u64(line.lru);
        }
        w.put_usize(self.active_ways);
        w.put_u64(self.tick);
        w.put_usize(self.awake_valid);
        w.put_usize(self.valid);
        w.put_u64(self.stats.accesses);
        w.put_u64(self.stats.hits);
        w.put_u64(self.stats.writebacks);
    }

    /// Restores state written by `snapshot_to` in place.
    ///
    /// # Errors
    ///
    /// Returns a `CheckpointError` when the payload is truncated or the
    /// restored active-way count is outside this cache's geometry.
    pub fn restore_from(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        for line in &mut self.lines {
            line.tag = r.take_u64()?;
            line.valid = r.take_bool()?;
            line.dirty = r.take_bool()?;
            line.drowsy = r.take_bool()?;
            line.lru = r.take_u64()?;
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

/// 16 sets of `ways` 64-byte lines.
fn geometry(ways: u32) -> CacheConfig {
    CacheConfig {
        size_kib: ways,
        ways,
        line_bytes: 64,
        hit_latency: 10,
    }
}

fn snapshot_of(write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write(&mut w);
    w.into_bytes()
}

/// Asserts every observable of the two caches agrees.
fn assert_same(new: &Cache, old: &RefCache, what: &str) {
    assert_eq!(new.stats(), old.stats(), "{what}: stats");
    assert_eq!(new.active_ways(), old.active_ways(), "{what}: active ways");
    assert_eq!(
        new.resident_lines(),
        old.resident_lines(),
        "{what}: resident lines"
    );
    assert_eq!(
        new.awake_fraction().to_bits(),
        old.awake_fraction().to_bits(),
        "{what}: awake fraction"
    );
}

fn assert_same_bytes(new: &Cache, old: &RefCache, what: &str) {
    assert_eq!(
        snapshot_of(|w| new.snapshot_to(w)),
        snapshot_of(|w| old.snapshot_to(w)),
        "{what}: snapshot bytes"
    );
}

/// An address with conflict pressure: lines drawn from four times the
/// cache's capacity, plus a random offset within the line.
fn address(rng: &mut SimRng, cfg: &CacheConfig) -> u64 {
    let lines = u64::from(cfg.sets() * cfg.ways) * 4;
    rng.gen_range(lines) * u64::from(cfg.line_bytes) + rng.gen_range(u64::from(cfg.line_bytes))
}

#[test]
fn packed_cache_matches_the_line_struct_reference() {
    for ways in [1u32, 2, 8, 16] {
        let cfg = geometry(ways);
        cases(&format!("packed cache, {ways} ways"), 24, |rng| {
            let mut new = Cache::new(&cfg);
            let mut old = RefCache::new(&cfg);
            for step in 0..1_500 {
                let what = format!("{ways} ways, step {step}");
                match rng.gen_range(100) {
                    0..=3 => {
                        let active = 1 + rng.gen_range(u64::from(ways)) as u32;
                        assert_eq!(
                            new.set_active_ways(active),
                            old.set_active_ways(active),
                            "{what}: flushed dirty lines"
                        );
                    }
                    4..=5 => assert_eq!(new.set_all_drowsy(), old.set_all_drowsy(), "{what}"),
                    6 => {
                        let bytes = snapshot_of(|w| new.snapshot_to(w));
                        assert_eq!(bytes, snapshot_of(|w| old.snapshot_to(w)), "{what}");
                        new = Cache::new(&cfg);
                        old = RefCache::new(&cfg);
                        new.restore_from(&mut ByteReader::new(&bytes))
                            .expect("packed cache restores its own snapshot");
                        old.restore_from(&mut ByteReader::new(&bytes))
                            .expect("reference restores the same snapshot");
                        assert_same_bytes(&new, &old, &what);
                    }
                    7..=9 => {
                        let addr = address(rng, &cfg);
                        assert_eq!(new.probe(addr), old.probe(addr), "{what}: probe");
                    }
                    _ => {
                        let addr = address(rng, &cfg);
                        let store = rng.gen_bool(0.3);
                        assert_eq!(
                            new.access(addr, store),
                            old.access(addr, store),
                            "{what}: access {addr:#x}"
                        );
                    }
                }
                assert_same(&new, &old, &what);
                if step % 100 == 0 {
                    assert_same_bytes(&new, &old, &what);
                }
            }
            assert_same_bytes(&new, &old, &format!("{ways} ways, end"));
        });
    }
}
