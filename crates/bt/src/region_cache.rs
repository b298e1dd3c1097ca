//! The region cache: the software structure holding translations.
//!
//! Subsequent executions of a hot code region run from its translation in
//! the region cache without paying interpretation costs (paper §II-A). The
//! cache is keyed by translation ID — the low 32 bits of the head PC,
//! which the paper notes is unique because the region cache is far smaller
//! than 2³² (paper §IV-B2). Guest PCs index the program, so the cache is a
//! table with one slot per program instruction: a dispatch is one indexed
//! load, not a hash probe.

use powerchop_gisa::{Pc, Program};

use crate::translator::{translate, Translation};

/// A translation's unique identifier: the low 32 bits of its head PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TranslationId(pub u32);

impl std::fmt::Display for TranslationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The region cache.
///
/// Capacity-bounded; when full, the least-recently-*installed* translation
/// is evicted (the real system garbage-collects cold translations; our
/// workloads rarely exercise eviction, but the bound keeps behaviour
/// defined).
#[derive(Debug, Clone)]
pub struct RegionCache {
    /// Resident translations indexed by head PC; `None` where no
    /// resident translation starts. One slot per program instruction.
    slots: Vec<Option<Translation>>,
    /// Resident IDs, oldest install first: drives FIFO eviction and the
    /// snapshot order. Holds exactly the occupied slots.
    install_order: Vec<TranslationId>,
    capacity: usize,
}

impl RegionCache {
    /// Creates an empty region cache holding at most `capacity`
    /// translations of a program `program_len` instructions long. A zero
    /// capacity is clamped to one: the translation layer must stay
    /// panic-free under any configuration, and a one-entry cache is the
    /// nearest well-defined neighbour of a degenerate request.
    #[must_use]
    pub fn new(capacity: usize, program_len: usize) -> Self {
        let capacity = capacity.max(1);
        RegionCache {
            slots: vec![None; program_len],
            install_order: Vec::new(),
            capacity,
        }
    }

    /// Number of resident translations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.install_order.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.install_order.is_empty()
    }

    /// Looks up the translation with head PC `id`.
    #[inline]
    #[must_use]
    pub fn get(&self, id: TranslationId) -> Option<&Translation> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// Installs a translation, evicting the oldest if at capacity.
    /// Returns the evicted translation's ID, if any. A translation whose
    /// head lies outside the program could never be dispatched and is
    /// not installed (the translator never builds one).
    pub fn install(&mut self, translation: Translation) -> Option<TranslationId> {
        let id = translation.id();
        let slot = self.slots.get_mut(id.0 as usize)?;
        if slot.replace(translation).is_some() {
            // Reinstalling a resident head replaces it in place.
            return None;
        }
        let mut evicted = None;
        if self.install_order.len() == self.capacity {
            let victim = self.install_order.remove(0);
            self.vacate(victim);
            evicted = Some(victim);
        }
        self.install_order.push(id);
        evicted
    }

    /// Empties `id`'s slot.
    fn vacate(&mut self, id: TranslationId) {
        if let Some(slot) = self.slots.get_mut(id.0 as usize) {
            *slot = None;
        }
    }

    /// Iterates over resident translations in install order.
    pub fn iter(&self) -> impl Iterator<Item = &Translation> {
        self.install_order.iter().filter_map(|id| self.get(*id))
    }

    /// Fault hook: drops roughly `fraction` of resident translations,
    /// selected deterministically from `selector` (models an
    /// invalidation storm — self-modifying code detection, a page
    /// remapping, or a guest TLB shootdown wiping translated regions).
    /// Returns the IDs dropped so callers can discount dependent state.
    pub fn invalidate_fraction(&mut self, fraction: f64, selector: u64) -> Vec<TranslationId> {
        let mut dropped = Vec::new();
        self.invalidate_fraction_into(fraction, selector, &mut dropped);
        dropped
    }

    /// Allocation-free form of [`RegionCache::invalidate_fraction`] for
    /// the fault-storm hot path: clears `dropped` and fills it with the
    /// invalidated IDs, reusing its capacity across events.
    pub fn invalidate_fraction_into(
        &mut self,
        fraction: f64,
        selector: u64,
        dropped: &mut Vec<TranslationId>,
    ) {
        dropped.clear();
        let fraction = fraction.clamp(0.0, 1.0);
        let threshold = (fraction * 2f64.powi(32)) as u64;
        self.install_order.retain(|id| {
            // splitmix-style avalanche of (id, selector): a per-id coin
            // flip that is reproducible for a given selector.
            let mut z = u64::from(id.0) ^ selector.rotate_left(17);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            if (z >> 32) < threshold {
                dropped.push(*id);
                false
            } else {
                true
            }
        });
        for id in dropped.iter() {
            self.vacate(*id);
        }
    }

    /// Drops every resident translation.
    pub fn clear(&mut self) {
        for id in std::mem::take(&mut self.install_order) {
            self.vacate(id);
        }
    }

    /// Serializes the resident heads in install order (the order is
    /// semantically meaningful — it determines future evictions — so it is
    /// written verbatim rather than sorted). A translation is a pure
    /// function of its program, head and trace-length limit, so bodies
    /// are not written: restore rebuilds them. Capacity is config-derived
    /// and not written either.
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        w.put_usize(self.install_order.len());
        for id in &self.install_order {
            w.put_u32(id.0);
        }
    }

    /// Restores contents written by [`RegionCache::snapshot_to`] in place,
    /// rebuilding each translation from `program` with `max_trace_len`.
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated, holds more translations than this cache's
    /// configured capacity, names a head PC outside the program, or
    /// names one head twice.
    pub fn restore_from(
        &mut self,
        r: &mut powerchop_checkpoint::ByteReader<'_>,
        program: &Program,
        max_trace_len: usize,
    ) -> Result<(), powerchop_checkpoint::CheckpointError> {
        let count = r.take_usize()?;
        if count > self.capacity {
            return Err(powerchop_checkpoint::CheckpointError::Malformed {
                what: "region cache resident count exceeds capacity",
            });
        }
        self.clear();
        for _ in 0..count {
            let head = Pc(r.take_u32()?);
            let (Some(slot), Some(t)) = (
                self.slots.get_mut(head.0 as usize),
                translate(program, head, max_trace_len),
            ) else {
                return Err(powerchop_checkpoint::CheckpointError::Malformed {
                    what: "region cache translation head lies outside the program",
                });
            };
            if slot.is_some() {
                return Err(powerchop_checkpoint::CheckpointError::Malformed {
                    what: "region cache holds one head twice",
                });
            }
            *slot = Some(t);
            self.install_order.push(TranslationId(head.0));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerchop_checkpoint::{ByteReader, ByteWriter, CheckpointError};
    use powerchop_gisa::ProgramBuilder;

    fn program_with_nops(n: usize) -> powerchop_gisa::Program {
        let mut b = ProgramBuilder::new("nops");
        for _ in 0..n {
            b.nop();
        }
        b.halt();
        b.build().expect("test program is well-formed")
    }

    #[test]
    fn install_then_get() {
        let p = program_with_nops(4);
        let mut rc = RegionCache::new(8, p.len());
        let t = translate(&p, Pc(0), 16).unwrap();
        assert!(rc.install(t).is_none());
        assert_eq!(rc.len(), 1);
        assert!(rc.get(TranslationId(0)).is_some());
        assert!(rc.get(TranslationId(1)).is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let p = program_with_nops(10);
        let mut rc = RegionCache::new(2, p.len());
        rc.install(translate(&p, Pc(0), 1).unwrap());
        rc.install(translate(&p, Pc(1), 1).unwrap());
        let evicted = rc.install(translate(&p, Pc(2), 1).unwrap());
        assert_eq!(evicted, Some(TranslationId(0)));
        assert!(rc.get(TranslationId(0)).is_none());
        assert!(rc.get(TranslationId(1)).is_some());
        assert!(rc.get(TranslationId(2)).is_some());
    }

    #[test]
    fn reinstall_replaces_without_eviction() {
        let p = program_with_nops(4);
        let mut rc = RegionCache::new(1, p.len());
        rc.install(translate(&p, Pc(0), 2).unwrap());
        let evicted = rc.install(translate(&p, Pc(0), 3).unwrap());
        assert!(evicted.is_none());
        assert_eq!(rc.get(TranslationId(0)).unwrap().len(), 3);
    }

    #[test]
    fn zero_capacity_clamps_to_one_entry() {
        let p = program_with_nops(10);
        let mut rc = RegionCache::new(0, p.len());
        rc.install(translate(&p, Pc(0), 1).unwrap());
        assert_eq!(rc.len(), 1);
        let evicted = rc.install(translate(&p, Pc(1), 1).unwrap());
        assert_eq!(evicted, Some(TranslationId(0)));
        assert_eq!(rc.len(), 1);
    }

    #[test]
    fn invalidate_fraction_is_deterministic_and_bounded() {
        let p = program_with_nops(64);
        let build = || {
            let mut rc = RegionCache::new(128, p.len());
            for pc in 0..60 {
                rc.install(translate(&p, Pc(pc), 1).unwrap());
            }
            rc
        };
        let mut a = build();
        let mut b = build();
        assert!(a.invalidate_fraction(0.0, 1).is_empty());
        assert_eq!(a.invalidate_fraction(0.5, 7), b.invalidate_fraction(0.5, 7));
        let survivors = a.len();
        assert!(
            survivors > 0 && survivors < 60,
            "~half should survive, got {survivors}"
        );
        let dropped_all = a.invalidate_fraction(1.0, 3);
        assert_eq!(dropped_all.len(), survivors);
        assert!(a.is_empty());
        // Dropped translations are really gone.
        let mut c = build();
        for id in c.invalidate_fraction(0.5, 7) {
            assert!(c.get(id).is_none());
        }
    }

    #[test]
    fn clear_empties_the_cache() {
        let p = program_with_nops(8);
        let mut rc = RegionCache::new(8, p.len());
        rc.install(translate(&p, Pc(0), 2).unwrap());
        rc.clear();
        assert!(rc.is_empty());
        // Reinstall after clear works from a clean slate.
        rc.install(translate(&p, Pc(0), 2).unwrap());
        assert_eq!(rc.len(), 1);
    }

    #[test]
    fn restore_rejects_heads_outside_the_program_and_duplicates() {
        let p = program_with_nops(64);
        let mut rc = RegionCache::new(8, p.len());
        rc.install(translate(&p, Pc(40), 2).unwrap());
        let mut w = ByteWriter::new();
        rc.snapshot_to(&mut w);
        let bytes = w.into_bytes();
        // The same cache restores its own snapshot, rebuilding the
        // translation exactly, decoded instructions included...
        let mut same = RegionCache::new(8, p.len());
        assert!(same
            .restore_from(&mut ByteReader::new(&bytes), &p, 2)
            .is_ok());
        let (original, restored) = (rc.get(TranslationId(40)), same.get(TranslationId(40)));
        assert_eq!(restored, original);
        assert_eq!(
            restored.map(Translation::insts),
            original.map(Translation::insts)
        );
        // ...but head 40 lies past the end of a 16-instruction program.
        let short_program = program_with_nops(15);
        let mut short = RegionCache::new(8, short_program.len());
        assert!(matches!(
            short.restore_from(&mut ByteReader::new(&bytes), &short_program, 2),
            Err(CheckpointError::Malformed { .. })
        ));
        // A huge head is refused without sizing anything by it.
        let heads = |heads: &[u32]| {
            let mut w = ByteWriter::new();
            w.put_usize(heads.len());
            for head in heads {
                w.put_u32(*head);
            }
            w.into_bytes()
        };
        assert!(matches!(
            same.restore_from(&mut ByteReader::new(&heads(&[3, u32::MAX])), &p, 2),
            Err(CheckpointError::Malformed { .. })
        ));
        // One head named twice is malformed too, as is a count above
        // the cache's capacity.
        assert!(matches!(
            same.restore_from(&mut ByteReader::new(&heads(&[3, 3])), &p, 2),
            Err(CheckpointError::Malformed { .. })
        ));
        assert!(matches!(
            same.restore_from(&mut ByteReader::new(&heads(&[0; 9])), &p, 2),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn heads_outside_the_program_are_never_installed() {
        let p = program_with_nops(8);
        let mut rc = RegionCache::new(4, 4);
        assert!(rc.install(translate(&p, Pc(6), 1).unwrap()).is_none());
        assert!(rc.is_empty());
        assert!(rc.get(TranslationId(6)).is_none());
    }

    #[test]
    fn display_of_translation_id() {
        assert_eq!(TranslationId(7).to_string(), "t7");
    }
}
