//! The Hot Translation Buffer (HTB), paper §IV-B2.
//!
//! A small fully-associative hardware buffer that tracks translations as
//! they execute, together with the dynamic instruction count each one
//! contributed during the current execution window. At the end of each
//! window the HTB yields the phase signature (the N hottest translations)
//! and is flushed. If a window touches more unique translations than the
//! buffer holds, the excess is simply ignored (paper: "it is simply
//! ignored").
//!
//! The paper's configuration — 128 entries of 32-bit translation ID plus
//! 32-bit execution counter = 1 KiB — is the default.
//!
//! The model keeps the buffer's entries in a dense list, in the order
//! they were allocated, and finds an ID's entry through a slot table
//! indexed by the ID itself. A translation ID is its head PC, an index
//! into the program, so the table is as small as the program. This is
//! the O(1) update the paper places off the critical path: a recorded
//! execution costs one indexed load and one compare, not a hash. An
//! entry is live only while its slot points below the list's length at
//! an entry carrying the same ID, so a flush just empties the list.
//! Every reader sorts, so allocation order never reaches a signature, a
//! count vector or a snapshot.

use powerchop_bt::TranslationId;

use crate::phase::PhaseSignature;

/// Paper-default HTB capacity.
pub const HTB_ENTRIES: usize = 128;

/// IDs at or above this bound have no slot-table entry and are found by
/// scanning the (at most `capacity`-entry) list. Head PCs of the
/// simulated programs sit far below it; the bound only keeps an
/// arbitrary ID from growing the table.
const SLOT_TABLE_LIMIT: u32 = 1 << 16;

/// One buffer entry: a translation and its counts this window.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: TranslationId,
    executions: u64,
    instructions: u64,
}

/// The Hot Translation Buffer.
///
/// # Examples
///
/// ```
/// use powerchop::htb::HotTranslationBuffer;
/// use powerchop_bt::TranslationId;
///
/// let mut htb = HotTranslationBuffer::new(128, 4);
/// htb.record(TranslationId(10), 500);
/// htb.record(TranslationId(20), 100);
/// htb.record(TranslationId(10), 500);
/// let sig = htb.signature();
/// assert_eq!(sig.ids().next(), Some(TranslationId(10)));
/// ```
#[derive(Debug, Clone)]
pub struct HotTranslationBuffer {
    /// This window's entries, in allocation order (at most `capacity`).
    entries: Vec<Entry>,
    /// `slots[id]` is the index in `entries` of `id`'s entry, if it has
    /// one; a stale index (past the end, or at another ID's entry) means
    /// none. Grows on demand to the highest ID recorded below
    /// [`SLOT_TABLE_LIMIT`].
    slots: Vec<u32>,
    capacity: usize,
    signature_len: usize,
    overflowed: u64,
}

impl HotTranslationBuffer {
    /// Creates an HTB with `capacity` entries producing signatures of
    /// `signature_len` translations. Zero values are clamped to one:
    /// the management layer must stay panic-free under any
    /// configuration, and a one-entry buffer is the nearest well-defined
    /// neighbour of a degenerate request.
    #[must_use]
    pub fn new(capacity: usize, signature_len: usize) -> Self {
        let capacity = capacity.max(1);
        let signature_len = signature_len.max(1);
        HotTranslationBuffer {
            entries: Vec::with_capacity(capacity),
            slots: Vec::new(),
            capacity,
            signature_len,
            overflowed: 0,
        }
    }

    /// An HTB with the paper's configuration (128 entries, N = 4).
    #[must_use]
    pub fn paper_default() -> Self {
        HotTranslationBuffer::new(HTB_ENTRIES, crate::phase::SIGNATURE_LEN)
    }

    /// The index of `id`'s entry this window, if it has one.
    #[inline]
    fn find(&self, id: TranslationId) -> Option<usize> {
        if id.0 < SLOT_TABLE_LIMIT {
            let index = *self.slots.get(id.0 as usize)? as usize;
            return self
                .entries
                .get(index)
                .is_some_and(|e| e.id == id)
                .then_some(index);
        }
        self.entries.iter().position(|e| e.id == id)
    }

    /// Allocates an entry for `id`, which has none; the caller checked
    /// the capacity.
    fn allocate(&mut self, id: TranslationId, executions: u64, instructions: u64) {
        if id.0 < SLOT_TABLE_LIMIT {
            let slot = id.0 as usize;
            if slot >= self.slots.len() {
                self.slots.resize(slot + 1, 0);
            }
            self.slots[slot] = self.entries.len() as u32;
        }
        self.entries.push(Entry {
            id,
            executions,
            instructions,
        });
    }

    /// Records one execution of `id` contributing `instructions` dynamic
    /// instructions. Updates happen off the critical path in hardware; in
    /// the model they are O(1).
    pub fn record(&mut self, id: TranslationId, instructions: u64) {
        if let Some(index) = self.find(id) {
            let entry = &mut self.entries[index];
            entry.executions += 1;
            entry.instructions += instructions;
        } else if self.entries.len() < self.capacity {
            self.allocate(id, 1, instructions);
        } else {
            self.overflowed += 1;
        }
    }

    /// Unique translations tracked this window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no translations have been recorded this window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Translation executions dropped because the buffer was full
    /// (cumulative across windows).
    #[must_use]
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// The phase signature of the current window: the `signature_len`
    /// hottest translations by dynamic instruction count (ties broken by
    /// ID for determinism).
    #[must_use]
    pub fn signature(&self) -> PhaseSignature {
        let mut entries: Vec<(TranslationId, u64)> = self
            .entries
            .iter()
            .map(|e| (e.id, e.instructions))
            .collect();
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(self.signature_len);
        let ids: Vec<TranslationId> = entries.into_iter().map(|(id, _)| id).collect();
        PhaseSignature::new(&ids)
    }

    /// The full per-translation *execution*-count vector of the current
    /// window — the "translation vector" compared across same-signature
    /// windows by the Fig. 8 phase-quality analysis (entries sum to the
    /// window size, minus any HTB overflow).
    #[must_use]
    pub fn count_vector(&self) -> Vec<(TranslationId, u64)> {
        let mut v: Vec<_> = self.entries.iter().map(|e| (e.id, e.executions)).collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// Clears the buffer for the next execution window.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Storage in bytes (ID + counter per entry), for the hardware-cost
    /// table.
    #[must_use]
    pub fn storage_bytes(&self) -> u64 {
        (self.capacity * 8) as u64
    }

    /// Serializes the window-in-progress counts (sorted by translation ID
    /// for a deterministic encoding) and the cumulative overflow counter.
    /// Capacity and signature length are config-derived and not written.
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|e| e.id);
        w.put_usize(entries.len());
        for e in entries {
            w.put_u32(e.id.0);
            w.put_u64(e.executions);
            w.put_u64(e.instructions);
        }
        w.put_u64(self.overflowed);
    }

    /// Restores state written by [`HotTranslationBuffer::snapshot_to`] in
    /// place.
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated, holds more entries than this buffer's
    /// configured capacity, or names one translation twice.
    pub fn restore_from(
        &mut self,
        r: &mut powerchop_checkpoint::ByteReader<'_>,
    ) -> Result<(), powerchop_checkpoint::CheckpointError> {
        let count = r.take_usize()?;
        if count > self.capacity {
            return Err(powerchop_checkpoint::CheckpointError::Malformed {
                what: "HTB entry count exceeds capacity",
            });
        }
        self.entries.clear();
        for _ in 0..count {
            let id = TranslationId(r.take_u32()?);
            let executions = r.take_u64()?;
            let instructions = r.take_u64()?;
            if self.find(id).is_some() {
                return Err(powerchop_checkpoint::CheckpointError::Malformed {
                    what: "HTB names a translation twice",
                });
            }
            self.allocate(id, executions, instructions);
        }
        self.overflowed = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TranslationId {
        TranslationId(i)
    }

    #[test]
    fn hottest_by_instructions_not_executions() {
        let mut htb = HotTranslationBuffer::new(16, 2);
        // t1: many short executions; t2: few long ones.
        for _ in 0..10 {
            htb.record(t(1), 5);
        }
        htb.record(t(2), 1000);
        htb.record(t(3), 1);
        let sig = htb.signature();
        let ids: Vec<_> = sig.ids().collect();
        assert!(ids.contains(&t(1)) && ids.contains(&t(2)));
        assert!(!ids.contains(&t(3)));
    }

    #[test]
    fn overflow_is_ignored_not_evicted() {
        let mut htb = HotTranslationBuffer::new(2, 2);
        htb.record(t(1), 10);
        htb.record(t(2), 10);
        htb.record(t(3), 10_000); // buffer full: ignored
        assert_eq!(htb.len(), 2);
        assert_eq!(htb.overflowed(), 1);
        let ids: Vec<_> = htb.signature().ids().collect();
        assert!(!ids.contains(&t(3)));
    }

    #[test]
    fn flush_resets_window() {
        let mut htb = HotTranslationBuffer::paper_default();
        htb.record(t(1), 10);
        htb.flush();
        assert!(htb.is_empty());
        assert!(htb.signature().is_empty());
    }

    #[test]
    fn ties_break_deterministically() {
        let mut a = HotTranslationBuffer::new(8, 2);
        let mut b = HotTranslationBuffer::new(8, 2);
        for id in [5u32, 9, 1] {
            a.record(t(id), 7);
        }
        for id in [1u32, 5, 9] {
            b.record(t(id), 7);
        }
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn paper_storage_is_one_kib() {
        assert_eq!(HotTranslationBuffer::paper_default().storage_bytes(), 1024);
    }

    #[test]
    fn count_vector_is_sorted_and_counts_executions() {
        let mut htb = HotTranslationBuffer::paper_default();
        htb.record(t(9), 3);
        htb.record(t(2), 5);
        htb.record(t(9), 1);
        assert_eq!(htb.count_vector(), vec![(t(2), 1), (t(9), 2)]);
    }

    #[test]
    fn restore_rejects_a_translation_named_twice() {
        let mut w = powerchop_checkpoint::ByteWriter::new();
        w.put_usize(2);
        for _ in 0..2 {
            w.put_u32(7);
            w.put_u64(1);
            w.put_u64(10);
        }
        w.put_u64(0);
        let bytes = w.into_bytes();
        let mut htb = HotTranslationBuffer::paper_default();
        assert!(matches!(
            htb.restore_from(&mut powerchop_checkpoint::ByteReader::new(&bytes)),
            Err(powerchop_checkpoint::CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn zero_capacity_clamps_to_one_entry() {
        let mut htb = HotTranslationBuffer::new(0, 0);
        htb.record(t(1), 10);
        htb.record(t(2), 10);
        assert_eq!(htb.len(), 1);
        assert_eq!(htb.overflowed(), 1);
        assert_eq!(htb.signature().ids().count(), 1);
    }
}
