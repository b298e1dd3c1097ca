//! Differential test of the dense-list, slot-table
//! [`HotTranslationBuffer`] against the `HashMap` buffer it replaced,
//! kept here as a test-only reference. Both are driven with the same
//! seeded records, flushes, overflowing windows and snapshot/restore
//! round trips, over IDs inside and far outside the slot table; every
//! signature, count vector, length, overflow count and snapshot byte
//! must agree.

use std::collections::HashMap;

use powerchop::htb::HotTranslationBuffer;
use powerchop::phase::PhaseSignature;
use powerchop_bt::TranslationId;
use powerchop_checkpoint::{ByteReader, ByteWriter, CheckpointError};
use powerchop_faults::check::cases;
use powerchop_faults::SimRng;

/// The HTB as it was before the slot table: a map from translation to
/// (executions, instructions), sorted by every reader.
struct RefHtb {
    counts: HashMap<TranslationId, (u64, u64)>,
    capacity: usize,
    signature_len: usize,
    overflowed: u64,
}

impl RefHtb {
    fn new(capacity: usize, signature_len: usize) -> Self {
        RefHtb {
            counts: HashMap::new(),
            capacity: capacity.max(1),
            signature_len: signature_len.max(1),
            overflowed: 0,
        }
    }

    fn record(&mut self, id: TranslationId, instructions: u64) {
        if let Some((execs, insts)) = self.counts.get_mut(&id) {
            *execs += 1;
            *insts += instructions;
        } else if self.counts.len() < self.capacity {
            self.counts.insert(id, (1, instructions));
        } else {
            self.overflowed += 1;
        }
    }

    fn signature(&self) -> PhaseSignature {
        let mut entries: Vec<(TranslationId, u64)> = self
            .counts
            .iter()
            .map(|(id, (_, insts))| (*id, *insts))
            .collect();
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(self.signature_len);
        let ids: Vec<TranslationId> = entries.into_iter().map(|(id, _)| id).collect();
        PhaseSignature::new(&ids)
    }

    fn count_vector(&self) -> Vec<(TranslationId, u64)> {
        let mut v: Vec<_> = self
            .counts
            .iter()
            .map(|(id, (execs, _))| (*id, *execs))
            .collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    fn snapshot_to(&self, w: &mut ByteWriter) {
        let mut entries: Vec<(TranslationId, (u64, u64))> =
            self.counts.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        w.put_usize(entries.len());
        for (id, (execs, insts)) in entries {
            w.put_u32(id.0);
            w.put_u64(execs);
            w.put_u64(insts);
        }
        w.put_u64(self.overflowed);
    }

    fn restore_from(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        let count = r.take_usize()?;
        if count > self.capacity {
            return Err(CheckpointError::Malformed {
                what: "HTB entry count exceeds capacity",
            });
        }
        self.counts.clear();
        for _ in 0..count {
            let id = TranslationId(r.take_u32()?);
            let execs = r.take_u64()?;
            let insts = r.take_u64()?;
            self.counts.insert(id, (execs, insts));
        }
        self.overflowed = r.take_u64()?;
        Ok(())
    }
}

fn snapshot_of(write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write(&mut w);
    w.into_bytes()
}

fn assert_same(new: &HotTranslationBuffer, old: &RefHtb, what: &str) {
    assert_eq!(new.signature(), old.signature(), "{what}: signature");
    assert_eq!(
        new.count_vector(),
        old.count_vector(),
        "{what}: count vector"
    );
    assert_eq!(new.len(), old.counts.len(), "{what}: len");
    assert_eq!(new.overflowed(), old.overflowed, "{what}: overflowed");
}

fn assert_same_bytes(new: &HotTranslationBuffer, old: &RefHtb, what: &str) {
    assert_eq!(
        snapshot_of(|w| new.snapshot_to(w)),
        snapshot_of(|w| old.snapshot_to(w)),
        "{what}: snapshot bytes"
    );
}

/// A translation ID: mostly a small head PC from a pool a little larger
/// than the buffer (so windows overflow), sometimes one near or past
/// the slot table's reach, or anywhere in `u32`.
fn id(rng: &mut SimRng, pool: u64) -> TranslationId {
    TranslationId(match rng.gen_range(20) {
        0 => rng.next_u64() as u32,
        1 => (1 << 16) - 2 + rng.gen_range(4) as u32,
        2 => u32::MAX - rng.gen_range(3) as u32,
        _ => rng.gen_range(pool) as u32,
    })
}

#[test]
fn slot_table_htb_matches_the_hash_map_reference() {
    for (capacity, signature_len) in [(1, 1), (4, 2), (16, 4), (128, 4)] {
        cases(&format!("HTB, {capacity} entries"), 24, |rng| {
            let pool = capacity as u64 + 1 + rng.gen_range(2 * capacity as u64);
            let mut new = HotTranslationBuffer::new(capacity, signature_len);
            let mut old = RefHtb::new(capacity, signature_len);
            let mut earlier = snapshot_of(|w| old.snapshot_to(w));
            for step in 0..2_000 {
                let what = format!("{capacity} entries, step {step}");
                match rng.gen_range(100) {
                    0..=2 => {
                        new.flush();
                        old.counts.clear();
                    }
                    3 => earlier = snapshot_of(|w| old.snapshot_to(w)),
                    // Restore in place, over whatever this window holds.
                    4 => {
                        new.restore_from(&mut ByteReader::new(&earlier))
                            .expect("the HTB restores the reference's snapshot");
                        old.restore_from(&mut ByteReader::new(&earlier))
                            .expect("the reference restores its own snapshot");
                    }
                    // Restore into a fresh buffer.
                    5 => {
                        let bytes = snapshot_of(|w| new.snapshot_to(w));
                        new = HotTranslationBuffer::new(capacity, signature_len);
                        new.restore_from(&mut ByteReader::new(&bytes))
                            .expect("the HTB restores its own snapshot");
                    }
                    _ => {
                        let id = id(rng, pool);
                        let instructions = 1 + rng.gen_range(64);
                        new.record(id, instructions);
                        old.record(id, instructions);
                    }
                }
                assert_same(&new, &old, &what);
                if step % 25 == 0 {
                    assert_same_bytes(&new, &old, &what);
                }
            }
            assert_same_bytes(&new, &old, &format!("{capacity} entries, end"));
        });
    }
}
