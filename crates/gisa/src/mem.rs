use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::inst::VLEN;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A multiply-shift hasher for page numbers. Every guest load and store
/// hits the page map, and the default SipHash would dominate that path.
/// Page numbers are already well-distributed small integers, so a single
/// Fibonacci multiply mixes plenty. Not DoS-resistant — irrelevant for a
/// simulator hashing its own address space. Map iteration order must
/// never reach an output: [`Memory::snapshot_to`] sorts.
#[derive(Debug, Default, Clone, Copy)]
struct MulShiftHasher(u64);

impl Hasher for MulShiftHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Page numbers arrive via write_u64; this byte loop only keeps
        // the trait's required method correct.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        // The high bits carry the mixing; HashMap keeps the low bits.
        self.0.rotate_left(32)
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<MulShiftHasher>>;

/// A sparse, paged, byte-addressable 64-bit memory.
///
/// Pages are allocated on first touch (reads of untouched memory return
/// zero), so workloads may use widely separated address regions without
/// cost. This models guest physical memory; cache behaviour is layered on
/// top by `powerchop-uarch`.
///
/// # Examples
///
/// ```
/// use powerchop_gisa::Memory;
///
/// let mut mem = Memory::new();
/// assert_eq!(mem.read_u64(0xdead_beef), 0);
/// mem.write_u64(0xdead_beef, 42);
/// assert_eq!(mem.read_u64(0xdead_beef), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: PageMap,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Memory::default()
    }

    /// Number of pages that have been touched by a write.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads a little-endian 64-bit word (any alignment).
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let [word] = self.read_words(addr);
        word
    }

    /// Writes a little-endian 64-bit word (any alignment).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_words(addr, [value]);
    }

    /// Reads a 64-bit word and reinterprets it as an `i64`.
    #[must_use]
    pub fn read_i64(&self, addr: u64) -> i64 {
        self.read_u64(addr) as i64
    }

    /// Writes an `i64` as a 64-bit word.
    pub fn write_i64(&mut self, addr: u64, value: i64) {
        self.write_u64(addr, value as u64);
    }

    /// Reads the `VLEN` words of a `vload` at `addr` into `lanes`: lane
    /// `i` is the little-endian word at `addr + 8 * i`, wrapping past the
    /// top of the address space, exactly as `VLEN` calls of
    /// [`Memory::read_i64`] would read it, but with one page lookup when
    /// the span lies inside one page. The lanes are written in place,
    /// not returned: a returned array comes back through memory when the
    /// call is not inlined, and the caller's wide reload of it stalls on
    /// the narrower stores that just wrote it.
    #[inline]
    pub fn read_vector(&self, addr: u64, lanes: &mut [i64; VLEN]) {
        *lanes = self.read_words(addr).map(|word: u64| word as i64);
    }

    /// Writes the `VLEN` words of a `vstore` at `addr`, the inverse of
    /// [`Memory::read_vector`]: the memory `VLEN` calls of
    /// [`Memory::write_i64`] would leave, with one page lookup when the
    /// span lies inside one page.
    #[inline]
    pub fn write_vector(&mut self, addr: u64, lanes: &[i64; VLEN]) {
        self.write_words(addr, lanes.map(|lane| lane as u64));
    }

    /// Reads the `N` little-endian words at `addr`, `addr + 8`, ...,
    /// wrapping past the top of the address space. A span inside one
    /// page costs one page lookup and allocates nothing; a span that
    /// straddles a page, or wraps, is read byte by byte.
    #[inline]
    fn read_words<const N: usize>(&self, addr: u64) -> [u64; N] {
        let mut words = [0; N];
        let offset = (addr & OFFSET_MASK) as usize;
        if offset + 8 * N <= PAGE_SIZE {
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                let spans = page[offset..offset + 8 * N].chunks_exact(8);
                for (word, span) in words.iter_mut().zip(spans) {
                    let mut bytes = [0u8; 8];
                    bytes.copy_from_slice(span);
                    *word = u64::from_le_bytes(bytes);
                }
            }
            return words;
        }
        for (i, word) in words.iter_mut().enumerate() {
            let mut bytes = [0u8; 8];
            for (j, b) in bytes.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add((8 * i + j) as u64));
            }
            *word = u64::from_le_bytes(bytes);
        }
        words
    }

    /// Writes `words` little-endian at `addr`, `addr + 8`, ..., the
    /// inverse of `read_words`: one page lookup when the span
    /// lies inside one page, else byte by byte, touching (and so
    /// allocating) exactly the pages the span covers.
    #[inline]
    fn write_words<const N: usize>(&mut self, addr: u64, words: [u64; N]) {
        let offset = (addr & OFFSET_MASK) as usize;
        if offset + 8 * N <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            let spans = page[offset..offset + 8 * N].chunks_exact_mut(8);
            for (span, word) in spans.zip(words) {
                span.copy_from_slice(&word.to_le_bytes());
            }
            return;
        }
        for (i, word) in words.iter().enumerate() {
            for (j, b) in word.to_le_bytes().into_iter().enumerate() {
                self.write_u8(addr.wrapping_add((8 * i + j) as u64), b);
            }
        }
    }

    /// Writes a byte slice starting at `base`.
    pub fn write_bytes(&mut self, base: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(base.wrapping_add(i as u64), *b);
        }
    }

    /// Serializes every resident page (sorted by page number, so the
    /// encoding is deterministic regardless of hash-map iteration order).
    pub fn snapshot_to(&self, w: &mut powerchop_checkpoint::ByteWriter) {
        let mut numbers: Vec<u64> = self.pages.keys().copied().collect();
        numbers.sort_unstable();
        w.put_usize(numbers.len());
        for n in numbers {
            w.put_u64(n);
            w.put_raw(&self.pages[&n][..]);
        }
    }

    /// Restores the memory image written by [`Memory::snapshot_to`],
    /// replacing all resident pages.
    ///
    /// # Errors
    ///
    /// Returns a [`powerchop_checkpoint::CheckpointError`] when the
    /// payload is truncated or malformed.
    pub fn restore_from(
        &mut self,
        r: &mut powerchop_checkpoint::ByteReader<'_>,
    ) -> Result<(), powerchop_checkpoint::CheckpointError> {
        let count = r.take_usize()?;
        self.pages.clear();
        for _ in 0..count {
            let n = r.take_u64()?;
            let bytes = r.take_raw(PAGE_SIZE)?;
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page.copy_from_slice(bytes);
            self.pages.insert(n, page);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u64(u64::MAX - 16), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn u64_round_trip() {
        let mut mem = Memory::new();
        mem.write_u64(0x40, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(0x40), 0x0102_0304_0506_0708);
        // little-endian byte order
        assert_eq!(mem.read_u8(0x40), 0x08);
        assert_eq!(mem.read_u8(0x47), 0x01);
    }

    #[test]
    fn cross_page_word_round_trip() {
        let mut mem = Memory::new();
        let addr = (1 << 12) - 3; // straddles the first page boundary
        mem.write_u64(addr, 0xdead_beef_cafe_f00d);
        assert_eq!(mem.read_u64(addr), 0xdead_beef_cafe_f00d);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn i64_round_trip_preserves_sign() {
        let mut mem = Memory::new();
        mem.write_i64(0x100, -12345);
        assert_eq!(mem.read_i64(0x100), -12345);
    }

    #[test]
    fn write_bytes_places_each_byte() {
        let mut mem = Memory::new();
        mem.write_bytes(10, &[1, 2, 3]);
        assert_eq!(mem.read_u8(10), 1);
        assert_eq!(mem.read_u8(11), 2);
        assert_eq!(mem.read_u8(12), 3);
        assert_eq!(mem.read_u8(13), 0);
    }

    #[test]
    fn distinct_pages_do_not_alias() {
        let mut mem = Memory::new();
        mem.write_u64(0, 1);
        mem.write_u64(1 << 12, 2);
        mem.write_u64(1 << 20, 3);
        assert_eq!(mem.read_u64(0), 1);
        assert_eq!(mem.read_u64(1 << 12), 2);
        assert_eq!(mem.read_u64(1 << 20), 3);
        assert_eq!(mem.resident_pages(), 3);
    }
}
