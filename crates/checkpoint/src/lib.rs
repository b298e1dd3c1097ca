//! A versioned, checksummed, self-describing binary snapshot format.
//!
//! Every state-bearing crate in the workspace serializes its private
//! state through this crate so a running simulation can be frozen to
//! disk and resumed bit-identically. The container is deliberately
//! simple and dependency-free:
//!
//! ```text
//! magic          8 bytes   b"PWCHKPT1"
//! format version u32 LE    [`FORMAT_VERSION`]
//! config hash    u64 LE    FNV-1a over the canonical run-config encoding
//! section count  u32 LE
//! per section:
//!   tag          u32 LE    owner-defined section identifier
//!   length       u64 LE    payload bytes
//!   crc32        u32 LE    CRC-32 (IEEE) of the payload
//!   payload      LE-encoded fields written with [`ByteWriter`]
//! file crc32     u32 LE    CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! The trailing whole-file CRC catches damage the per-section CRCs
//! cannot see (the header and the section table itself); the per-section
//! CRCs remain for defence in depth and section-level diagnostics.
//!
//! Everything is little-endian; floats travel as their IEEE-754 bit
//! patterns so restored values are bit-identical. Corrupt, truncated,
//! version-skewed or config-mismatched snapshots surface as typed
//! [`CheckpointError`]s — decoding never panics, whatever the bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"PWCHKPT1";

/// Current snapshot format version. Bump on any incompatible layout
/// change; readers reject other versions with
/// [`CheckpointError::VersionSkew`]. Version 2 stores the region cache as
/// resident heads only; version 1 stored every translation's trace.
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The byte stream ended before a declared field or section.
    Truncated,
    /// The magic prefix is wrong: not a snapshot at all.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    VersionSkew {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The whole-file CRC trailer failed: the container is damaged
    /// somewhere outside a section payload (header or section table),
    /// or the trailer itself was hit.
    CorruptContainer,
    /// A section's payload failed its CRC check.
    CorruptSection {
        /// Tag of the failing section.
        tag: u32,
    },
    /// A section the restore path requires is absent.
    MissingSection {
        /// Tag of the absent section.
        tag: u32,
    },
    /// A payload decoded but its contents are semantically invalid
    /// (bad discriminant, impossible length, trailing bytes, ...).
    Malformed {
        /// What was being decoded when the check failed.
        what: &'static str,
    },
    /// The snapshot was taken under a different run configuration.
    ConfigMismatch {
        /// Config hash found in the snapshot header.
        found: u64,
        /// Config hash of the configuration attempting the restore.
        expected: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "snapshot truncated"),
            CheckpointError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            CheckpointError::VersionSkew { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            CheckpointError::CorruptContainer => {
                write!(f, "snapshot container failed its whole-file CRC check")
            }
            CheckpointError::CorruptSection { tag } => {
                write!(f, "section {tag:#x} failed its CRC check")
            }
            CheckpointError::MissingSection { tag } => {
                write!(f, "required section {tag:#x} is missing")
            }
            CheckpointError::Malformed { what } => {
                write!(f, "malformed snapshot field: {what}")
            }
            CheckpointError::ConfigMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot config hash {found:#018x} does not match run config {expected:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Slicing-by-8 CRC-32 lookup tables, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte's contribution past `k` further zero bytes, so eight
/// lookups fold one 8-byte word.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(crc32_begin(), bytes))
}

/// Starts a streaming CRC-32 computation (the pre-inversion seed).
/// Feed chunks through [`crc32_update`] and close with [`crc32_finish`];
/// the result equals [`crc32`] over the concatenated chunks, with no
/// intermediate buffer. The write-ahead journal uses this to checksum a
/// frame header and payload without gluing them together first.
#[must_use]
pub fn crc32_begin() -> u32 {
    !0u32
}

/// Folds `bytes` into a streaming CRC-32 state from [`crc32_begin`].
/// Eight bytes at a time (slicing-by-8), then the tail bytewise; the
/// result is the bytewise CRC exactly.
#[must_use]
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// Closes a streaming CRC-32 state into the final checksum.
#[must_use]
pub fn crc32_finish(crc: u32) -> u32 {
    !crc
}

/// FNV-1a 64-bit hash, used for config and program fingerprints.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Combines the two fingerprints that fully identify a simulation's
/// input — the guest program's and the run configuration's — into one
/// 128-bit key (program in the high half). Snapshots bind to the config
/// fingerprint alone (the program can be re-derived from the embedded
/// metadata); result caches key on both, because two different programs
/// can legitimately share a configuration.
#[must_use]
pub fn run_key(program_fingerprint: u64, config_fingerprint: u64) -> u128 {
    (u128::from(program_fingerprint) << 64) | u128::from(config_fingerprint)
}

/// Little-endian field writer backing every section payload.
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u64` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Writes a UTF-8 string (length-prefixed).
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Little-endian field reader over a section payload.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `n` raw bytes (no length prefix).
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an `i64`.
    pub fn take_i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(self.take_u64()? as i64)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is malformed.
    pub fn take_bool(&mut self) -> Result<bool, CheckpointError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed { what: "bool" }),
        }
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn take_usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.take_u64()?).map_err(|_| CheckpointError::Malformed { what: "usize" })
    }

    /// Reads a length-prefixed byte slice.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.take_usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, CheckpointError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::Malformed { what: "utf-8" })
    }

    /// Asserts that the payload has been fully consumed; trailing bytes
    /// mean writer and reader disagree about the layout.
    pub fn expect_end(&self, what: &'static str) -> Result<(), CheckpointError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::Malformed { what })
        }
    }
}

/// Builds one snapshot: header plus CRC-protected sections.
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    config_hash: u64,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot bound to `config_hash` (the canonical hash of
    /// the run configuration; restore rejects any other).
    #[must_use]
    pub fn new(config_hash: u64) -> Self {
        SnapshotWriter {
            config_hash,
            sections: Vec::new(),
        }
    }

    /// Appends a section, letting `fill` encode the payload.
    pub fn section(&mut self, tag: u32, fill: impl FnOnce(&mut ByteWriter)) {
        let mut w = ByteWriter::new();
        fill(&mut w);
        self.sections.push((tag, w.into_bytes()));
    }

    /// Serializes the snapshot container.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let file_crc = crc32(&out);
        out.extend_from_slice(&file_crc.to_le_bytes());
        out
    }
}

/// A parsed, CRC-verified snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot<'a> {
    config_hash: u64,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> Snapshot<'a> {
    /// Parses and validates a snapshot: magic, version, section table
    /// and every section CRC. Any defect is a typed error, never a
    /// panic.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::VersionSkew {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        // The last 4 bytes are a CRC over everything before them; verify
        // it up front so damage anywhere in the container — including the
        // section table, which per-section CRCs cannot see — is caught.
        if bytes.len() < 16 {
            return Err(CheckpointError::Truncated);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if crc32(body) != expected {
            return Err(CheckpointError::CorruptContainer);
        }
        let mut r = ByteReader::new(body);
        r.take(12)?; // magic + version, validated above
        let config_hash = r.take_u64()?;
        let count = r.take_u32()?;
        let mut sections = Vec::new();
        for _ in 0..count {
            let tag = r.take_u32()?;
            let len = r.take_usize()?;
            let crc = r.take_u32()?;
            let payload = r.take(len)?;
            if crc32(payload) != crc {
                return Err(CheckpointError::CorruptSection { tag });
            }
            sections.push((tag, payload));
        }
        if !r.is_empty() {
            return Err(CheckpointError::Malformed {
                what: "trailing bytes after last section",
            });
        }
        Ok(Snapshot {
            config_hash,
            sections,
        })
    }

    /// The config hash recorded when the snapshot was taken.
    #[must_use]
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// Rejects the snapshot unless it was taken under `expected`.
    pub fn require_config(&self, expected: u64) -> Result<(), CheckpointError> {
        if self.config_hash == expected {
            Ok(())
        } else {
            Err(CheckpointError::ConfigMismatch {
                found: self.config_hash,
                expected,
            })
        }
    }

    /// A reader over the payload of section `tag`.
    pub fn section(&self, tag: u32) -> Result<ByteReader<'a>, CheckpointError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| ByteReader::new(payload))
            .ok_or(CheckpointError::MissingSection { tag })
    }

    /// Whether section `tag` is present.
    #[must_use]
    pub fn has_section(&self, tag: u32) -> bool {
        self.sections.iter().any(|(t, _)| *t == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time CRC-32 the sliced loop replaced, kept as the
    /// reference it must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = crc32_begin();
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc32_finish(crc)
    }

    /// Deterministic non-repeating filler bytes.
    fn filler(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let data = filler(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {start}, length {len}"
                );
            }
        }
        let big = filler(3 << 20);
        assert_eq!(crc32(&big), crc32_bytewise(&big), "3 MiB buffer");
    }

    #[test]
    fn streaming_crc32_equals_one_shot_at_every_split() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc32(data);
        for split in 0..=data.len() {
            let mut crc = crc32_begin();
            crc = crc32_update(crc, &data[..split]);
            crc = crc32_update(crc, &data[split..]);
            assert_eq!(crc32_finish(crc), whole, "split at {split}");
        }
    }

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn run_keys_separate_program_and_config_halves() {
        assert_eq!(run_key(1, 2), (1u128 << 64) | 2);
        assert_ne!(run_key(1, 2), run_key(2, 1), "the halves are ordered");
        assert_ne!(run_key(7, 0), run_key(0, 7));
        assert_eq!(run_key(u64::MAX, u64::MAX), u128::MAX);
    }

    #[test]
    fn fields_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_i64().unwrap(), -42);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.125f64).to_bits());
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_str().unwrap(), "hello");
        assert_eq!(r.take_bytes().unwrap(), &[1, 2, 3]);
        assert!(r.expect_end("test").is_ok());
    }

    #[test]
    fn reading_past_the_end_is_truncated() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.take_u64().unwrap_err(), CheckpointError::Truncated);
    }

    #[test]
    fn snapshot_round_trips_sections() {
        let mut w = SnapshotWriter::new(0x1234);
        w.section(1, |w| w.put_u64(99));
        w.section(2, |w| w.put_str("two"));
        let bytes = w.finish();
        let snap = Snapshot::parse(&bytes).unwrap();
        assert_eq!(snap.config_hash(), 0x1234);
        assert!(snap.require_config(0x1234).is_ok());
        assert_eq!(
            snap.require_config(0x9999).unwrap_err(),
            CheckpointError::ConfigMismatch {
                found: 0x1234,
                expected: 0x9999
            }
        );
        assert_eq!(snap.section(1).unwrap().take_u64().unwrap(), 99);
        assert_eq!(snap.section(2).unwrap().take_str().unwrap(), "two");
        assert_eq!(
            snap.section(3).unwrap_err(),
            CheckpointError::MissingSection { tag: 3 }
        );
    }

    #[test]
    fn every_single_byte_flip_is_a_typed_error() {
        let mut w = SnapshotWriter::new(42);
        w.section(1, |w| {
            w.put_u64(7);
            w.put_str("payload");
        });
        w.section(9, |w| w.put_bool(false));
        let good = w.finish();
        assert!(Snapshot::parse(&good).is_ok());
        for i in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[i] ^= 1 << bit;
                // The whole-file CRC trailer guarantees any single-bit
                // flip fails parse outright with a typed error.
                assert!(
                    Snapshot::parse(&bad).is_err(),
                    "flip at byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn an_older_format_version_is_version_skew() {
        let mut w = SnapshotWriter::new(42);
        w.section(1, |w| w.put_u64(7));
        let mut old = w.finish();
        // Rewrite the header's version to 1 and reseal the file CRC, so
        // only the version check can refuse it.
        old[8..12].copy_from_slice(&1u32.to_le_bytes());
        let body = old.len() - 4;
        let crc = crc32(&old[..body]);
        old[body..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Snapshot::parse(&old).unwrap_err(),
            CheckpointError::VersionSkew {
                found: 1,
                expected: 2
            }
        );
        assert_eq!(
            CheckpointError::VersionSkew {
                found: 1,
                expected: FORMAT_VERSION
            }
            .to_string(),
            "snapshot format v1, this build reads v2"
        );
    }

    #[test]
    fn truncations_never_panic() {
        let mut w = SnapshotWriter::new(0);
        w.section(5, |w| w.put_u64(123));
        let good = w.finish();
        for len in 0..good.len() {
            assert!(Snapshot::parse(&good[..len]).is_err());
        }
    }
}
