//! The versioned, byte-stable snapshot wire format.
//!
//! Every kernel checkpoint is one [`seal`]ed envelope:
//!
//! ```text
//! "RCSK" | format u32 | kind string | payload len u64 | payload | crc32 u32
//! ```
//!
//! All integers are little-endian; strings are length-prefixed UTF-8;
//! floats travel as their IEEE-754 bit patterns ([`f64::to_bits`]), so
//! a restored state is **bitwise** the captured state — the resume
//! equivalence contract is exact equality, not tolerance bands. The
//! trailing CRC32 covers everything before it.
//!
//! Decoding is total: corrupted, truncated or mis-typed bytes produce a
//! structured [`SnapshotError`], never a panic — a snapshot file is
//! external input, not trusted state.

use core::fmt;

/// Magic bytes opening every sealed snapshot.
pub const MAGIC: [u8; 4] = *b"RCSK";

/// Wire-format version. Bump on any layout change: an old reader must
/// reject a new snapshot (and vice versa) rather than misparse it.
/// v2: `SinkState` carries the span-tree state (nodes, elisions, open
/// stack) after the trace channels.
/// v3: `SinkState` drops the float-histogram block that sat between
/// the histograms and the trace channels.
/// v4: the fault-drill payload carries the relinearization seed (the
/// last converged steady state) after the linearization cache key.
/// v5: the cache key's discrete part (seized pumps, valve, utilization,
/// powered) travels ahead of its continuous part, and the seed is
/// followed by its history: up to two earlier steady states, their scan
/// times and the regime they were solved in.
pub const FORMAT_VERSION: u32 = 5;

/// A structured snapshot decoding failure. Every variant names what the
/// reader expected and what it found, so a corrupted checkpoint is
/// diagnosable from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before a field was complete.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The leading magic bytes are not `RCSK`.
    BadMagic,
    /// The snapshot was written by a different format version.
    BadVersion {
        /// Version found in the envelope.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The snapshot holds a different session kind than requested.
    BadKind {
        /// Kind tag found in the envelope.
        found: String,
        /// Kind tag the caller asked for.
        expected: String,
    },
    /// The checksum does not match the bytes — bit rot or tampering.
    BadCrc {
        /// Checksum stored in the envelope.
        stored: u32,
        /// Checksum recomputed over the received bytes.
        computed: u32,
    },
    /// The bytes decoded but violate an invariant of the field.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} more byte(s), {available} available"
            ),
            Self::BadMagic => write!(f, "snapshot magic mismatch: not an RCSK snapshot"),
            Self::BadVersion { found, supported } => write!(
                f,
                "snapshot format version {found} unsupported (this reader supports {supported})"
            ),
            Self::BadKind { found, expected } => write!(
                f,
                "snapshot kind mismatch: found {found:?}, expected {expected:?}"
            ),
            Self::BadCrc { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::Malformed(why) => write!(f, "snapshot malformed: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
/// Vendored table-free bitwise form: the snapshots are kilobytes, not
/// gigabytes, so simplicity beats a lookup table.
#[must_use]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Little-endian append-only encoder for snapshot payloads.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the raw payload bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (the format is platform-independent).
    pub fn count(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `f64` as its IEEE bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an optional `f64`: a presence byte, then the bits.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.f64(x);
            }
            None => self.bool(false),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice, element-wise bit patterns.
    pub fn f64_slice(&mut self, vs: &[f64]) {
        self.count(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, vs: &[u64]) {
        self.count(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }
}

/// Bounds-checked little-endian decoder over a payload slice. Every
/// method returns [`SnapshotError::Truncated`] instead of reading past
/// the end.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed — decoders check this
    /// to reject trailing garbage.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length written by [`SnapWriter::count`], sanity-bounded by
    /// the bytes actually remaining (a length cannot exceed the stream,
    /// so a corrupt length fails fast instead of attempting a huge
    /// allocation).
    pub fn count(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        let v = usize::try_from(v)
            .map_err(|_| SnapshotError::Malformed(format!("length {v} overflows usize")))?;
        if v > self.remaining() {
            return Err(SnapshotError::Truncated {
                needed: v,
                available: self.remaining(),
            });
        }
        Ok(v)
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!(
                "bool byte must be 0 or 1, got {other}"
            ))),
        }
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an optional `f64` written by [`SnapWriter::opt_f64`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        if self.bool()? {
            Ok(Some(self.f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.count()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not valid UTF-8".to_owned()))
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.count()?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.count()?;
        (0..n).map(|_| self.u64()).collect()
    }
}

/// Wraps a payload in the versioned envelope: magic, format version,
/// session `kind` tag, payload length, payload, CRC32 of everything
/// before the checksum.
#[must_use]
pub fn seal(kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + kind.len() + 32);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(kind.len() as u64).to_le_bytes());
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Opens a sealed envelope: verifies magic, version, `kind` and CRC,
/// and returns the payload slice.
///
/// # Errors
///
/// Any [`SnapshotError`] variant, depending on what is wrong with the
/// bytes. Never panics.
pub fn open<'a>(kind: &str, bytes: &'a [u8]) -> Result<&'a [u8], SnapshotError> {
    // The checksum trailer is validated first (over everything before
    // it), so any later mismatch is a genuine format problem, not rot.
    if bytes.len() < 4 {
        return Err(SnapshotError::Truncated {
            needed: 4,
            available: bytes.len(),
        });
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let mut r = SnapReader::new(body);
    let magic = r.take(4).map_err(|_| SnapshotError::Truncated {
        needed: 4,
        available: body.len(),
    })?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let found_kind = r.str()?;
    let payload_len = r.count()?;
    let payload_start = body.len() - r.remaining();
    let payload = r.take(payload_len)?;
    if !r.is_exhausted() {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing byte(s) after the payload",
            r.remaining()
        )));
    }
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let computed = crc32(body);
    if stored != computed {
        return Err(SnapshotError::BadCrc { stored, computed });
    }
    if found_kind != kind {
        return Err(SnapshotError::BadKind {
            found: found_kind,
            expected: kind.to_owned(),
        });
    }
    let _ = payload_start;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard check vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip_bitwise() {
        let mut w = SnapWriter::new();
        w.u8(7);
        // a `u32` as `seal` writes the format version: little-endian
        for b in 0xDEAD_BEEF_u32.to_le_bytes() {
            w.u8(b);
        }
        w.u64(u64::MAX);
        w.bool(true);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.opt_f64(None);
        w.opt_f64(Some(3.5));
        w.str("chip field");
        w.f64_slice(&[1.5, f64::INFINITY]);
        w.u64_slice(&[0, 9]);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap(), Some(3.5));
        assert_eq!(r.str().unwrap(), "chip field");
        let fs = r.f64_vec().unwrap();
        assert_eq!(fs[0], 1.5);
        assert!(fs[1].is_infinite());
        assert_eq!(r.u64_vec().unwrap(), vec![0, 9]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn seal_and_open_round_trip() {
        let sealed = seal("test.kind", b"payload bytes");
        assert_eq!(open("test.kind", &sealed).unwrap(), b"payload bytes");
    }

    #[test]
    fn every_corruption_is_a_structured_error_never_a_panic() {
        let sealed = seal("test.kind", b"payload bytes");

        // Wrong kind.
        assert!(matches!(
            open("other.kind", &sealed),
            Err(SnapshotError::BadKind { .. })
        ));
        // Truncation at every possible length.
        for n in 0..sealed.len() {
            let err = open("test.kind", &sealed[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::BadCrc { .. }
                        | SnapshotError::Malformed(_)
                ),
                "truncation at {n} gave {err:?}"
            );
        }
        // A flipped bit anywhere lands on a structured error.
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(open("test.kind", &bad).is_err(), "flip at byte {i}");
        }
        // Wrong version is named specifically — the previous layout's
        // version too, so an old checkpoint is never misread.
        for (version, found) in [(99, 99), (FORMAT_VERSION - 1, 4)] {
            let mut bad = sealed.clone();
            bad[4..8].copy_from_slice(&version.to_le_bytes());
            let body_len = bad.len() - 4;
            let crc = crc32(&bad[..body_len]).to_le_bytes();
            bad[body_len..].copy_from_slice(&crc);
            assert_eq!(
                open("test.kind", &bad),
                Err(SnapshotError::BadVersion {
                    found,
                    supported: 5
                })
            );
        }
        // Garbage magic.
        assert!(matches!(
            open("test.kind", b"NOPE....but long enough to not truncate"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn corrupt_lengths_fail_fast_without_allocating() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            r.count(),
            Err(SnapshotError::Malformed(_) | SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn errors_render_diagnosably() {
        let e = SnapshotError::BadCrc {
            stored: 1,
            computed: 2,
        };
        let text = e.to_string();
        assert!(text.contains("checksum"), "{text}");
        let e = SnapshotError::BadKind {
            found: "a".into(),
            expected: "b".into(),
        };
        assert!(e.to_string().contains("expected"), "{}", e);
    }
}
