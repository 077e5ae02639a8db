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

/// The symmetric snapshot codec. A snapshot type states its wire
/// layout once, in one function that hands every field to the codec by
/// `&mut`: a writing codec appends the field, a reading codec overwrites
/// it with the decoded value. `checkpoint` and `resume` run that same
/// function, so the reader cannot drift from the writer.
///
/// All integers are little-endian, `f64`s travel as their bit patterns,
/// and every length is a `u64` prefix. Reading is total: a short stream
/// is [`SnapshotError::Truncated`] and an impossible value
/// [`SnapshotError::Malformed`], never a panic. Writing never fails.
#[derive(Debug)]
pub struct Codec<'a> {
    /// The payload written so far; `None` on a reader.
    out: Option<Vec<u8>>,
    /// The bytes a reader has not consumed yet; empty on a writer.
    rest: &'a [u8],
}

/// Result of one codec call.
type Coded = Result<(), SnapshotError>;

impl<'a> Codec<'a> {
    /// A codec appending to an empty payload.
    pub(crate) fn writer() -> Self {
        Self {
            out: Some(Vec::new()),
            rest: &[],
        }
    }

    /// A codec decoding `payload` from its start.
    pub(crate) fn reader(payload: &'a [u8]) -> Self {
        Self {
            out: None,
            rest: payload,
        }
    }

    /// The payload written so far (empty on a reader).
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.out.unwrap_or_default()
    }

    /// `true` when this codec decodes.
    fn is_reading(&self) -> bool {
        self.out.is_none()
    }

    /// Rejects bytes a reader has not consumed, naming what they follow.
    pub(crate) fn finish(&self, after: &str) -> Coded {
        let n = self.rest.len();
        self.ensure(n == 0, || format!("{n} trailing byte(s) after {after}"))
    }

    /// Splits the next `n` bytes off a reader's stream.
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.rest.len();
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(SnapshotError::Truncated {
                needed: n,
                available,
            })?;
        self.rest = rest;
        Ok(head)
    }

    /// A fixed-width value as its little-endian bytes `to` makes and
    /// `from` reads back.
    fn le<T: Copy, const N: usize>(
        &mut self,
        v: &mut T,
        to: fn(T) -> [u8; N],
        from: fn([u8; N]) -> T,
    ) -> Coded {
        let mut bytes = to(*v);
        match &mut self.out {
            Some(out) => out.extend_from_slice(&bytes),
            None => bytes.copy_from_slice(self.take(N)?),
        }
        *v = from(bytes);
        Ok(())
    }

    /// Rejects a decoded value as [`SnapshotError::Malformed`]`(why())`
    /// unless `ok`. A writer checks nothing: a live state holds its
    /// invariants by construction, and a test may seal a broken one on
    /// purpose to prove the reader refuses it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a reader when `ok` is false.
    pub fn ensure(&self, ok: bool, why: impl FnOnce() -> String) -> Coded {
        if ok || !self.is_reading() {
            return Ok(());
        }
        Err(SnapshotError::Malformed(why()))
    }

    /// One byte.
    fn u8(&mut self, v: &mut u8) -> Coded {
        self.le(v, u8::to_le_bytes, u8::from_le_bytes)
    }

    /// A `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the stream has ended.
    pub fn u64(&mut self, v: &mut u64) -> Coded {
        self.le(v, u64::to_le_bytes, u64::from_le_bytes)
    }

    /// A `usize` as a `u64` (the format is platform-independent).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`], or [`SnapshotError::Malformed`] for
    /// a value this platform's `usize` cannot hold.
    pub fn usize(&mut self, v: &mut usize) -> Coded {
        let mut raw = *v as u64;
        self.u64(&mut raw)?;
        *v = usize::try_from(raw)
            .map_err(|_| SnapshotError::Malformed(format!("{raw} overflows usize")))?;
        Ok(())
    }

    /// A length prefix. A reader bounds it by the bytes remaining (a
    /// length cannot exceed the stream), so a corrupt length fails fast
    /// instead of attempting a huge allocation.
    ///
    /// # Errors
    ///
    /// As [`Codec::usize`], or [`SnapshotError::Truncated`] when the
    /// length exceeds the bytes remaining.
    pub fn count(&mut self, n: &mut usize) -> Coded {
        self.usize(n)?;
        let available = self.rest.len();
        if self.is_reading() && *n > available {
            return Err(SnapshotError::Truncated {
                needed: *n,
                available,
            });
        }
        Ok(())
    }

    /// A bool as one byte, 0 or 1.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`], or [`SnapshotError::Malformed`] for
    /// any other byte.
    pub fn bool(&mut self, v: &mut bool) -> Coded {
        let mut b = u8::from(*v);
        self.u8(&mut b)?;
        self.ensure(b <= 1, || format!("bool byte must be 0 or 1, got {b}"))?;
        *v = b == 1;
        Ok(())
    }

    /// An `f64` as its IEEE bit pattern, so a decoded float is bitwise
    /// the encoded one, NaN payloads and `-0.0` included.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when the stream has ended.
    pub fn f64(&mut self, v: &mut f64) -> Coded {
        self.le(v, f64::to_le_bytes, f64::from_le_bytes)
    }

    /// A value stored as one `f64` behind a type such as a unit: `get`
    /// yields the float, `set` rebuilds the value from it.
    ///
    /// # Errors
    ///
    /// As [`Codec::f64`].
    pub fn f64_as<T: Copy>(
        &mut self,
        v: &mut T,
        get: impl FnOnce(T) -> f64,
        set: impl FnOnce(f64) -> T,
    ) -> Coded {
        let mut x = get(*v);
        self.f64(&mut x)?;
        *v = set(x);
        Ok(())
    }

    /// A length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// As [`Codec::count`], or [`SnapshotError::Malformed`] for bytes
    /// that are not UTF-8.
    pub fn str(&mut self, s: &mut String) -> Coded {
        let mut bytes = s.as_bytes().to_vec();
        self.vec(&mut bytes, Self::u8)?;
        *s = String::from_utf8(bytes)
            .map_err(|_| SnapshotError::Malformed("string is not valid UTF-8".to_owned()))?;
        Ok(())
    }

    /// An enum's variant tag: one byte below `variants`. The layout then
    /// codes the tagged variant's fields and rebuilds the enum from them.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`], or [`SnapshotError::Malformed`]
    /// naming `what` for a tag no variant has.
    pub fn tag(&mut self, tag: &mut u8, variants: u8, what: &str) -> Coded {
        self.u8(tag)?;
        self.ensure(*tag < variants, || format!("unknown {what} tag {tag}"))
    }

    /// An optional value: a presence bool, then the value by `each`.
    ///
    /// # Errors
    ///
    /// As [`Codec::bool`], or whatever `each` returns.
    pub fn option<T: Default>(
        &mut self,
        v: &mut Option<T>,
        each: impl FnOnce(&mut Self, &mut T) -> Coded,
    ) -> Coded {
        let mut present = v.is_some();
        self.bool(&mut present)?;
        if self.is_reading() {
            *v = present.then(T::default);
        }
        v.as_mut().map_or(Ok(()), |x| each(self, x))
    }

    /// A length-prefixed vector, each element by `each`.
    ///
    /// # Errors
    ///
    /// As [`Codec::count`], or whatever `each` returns.
    pub fn vec<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        each: impl FnMut(&mut Self, &mut T) -> Coded,
    ) -> Coded {
        let mut n = v.len();
        self.count(&mut n)?;
        self.items(v, n, each)
    }

    /// `n` elements with no length prefix, for a length an earlier field
    /// already fixed. A writer codes every element of `v`; a reader
    /// replaces `v` with `n` decoded ones.
    ///
    /// # Errors
    ///
    /// Whatever `each` returns.
    pub fn items<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        n: usize,
        mut each: impl FnMut(&mut Self, &mut T) -> Coded,
    ) -> Coded {
        if self.is_reading() {
            v.clear();
            v.resize_with(n, T::default);
        }
        v.iter_mut().try_for_each(|x| each(self, x))
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
    let mut r = Codec::reader(body);
    let (mut magic, mut version) = ([0; 4], 0);
    r.le(&mut magic, |b| b, |b| b)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    r.le(&mut version, u32::to_le_bytes, u32::from_le_bytes)?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let mut found_kind = String::new();
    r.str(&mut found_kind)?;
    let mut payload_len = 0;
    r.count(&mut payload_len)?;
    let payload = &r.rest[..payload_len];
    if r.rest.len() > payload_len {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing byte(s) after the payload",
            r.rest.len() - payload_len
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

    /// One field of every kind the codec knows.
    type Fields = (
        u8,
        u64,
        usize,
        bool,
        f64,
        f64,
        Option<f64>,
        Option<f64>,
        String,
        Vec<f64>,
        u8,
    );

    fn layout(c: &mut Codec<'_>, fields: &mut Fields) -> Coded {
        let (byte, word, index, flag, zero, nan, none, some, name, floats, tag) = fields;
        c.u8(byte)?;
        c.u64(word)?;
        c.usize(index)?;
        c.bool(flag)?;
        c.f64(zero)?;
        c.f64(nan)?;
        c.option(none, Codec::f64)?;
        c.option(some, Codec::f64)?;
        c.str(name)?;
        c.vec(floats, Codec::f64)?;
        c.tag(tag, 3, "test")
    }

    fn write(mut fields: Fields) -> Vec<u8> {
        let mut w = Codec::writer();
        layout(&mut w, &mut fields).unwrap();
        w.into_bytes()
    }

    fn read(bytes: &[u8]) -> Result<Fields, SnapshotError> {
        let (mut r, mut fields) = (Codec::reader(bytes), Fields::default());
        layout(&mut r, &mut fields)?;
        r.finish("the test fields")?;
        Ok(fields)
    }

    #[test]
    fn one_layout_writes_and_reads_every_field_bitwise() {
        let name = "chip field".to_owned();
        let fields = (
            7,
            u64::MAX,
            12,
            true,
            -0.0,
            f64::NAN,
            None,
            Some(3.5),
            name,
            vec![1.5],
            2,
        );
        let bytes = write(fields.clone());
        // little-endian, fixed width
        assert_eq!(
            bytes[..17],
            [[7].as_slice(), &[0xFF; 8], &12u64.to_le_bytes()].concat()
        );
        let back = read(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{fields:?}"));
        assert_eq!(write(back), bytes, "a decoded value re-encodes bitwise");
    }

    #[test]
    fn a_reader_rejects_what_no_writer_writes() {
        let bytes = write(Fields::default());
        let (bool_at, tag_at) = (1 + 8 + 8, bytes.len() - 1);
        for (at, byte, what) in [(bool_at, 2, "bool byte"), (tag_at, 3, "unknown test tag 3")] {
            let mut bad = bytes.clone();
            bad[at] = byte;
            match read(&bad) {
                Err(SnapshotError::Malformed(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: {other:?}"),
            }
        }
        for n in 0..bytes.len() {
            let truncated = read(&bytes[..n]);
            assert!(
                matches!(truncated, Err(SnapshotError::Truncated { .. })),
                "at {n}"
            );
        }
        let trailing = [bytes.as_slice(), &[0]].concat();
        assert!(matches!(read(&trailing), Err(SnapshotError::Malformed(_))));
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
        // an absurd length prefix
        let (bytes, mut floats) = (u64::MAX.to_le_bytes(), Vec::new());
        let err = Codec::reader(&bytes)
            .vec(&mut floats, Codec::f64)
            .unwrap_err();
        let fast = matches!(
            err,
            SnapshotError::Truncated { .. } | SnapshotError::Malformed(_)
        );
        assert!(fast, "{err:?}");
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
