//! The snapshot codec behind checkpoint/resume.
//!
//! One codec writes every byte of a checkpoint: the simulation blob of
//! `agsfl-fl`, the controller blobs of `agsfl-online` and the run file of
//! `agsfl-core`, which nests the other two. It uses the same hand-rolled,
//! fully validated binary style as the frame codecs: little-endian
//! fixed-width scalars, floats as raw IEEE-754 bits (the *bit-identical*
//! resume guarantee forbids any text round-trip), and vectors in the
//! shape-plus-flat-data idiom (`u64` length followed by the flat payload).
//! Every read is bounds-checked and returns [`CheckpointError`] instead of
//! panicking, mirroring the [`WireError`](crate::WireError) decode
//! discipline: a corrupt length prefix fails before it can allocate.
//!
//! Section headers carry four magic bytes and a version; controller blobs
//! start with a one-byte type tag, so restoring an EXP3 snapshot into a
//! sign-OGD controller fails with [`CheckpointError::Mismatch`] rather than
//! silently reinterpreting bytes.

use rand_chacha::ChaCha8Rng;

/// Error produced when decoding or loading a checkpoint.
///
/// Every malformed input maps to a typed variant, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the expected field.
    Truncated,
    /// The leading magic bytes did not match the expected section tag.
    BadMagic {
        /// The four magic bytes the decoder expected.
        expected: [u8; 4],
    },
    /// The format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The checkpoint was taken from an incompatible configuration, or a
    /// controller blob from a different controller type.
    Mismatch {
        /// Which fingerprint field disagreed (e.g. `"dim"`, `"seed"`), or
        /// the controller type the restore target expected.
        field: &'static str,
    },
    /// A field decoded to an out-of-range or inconsistent value.
    Invalid(&'static str),
    /// Bytes remained after the final field of a section.
    TrailingBytes,
    /// An I/O error while reading or writing a checkpoint file.
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "checkpoint truncated"),
            Self::BadMagic { expected } => {
                write!(
                    f,
                    "bad checkpoint magic (expected {:?})",
                    std::str::from_utf8(expected).unwrap_or("????")
                )
            }
            Self::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Mismatch { field } => {
                write!(f, "checkpoint does not match this configuration: {field}")
            }
            Self::Invalid(what) => write!(f, "invalid checkpoint field: {what}"),
            Self::TrailingBytes => write!(f, "trailing bytes after checkpoint payload"),
            Self::Io(msg) => write!(f, "checkpoint i/o error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Append-only binary snapshot encoder.
///
/// All scalars are little-endian; floats are written as raw bit patterns so
/// the decode is bit-exact. Collections are length-prefixed with `u64`.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that reuses `buf` as its backing storage (cleared
    /// first), so steady-state periodic checkpointing is allocation-free.
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a section header: four magic bytes plus a format version.
    pub fn header(&mut self, magic: [u8; 4], version: u32) {
        self.buf.extend_from_slice(&magic);
        self.u32(version);
    }

    /// Writes one byte (also a controller-type tag, see
    /// [`SnapshotReader::tag`]).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its raw IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes an `f32` as its raw IEEE-754 bits.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes `v` as a `u64` length followed by each element, `elem_bytes`
    /// wide, through `put`.
    fn seq<T: Copy>(&mut self, v: &[T], elem_bytes: usize, put: impl Fn(&mut Self, T)) {
        self.usize(v.len());
        self.buf.reserve(v.len() * elem_bytes);
        for &x in v {
            put(self, x);
        }
    }

    /// Writes a length-prefixed flat `f32` slice (shape + raw bits).
    pub fn f32s(&mut self, v: &[f32]) {
        self.seq(v, 4, Self::f32);
    }

    /// Writes a length-prefixed flat `f64` slice (shape + raw bits).
    pub fn f64s(&mut self, v: &[f64]) {
        self.seq(v, 8, Self::f64);
    }

    /// Writes a length-prefixed `usize` slice.
    pub fn usizes(&mut self, v: &[usize]) {
        self.seq(v, 8, Self::usize);
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.seq(v, 8, Self::u64);
    }

    /// Writes a length-prefixed byte slice (also an opaque nested blob,
    /// such as one controller's snapshot inside another's).
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes an optional `usize` as a presence flag plus value.
    pub fn opt_usize(&mut self, v: Option<usize>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.usize(x);
        }
    }

    /// Writes an optional `f64` as a presence flag plus raw bits.
    pub fn opt_f64(&mut self, v: Option<f64>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.f64(x);
        }
    }

    /// Writes a ChaCha8 stream position (`key`, `counter`, `cursor`).
    pub fn rng(&mut self, rng: &ChaCha8Rng) {
        let (key, counter, cursor) = rng.state();
        key.into_iter().for_each(|word| self.u32(word));
        self.u64(counter);
        self.u32(cursor);
    }
}

/// Validating decoder over a snapshot byte slice.
///
/// Every accessor checks bounds and returns [`CheckpointError::Truncated`]
/// (or a more specific variant) rather than panicking.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Wraps a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of undecoded bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns [`CheckpointError::TrailingBytes`] unless the reader is
    /// exactly exhausted.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(CheckpointError::TrailingBytes),
        }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        Ok(self.slice(N)?.try_into().expect("slice has length N"))
    }

    fn slice(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads and validates a section header written by
    /// [`SnapshotWriter::header`]; returns the stored version if it is at
    /// most `max_version`.
    pub fn header(&mut self, magic: [u8; 4], max_version: u32) -> Result<u32, CheckpointError> {
        if self.take::<4>()? != magic {
            return Err(CheckpointError::BadMagic { expected: magic });
        }
        let version = self.u32()?;
        if version == 0 || version > max_version {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        Ok(version)
    }

    /// Reads a controller-type tag written by [`SnapshotWriter::u8`]; any
    /// other tag is a [`CheckpointError::Mismatch`] naming the `controller`
    /// the restore target expected.
    pub fn tag(&mut self, expected: u8, controller: &'static str) -> Result<(), CheckpointError> {
        if self.u8()? == expected {
            Ok(())
        } else {
            Err(CheckpointError::Mismatch { field: controller })
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take::<1>()?[0])
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Invalid("bool flag")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that overflow the
    /// platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Invalid("usize overflow"))
    }

    /// Reads a length prefix and checks it against the bytes left, given
    /// that each element occupies at least `min_elem_bytes`, so a corrupt
    /// length fails with [`CheckpointError::Truncated`] before the caller
    /// allocates for it.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        match n.checked_mul(min_elem_bytes) {
            Some(b) if b <= self.remaining() => Ok(n),
            _ => Err(CheckpointError::Truncated),
        }
    }

    /// Reads an `f64` from its raw bits.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f32` from its raw bits.
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a sequence written by `SnapshotWriter::seq`, each element at
    /// least `elem_bytes` wide, through `read`.
    fn seq<T>(
        &mut self,
        elem_bytes: usize,
        read: impl Fn(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let n = self.len(elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed flat `f32` vector.
    pub fn f32s(&mut self) -> Result<Vec<f32>, CheckpointError> {
        self.seq(4, Self::f32)
    }

    /// Reads a length-prefixed flat `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CheckpointError> {
        self.seq(8, Self::f64)
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, CheckpointError> {
        self.seq(8, Self::usize)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, CheckpointError> {
        self.seq(8, Self::u64)
    }

    /// Reads a length-prefixed byte vector.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let n = self.len(1)?;
        Ok(self.slice(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        String::from_utf8(self.bytes()?).map_err(|_| CheckpointError::Invalid("utf-8 string"))
    }

    /// Reads an optional `usize` written by [`SnapshotWriter::opt_usize`].
    pub fn opt_usize(&mut self) -> Result<Option<usize>, CheckpointError> {
        self.bool()?.then(|| self.usize()).transpose()
    }

    /// Reads an optional `f64` written by [`SnapshotWriter::opt_f64`].
    pub fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        self.bool()?.then(|| self.f64()).transpose()
    }

    /// Reads a ChaCha8 stream position and rebuilds the generator.
    pub fn rng(&mut self) -> Result<ChaCha8Rng, CheckpointError> {
        let mut key = [0u32; 8];
        for word in &mut key {
            *word = self.u32()?;
        }
        Ok(ChaCha8Rng::from_state(key, self.u64()?, self.u32()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn scalar_roundtrip_is_bit_exact() {
        let mut w = SnapshotWriter::new();
        w.header(*b"TEST", 3);
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(f64::NEG_INFINITY);
        w.f64(-0.0);
        w.f32(f32::MIN_POSITIVE);
        w.opt_usize(Some(9));
        w.opt_usize(None);
        w.opt_f64(Some(2.5));
        w.opt_f64(None);
        w.str("résumé");
        let bytes = w.into_bytes();

        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.header(*b"TEST", 3).unwrap(), 3);
        r.tag(7, "test").unwrap();
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), f64::NEG_INFINITY.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f32().unwrap(), f32::MIN_POSITIVE);
        assert_eq!(r.opt_usize().unwrap(), Some(9));
        assert_eq!(r.opt_usize().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap(), Some(2.5));
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.str().unwrap(), "résumé");
        r.finish().unwrap();
    }

    #[test]
    fn vector_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.f32s(&[1.0, -2.5, f32::NAN]);
        w.f64s(&[1.5, f64::NAN]);
        w.usizes(&[0, 1, usize::MAX]);
        w.u64s(&[3, 4]);
        w.bytes(b"abc");
        w.bytes(&[]);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let f = r.f32s().unwrap();
        assert_eq!(f.len(), 3);
        assert!(f[2].is_nan());
        let d = r.f64s().unwrap();
        assert_eq!(d[0], 1.5);
        assert_eq!(d[1].to_bits(), f64::NAN.to_bits());
        assert_eq!(r.usizes().unwrap(), vec![0, 1, usize::MAX]);
        assert_eq!(r.u64s().unwrap(), vec![3, 4]);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.bytes().unwrap(), b"");
        r.finish().unwrap();
    }

    #[test]
    fn rng_roundtrip_resumes_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..13 {
            rng.next_u32();
        }
        let mut w = SnapshotWriter::new();
        w.rng(&rng);
        let bytes = w.into_bytes();
        let mut restored = SnapshotReader::new(&bytes).rng().unwrap();
        for _ in 0..64 {
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
    }

    #[test]
    fn truncation_and_corruption_yield_typed_errors() {
        let mut w = SnapshotWriter::new();
        w.header(*b"TEST", 1);
        w.u64s(&[1, 2, 3]);
        w.f64s(&[1.0, 2.0]);
        w.rng(&ChaCha8Rng::seed_from_u64(5));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = SnapshotReader::new(&bytes[..cut]);
            let result = r
                .header(*b"TEST", 1)
                .and_then(|_| r.u64s())
                .and_then(|_| r.f64s())
                .and_then(|_| r.rng());
            assert!(result.is_err(), "cut at {cut} must error");
        }
        // Wrong magic and unsupported version.
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            r.header(*b"ELSE", 1),
            Err(CheckpointError::BadMagic { expected: *b"ELSE" })
        );
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            r.header(*b"TEST", 0),
            Err(CheckpointError::UnsupportedVersion(1))
        );
        // A bool byte outside {0, 1} is invalid, also as an option flag.
        assert_eq!(
            SnapshotReader::new(&[2]).bool(),
            Err(CheckpointError::Invalid("bool flag"))
        );
        assert_eq!(
            SnapshotReader::new(&[2]).opt_f64(),
            Err(CheckpointError::Invalid("bool flag"))
        );
    }

    #[test]
    fn length_bombs_fail_before_allocating() {
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX / 2);
        let bogus = w.into_bytes();
        let reader = || SnapshotReader::new(&bogus);
        assert_eq!(reader().f32s(), Err(CheckpointError::Truncated));
        assert_eq!(reader().f64s(), Err(CheckpointError::Truncated));
        assert_eq!(reader().usizes(), Err(CheckpointError::Truncated));
        assert_eq!(reader().u64s(), Err(CheckpointError::Truncated));
        assert_eq!(reader().bytes(), Err(CheckpointError::Truncated));
        assert_eq!(reader().str(), Err(CheckpointError::Truncated));
        assert_eq!(reader().len(1), Err(CheckpointError::Truncated));
    }

    #[test]
    fn wrong_controller_tag_is_a_mismatch() {
        let mut w = SnapshotWriter::new();
        w.u8(3);
        let bytes = w.into_bytes();
        assert_eq!(
            SnapshotReader::new(&bytes).tag(4, "other"),
            Err(CheckpointError::Mismatch { field: "other" })
        );
        assert_eq!(
            SnapshotReader::new(&[]).tag(4, "other"),
            Err(CheckpointError::Truncated)
        );
    }
}
