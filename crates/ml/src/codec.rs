//! The workspace's one binary codec: every on-disk format (model artifact,
//! state checkpoint, write-ahead log) is written and read through it.
//!
//! Three layers, all dependency-free: a [`ByteWriter`] that appends
//! fixed-width little-endian scalars, length-prefixed strings, sequences
//! and options to a buffer; a bounds-checked [`ByteReader`] that reads them
//! back; and the [`seal`] / [`open`] pair that frames a payload in the
//! shared file envelope. [`fnv1a64`] (defined in `ltee-intern`, re-exported
//! here) is the payload checksum and the config-fingerprint hash.
//!
//! Layout conventions shared by every encoder in the workspace:
//!
//! * integers are little-endian; collection lengths are `u32`,
//! * `f64` values are stored as their IEEE-754 bit pattern (`to_bits`),
//!   so round-trips are bit-identical — including NaNs and signed zeros,
//! * strings are UTF-8 bytes prefixed by a `u32` byte length,
//! * options are a `bool` presence flag followed by the value,
//! * enums are encoded as stable `u8` tags owned by the enum itself
//!   (never by discriminant order, which is free to change).
//!
//! The envelope ([`seal`] / [`open`]), with `N` format-specific header
//! words, is `magic(8) · version(u32) · N header words(u64) ·
//! payload_len(u64) · FNV-1a64(payload) · payload`; byte offsets per format
//! are tabulated in `docs/ARCHITECTURE.md`, "On-disk formats".

pub use ltee_intern::fnv1a64;

/// Errors produced while decoding a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// [`open`]: the input does not start with the expected magic.
    BadMagic,
    /// [`open`]: the envelope carries a format version other than the
    /// expected one.
    UnsupportedVersion(u32),
    /// [`open`]: the payload failed its length or checksum check.
    Corrupted(String),
    /// The stream ended before a read could complete.
    UnexpectedEof {
        /// What was being read when the stream ran out.
        what: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were actually left.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    InvalidTag {
        /// The enum being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix exceeded the bytes remaining in the stream.
    LengthOverflow {
        /// The collection being decoded.
        what: &'static str,
        /// The declared element count.
        declared: usize,
    },
    /// A string's bytes were not valid UTF-8.
    InvalidUtf8,
    /// Trailing bytes remained after the final field was decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic header"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::Corrupted(why) => write!(f, "{why}"),
            CodecError::UnexpectedEof { what, needed, remaining } => write!(
                f,
                "unexpected end of stream reading {what}: needed {needed} bytes, {remaining} left"
            ),
            CodecError::InvalidTag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            CodecError::LengthOverflow { what, declared } => {
                write!(f, "{what} length {declared} exceeds the remaining stream")
            }
            CodecError::InvalidUtf8 => write!(f, "string bytes are not valid UTF-8"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the final field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only writer producing the byte layout described in the module
/// docs.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes) }
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a little-endian `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (`0` / `1`).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Append a `u32` collection length prefix.
    pub fn write_len(&mut self, len: usize) {
        debug_assert!(len <= u32::MAX as usize, "collection too large for the codec");
        self.write_u32(len as u32);
    }

    /// Append raw bytes (no length prefix).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Append a length-prefixed sequence: the `u32` element count, then
    /// every element through `item`.
    pub fn write_seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.write_len(items.len());
        for it in items {
            item(self, it);
        }
    }

    /// Append an option: the presence flag, then the value through `some`.
    pub fn write_opt<T>(&mut self, value: Option<T>, some: impl FnOnce(&mut Self, T)) {
        self.write_bool(value.is_some());
        if let Some(v) = value {
            some(self, v);
        }
    }

    /// Append a length-prefixed slice of `f64` values.
    pub fn write_f64_slice(&mut self, vs: &[f64]) {
        self.write_seq(vs, |w, &v| w.write_f64(v));
    }

    /// Append a length-prefixed slice of strings.
    pub fn write_str_slice<S: AsRef<str>>(&mut self, vs: &[S]) {
        self.write_seq(vs, |w, v| w.write_str(v.as_ref()));
    }
}

/// Bounds-checked reader over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Create a reader over the full slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fail unless every byte has been consumed.
    pub fn expect_eof(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }

    /// Read the next `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { what, needed: n, remaining: self.remaining() });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.read_bytes(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.read_bytes(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("slice is 4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.read_bytes(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("slice is 8 bytes")))
    }

    /// Read a `usize` stored as a `u64`.
    pub fn read_usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        Ok(self.read_u64(what)? as usize)
    }

    /// Read an `f64` from its bit pattern.
    pub fn read_f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.read_u64(what)?))
    }

    /// Read a `bool` byte.
    pub fn read_bool(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.read_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { what, tag }),
        }
    }

    /// Read a collection length prefix, guarding against corrupted prefixes
    /// that would imply more elements than the stream can possibly hold
    /// (`min_element_size` is the smallest encodable element in bytes).
    pub fn read_len(&mut self, what: &'static str, min_element_size: usize) -> Result<usize, CodecError> {
        let len = self.read_u32(what)? as usize;
        if len.saturating_mul(min_element_size.max(1)) > self.remaining() {
            return Err(CodecError::LengthOverflow { what, declared: len });
        }
        Ok(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn read_str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.read_len(what, 1)?;
        let bytes = self.read_bytes(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }

    /// Read a length-prefixed sequence written by [`ByteWriter::write_seq`]:
    /// the element count goes through [`ByteReader::read_len`] before
    /// anything is allocated, then every element is read through `item`.
    pub fn read_seq<T, E: From<CodecError>>(
        &mut self,
        what: &'static str,
        min_element_size: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let len = self.read_len(what, min_element_size)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Read an option written by [`ByteWriter::write_opt`].
    pub fn read_opt<T, E: From<CodecError>>(
        &mut self,
        what: &'static str,
        some: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        if self.read_bool(what)? {
            some(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Read a length-prefixed `f64` vector.
    pub fn read_f64_vec(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        self.read_seq(what, 8, |r| r.read_f64(what))
    }

    /// Read a length-prefixed string vector.
    pub fn read_str_vec(&mut self, what: &'static str) -> Result<Vec<String>, CodecError> {
        self.read_seq(what, 4, |r| r.read_str(what))
    }
}

/// Bytes [`seal`] puts in front of the payload when the format carries
/// `words` header words.
pub const fn sealed_header_len(words: usize) -> usize {
    8 + 4 + 8 * words + 8 + 8
}

/// Frame `payload` in the file envelope described in the [module
/// docs](self): magic, version, the format's header words, then the
/// payload's length and FNV-1a64 checksum, then the payload itself.
pub fn seal(magic: &[u8; 8], version: u32, words: &[u64], payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(sealed_header_len(words.len()) + payload.len());
    w.write_bytes(magic);
    w.write_u32(version);
    for &word in words {
        w.write_u64(word);
    }
    w.write_usize(payload.len());
    w.write_u64(fnv1a64(payload));
    w.write_bytes(payload);
    w.into_bytes()
}

/// Inverse of [`seal`]: validate magic, version, payload length and
/// checksum — in that order, before any payload byte is interpreted — and
/// return the `N` header words plus the payload.
pub fn open<'a, const N: usize>(
    magic: &[u8; 8],
    version: u32,
    bytes: &'a [u8],
) -> Result<([u64; N], &'a [u8]), CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.read_bytes(8, "envelope magic").ok() != Some(&magic[..]) {
        return Err(CodecError::BadMagic);
    }
    let found = r.read_u32("envelope version")?;
    if found != version {
        return Err(CodecError::UnsupportedVersion(found));
    }
    let mut words = [0u64; N];
    for word in &mut words {
        *word = r.read_u64("envelope header word")?;
    }
    let payload_len = r.read_usize("envelope payload length")?;
    let checksum = r.read_u64("envelope checksum")?;
    let payload = r.read_bytes(r.remaining(), "envelope payload")?;
    if payload.len() != payload_len {
        return Err(CodecError::Corrupted(format!(
            "payload length mismatch: header says {payload_len} bytes, file holds {}",
            payload.len()
        )));
    }
    let actual = fnv1a64(payload);
    if actual != checksum {
        return Err(CodecError::Corrupted(format!(
            "payload checksum mismatch: header {checksum:#018x}, computed {actual:#018x}"
        )));
    }
    Ok((words, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip_is_bit_exact() {
        let mut w = ByteWriter::new();
        w.write_u8(7);
        w.write_u32(u32::MAX);
        w.write_u64(0xdead_beef_cafe_f00d);
        w.write_usize(12345);
        w.write_f64(-0.0);
        w.write_f64(f64::NAN);
        w.write_bool(true);
        w.write_str("héllo");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8("a").unwrap(), 7);
        assert_eq!(r.read_u32("b").unwrap(), u32::MAX);
        assert_eq!(r.read_u64("c").unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(r.read_usize("d").unwrap(), 12345);
        assert_eq!(r.read_f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.read_f64("f").unwrap().is_nan());
        assert!(r.read_bool("g").unwrap());
        assert_eq!(r.read_str("h").unwrap(), "héllo");
        r.expect_eof().unwrap();
    }

    #[test]
    fn slice_round_trip() {
        let mut w = ByteWriter::new();
        w.write_f64_slice(&[1.5, -2.25, 0.0]);
        w.write_str_slice(&["a", "bb", ""]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_f64_vec("fs").unwrap(), vec![1.5, -2.25, 0.0]);
        assert_eq!(r.read_str_vec("ss").unwrap(), vec!["a", "bb", ""]);
    }

    #[test]
    fn eof_is_reported_with_context() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.read_u32("field").unwrap_err();
        assert_eq!(err, CodecError::UnexpectedEof { what: "field", needed: 4, remaining: 2 });
    }

    #[test]
    fn corrupted_length_prefix_is_rejected_not_allocated() {
        // A u32::MAX element count over an 8-byte element type must fail
        // fast instead of attempting a 32 GiB allocation.
        let mut w = ByteWriter::new();
        w.write_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let err = r.read_f64_vec("floats").unwrap_err();
        assert!(matches!(err, CodecError::LengthOverflow { what: "floats", .. }));
    }

    #[test]
    fn invalid_bool_tag_rejected() {
        let mut r = ByteReader::new(&[3]);
        assert!(matches!(r.read_bool("flag").unwrap_err(), CodecError::InvalidTag { tag: 3, .. }));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = ByteReader::new(&[0, 0]);
        assert_eq!(r.expect_eof().unwrap_err(), CodecError::TrailingBytes(2));
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        // Known FNV-1a vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
