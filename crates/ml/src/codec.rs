//! The workspace's one binary codec: every on-disk format (model artifact,
//! state checkpoint, write-ahead log) is written and read through it.
//!
//! Five layers, all dependency-free: a [`ByteWriter`] that appends
//! little-endian scalars, LEB128 varints, raw bytes, sequences and options
//! to a buffer; a bounds-checked [`ByteReader`] that reads them back; the
//! [`StringTableWriter`] / [`StringTable`] pair that stores each distinct
//! string of a stream once; the [`compress`] / [`decompress`] block codec
//! every payload stream is stored through; and the [`seal`] / [`open`]
//! pair that frames a payload in the shared file envelope.
//! [`fnv1a64`] (defined in `ltee-intern`, re-exported here) is the payload
//! checksum and the config-fingerprint hash.
//!
//! Layout conventions shared by every encoder in the workspace:
//!
//! * `f64` values are stored as their IEEE-754 bit pattern (`to_bits`),
//!   eight bytes little-endian, so round-trips are bit-identical —
//!   including NaNs and signed zeros,
//! * options are a `bool` presence flag followed by the value,
//! * enums are encoded as stable `u8` tags owned by the enum itself
//!   (never by discriminant order, which is free to change),
//! * a collection is its element count followed by its elements, and a
//!   decoder refuses a count the remaining stream cannot hold
//!   ([`ByteReader::read_len`]) before it allocates anything,
//! * every integer, id and count is an unsigned LEB128 varint — seven
//!   value bits per byte, low group first, the high bit set on every byte
//!   but the last; at most ten bytes, minimally encoded (`0x80 0x00` is
//!   refused, so a value has exactly one spelling),
//! * a string is a varint index into the stream's one string table
//!   (`count · (byte length · UTF-8 bytes)*`, distinct strings in
//!   first-use order).
//!
//! Every payload — model artifact v2, checkpoint v6, WAL v4 batch — is such
//! a stream, table then body, stored as one block of the block codec
//! ([`StringTableWriter::into_stream`]) and read back by [`read_stream`].
//! Only the framing around a payload is fixed width: the envelope's header
//! and the WAL's record headers are little-endian `u32` / `u64` words, so
//! a torn header is told by its length alone.
//!
//! The block codec ([`compress`] / [`decompress`]) is greedy LZ77 in LZ4's
//! sequence layout, with no entropy stage. A block is `raw length (varint)
//! · sequence*`, a sequence `token · literal run · literals · offset ·
//! match run`: the token's high nibble counts the literals and its low
//! nibble is the match length minus four, and a nibble of 15 continues in
//! run bytes that each add themselves, up to the first one below 255. The
//! offset is a little-endian `u16` distance back into the output, 1 to
//! 65 535, and a match may overlap the bytes it produces. The sequence
//! whose literals reach the declared length is the last and has no match
//! part. [`BLOCK_EXPANSION_LIMIT`] states what a stored byte can cost a
//! decoder.
//!
//! The envelope ([`seal`] / [`open`]), with `N` format-specific header
//! words, is `magic(8) · version(u32) · N header words(u64) ·
//! payload_len(u64) · FNV-1a64(payload) · payload`; byte offsets per format
//! are tabulated in `docs/ARCHITECTURE.md`, "On-disk formats". A file of
//! another version is refused by version only when it is intact under the
//! version it declares; otherwise its header is damaged.

use std::collections::HashMap;

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
    /// A varint ran past ten bytes, overflowed the integer type it was read
    /// into, or was not minimally encoded.
    InvalidVarint {
        /// What was being read.
        what: &'static str,
    },
    /// A string reference pointed past the end of the string table.
    StringIndexOutOfRange {
        /// What was being read.
        what: &'static str,
        /// The offending index.
        index: u64,
        /// Strings the table holds.
        table_len: usize,
    },
    /// The string references of a stream expand to more than
    /// [`STRING_EXPANSION_LIMIT`] bytes per byte of stream.
    StringExpansion {
        /// The stream's byte budget for decoded strings.
        limit: usize,
    },
    /// A compressed block declares more raw bytes than
    /// [`BLOCK_EXPANSION_LIMIT`] per byte of the block.
    BlockExpansion {
        /// The declared raw length.
        declared: u64,
        /// The most the block's length allows.
        limit: usize,
    },
    /// A literal run or a match of a compressed block reaches past the raw
    /// length the block declares.
    BlockOverrun {
        /// `"literal run"` or `"match"`.
        what: &'static str,
        /// The declared raw length.
        declared: usize,
    },
    /// A match of a compressed block has offset 0 or reaches back before
    /// the first byte of the output.
    BlockOffset {
        /// The match's offset.
        offset: usize,
        /// Raw bytes produced before the match.
        produced: usize,
    },
    /// A decoded count or index lies outside the range its structure
    /// allows: a tree without nodes, a split on a feature the forest does
    /// not have, a child that does not point forward.
    OutOfRange {
        /// What was being read.
        what: &'static str,
        /// The decoded value.
        value: u64,
        /// The values the structure allows.
        allowed: std::ops::Range<u64>,
    },
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
            CodecError::InvalidVarint { what } => write!(
                f,
                "malformed varint reading {what}: longer than 10 bytes, out of range or not minimally encoded"
            ),
            CodecError::StringIndexOutOfRange { what, index, table_len } => write!(
                f,
                "{what} references string {index} of a {table_len}-string table"
            ),
            CodecError::StringExpansion { limit } => write!(
                f,
                "string references expand past the stream's {limit}-byte budget"
            ),
            CodecError::BlockExpansion { declared, limit } => write!(
                f,
                "compressed block declares {declared} raw bytes, its length allows {limit}"
            ),
            CodecError::BlockOverrun { what, declared } => write!(
                f,
                "compressed block's {what} runs past its declared {declared} raw bytes"
            ),
            CodecError::BlockOffset { offset, produced } => write!(
                f,
                "compressed block's match offset {offset} is outside the {produced} bytes produced"
            ),
            CodecError::OutOfRange { what, value, allowed } => {
                write!(f, "{what} {value} is outside {allowed:?}")
            }
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

    /// Append a `u64` as an LEB128 varint (see the [module docs](self)).
    pub fn write_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round-trip).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (`0` / `1`).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Append raw bytes (no length prefix).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a sequence: the varint element count, then every element
    /// through `item`. The closure sees each element at the slice's own
    /// lifetime, so it can hand element strings to a [`StringTableWriter`].
    pub fn write_seq<'t, T>(
        &mut self,
        items: &'t [T],
        mut item: impl FnMut(&mut Self, &'t T),
    ) {
        self.write_varint(items.len() as u64);
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

    /// Read the next `N` raw bytes as an array.
    fn read_array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let mut array = [0u8; N];
        array.copy_from_slice(self.read_bytes(N, what)?);
        Ok(array)
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        self.read_array(what).map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        self.read_array(what).map(u64::from_le_bytes)
    }

    /// Read an LEB128 varint written by [`ByteWriter::write_varint`]. An
    /// eleventh byte, bits past the 64th and a non-minimal encoding are all
    /// [`CodecError::InvalidVarint`].
    pub fn read_varint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.read_u8(what)?;
            let group = u64::from(byte & 0x7f);
            if shift == 63 && group > 1 {
                break;
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    break;
                }
                return Ok(value);
            }
        }
        Err(CodecError::InvalidVarint { what })
    }

    /// Read a varint that must fit a `usize`.
    pub fn read_varint_usize(&mut self, what: &'static str) -> Result<usize, CodecError> {
        usize::try_from(self.read_varint(what)?).map_err(|_| CodecError::InvalidVarint { what })
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

    /// Read a varint collection length, guarding against corrupted
    /// prefixes that would imply more elements than the stream can possibly
    /// hold (`min_element_size` is the smallest encodable element in bytes).
    pub fn read_len(&mut self, what: &'static str, min_element_size: usize) -> Result<usize, CodecError> {
        let len = self.read_varint_usize(what)?;
        if len.saturating_mul(min_element_size.max(1)) > self.remaining() {
            return Err(CodecError::LengthOverflow { what, declared: len });
        }
        Ok(len)
    }

    /// Read a sequence written by [`ByteWriter::write_seq`]: the element
    /// count goes through [`ByteReader::read_len`] before anything is
    /// allocated, then every element is read through `item`.
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
}

/// Decoded string bytes a stream may ask for per byte of its own length.
///
/// A string table is what lets a one-byte reference stand for a long
/// string, so the "a declared count must fit the remaining stream" guard
/// of [`ByteReader::read_len`] cannot bound what the references of a
/// hostile stream expand to. [`StringTable`] therefore charges every
/// resolved reference against `STRING_EXPANSION_LIMIT × stream length` and
/// refuses the stream once that is spent. Streams this workspace writes sit
/// below 3.
pub const STRING_EXPANSION_LIMIT: usize = 64;

/// Encode side of a stream's string table: hands out the index of each
/// distinct string in first-use order (so the table, and with it the
/// stream, is a function of the encoded data alone) and puts the table in
/// front of the body once the body is encoded.
#[derive(Debug, Default)]
pub struct StringTableWriter<'a> {
    index: HashMap<&'a str, u64>,
    strings: Vec<&'a str>,
    references: usize,
}

impl<'a> StringTableWriter<'a> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a reference to `s` — its varint table index — to `w`,
    /// adding `s` to the table on first use.
    pub fn write_ref(&mut self, w: &mut ByteWriter, s: &'a str) {
        let next = self.strings.len() as u64;
        let index = *self.index.entry(s).or_insert(next);
        if index == next {
            self.strings.push(s);
        }
        self.references += 1;
        w.write_varint(index);
    }

    /// Assemble the stream — the table, `count · (byte length · UTF-8
    /// bytes)*`, then the `body` whose references filled it, which is
    /// where [`StringTable::read_table`] expects to find it — and store it
    /// as one [`compress`]ed block; [`decompress`] gives the stream back.
    pub fn into_stream(self, body: ByteWriter) -> Vec<u8> {
        let body = body.into_bytes();
        let mut w = ByteWriter::with_capacity(self.table_len() + body.len());
        w.write_seq(&self.strings, |w, s| {
            w.write_varint(s.len() as u64);
            w.write_bytes(s.as_bytes());
        });
        w.write_bytes(&body);
        compress(&w.into_bytes())
    }

    /// Bytes the table takes at the head of the stream, before the stream
    /// is compressed.
    pub fn table_len(&self) -> usize {
        let varint_len = |v: usize| (usize::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize;
        varint_len(self.strings.len())
            + self.strings.iter().map(|s| varint_len(s.len()) + s.len()).sum::<usize>()
    }

    /// Distinct strings in the table.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no string has been referenced yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// References written so far (strings a table-less stream would hold).
    pub fn references(&self) -> usize {
        self.references
    }
}

/// Decode side of a stream's string table: the strings borrow from the
/// stream, and every resolved reference is charged against the stream's
/// expansion budget (see [`STRING_EXPANSION_LIMIT`]).
#[derive(Debug)]
pub struct StringTable<'a> {
    strings: Vec<&'a str>,
    limit: usize,
    spent: usize,
}

impl<'a> StringTable<'a> {
    /// Read the table at the head of a stream; `r` is left at the first
    /// byte of the body the table serves.
    pub fn read_table(r: &mut ByteReader<'a>) -> Result<Self, CodecError> {
        let limit = r.remaining().saturating_mul(STRING_EXPANSION_LIMIT);
        let strings = r.read_seq("string table", 1, |r| {
            let len = r.read_len("string table entry", 1)?;
            std::str::from_utf8(r.read_bytes(len, "string table entry")?)
                .map_err(|_| CodecError::InvalidUtf8)
        })?;
        Ok(Self { strings, limit, spent: 0 })
    }

    /// Read one reference written by [`StringTableWriter::write_ref`] and
    /// resolve it.
    pub fn read_ref(
        &mut self,
        r: &mut ByteReader<'_>,
        what: &'static str,
    ) -> Result<&'a str, CodecError> {
        let index = r.read_varint(what)?;
        let s = usize::try_from(index)
            .ok()
            .and_then(|i| self.strings.get(i).copied())
            .ok_or(CodecError::StringIndexOutOfRange { what, index, table_len: self.strings.len() })?;
        self.spent = self.spent.saturating_add(s.len());
        if self.spent > self.limit {
            return Err(CodecError::StringExpansion { limit: self.limit });
        }
        Ok(s)
    }
}

/// Read a stream [`StringTableWriter::into_stream`] stored: decompress the
/// block, read the string table at its head, decode the rest through
/// `body` and require it to consume every byte. Every payload format reads
/// its stream through this one function.
pub fn read_stream<T, E: From<CodecError>>(
    block: &[u8],
    body: impl for<'s> FnOnce(&mut ByteReader<'s>, &mut StringTable<'s>) -> Result<T, E>,
) -> Result<T, E> {
    let raw = decompress(block)?;
    let mut r = ByteReader::new(&raw);
    let mut strings = StringTable::read_table(&mut r)?;
    let decoded = body(&mut r, &mut strings)?;
    r.expect_eof()?;
    Ok(decoded)
}

/// Shortest repeat a block stores as a match: a shorter one would cost as
/// much in token and offset as it saves.
const MIN_MATCH: usize = 4;

/// Farthest back a match reaches: its offset is a `u16`.
const WINDOW: usize = u16::MAX as usize;

/// Index bits of the narrowest and the widest match-finder table
/// [`compress`] builds; in between the table is sized to its input.
const HASH_BITS: std::ops::RangeInclusive<u32> = 8..=15;

/// Raw bytes a compressed block may declare per byte of its own length.
///
/// A raw byte is either a literal, stored as itself, or part of a match,
/// and a match of up to `255·k + 18` bytes is stored as its token, two
/// offset bytes and `k` run bytes, so no well-formed block — whoever wrote
/// it — declares 255 raw bytes per byte of block, and [`decompress`]
/// refuses a declared length above that before it allocates anything. That
/// is the worst-case allocation per stored byte of a block. The
/// [`StringTable`] at the head of a payload stream then charges resolved
/// strings against [`STRING_EXPANSION_LIMIT`] bytes per *raw* byte, as it
/// did before streams were compressed, so a stored payload stream can ask
/// for at most `255 × (1 + 64)` = 16 575 bytes — raw stream plus strings —
/// per stored byte, where an uncompressed one could ask for 65. Charging
/// the strings against the stored bytes instead would make whether a
/// stream decodes depend on how well it compressed, and refuse first the
/// streams that repeat long strings most.
pub const BLOCK_EXPANSION_LIMIT: usize = 255;

/// Compress `raw` into one block (layout in the [module docs](self)).
///
/// Greedy LZ77 over a 64 KiB window. The match finder is a table holding,
/// per hash of four bytes, the last position that hashed there, sized to
/// the input (2⁸ to 2¹⁵ entries); at each position its one candidate is
/// taken if the four bytes really repeat, and extended as far as the bytes
/// agree. Every position a match covers is entered into the table. The
/// hash is a fixed multiplication, so a block is a function of `raw` alone.
///
/// By construction [`decompress`] accepts every block this writes: each
/// offset is `at − candidate` for a candidate before `at` and at most
/// 65 535 back, so it lies in 1 ..= the bytes already produced; literal
/// runs are copied from `raw` and matches end inside it, so neither passes
/// the declared length, which is `raw.len()`; and no block expands past
/// [`BLOCK_EXPANSION_LIMIT`].
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(raw.len() / 2 + 16);
    w.write_varint(raw.len() as u64);
    let bits = (usize::BITS - raw.len().saturating_sub(1).leading_zeros())
        .clamp(*HASH_BITS.start(), *HASH_BITS.end());
    // Positions are kept as `u32`: every candidate is verified against the
    // input, so a position that wrapped can only cost a match.
    let mut table = vec![u32::MAX; 1 << bits];
    let (mut anchor, mut at) = (0, 0);
    while at + MIN_MATCH <= raw.len() {
        let slot = hash4(raw, at, bits);
        let candidate = table[slot] as usize;
        table[slot] = at as u32;
        let repeats = candidate < at
            && at - candidate <= WINDOW
            && raw[candidate..candidate + MIN_MATCH] == raw[at..at + MIN_MATCH];
        if !repeats {
            at += 1;
            continue;
        }
        let len = MIN_MATCH
            + raw[candidate + MIN_MATCH..]
                .iter()
                .zip(&raw[at + MIN_MATCH..])
                .take_while(|(a, b)| a == b)
                .count();
        write_sequence(&mut w, &raw[anchor..at], Some((at - candidate, len)));
        for covered in at + 1..(at + len).min(raw.len() + 1 - MIN_MATCH) {
            table[hash4(raw, covered, bits)] = covered as u32;
        }
        at += len;
        anchor = at;
    }
    if anchor < raw.len() {
        write_sequence(&mut w, &raw[anchor..], None);
    }
    w.into_bytes()
}

/// The match-finder slot of the four bytes at `at`: the top `bits` bits of
/// their little-endian word times Knuth's multiplicative constant.
fn hash4(raw: &[u8], at: usize, bits: u32) -> usize {
    let word = u32::from_le_bytes([raw[at], raw[at + 1], raw[at + 2], raw[at + 3]]);
    (word.wrapping_mul(0x9e37_79b1) >> (32 - bits)) as usize
}

/// One sequence: the token, the literal run's continuation, the literals,
/// then — unless this is the last sequence — the offset and the match
/// run's continuation.
fn write_sequence(w: &mut ByteWriter, literals: &[u8], matched: Option<(usize, usize)>) {
    let match_run = matched.map_or(0, |(_, len)| len - MIN_MATCH);
    w.write_u8(((literals.len().min(15) as u8) << 4) | match_run.min(15) as u8);
    write_run_tail(w, literals.len());
    w.write_bytes(literals);
    if let Some((offset, _)) = matched {
        w.write_bytes(&(offset as u16).to_le_bytes());
        write_run_tail(w, match_run);
    }
}

/// What a run of 15 or more adds past its nibble: a 255 byte per whole 255,
/// then the remainder.
fn write_run_tail(w: &mut ByteWriter, run: usize) {
    let Some(mut rest) = run.checked_sub(15) else { return };
    while rest >= 255 {
        w.write_u8(255);
        rest -= 255;
    }
    w.write_u8(rest as u8);
}

/// A run length: its nibble, plus — when the nibble is 15 — run bytes up
/// to the first one below 255.
fn read_run(r: &mut ByteReader<'_>, nibble: u8, what: &'static str) -> Result<usize, CodecError> {
    let mut run = usize::from(nibble);
    if nibble == 15 {
        loop {
            let byte = r.read_u8(what)?;
            run = run.saturating_add(usize::from(byte));
            if byte < 255 {
                break;
            }
        }
    }
    Ok(run)
}

/// Inverse of [`compress`]. Every field is checked before it is trusted: a
/// declared length over [`BLOCK_EXPANSION_LIMIT`] per block byte is
/// refused before anything is allocated, a literal run must fit both the
/// rest of the block and the declared length, a match must point into the
/// bytes already produced and end within the declared length, and nothing
/// may follow the last sequence.
pub fn decompress(block: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = ByteReader::new(block);
    let declared = r.read_varint("block length")?;
    let limit = block.len().saturating_mul(BLOCK_EXPANSION_LIMIT);
    let raw_len = usize::try_from(declared)
        .ok()
        .filter(|&len| len <= limit)
        .ok_or(CodecError::BlockExpansion { declared, limit })?;
    let mut out = Vec::with_capacity(raw_len);
    while out.len() < raw_len {
        let token = r.read_u8("block token")?;
        let literals = read_run(&mut r, token >> 4, "block literal run")?;
        if literals > raw_len - out.len() {
            return Err(CodecError::BlockOverrun { what: "literal run", declared: raw_len });
        }
        out.extend_from_slice(r.read_bytes(literals, "block literals")?);
        if out.len() == raw_len {
            break;
        }
        let offset = usize::from(u16::from_le_bytes(r.read_array("block match offset")?));
        if offset == 0 || offset > out.len() {
            return Err(CodecError::BlockOffset { offset, produced: out.len() });
        }
        let len = MIN_MATCH.saturating_add(read_run(&mut r, token & 0x0f, "block match run")?);
        if len > raw_len - out.len() {
            return Err(CodecError::BlockOverrun { what: "match", declared: raw_len });
        }
        // A match may overlap its own output: copy it in chunks of at most
        // `offset` bytes, each of them already written.
        let start = out.len() - offset;
        let mut copied = 0;
        while copied < len {
            let chunk = (len - copied).min(offset);
            out.extend_from_within(start + copied..start + copied + chunk);
            copied += chunk;
        }
    }
    r.expect_eof()?;
    Ok(out)
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
    w.write_u64(payload.len() as u64);
    w.write_u64(fnv1a64(payload));
    w.write_bytes(payload);
    w.into_bytes()
}

/// Inverse of [`seal`]: validate magic, payload length, checksum and
/// version — in that order, before any payload byte is interpreted — and
/// return the `N` header words plus the payload. The envelope is the same
/// in every version, so a file of another version is
/// [`CodecError::UnsupportedVersion`] only when it passes its own length
/// and checksum; one that does not has a damaged header, not a different
/// format.
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
    let mut words = [0u64; N];
    for word in &mut words {
        *word = r.read_u64("envelope header word")?;
    }
    let payload_len = r.read_u64("envelope payload length")?;
    let checksum = r.read_u64("envelope checksum")?;
    let payload = r.read_bytes(r.remaining(), "envelope payload")?;
    if payload.len() as u64 != payload_len {
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
    if found != version {
        return Err(CodecError::UnsupportedVersion(found));
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
        w.write_f64(-0.0);
        w.write_f64(f64::NAN);
        w.write_bool(true);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8("a").unwrap(), 7);
        assert_eq!(r.read_u32("b").unwrap(), u32::MAX);
        assert_eq!(r.read_u64("c").unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(r.read_f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.read_f64("f").unwrap().is_nan());
        assert!(r.read_bool("g").unwrap());
        r.expect_eof().unwrap();
    }

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_varint(v);
        w.into_bytes()
    }

    #[test]
    fn varints_are_minimal_leb128_and_round_trip_at_the_edges() {
        assert_eq!(varint_bytes(0), [0x00]);
        assert_eq!(varint_bytes(127), [0x7f]);
        assert_eq!(varint_bytes(128), [0x80, 0x01]);
        assert_eq!(varint_bytes(u64::from(u32::MAX)), [0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert_eq!(varint_bytes(u64::MAX), [0xff; 9].into_iter().chain([0x01]).collect::<Vec<_>>());
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let bytes = varint_bytes(v);
            let mut r = ByteReader::new(&bytes);
            assert_eq!(r.read_varint("v").unwrap(), v);
            r.expect_eof().unwrap();
        }
    }

    #[test]
    fn malformed_varints_are_typed_rejections() {
        let invalid = |bytes: &[u8]| ByteReader::new(bytes).read_varint("v").unwrap_err();
        // Overlong zero, and an overlong 127: a value has one spelling.
        assert_eq!(invalid(&[0x80, 0x00]), CodecError::InvalidVarint { what: "v" });
        assert_eq!(invalid(&[0xff, 0x00]), CodecError::InvalidVarint { what: "v" });
        // Eleven bytes: ten continuation bytes never terminate a u64.
        assert_eq!(invalid(&[0x80; 11]), CodecError::InvalidVarint { what: "v" });
        assert_eq!(
            invalid(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00]),
            CodecError::InvalidVarint { what: "v" }
        );
        // Ten bytes whose last group carries bits past the 64th.
        assert_eq!(
            invalid(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]),
            CodecError::InvalidVarint { what: "v" }
        );
        // Truncated mid-varint: the stream ends on a continuation byte.
        assert_eq!(
            invalid(&[0x80, 0x80]),
            CodecError::UnexpectedEof { what: "v", needed: 1, remaining: 0 }
        );
        assert!(matches!(invalid(&[]), CodecError::UnexpectedEof { .. }));
    }

    /// SplitMix64: a seeded stream without a dev-dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn seeded_integer_and_string_sequences_round_trip() {
        let mut seed = 0x5eed_0023;
        for _ in 0..50 {
            // Integers of every byte length, strings from a small pool so
            // references repeat.
            let ints: Vec<u64> = (0..64)
                .map(|_| splitmix(&mut seed) >> (splitmix(&mut seed) % 64))
                .collect();
            let pool: Vec<String> = (0..8)
                .map(|i| "é".repeat((splitmix(&mut seed) % 5) as usize) + &format!("s{i}"))
                .collect();
            let picks: Vec<&str> =
                (0..40).map(|_| pool[(splitmix(&mut seed) % 8) as usize].as_str()).collect();

            let mut strings = StringTableWriter::new();
            let mut body = ByteWriter::new();
            body.write_seq(&ints, |w, &v| w.write_varint(v));
            for &s in &picks {
                strings.write_ref(&mut body, s);
            }
            assert_eq!(strings.references(), picks.len());
            assert!(strings.len() <= pool.len());
            let stream = decompress(&strings.into_stream(body)).unwrap();

            let mut r = ByteReader::new(&stream);
            let mut table = StringTable::read_table(&mut r).unwrap();
            let decoded: Vec<u64> = r.read_seq("ints", 1, |r| r.read_varint("int")).unwrap();
            assert_eq!(decoded, ints);
            for &s in &picks {
                assert_eq!(table.read_ref(&mut r, "pick").unwrap(), s);
            }
            r.expect_eof().unwrap();
        }
    }

    #[test]
    fn string_table_rejects_bad_indexes_bad_tables_and_expansion_bombs() {
        // Two strings, then a reference to a third.
        let mut w = ByteWriter::new();
        w.write_varint(2);
        for s in ["a", "bc"] {
            w.write_varint(s.len() as u64);
            w.write_bytes(s.as_bytes());
        }
        w.write_varint(1);
        w.write_varint(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut table = StringTable::read_table(&mut r).unwrap();
        assert_eq!(table.read_ref(&mut r, "ref").unwrap(), "bc");
        assert_eq!(
            table.read_ref(&mut r, "ref").unwrap_err(),
            CodecError::StringIndexOutOfRange { what: "ref", index: 2, table_len: 2 }
        );

        // A table that declares more entries, or a longer entry, than the
        // stream holds is refused before anything is allocated for it.
        for bytes in [&[200u8, 1][..], &[1, 9, b'x'][..]] {
            assert!(matches!(
                StringTable::read_table(&mut ByteReader::new(bytes)).unwrap_err(),
                CodecError::LengthOverflow { .. }
            ));
        }
        assert_eq!(
            StringTable::read_table(&mut ByteReader::new(&[1, 1, 0xff])).unwrap_err(),
            CodecError::InvalidUtf8
        );

        // One long string behind many one-byte references: the references
        // are charged against the stream's length, not taken on faith.
        let long = "x".repeat(1 << 12);
        let mut w = ByteWriter::new();
        w.write_varint(1);
        w.write_varint(long.len() as u64);
        w.write_bytes(long.as_bytes());
        let refs = 4 * STRING_EXPANSION_LIMIT;
        w.write_bytes(&vec![0u8; refs]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut table = StringTable::read_table(&mut r).unwrap();
        let err = (0..refs).find_map(|_| table.read_ref(&mut r, "ref").err()).unwrap();
        assert_eq!(
            err,
            CodecError::StringExpansion { limit: bytes.len() * STRING_EXPANSION_LIMIT }
        );
    }

    /// Compress, decompress, and check the block against the expansion
    /// limit the decoder enforces.
    fn round_trip(raw: &[u8]) -> Vec<u8> {
        let block = compress(raw);
        assert_eq!(decompress(&block).unwrap(), raw);
        assert!(raw.len() <= BLOCK_EXPANSION_LIMIT * block.len());
        block
    }

    #[test]
    fn seeded_blocks_round_trip_from_empty_input_to_repeats_past_the_window() {
        assert_eq!(round_trip(&[]), [0]);
        assert_eq!(round_trip(&[7]), [1, 0x10, 7]);
        // One byte 100 000 times: a literal, then one match at offset 1
        // near the 255 : 1 ceiling.
        assert!(round_trip(&vec![b'x'; 100_000]).len() <= 100_000 / 250);

        // Incompressible bytes cost only their literal runs' headers.
        let mut seed = 0x5eed_0030;
        let mut noise = |n: usize| -> Vec<u8> { (0..n).map(|_| splitmix(&mut seed) as u8).collect() };
        let random = noise(8192);
        assert!(round_trip(&random).len() <= random.len() + random.len() / 255 + 8);

        // Over 64 KiB: a 20 KiB stretch again 90 KiB on, past the window,
        // so only literals can carry it ...
        let (stretch, gap) = (noise(20 << 10), noise(70 << 10));
        let far = [&stretch[..], &gap, &stretch].concat();
        assert!(round_trip(&far).len() >= far.len());
        // ... and again right after itself, inside it.
        let near = [&stretch[..], &stretch].concat();
        assert!(round_trip(&near).len() < stretch.len() + 1024);

        // Seeded mixes of noise over a small alphabet, runs of one byte and
        // copies of earlier stretches, so literal and match runs cross
        // their 15 and 270 continuations.
        for _ in 0..200 {
            let len = (splitmix(&mut seed) % 3000) as usize;
            let mut raw: Vec<u8> = Vec::with_capacity(len);
            while raw.len() < len {
                let piece = (splitmix(&mut seed) % 400) as usize + 1;
                match splitmix(&mut seed) % 3 {
                    0 => raw.extend((0..piece).map(|_| b'a' + (splitmix(&mut seed) % 4) as u8)),
                    1 => raw.resize(raw.len() + piece, splitmix(&mut seed) as u8),
                    _ if !raw.is_empty() => {
                        let from = (splitmix(&mut seed) as usize) % raw.len();
                        let piece = piece.min(raw.len() - from);
                        raw.extend_from_within(from..from + piece);
                    }
                    _ => raw.push(0),
                }
            }
            round_trip(&raw);
        }
    }

    #[test]
    fn malformed_blocks_are_typed_rejections() {
        let refused = |block: &[u8]| decompress(block).unwrap_err();
        // A match at offset 0, and one reaching back past the one byte made.
        assert_eq!(refused(&[5, 0x10, b'a', 0, 0]), CodecError::BlockOffset { offset: 0, produced: 1 });
        assert_eq!(refused(&[5, 0x10, b'a', 2, 0]), CodecError::BlockOffset { offset: 2, produced: 1 });
        // Five literals declared, one left in the block.
        assert_eq!(
            refused(&[5, 0x50, b'a']),
            CodecError::UnexpectedEof { what: "block literals", needed: 5, remaining: 1 }
        );
        // A literal run, then a match, past the declared length.
        assert_eq!(
            refused(&[2, 0x30, b'a', b'b', b'c']),
            CodecError::BlockOverrun { what: "literal run", declared: 2 }
        );
        assert_eq!(refused(&[5, 0x11, b'a', 1, 0]), CodecError::BlockOverrun { what: "match", declared: 5 });
        // A block that stops early, and one that goes on after its end.
        assert!(matches!(refused(&[9, 0x10, b'a', 1, 0]), CodecError::UnexpectedEof { what: "block token", .. }));
        assert_eq!(refused(&[1, 0x10, b'a', 0]), CodecError::TrailingBytes(1));
        assert!(matches!(refused(&[]), CodecError::UnexpectedEof { .. }));
    }

    #[test]
    fn a_block_declaring_past_the_expansion_limit_is_refused_before_it_allocates() {
        // The densest block the writer makes, one byte 1 MiB times, stays
        // under the limit.
        let block = round_trip(&vec![0; 1 << 20]);
        let mut r = ByteReader::new(&block);
        r.read_varint("length").unwrap();
        let sequences = &block[block.len() - r.remaining()..];
        // The same sequences under another declared length: at the limit
        // the check passes and the sequences run out; one past it is
        // refused before anything is decoded.
        let redeclared = |declared: u64| {
            let mut w = ByteWriter::new();
            w.write_varint(declared);
            w.write_bytes(sequences);
            w.into_bytes()
        };
        let header = (1..=10)
            .find(|&n| varint_bytes((BLOCK_EXPANSION_LIMIT * (n + sequences.len()) + 1) as u64).len() == n)
            .unwrap();
        let limit = BLOCK_EXPANSION_LIMIT * (header + sequences.len());
        assert!(matches!(
            decompress(&redeclared(limit as u64)).unwrap_err(),
            CodecError::UnexpectedEof { what: "block token", .. }
        ));
        assert_eq!(
            decompress(&redeclared(limit as u64 + 1)).unwrap_err(),
            CodecError::BlockExpansion { declared: limit as u64 + 1, limit }
        );
        assert_eq!(
            decompress(&redeclared(u64::MAX)).unwrap_err(),
            CodecError::BlockExpansion {
                declared: u64::MAX,
                limit: BLOCK_EXPANSION_LIMIT * (10 + sequences.len())
            }
        );
    }

    #[test]
    fn slice_round_trip() {
        let (floats, names) = ([1.5, -2.25, 0.0], ["a", "bb", "", "a"]);
        let mut strings = StringTableWriter::new();
        let mut w = ByteWriter::new();
        w.write_seq(&floats, |w, &v| w.write_f64(v));
        w.write_seq(&names, |w, s| strings.write_ref(w, s));
        let stream = strings.into_stream(w);
        let (fs, ss) = read_stream(&stream, |r, strings| {
            let fs = r.read_seq("fs", 8, |r| r.read_f64("f"))?;
            let ss = r.read_seq("ss", 1, |r| strings.read_ref(r, "s").map(str::to_string))?;
            Ok::<_, CodecError>((fs, ss))
        })
        .unwrap();
        assert_eq!((fs, ss), (floats.to_vec(), names.map(String::from).to_vec()));
        // A body that leaves the last reference unread is refused.
        let short = read_stream(&stream, |r, _| r.read_seq("fs", 8, |r| r.read_f64("f")));
        assert_eq!(short.unwrap_err(), CodecError::TrailingBytes(5));
    }

    #[test]
    fn eof_is_reported_with_context() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.read_u32("field").unwrap_err();
        assert_eq!(err, CodecError::UnexpectedEof { what: "field", needed: 4, remaining: 2 });
    }

    #[test]
    fn corrupted_length_prefix_is_rejected_not_allocated() {
        // A u64::MAX element count over an 8-byte element type must fail
        // fast instead of attempting an allocation that large.
        let bytes = varint_bytes(u64::MAX);
        let mut r = ByteReader::new(&bytes);
        let err = r.read_seq("floats", 8, |r| r.read_f64("f")).unwrap_err();
        assert!(matches!(err, CodecError::LengthOverflow { what: "floats", .. }));
        // 3 declared one-byte elements, 2 bytes left.
        let mut r = ByteReader::new(&[3, 0, 0]);
        assert_eq!(
            r.read_len("items", 1).unwrap_err(),
            CodecError::LengthOverflow { what: "items", declared: 3 }
        );
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
