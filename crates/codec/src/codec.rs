use std::collections::HashMap;

use ltee_intern::fnv1a64;

/// One stored format: the name a refusal calls its files by, the magic
/// they start with and the one version this build writes and reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// What a refusal calls a file of the format (`"model artifact"`).
    pub name: &'static str,
    /// The eight bytes every file of the format starts with.
    pub magic: [u8; 8],
    /// The format version this build writes and reads.
    pub version: u32,
}

impl Format {
    /// [`CodecError::UnsupportedVersion`] unless `found` is this build's
    /// version of the format.
    pub fn check_version(self, found: u32) -> Result<(), CodecError> {
        if found == self.version {
            Ok(())
        } else {
            Err(CodecError::UnsupportedVersion { format: self, found })
        }
    }

    /// The one comparison of a stored config fingerprint with the expected
    /// one: [`CodecError::ConfigMismatch`] when they differ.
    pub fn check_fingerprint(self, stored: u64, expected: u64) -> Result<(), CodecError> {
        if stored == expected {
            Ok(())
        } else {
            Err(CodecError::ConfigMismatch { format: self, stored, expected })
        }
    }
}

/// Why stored bytes were refused: a file of another format, version or
/// configuration, a damaged envelope, or a payload that does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// [`read_header`]: the input does not start with the format's magic.
    BadMagic(Format),
    /// [`Format::check_version`]: an intact file of another version of the
    /// format.
    UnsupportedVersion {
        /// The format asked for.
        format: Format,
        /// The version the file declares.
        found: u32,
    },
    /// [`Format::check_fingerprint`]: the file was written under another
    /// configuration.
    ConfigMismatch {
        /// The format asked for.
        format: Format,
        /// The fingerprint the file carries.
        stored: u64,
        /// The fingerprint of the configuration the caller supplied.
        expected: u64,
    },
    /// The envelope failed its length or checksum check ([`open`]), or the
    /// decoded state its cross-validation.
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
    /// A first-use string reference (`0`) came after every string of the
    /// table had been introduced: it names the entry past the table's end.
    StringIndexOutOfRange {
        /// What was being read.
        what: &'static str,
        /// The entry it names.
        index: u64,
        /// Strings the table holds.
        table_len: usize,
    },
    /// A repeat string reference reaches back past the first string: its
    /// distance exceeds the strings introduced so far.
    StringDistance {
        /// What was being read.
        what: &'static str,
        /// The reference's distance back from the cursor.
        distance: u64,
        /// Strings introduced before it.
        cursor: usize,
    },
    /// The body of a stream never introduced some entries of its string
    /// table.
    UnreferencedStrings {
        /// Entries the body introduced.
        referenced: usize,
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
    /// A literal, a match or a stored block of a compressed block reaches
    /// past the raw length the block declares.
    BlockOverrun {
        /// `"literal"`, `"match"` or `"stored block"`.
        what: &'static str,
        /// The declared raw length.
        declared: usize,
    },
    /// The final DEFLATE block of a compressed block ends before the raw
    /// length the block declares.
    BlockShort {
        /// The declared raw length.
        declared: usize,
        /// Raw bytes the stream produced.
        produced: usize,
    },
    /// A match of a compressed block reaches back before the first byte of
    /// the dictionary, or of the output when there is none.
    BlockOffset {
        /// The match's distance.
        offset: usize,
        /// Bytes before the match: the dictionary, then the raw bytes
        /// produced.
        produced: usize,
    },
    /// A stored DEFLATE block's `NLEN` is not the complement of its `LEN`.
    StoredLength {
        /// The block's `LEN`.
        len: u16,
        /// The block's `NLEN`.
        nlen: u16,
    },
    /// A dynamic DEFLATE block's code lengths do not spell a usable prefix
    /// code.
    BlockCode {
        /// `"code length code"`, `"code lengths"`, `"literal/length code"`
        /// or `"distance code"`.
        what: &'static str,
        /// What is wrong with it.
        defect: CodeDefect,
    },
    /// A decoded count or index lies outside the range its structure
    /// allows: a tree without nodes, a split on a feature the forest does
    /// not have, a child that does not point forward; a DEFLATE symbol or
    /// code count its alphabet does not have.
    OutOfRange {
        /// What was being read.
        what: &'static str,
        /// The decoded value.
        value: u64,
        /// The values the structure allows.
        allowed: std::ops::Range<u64>,
    },
    /// A metric model's aggregation model does not lay its features out
    /// as the model's metric list does.
    MetricLayout {
        /// The metric list (`"row_model.metrics"`, `"entity_model.metrics"`).
        what: &'static str,
        /// The first part that disagrees with it:
        /// `"pairwise.num_similarities"`, `"pairwise.feature_names"`,
        /// `"forest.feature_names"` or `"weighted.feature_names"`.
        part: &'static str,
    },
    /// Trailing bytes remained after the final field was decoded.
    TrailingBytes(usize),
}

/// Why the code lengths of a dynamic DEFLATE block were refused
/// ([`CodecError::BlockCode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeDefect {
    /// More codes of some lengths than a prefix code can hold.
    OverSubscribed,
    /// Fewer codes than a complete prefix code has, leaving bit patterns
    /// that decode to nothing.
    Incomplete,
    /// The literal/length code has no code for end of block.
    NoEndOfBlock,
    /// Code-length symbol 16, "repeat the previous length", comes first.
    RepeatWithoutLength,
    /// A repeat runs past the code lengths the header declares.
    RepeatPastEnd,
}

impl std::fmt::Display for CodeDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CodeDefect::OverSubscribed => "is over-subscribed",
            CodeDefect::Incomplete => "is incomplete",
            CodeDefect::NoEndOfBlock => "has no end-of-block code",
            CodeDefect::RepeatWithoutLength => "repeat a previous length before there is one",
            CodeDefect::RepeatPastEnd => "repeat past their declared count",
        })
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic(format) => write!(f, "not an LTEE {} (bad magic header)", format.name),
            CodecError::UnsupportedVersion { format, found } => write!(
                f,
                "unsupported {} format version {found} (this build reads version {})",
                format.name, format.version
            ),
            CodecError::ConfigMismatch { format, stored, expected } => write!(
                f,
                "{name} was written under a different configuration ({name} fingerprint \
                 {stored:#018x}, pipeline config fingerprint {expected:#018x}); use the \
                 configuration it was written under",
                name = format.name
            ),
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
                "{what} introduces string {index} of a {table_len}-string table"
            ),
            CodecError::StringDistance { what, distance, cursor } => write!(
                f,
                "{what} reaches {distance} strings back, {cursor} have been introduced"
            ),
            CodecError::UnreferencedStrings { referenced, table_len } => write!(
                f,
                "the stream introduces {referenced} of its {table_len} table strings"
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
            CodecError::BlockShort { declared, produced } => write!(
                f,
                "compressed block ends after {produced} of its declared {declared} raw bytes"
            ),
            CodecError::BlockOffset { offset, produced } => write!(
                f,
                "compressed block's match distance {offset} is outside the {produced} bytes produced"
            ),
            CodecError::StoredLength { len, nlen } => write!(
                f,
                "stored block length {len:#06x} does not match its complement {nlen:#06x}"
            ),
            CodecError::BlockCode { what, defect } => {
                write!(f, "compressed block's {what} {defect}")
            }
            CodecError::OutOfRange { what, value, allowed } => {
                write!(f, "{what} {value} is outside {allowed:?}")
            }
            CodecError::MetricLayout { what, part } => {
                write!(f, "{part} do not follow the feature layout of {what}")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the final field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only writer producing the byte layout described in the
/// [crate docs](crate).
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

    /// Append a `u64` as an LEB128 varint (see the [crate docs](crate)).
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
    /// through `item`. Over a borrowed collection (a slice, a `Vec`, any
    /// iterator that knows its length) the closure sees each element at
    /// the collection's own lifetime, so it can hand element strings to a
    /// [`StringTableWriter`].
    pub fn write_seq<I>(&mut self, items: I, mut item: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
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

/// Encode side of a stream's string table: puts each distinct string in
/// the table in first-use order (so the table, and with it the stream, is
/// a function of the encoded data alone), writes each reference by recency
/// (see the [crate docs](crate)) and puts the table in front of the body
/// once the body is encoded. References must be written in the order the
/// body's bytes are, which is the order the decoder meets them.
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

    /// Append a reference to `s` to `w`: `0` on its first use, which adds
    /// it to the table, else its distance back from the cursor.
    pub fn write_ref(&mut self, w: &mut ByteWriter, s: &'a str) {
        let cursor = self.strings.len() as u64;
        let index = *self.index.entry(s).or_insert(cursor);
        if index == cursor {
            self.strings.push(s);
        }
        self.references += 1;
        w.write_varint(cursor - index);
    }

    /// Assemble the raw stream: the table, `count · (byte length · UTF-8
    /// bytes)*`, then the `body` whose references filled it, which is
    /// where [`StringTable::read_table`] expects to find it. The container
    /// that stores it compresses it.
    pub fn into_stream(self, body: ByteWriter) -> Vec<u8> {
        let body = body.into_bytes();
        let mut w = ByteWriter::with_capacity(self.table_len() + body.len());
        w.write_seq(&self.strings, |w, s| {
            w.write_varint(s.len() as u64);
            w.write_bytes(s.as_bytes());
        });
        w.write_bytes(&body);
        w.into_bytes()
    }

    /// Bytes the table takes at the head of the stream.
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
/// stream, references are resolved against the cursor of strings
/// introduced so far, and every resolved reference is charged against the
/// stream's expansion budget (see [`STRING_EXPANSION_LIMIT`]).
#[derive(Debug)]
pub struct StringTable<'a> {
    strings: Vec<&'a str>,
    cursor: usize,
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
        Ok(Self { strings, cursor: 0, limit, spent: 0 })
    }

    /// Read one reference written by [`StringTableWriter::write_ref`] and
    /// resolve it: `0` is the next table entry, which moves the cursor on;
    /// a distance `d` is the entry `d` before the cursor.
    pub fn read_ref(
        &mut self,
        r: &mut ByteReader<'_>,
        what: &'static str,
    ) -> Result<&'a str, CodecError> {
        let distance = r.read_varint(what)?;
        let index = if distance == 0 {
            let index = self.cursor;
            if index == self.strings.len() {
                let table_len = self.strings.len();
                return Err(CodecError::StringIndexOutOfRange { what, index: index as u64, table_len });
            }
            self.cursor += 1;
            index
        } else {
            usize::try_from(distance)
                .ok()
                .and_then(|d| self.cursor.checked_sub(d))
                .ok_or(CodecError::StringDistance { what, distance, cursor: self.cursor })?
        };
        let s = self.strings[index];
        self.spent = self.spent.saturating_add(s.len());
        if self.spent > self.limit {
            return Err(CodecError::StringExpansion { limit: self.limit });
        }
        Ok(s)
    }

    /// Fail unless the body introduced every string of the table.
    fn expect_all_referenced(&self) -> Result<(), CodecError> {
        if self.cursor == self.strings.len() {
            Ok(())
        } else {
            Err(CodecError::UnreferencedStrings { referenced: self.cursor, table_len: self.strings.len() })
        }
    }
}

/// Read a raw stream [`StringTableWriter::into_stream`] assembled: the
/// string table at its head, then the rest through `body`, which must
/// consume every byte and introduce every string of the table. Every
/// payload format reads its stream through this one function.
pub fn read_stream<T, E: From<CodecError>>(
    raw: &[u8],
    body: impl for<'s> FnOnce(&mut ByteReader<'s>, &mut StringTable<'s>) -> Result<T, E>,
) -> Result<T, E> {
    let mut r = ByteReader::new(raw);
    let mut strings = StringTable::read_table(&mut r)?;
    let decoded = body(&mut r, &mut strings)?;
    r.expect_eof()?;
    strings.expect_all_referenced()?;
    Ok(decoded)
}

/// Raw bytes a compressed block may declare per byte of its own length.
///
/// DEFLATE itself reaches about 1 032 : 1 — a 258-byte match in two bits —
/// so the bound is a rule of the block, not of DEFLATE. [`decompress`]
/// refuses a declared length above 255 per byte of block before it
/// allocates anything, and refuses a symbol the moment it would take the
/// output past the declared length, so no block — whoever wrote it — costs
/// a decoder more than 255 bytes per stored byte. A dictionary does not
/// count: the decoder holds it already, and copies at most [`WINDOW`] bytes
/// of it. [`compress`] keeps its
/// own blocks inside the bound by putting empty stored blocks, five bytes
/// each, in front of a stream that would be denser. The [`StringTable`] at
/// the head of a payload stream then charges resolved strings against
/// [`STRING_EXPANSION_LIMIT`] bytes per *raw* byte, so a stored payload stream can ask for at most
/// `255 × (1 + 64)` = 16 575 bytes — raw stream plus strings — per stored
/// byte, where an uncompressed one could ask for 65. Charging the strings
/// against the stored bytes instead would make whether a stream decodes
/// depend on how well it compressed, and refuse first the streams that
/// repeat long strings most.
pub const BLOCK_EXPANSION_LIMIT: usize = 255;

/// Bytes the match finder hashes and a match must repeat. DEFLATE codes
/// matches from three bytes, but with one candidate per table slot a
/// three-byte hash finds fewer long matches than it gains short ones: it
/// stores the payloads of a benchmark store 1.6 % larger.
const MIN_MATCH: usize = 4;

/// Longest match DEFLATE codes.
const MAX_MATCH: usize = 258;

/// Farthest back a DEFLATE distance reaches, and so the most of a
/// dictionary [`compress`] and [`decompress`] use: its last `WINDOW` bytes.
pub const WINDOW: usize = 32 * 1024;

/// Index bits of the narrowest and the widest match-finder table
/// [`compress`] builds; in between the table is sized to its input.
const HASH_BITS: std::ops::RangeInclusive<u32> = 8..=15;

/// LZ77 tokens per DEFLATE block: each block's codes fit its own symbols.
/// A payload's string table and body code differently, so short blocks
/// pay for their headers; of the powers of two from 2⁹ to 2¹⁶, 2¹² stores
/// the payloads of a benchmark store smallest but for 2¹¹, within 0.1 %.
const BLOCK_TOKENS: usize = 1 << 12;

/// Longest code of the literal/length and distance alphabets, and of the
/// code-length alphabet that spells a dynamic block's code lengths.
const MAX_CODE_BITS: u8 = 15;
const MAX_CODE_LENGTH_BITS: u8 = 7;

/// Literal/length symbols a block may use (0–255 literals, 256 end of
/// block, 257–285 lengths) and distance symbols (0–29). The fixed code
/// also has codes for literal/length 286, 287 and distance 30, 31, which
/// never occur.
const LITERAL_SYMBOLS: usize = 286;
const DISTANCE_SYMBOLS: usize = 30;
const END_OF_BLOCK: usize = 256;

/// Shortest match of each length symbol from 257 on, and its extra bits.
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115,
    131, 163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] =
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0];

/// Shortest distance of each distance symbol, and its extra bits.
const DISTANCE_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DISTANCE_EXTRA: [u8; 30] =
    [0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13];

/// The order a dynamic block's header lists the code-length code's lengths.
const CODE_LENGTH_ORDER: [usize; 19] =
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15];

/// Block types of the three-bit block header, after its final-block bit.
const STORED: u32 = 0;
const FIXED: u32 = 1;
const DYNAMIC: u32 = 2;

/// A non-final stored block of no bytes, starting on a byte boundary:
/// header bits `0 · 00`, padding, `LEN = 0`, `NLEN = 0xffff`.
const EMPTY_STORED_BLOCK: [u8; 5] = [0, 0, 0, 0xff, 0xff];

/// The fixed code's lengths: literal/length, then distance.
fn fixed_lengths() -> ([u8; 288], [u8; 32]) {
    let mut literal = [8; 288];
    literal[144..256].fill(9);
    literal[256..280].fill(7);
    (literal, [5; 32])
}

/// One LZ77 step: a literal byte, or a copy of `len` bytes from `dist`
/// back.
#[derive(Debug, Clone, Copy)]
enum Token {
    Literal(u8),
    Match { len: u16, dist: u16 },
}

/// Index of the length symbol (minus 257) that codes a match of `len`.
fn length_symbol(len: u16) -> usize {
    LENGTH_BASE.partition_point(|&base| base <= len) - 1
}

/// The distance symbol that codes `dist`.
fn distance_symbol(dist: u16) -> usize {
    DISTANCE_BASE.partition_point(|&base| base <= dist) - 1
}

/// Compress `raw` into one block (layout in the [crate docs](crate)),
/// taking it to follow the last [`WINDOW`] bytes of `dictionary`, which
/// the block does not hold; pass `&[]` for a block that stands alone.
///
/// Greedy LZ77 over DEFLATE's 32 KiB window. The match finder is a table
/// holding, per hash of four bytes, the last position that hashed there,
/// sized to dictionary and input together (2⁸ to 2¹⁵ entries); every
/// position of the dictionary is entered first, in order, as if its bytes
/// had just been coded, but none of them is coded or searched. At each
/// position of `raw` the table's one candidate is taken if the four bytes
/// really repeat, and extended as far as the bytes agree, up to 258. Every
/// position a match covers is entered into the table. Every 4 096 tokens
/// end a DEFLATE block, and each block is written as the cheapest of
/// stored, fixed and dynamic Huffman codes, its dynamic codes built from
/// its own symbol counts and limited to 15 bits. The hash is a fixed
/// multiplication and every tie is broken by symbol, so a block is a
/// function of `raw` and the dictionary alone.
///
/// By construction [`decompress`] accepts every block this writes, given
/// the same dictionary: each distance is `at − candidate` for a candidate
/// at most 32 KiB before `at`, so it lies in 1 ..= the dictionary and the
/// bytes already produced; the tokens spell `raw` exactly, so the output
/// ends at the declared length, which is `raw.len()`; every code is
/// complete; and the empty stored blocks in front keep the block inside
/// [`BLOCK_EXPANSION_LIMIT`].
pub fn compress(raw: &[u8], dictionary: &[u8]) -> Vec<u8> {
    let dictionary = &dictionary[dictionary.len().saturating_sub(WINDOW)..];
    let joined;
    let input = if dictionary.is_empty() {
        raw
    } else {
        joined = [dictionary, raw].concat();
        &joined[..]
    };
    let start = dictionary.len();
    let mut deflate =
        Deflater { raw: input, w: BitWriter::with_capacity(raw.len() / 2 + 16), stored_from: None };
    let bits = (usize::BITS - input.len().saturating_sub(1).leading_zeros())
        .clamp(*HASH_BITS.start(), *HASH_BITS.end());
    // Positions are kept as `u32`: every candidate is verified against the
    // input, so a position that wrapped can only cost a match.
    let mut table = vec![u32::MAX; 1 << bits];
    for (seeded, word) in input.windows(MIN_MATCH).take(start).enumerate() {
        table[hash_word(word, bits)] = seeded as u32;
    }
    let mut tokens = Vec::with_capacity(BLOCK_TOKENS.min(raw.len() + 1));
    let (mut block_start, mut at) = (start, start);
    while at < input.len() {
        if tokens.len() >= BLOCK_TOKENS {
            deflate.block(&tokens, block_start..at, false);
            tokens.clear();
            block_start = at;
        }
        let Some((len, dist)) = longest_match(input, &mut table, bits, at) else {
            tokens.push(Token::Literal(input[at]));
            at += 1;
            continue;
        };
        tokens.push(Token::Match { len: len as u16, dist: dist as u16 });
        for covered in at + 1..(at + len).min(input.len() + 1 - MIN_MATCH) {
            table[hash4(input, covered, bits)] = covered as u32;
        }
        at += len;
    }
    deflate.block(&tokens, block_start..input.len(), true);
    let deflate = deflate.w.finish();

    let mut w = ByteWriter::with_capacity(deflate.len() + 10);
    w.write_varint(raw.len() as u64);
    let short = raw.len().div_ceil(BLOCK_EXPANSION_LIMIT).saturating_sub(w.len() + deflate.len());
    for _ in 0..short.div_ceil(EMPTY_STORED_BLOCK.len()) {
        w.write_bytes(&EMPTY_STORED_BLOCK);
    }
    w.write_bytes(&deflate);
    w.into_bytes()
}

/// The longest match at `at` the table offers, as `(length, distance)`;
/// `at` takes the table slot of its four bytes.
fn longest_match(raw: &[u8], table: &mut [u32], bits: u32, at: usize) -> Option<(usize, usize)> {
    if at + MIN_MATCH > raw.len() {
        return None;
    }
    let slot = hash4(raw, at, bits);
    let candidate = table[slot] as usize;
    table[slot] = at as u32;
    if candidate >= at
        || at - candidate > WINDOW
        || raw[candidate..candidate + MIN_MATCH] != raw[at..at + MIN_MATCH]
    {
        return None;
    }
    let len = MIN_MATCH
        + raw[candidate + MIN_MATCH..]
            .iter()
            .zip(&raw[at + MIN_MATCH..])
            .take(MAX_MATCH - MIN_MATCH)
            .take_while(|(a, b)| a == b)
            .count();
    Some((len, at - candidate))
}

/// The match-finder slot of the four bytes at `at`: the top `bits` bits of
/// their little-endian word times Knuth's multiplicative constant.
fn hash4(raw: &[u8], at: usize, bits: u32) -> usize {
    hash_word(&raw[at..at + MIN_MATCH], bits)
}

/// [`hash4`] of the four bytes `word`.
fn hash_word(word: &[u8], bits: u32) -> usize {
    let word = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
    (word.wrapping_mul(0x9e37_79b1) >> (32 - bits)) as usize
}

/// The DEFLATE stream [`compress`] writes: blocks of tokens, each coded the
/// cheapest way. A run of blocks that are cheapest stored is held back and
/// written as one stored run, so incompressible input costs five bytes per
/// 65 535, not per block.
#[derive(Debug)]
struct Deflater<'a> {
    raw: &'a [u8],
    w: BitWriter,
    /// Where the stored run held back starts in `raw`.
    stored_from: Option<usize>,
}

impl Deflater<'_> {
    /// One block holding `tokens`, which spell `raw[span]`, as whichever of
    /// stored, fixed and dynamic takes the fewest bits (ties in that
    /// order).
    fn block(&mut self, tokens: &[Token], span: std::ops::Range<usize>, last: bool) {
        let mut literal_counts = [0u32; LITERAL_SYMBOLS];
        let mut distance_counts = [0u32; DISTANCE_SYMBOLS];
        let mut extra_bits = 0u64;
        for &token in tokens {
            match token {
                Token::Literal(byte) => literal_counts[usize::from(byte)] += 1,
                Token::Match { len, dist } => {
                    let (l, d) = (length_symbol(len), distance_symbol(dist));
                    literal_counts[END_OF_BLOCK + 1 + l] += 1;
                    distance_counts[d] += 1;
                    extra_bits += u64::from(LENGTH_EXTRA[l] + DISTANCE_EXTRA[d]);
                }
            }
        }
        literal_counts[END_OF_BLOCK] = 1;
        let data_bits = |literal: &[u8], distance: &[u8]| {
            let cost = |counts: &[u32], lengths: &[u8]| {
                counts.iter().zip(lengths).map(|(&n, &len)| u64::from(n) * u64::from(len)).sum::<u64>()
            };
            3 + cost(&literal_counts, literal) + cost(&distance_counts, distance) + extra_bits
        };
        let (fixed_literal, fixed_distance) = fixed_lengths();
        let fixed_bits = data_bits(&fixed_literal, &fixed_distance);
        let dynamic = DynamicCodes::new(&literal_counts, &distance_counts);
        let dynamic_bits =
            dynamic.header_bits() + data_bits(&dynamic.literal.lengths, &dynamic.distance.lengths);
        let stored_bits = match self.stored_from {
            // Joined to the run held back: its bytes, and a header for
            // every 65 535 the run grows past.
            Some(from) => {
                let headers = |len: usize| len.div_ceil(STORED_MAX) as u64;
                8 * span.len() as u64 + 40 * (headers(span.end - from) - headers(span.start - from))
            }
            None => stored_bits(self.w.bit_len(), span.len()),
        };
        if stored_bits <= fixed_bits.min(dynamic_bits) {
            let from = *self.stored_from.get_or_insert(span.start);
            if last {
                write_stored(&mut self.w, &self.raw[from..span.end], true);
            }
            return;
        }
        if let Some(from) = self.stored_from.take() {
            write_stored(&mut self.w, &self.raw[from..span.start], false);
        }
        let header = u32::from(last);
        if fixed_bits <= dynamic_bits {
            self.w.put(header | FIXED << 1, 3);
            write_tokens(&mut self.w, tokens, &Code::new(&fixed_literal), &Code::new(&fixed_distance));
        } else {
            self.w.put(header | DYNAMIC << 1, 3);
            dynamic.write_header(&mut self.w);
            write_tokens(&mut self.w, tokens, &dynamic.literal, &dynamic.distance);
        }
    }
}

/// Most bytes one stored block holds.
const STORED_MAX: usize = u16::MAX as usize;

/// Bits `len` bytes take as stored blocks, the first starting `at_bit`
/// into the stream: each a three-bit header, padding to the byte, `LEN ·
/// NLEN`, then its bytes.
fn stored_bits(at_bit: u64, len: usize) -> u64 {
    let blocks = len.div_ceil(STORED_MAX).max(1) as u64;
    let first_padding = (8 - (at_bit + 3) % 8) % 8;
    first_padding + blocks * (3 + 32) + (blocks - 1) * 5 + 8 * len as u64
}

/// `raw` as stored blocks of at most [`STORED_MAX`] bytes; the last one is
/// the stream's final block when `last` is.
fn write_stored(w: &mut BitWriter, raw: &[u8], last: bool) {
    let blocks = raw.len().div_ceil(STORED_MAX).max(1);
    for i in 0..blocks {
        let chunk = &raw[i * STORED_MAX..raw.len().min((i + 1) * STORED_MAX)];
        w.put(u32::from(last && i + 1 == blocks) | STORED << 1, 3);
        w.align();
        let len = chunk.len() as u32;
        w.put(len, 16);
        w.put(!len & 0xffff, 16);
        w.bytes.extend_from_slice(chunk);
    }
}

/// The tokens, then the end of the block, under the given codes.
fn write_tokens(w: &mut BitWriter, tokens: &[Token], literal: &Code, distance: &Code) {
    for &token in tokens {
        match token {
            Token::Literal(byte) => literal.put(w, usize::from(byte)),
            Token::Match { len, dist } => {
                let (l, d) = (length_symbol(len), distance_symbol(dist));
                literal.put(w, END_OF_BLOCK + 1 + l);
                w.put(u32::from(len - LENGTH_BASE[l]), LENGTH_EXTRA[l]);
                distance.put(w, d);
                w.put(u32::from(dist - DISTANCE_BASE[d]), DISTANCE_EXTRA[d]);
            }
        }
    }
    literal.put(w, END_OF_BLOCK);
}

/// Bits appended least significant first, as DEFLATE packs them.
#[derive(Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    pending: u64,
    pending_bits: u32,
}

impl BitWriter {
    fn with_capacity(bytes: usize) -> Self {
        Self { bytes: Vec::with_capacity(bytes), ..Self::default() }
    }

    /// Append the low `bits` bits of `value`.
    fn put(&mut self, value: u32, bits: u8) {
        self.pending |= u64::from(value) << self.pending_bits;
        self.pending_bits += u32::from(bits);
        while self.pending_bits >= 8 {
            self.bytes.push(self.pending as u8);
            self.pending >>= 8;
            self.pending_bits -= 8;
        }
    }

    /// Pad with zero bits to the next byte boundary.
    fn align(&mut self) {
        if self.pending_bits > 0 {
            self.bytes.push(self.pending as u8);
            (self.pending, self.pending_bits) = (0, 0);
        }
    }

    fn bit_len(&self) -> u64 {
        8 * self.bytes.len() as u64 + u64::from(self.pending_bits)
    }

    fn finish(mut self) -> Vec<u8> {
        self.align();
        self.bytes
    }
}

/// A prefix code as the encoder writes it: per symbol its length, and its
/// canonical code (RFC 1951 §3.2.2) bit-reversed, because Huffman codes are
/// packed most significant bit first into a stream written least
/// significant bit first.
#[derive(Debug)]
struct Code {
    lengths: Vec<u8>,
    codes: Vec<u16>,
}

impl Code {
    fn new(lengths: &[u8]) -> Self {
        let mut count = [0u16; 16];
        for &len in lengths {
            count[usize::from(len)] += 1;
        }
        count[0] = 0;
        let mut next = [0u16; 16];
        for len in 1..16 {
            next[len] = (next[len - 1] + count[len - 1]) << 1;
        }
        let codes = lengths
            .iter()
            .map(|&len| {
                if len == 0 {
                    return 0;
                }
                let code = next[usize::from(len)];
                next[usize::from(len)] += 1;
                code.reverse_bits() >> (16 - len)
            })
            .collect();
        Self { lengths: lengths.to_vec(), codes }
    }

    fn put(&self, w: &mut BitWriter, symbol: usize) {
        w.put(u32::from(self.codes[symbol]), self.lengths[symbol]);
    }
}

/// Huffman code lengths for symbols counted `counts`, none longer than
/// `limit` bits. At least two symbols get a code — unused ones, lowest
/// first, if fewer than two occur — so the code is always complete.
///
/// The lengths are the depths of a Huffman tree built by the two-queue
/// method over the counts sorted by (count, symbol). Depths past `limit`
/// are cut to it and the Kraft sum repaired by moving codes down a level,
/// and the lengths, so many per level, go back to the symbols in count
/// order, the rarest getting the longest.
fn code_lengths(counts: &[u32], limit: u8) -> Vec<u8> {
    let mut leaves: Vec<(u32, usize)> =
        counts.iter().enumerate().filter(|&(_, &n)| n > 0).map(|(s, &n)| (n, s)).collect();
    for unused in (0..counts.len()).filter(|&s| counts[s] == 0) {
        if leaves.len() >= 2 {
            break;
        }
        leaves.push((0, unused));
    }
    leaves.sort_unstable();
    let n = leaves.len();
    // Nodes 0..n are the leaves, n.. the merged nodes in the order they
    // were made, which is also ascending weight.
    let mut weight: Vec<u64> = leaves.iter().map(|&(count, _)| u64::from(count)).collect();
    let mut parent = vec![0; 2 * n - 1];
    let (mut next_leaf, mut next_node) = (0, n);
    for node in n..2 * n - 1 {
        let mut lightest = || {
            let take_leaf =
                next_leaf < n && (next_node == node || weight[next_leaf] <= weight[next_node]);
            let taken = if take_leaf { &mut next_leaf } else { &mut next_node };
            *taken += 1;
            *taken - 1
        };
        let (a, b) = (lightest(), lightest());
        parent[a] = node;
        parent[b] = node;
        weight.push(weight[a] + weight[b]);
    }
    let mut depth = vec![0u8; 2 * n - 1];
    let mut per_level = [0u32; 16];
    for node in (0..2 * n - 2).rev() {
        depth[node] = depth[parent[node]].saturating_add(1);
        if node < n {
            per_level[usize::from(depth[node].min(limit))] += 1;
        }
    }
    let limit = usize::from(limit);
    let mut kraft: u32 = (1..=limit).map(|len| per_level[len] << (limit - len)).sum();
    while kraft > 1 << limit {
        per_level[limit] -= 1;
        if let Some(len) = (1..limit).rev().find(|&len| per_level[len] > 0) {
            per_level[len] -= 1;
            per_level[len + 1] += 2;
        }
        kraft -= 1;
    }
    let mut lengths = vec![0; counts.len()];
    let mut rarest_first = leaves.iter();
    for len in (1..=limit).rev() {
        for &(_, symbol) in rarest_first.by_ref().take(per_level[len] as usize) {
            lengths[symbol] = len as u8;
        }
    }
    lengths
}

/// A dynamic block's codes and the header that spells them: `HLIT · HDIST
/// · HCLEN`, the code-length code's lengths in [`CODE_LENGTH_ORDER`], then
/// the literal/length and distance code lengths as one sequence,
/// run-length coded with code-length symbols 16 (repeat the previous length
/// 3–6 times), 17 (3–10 zeros) and 18 (11–138 zeros).
#[derive(Debug)]
struct DynamicCodes {
    literal: Code,
    distance: Code,
    code_length: Code,
    /// Literal/length, distance and code-length code lengths the header
    /// lists.
    listed: [usize; 3],
    /// The run-length coded lengths: symbol and extra-bits value.
    runs: Vec<(u8, u8)>,
}

impl DynamicCodes {
    fn new(literal_counts: &[u32], distance_counts: &[u32]) -> Self {
        let literal = code_lengths(literal_counts, MAX_CODE_BITS);
        let distance = code_lengths(distance_counts, MAX_CODE_BITS);
        let listed = |lengths: &[u8], least: usize| {
            lengths.iter().rposition(|&len| len > 0).map_or(least, |last| (last + 1).max(least))
        };
        let (literals, distances) = (listed(&literal, END_OF_BLOCK + 1), listed(&distance, 1));
        let all: Vec<u8> = literal[..literals].iter().chain(&distance[..distances]).copied().collect();
        let mut runs = Vec::new();
        let mut at = 0;
        while at < all.len() {
            let len = all[at];
            let mut run = all[at..].iter().take_while(|&&l| l == len).count();
            at += run;
            if len == 0 {
                while run >= 11 {
                    let take = run.min(138);
                    runs.push((18, (take - 11) as u8));
                    run -= take;
                }
                if run >= 3 {
                    runs.push((17, (run - 3) as u8));
                    run = 0;
                }
            } else {
                runs.push((len, 0));
                run -= 1;
                while run >= 3 {
                    let take = run.min(6);
                    runs.push((16, (take - 3) as u8));
                    run -= take;
                }
            }
            runs.extend(std::iter::repeat_n((len, 0), run));
        }
        let mut run_counts = [0u32; 19];
        for &(symbol, _) in &runs {
            run_counts[usize::from(symbol)] += 1;
        }
        let code_length = code_lengths(&run_counts, MAX_CODE_LENGTH_BITS);
        let code_lengths = CODE_LENGTH_ORDER
            .iter()
            .rposition(|&s| code_length[s] > 0)
            .map_or(4, |last| (last + 1).max(4));
        Self {
            literal: Code::new(&literal),
            distance: Code::new(&distance),
            code_length: Code::new(&code_length),
            listed: [literals, distances, code_lengths],
            runs,
        }
    }

    /// Bits the header spelling the codes takes.
    fn header_bits(&self) -> u64 {
        let runs: u64 = self
            .runs
            .iter()
            .map(|&(symbol, _)| {
                u64::from(self.code_length.lengths[usize::from(symbol)] + repeat_bits(symbol))
            })
            .sum();
        5 + 5 + 4 + 3 * self.listed[2] as u64 + runs
    }

    fn write_header(&self, w: &mut BitWriter) {
        let [literals, distances, code_lengths] = self.listed;
        w.put((literals - (END_OF_BLOCK + 1)) as u32, 5);
        w.put((distances - 1) as u32, 5);
        w.put((code_lengths - 4) as u32, 4);
        for &symbol in &CODE_LENGTH_ORDER[..code_lengths] {
            w.put(u32::from(self.code_length.lengths[symbol]), 3);
        }
        for &(symbol, extra) in &self.runs {
            self.code_length.put(w, usize::from(symbol));
            w.put(u32::from(extra), repeat_bits(symbol));
        }
    }
}

/// Extra bits after code-length symbol `symbol`.
fn repeat_bits(symbol: u8) -> u8 {
    match symbol {
        16 => 2,
        17 => 3,
        18 => 7,
        _ => 0,
    }
}

/// Inverse of [`compress`]: inflate the raw DEFLATE stream after the
/// declared length, matches reaching back into the last [`WINDOW`] bytes of
/// `dictionary` as into output. Every field is checked before it is
/// trusted: a declared length over [`BLOCK_EXPANSION_LIMIT`] per block byte
/// is refused before anything is allocated; a block type must not be the
/// reserved 3, a stored block's `NLEN` must complement its `LEN`, and a
/// dynamic block's code lengths must form complete prefix codes
/// ([`CodeDefect`]) — but for RFC 1951's one case of a distance code with
/// no code or one one-bit code — with an end-of-block code; a symbol must
/// be one the alphabet allows, a distance must point into the dictionary
/// or the bytes already produced, no literal, match or stored block may
/// take the output past the declared length, the final block must end
/// exactly there, and nothing but the final byte's padding may follow it.
pub fn decompress(block: &[u8], dictionary: &[u8]) -> Result<Vec<u8>, CodecError> {
    let dictionary = &dictionary[dictionary.len().saturating_sub(WINDOW)..];
    let mut r = ByteReader::new(block);
    let declared = r.read_varint("block length")?;
    let limit = block.len().saturating_mul(BLOCK_EXPANSION_LIMIT);
    let raw_len = usize::try_from(declared)
        .ok()
        .filter(|&len| len <= limit)
        .ok_or(CodecError::BlockExpansion { declared, limit })?;
    // The output follows the dictionary in one buffer, so a match copies
    // out of either the same way.
    let mut out = Output { bytes: Vec::with_capacity(dictionary.len() + raw_len), start: dictionary.len(), raw_len };
    out.bytes.extend_from_slice(dictionary);
    let mut bits = BitReader::new(r.read_bytes(r.remaining(), "deflate stream")?);
    // Built at the first fixed block: a stream of empty fixed blocks must
    // not cost a table build per ten bits.
    let mut fixed: Option<(Decoder, Decoder)> = None;
    loop {
        let last = bits.take(1)? == 1;
        match bits.take(2)? {
            STORED => {
                bits.align();
                let (len, nlen) = (bits.take(16)?, bits.take(16)?);
                if len != !nlen & 0xffff {
                    return Err(CodecError::StoredLength { len: len as u16, nlen: nlen as u16 });
                }
                let len = len as usize;
                if len > out.room() {
                    return Err(CodecError::BlockOverrun { what: "stored block", declared: raw_len });
                }
                bits.copy_bytes(len, &mut out.bytes)?;
            }
            FIXED => {
                if fixed.is_none() {
                    let (literal, distance) = fixed_lengths();
                    fixed = Some((
                        Decoder::new(&literal, "literal/length code", false)?,
                        Decoder::new(&distance, "distance code", true)?,
                    ));
                }
                if let Some((literal, distance)) = &fixed {
                    inflate_block(&mut bits, &mut out, literal, distance)?;
                }
            }
            DYNAMIC => {
                let (literal, distance) = read_dynamic_codes(&mut bits)?;
                inflate_block(&mut bits, &mut out, &literal, &distance)?;
            }
            tag => return Err(CodecError::InvalidTag { what: "deflate block type", tag: tag as u8 }),
        }
        if last {
            break;
        }
    }
    bits.align();
    if bits.remaining_bytes() > 0 {
        return Err(CodecError::TrailingBytes(bits.remaining_bytes()));
    }
    if out.room() > 0 {
        return Err(CodecError::BlockShort { declared: raw_len, produced: out.bytes.len() - out.start });
    }
    out.bytes.drain(..out.start);
    Ok(out.bytes)
}

/// What [`decompress`] has inflated so far: the dictionary, then the raw
/// bytes from `start` on, which must come to `raw_len`.
#[derive(Debug)]
struct Output {
    bytes: Vec<u8>,
    start: usize,
    raw_len: usize,
}

impl Output {
    /// Raw bytes still to come.
    fn room(&self) -> usize {
        self.start + self.raw_len - self.bytes.len()
    }
}

/// A dynamic block's header: the code-length code, then the literal/length
/// and distance codes it spells.
fn read_dynamic_codes(bits: &mut BitReader<'_>) -> Result<(Decoder, Decoder), CodecError> {
    let literals = bits.take(5)? as usize + END_OF_BLOCK + 1;
    if literals > LITERAL_SYMBOLS {
        let allowed = END_OF_BLOCK as u64 + 1..LITERAL_SYMBOLS as u64 + 1;
        let value = literals as u64;
        return Err(CodecError::OutOfRange { what: "literal/length code count", value, allowed });
    }
    let distances = bits.take(5)? as usize + 1;
    if distances > DISTANCE_SYMBOLS {
        let allowed = 1..DISTANCE_SYMBOLS as u64 + 1;
        let value = distances as u64;
        return Err(CodecError::OutOfRange { what: "distance code count", value, allowed });
    }
    let mut code_length = [0u8; 19];
    for &symbol in &CODE_LENGTH_ORDER[..bits.take(4)? as usize + 4] {
        code_length[symbol] = bits.take(3)? as u8;
    }
    let code_length = Decoder::new(&code_length, "code length code", false)?;
    let mut lengths = [0u8; LITERAL_SYMBOLS + DISTANCE_SYMBOLS];
    let lengths = &mut lengths[..literals + distances];
    let mut at = 0;
    while at < lengths.len() {
        let symbol = code_length.decode(bits)?;
        let (len, run) = match symbol {
            16 => {
                let Some(&previous) = at.checked_sub(1).map(|i| &lengths[i]) else {
                    let defect = CodeDefect::RepeatWithoutLength;
                    return Err(CodecError::BlockCode { what: "code lengths", defect });
                };
                (previous, 3 + bits.take(2)?)
            }
            17 => (0, 3 + bits.take(3)?),
            18 => (0, 11 + bits.take(7)?),
            len => (len as u8, 1),
        };
        let end = at + run as usize;
        if end > lengths.len() {
            return Err(CodecError::BlockCode { what: "code lengths", defect: CodeDefect::RepeatPastEnd });
        }
        lengths[at..end].fill(len);
        at = end;
    }
    if lengths[END_OF_BLOCK] == 0 {
        let defect = CodeDefect::NoEndOfBlock;
        return Err(CodecError::BlockCode { what: "literal/length code", defect });
    }
    let (literal, distance) = lengths.split_at(literals);
    Ok((
        Decoder::new(literal, "literal/length code", false)?,
        Decoder::new(distance, "distance code", true)?,
    ))
}

/// Inflate one fixed or dynamic block's symbols up to its end of block.
fn inflate_block(
    bits: &mut BitReader<'_>,
    out: &mut Output,
    literal: &Decoder,
    distance: &Decoder,
) -> Result<(), CodecError> {
    loop {
        let symbol = literal.decode(bits)?;
        match symbol {
            0..=255 => {
                if out.room() == 0 {
                    return Err(CodecError::BlockOverrun { what: "literal", declared: out.raw_len });
                }
                out.bytes.push(symbol as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let l = symbol - (END_OF_BLOCK + 1);
                let len = usize::from(LENGTH_BASE[l]) + bits.take(LENGTH_EXTRA[l])? as usize;
                let d = distance.decode(bits)?;
                if d >= DISTANCE_SYMBOLS {
                    let allowed = 0..DISTANCE_SYMBOLS as u64;
                    return Err(CodecError::OutOfRange { what: "distance symbol", value: d as u64, allowed });
                }
                let dist = usize::from(DISTANCE_BASE[d]) + bits.take(DISTANCE_EXTRA[d])? as usize;
                let produced = out.bytes.len();
                if dist > produced {
                    return Err(CodecError::BlockOffset { offset: dist, produced });
                }
                if len > out.room() {
                    return Err(CodecError::BlockOverrun { what: "match", declared: out.raw_len });
                }
                // A match may overlap its own output: copy it in chunks of
                // at most `dist` bytes, each of them already written.
                let start = produced - dist;
                let mut copied = 0;
                while copied < len {
                    let chunk = (len - copied).min(dist);
                    out.bytes.extend_from_within(start + copied..start + copied + chunk);
                    copied += chunk;
                }
            }
            _ => {
                let allowed = 0..LITERAL_SYMBOLS as u64;
                let value = symbol as u64;
                return Err(CodecError::OutOfRange { what: "literal/length symbol", value, allowed });
            }
        }
    }
}

/// Bits read least significant first from a byte slice, with a word of
/// lookahead; reading past the end is [`CodecError::UnexpectedEof`].
#[derive(Debug)]
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    buffer: u64,
    buffered: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0, buffer: 0, buffered: 0 }
    }

    /// The next `n ≤ 32` bits without consuming them, zero past the end.
    fn peek(&mut self, n: u8) -> u32 {
        while self.buffered <= 56 {
            let Some(&byte) = self.bytes.get(self.pos) else { break };
            self.buffer |= u64::from(byte) << self.buffered;
            self.buffered += 8;
            self.pos += 1;
        }
        (self.buffer & ((1u64 << n) - 1)) as u32
    }

    fn consume(&mut self, n: u8) -> Result<(), CodecError> {
        let n = u32::from(n);
        if n > self.buffered {
            return Err(CodecError::UnexpectedEof {
                what: "deflate stream",
                needed: (n - self.buffered).div_ceil(8) as usize,
                remaining: 0,
            });
        }
        self.buffer >>= n;
        self.buffered -= n;
        Ok(())
    }

    fn take(&mut self, n: u8) -> Result<u32, CodecError> {
        let value = self.peek(n);
        self.consume(n)?;
        Ok(value)
    }

    /// Drop the bits left of the current byte.
    fn align(&mut self) {
        let partial = self.buffered % 8;
        self.buffer >>= partial;
        self.buffered -= partial;
    }

    /// Whole bytes not yet read; call after [`Self::align`].
    fn remaining_bytes(&self) -> usize {
        self.buffered as usize / 8 + self.bytes.len() - self.pos
    }

    /// Append the next `n` bytes to `out`; call after [`Self::align`].
    fn copy_bytes(&mut self, mut n: usize, out: &mut Vec<u8>) -> Result<(), CodecError> {
        if n > self.remaining_bytes() {
            let remaining = self.remaining_bytes();
            return Err(CodecError::UnexpectedEof { what: "stored block", needed: n, remaining });
        }
        while n > 0 && self.buffered >= 8 {
            out.push(self.buffer as u8);
            self.buffer >>= 8;
            self.buffered -= 8;
            n -= 1;
        }
        out.extend_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(())
    }
}

/// Most code bits the decoder resolves in one table lookup; longer codes
/// are walked a bit at a time.
const FAST_BITS: u8 = 10;

/// A prefix code as the decoder reads it, built from its code lengths.
#[derive(Debug)]
struct Decoder {
    what: &'static str,
    /// Codes of each length.
    count: [u16; 16],
    /// Symbols in canonical order: by code length, then by symbol.
    symbols: Vec<u16>,
    /// Bits of lookahead `fast` resolves: the longest code, at most
    /// [`FAST_BITS`], so a short code builds a short table.
    fast_bits: u8,
    /// Per `fast_bits` of lookahead, `symbol << 4 | length` of the code
    /// they start with, or 0 if that code is longer.
    fast: Vec<u16>,
}

impl Decoder {
    /// The canonical code with these lengths, refused if over-subscribed or
    /// incomplete — except, when `distance`, no code at all or a single
    /// one-bit code, which RFC 1951 allows a distance code.
    fn new(lengths: &[u8], what: &'static str, distance: bool) -> Result<Self, CodecError> {
        let mut count = [0u16; 16];
        for &len in lengths {
            count[usize::from(len)] += 1;
        }
        count[0] = 0;
        let mut left: i32 = 1;
        for &n in &count[1..] {
            left = 2 * left - i32::from(n);
            if left < 0 {
                return Err(CodecError::BlockCode { what, defect: CodeDefect::OverSubscribed });
            }
        }
        let used: u16 = count.iter().sum();
        if left > 0 && !(distance && used == count[1] && used <= 1) {
            return Err(CodecError::BlockCode { what, defect: CodeDefect::Incomplete });
        }
        let mut offset = [0usize; 16];
        for len in 1..16 {
            offset[len] = offset[len - 1] + usize::from(count[len - 1]);
        }
        let mut symbols = vec![0u16; usize::from(used)];
        let mut next = [0u16; 16];
        for len in 1..16 {
            next[len] = (next[len - 1] + count[len - 1]) << 1;
        }
        let longest = count.iter().rposition(|&n| n > 0).unwrap_or(0) as u8;
        let fast_bits = longest.min(FAST_BITS);
        let mut fast = vec![0u16; 1 << fast_bits];
        for (symbol, &len) in lengths.iter().enumerate().filter(|&(_, &len)| len > 0) {
            let l = usize::from(len);
            symbols[offset[l]] = symbol as u16;
            offset[l] += 1;
            let code = next[l];
            next[l] += 1;
            if len <= fast_bits {
                let reversed = usize::from(code.reverse_bits() >> (16 - len));
                for slot in (reversed..fast.len()).step_by(1 << len) {
                    fast[slot] = (symbol as u16) << 4 | u16::from(len);
                }
            }
        }
        Ok(Self { what, count, symbols, fast_bits, fast })
    }

    /// Read one symbol.
    fn decode(&self, bits: &mut BitReader<'_>) -> Result<usize, CodecError> {
        let entry = self.fast[bits.peek(self.fast_bits) as usize];
        if entry != 0 {
            bits.consume((entry & 15) as u8)?;
            return Ok(usize::from(entry >> 4));
        }
        // Canonical decoding a bit at a time: `code` is the bits so far,
        // `first` the first code of this length, `index` its symbol's.
        let (mut code, mut first, mut index) = (0u32, 0u32, 0usize);
        for len in 1..16 {
            code |= bits.take(1)?;
            let count = u32::from(self.count[len]);
            if code - first < count {
                return Ok(usize::from(self.symbols[index + (code - first) as usize]));
            }
            index += count as usize;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(CodecError::BlockCode { what: self.what, defect: CodeDefect::Incomplete })
    }
}

/// Bytes [`seal`] puts in front of the payload when the format carries
/// `words` header words.
pub const fn sealed_header_len(words: usize) -> usize {
    8 + 4 + 8 * words + 8 + 8
}

/// Write `magic · version (u32) · words (u64 each)` of `format`: the head
/// of the envelope, and the write-ahead log's whole file header.
pub fn write_header(w: &mut ByteWriter, format: &Format, words: &[u64]) {
    w.write_bytes(&format.magic);
    w.write_u32(format.version);
    for &word in words {
        w.write_u64(word);
    }
}

/// Inverse of [`write_header`] with `N` words: [`CodecError::BadMagic`]
/// unless the input starts with the magic of `format`. The caller judges
/// the version.
pub fn read_header<const N: usize>(
    r: &mut ByteReader<'_>,
    format: &Format,
) -> Result<(u32, [u64; N]), CodecError> {
    if r.read_bytes(8, "envelope magic").ok() != Some(&format.magic[..]) {
        return Err(CodecError::BadMagic(*format));
    }
    let version = r.read_u32("envelope version")?;
    let mut words = [0u64; N];
    for word in &mut words {
        *word = r.read_u64("envelope header word")?;
    }
    Ok((version, words))
}

/// Store the raw stream `raw` in the file envelope of `format` described
/// in the [crate docs](crate): the [header](write_header), then the length
/// and FNV-1a64 checksum of the payload — `raw` as one [`compress`]ed
/// block — then the payload itself.
pub fn seal(format: &Format, words: &[u64], raw: &[u8]) -> Vec<u8> {
    let payload = compress(raw, &[]);
    let mut w = ByteWriter::with_capacity(sealed_header_len(words.len()) + payload.len());
    write_header(&mut w, format, words);
    w.write_u64(payload.len() as u64);
    w.write_u64(fnv1a64(&payload));
    w.write_bytes(&payload);
    w.into_bytes()
}

/// Inverse of [`seal`]: validate magic, payload length, checksum and
/// version — in that order, before any payload byte is interpreted — then
/// decompress the payload and return the `N` header words plus the raw
/// stream. The envelope is the same in every version, so a file of another
/// version is [`CodecError::UnsupportedVersion`] only when it passes its
/// own length and checksum; one that does not has a damaged header, not a
/// different format.
pub fn open<const N: usize>(format: &Format, bytes: &[u8]) -> Result<([u64; N], Vec<u8>), CodecError> {
    let mut r = ByteReader::new(bytes);
    let (found, words) = read_header(&mut r, format)?;
    let payload_len = r.read_u64("envelope payload length")?;
    let checksum = r.read_u64("envelope checksum")?;
    let payload = r.read_bytes(r.remaining(), "envelope payload")?;
    if payload.len() as u64 != payload_len {
        return Err(CodecError::Corrupted(format!(
            "{} payload length mismatch: header says {payload_len} bytes, file holds {}",
            format.name,
            payload.len()
        )));
    }
    let actual = fnv1a64(payload);
    if actual != checksum {
        return Err(CodecError::Corrupted(format!(
            "{} payload checksum mismatch: header {checksum:#018x}, computed {actual:#018x}",
            format.name
        )));
    }
    format.check_version(found)?;
    Ok((words, decompress(payload, &[])?))
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
            let stream = strings.into_stream(body);

            let mut r = ByteReader::new(&stream);
            let mut table = StringTable::read_table(&mut r).unwrap();
            let decoded: Vec<u64> = r.read_seq("ints", 1, |r| r.read_varint("int")).unwrap();
            assert_eq!(decoded, ints);
            for &s in &picks {
                assert_eq!(table.read_ref(&mut r, "pick").unwrap(), s);
            }
            r.expect_eof().unwrap();
            table.expect_all_referenced().unwrap();
        }
    }

    /// A stream of `strings` as its table, then `refs` as varints.
    fn table_then_refs(strings: &[&str], refs: &[u64]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_varint(strings.len() as u64);
        for s in strings {
            w.write_varint(s.len() as u64);
            w.write_bytes(s.as_bytes());
        }
        refs.iter().for_each(|&r| w.write_varint(r));
        w.into_bytes()
    }

    #[test]
    fn string_refs_are_coded_by_recency() {
        // First uses are 0; a repeat is its distance back from the cursor.
        let mut strings = StringTableWriter::new();
        let mut body = ByteWriter::new();
        for s in ["a", "bc", "a", "d", "bc", "bc", "d"] {
            strings.write_ref(&mut body, s);
        }
        assert_eq!(body.into_bytes(), [0, 0, 2, 0, 2, 2, 1]);
    }

    #[test]
    fn string_table_rejects_bad_indexes_bad_tables_and_expansion_bombs() {
        // Two strings: both introduced, then one repeated from two back.
        let resolve = |refs: &[u64]| {
            let bytes = table_then_refs(&["a", "bc"], refs);
            let mut r = ByteReader::new(&bytes);
            let mut table = StringTable::read_table(&mut r).unwrap();
            let resolved: Result<Vec<String>, _> =
                refs.iter().map(|_| table.read_ref(&mut r, "ref").map(str::to_string)).collect();
            resolved.and_then(|s| table.expect_all_referenced().map(|()| s))
        };
        assert_eq!(resolve(&[0, 0, 2, 1]), Ok(vec!["a".into(), "bc".into(), "a".into(), "bc".into()]));
        // A third first use names the entry past the table's end.
        assert_eq!(
            resolve(&[0, 0, 0]).unwrap_err(),
            CodecError::StringIndexOutOfRange { what: "ref", index: 2, table_len: 2 }
        );
        // A repeat reaching past the first string introduced, and a repeat
        // before any string is.
        assert_eq!(
            resolve(&[0, 0, 3]).unwrap_err(),
            CodecError::StringDistance { what: "ref", distance: 3, cursor: 2 }
        );
        assert_eq!(
            resolve(&[1]).unwrap_err(),
            CodecError::StringDistance { what: "ref", distance: 1, cursor: 0 }
        );
        // A table entry the body never introduces.
        assert_eq!(
            resolve(&[0, 1]).unwrap_err(),
            CodecError::UnreferencedStrings { referenced: 1, table_len: 2 }
        );
        let unused = table_then_refs(&["a", "bc"], &[0]);
        assert_eq!(
            read_stream(&unused, |r, t| t.read_ref(r, "ref").map(str::len)),
            Err(CodecError::UnreferencedStrings { referenced: 1, table_len: 2 })
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
        let refs = 4 * STRING_EXPANSION_LIMIT;
        let bytes = table_then_refs(&[&long], &[&[0][..], &vec![1; refs - 1]].concat());
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
        let block = compress(raw, &[]);
        assert_eq!(decompress(&block, &[]).unwrap(), raw);
        assert!(raw.len() <= BLOCK_EXPANSION_LIMIT * block.len());
        block
    }

    /// Raw DEFLATE streams written by zlib 1.2.13 (`zlib.compressobj(level,
    /// DEFLATED, -15)` in Python), each with the input it inflates to.
    /// Nothing here comes from [`compress`].
    #[test]
    fn streams_of_an_independent_encoder_inflate_to_their_inputs() {
        let text: Vec<u8> = (0..12u32)
            .flat_map(|i| {
                format!("row {i}: the quick brown fox jumps over the lazy dog {} times; ", i * i % 97)
                    .into_bytes()
            })
            .collect();
        let vectors: [(&str, Vec<u8>, &[u8]); 6] = [
            // Level 0: one final stored block.
            ("stored", b"stored: kept as it is".to_vec(), &[
                0x01, 0x15, 0x00, 0xea, 0xff, 0x73, 0x74, 0x6f, 0x72, 0x65, 0x64, 0x3a, 0x20, 0x6b,
                0x65, 0x70, 0x74, 0x20, 0x61, 0x73, 0x20, 0x69, 0x74, 0x20, 0x69, 0x73,
            ]),
            // Z_FIXED: one fixed block, a 17-byte match 21 back.
            ("fixed", b"fixed Huffman codes, fixed Huffman codes".to_vec(), &[
                0x4b, 0xcb, 0xac, 0x48, 0x4d, 0x51, 0xf0, 0x28, 0x4d, 0x4b, 0xcb, 0x4d, 0xcc, 0x53,
                0x48, 0xce, 0x4f, 0x49, 0x2d, 0xd6, 0x51, 0x48, 0xc3, 0x14, 0x04, 0x00,
            ]),
            // Level 9: one dynamic block.
            ("dynamic", text, &[
                0x95, 0xd2, 0x4b, 0x16, 0x82, 0x30, 0x0c, 0x05, 0xd0, 0xad, 0xbc, 0x25, 0xd0, 0x16,
                0x0a, 0xe8, 0x6a, 0xfc, 0x14, 0x45, 0xc5, 0x68, 0x01, 0x51, 0x57, 0xaf, 0xc7, 0x81,
                0x27, 0x19, 0xbe, 0x71, 0x72, 0x4f, 0xbe, 0x59, 0x16, 0x14, 0x2b, 0x4c, 0xc7, 0x84,
                0xfb, 0xdc, 0xef, 0xce, 0xd8, 0x66, 0x59, 0xae, 0xe8, 0xe4, 0x89, 0xd3, 0x3c, 0xdc,
                0x46, 0xc8, 0x23, 0xe5, 0x5f, 0xf8, 0xb2, 0x79, 0xbf, 0xb0, 0x97, 0x03, 0x0a, 0x4c,
                0xfd, 0x90, 0xc6, 0x35, 0xbe, 0x99, 0x70, 0x9c, 0x75, 0xda, 0x7a, 0xce, 0x96, 0xda,
                0x06, 0xce, 0xb6, 0xda, 0x96, 0x64, 0xcf, 0x51, 0xe3, 0x8a, 0xc3, 0xbe, 0xd2, 0x38,
                0x72, 0x38, 0x98, 0xca, 0x35, 0xb9, 0x2e, 0x33, 0x73, 0xc3, 0xe1, 0x68, 0x96, 0xdd,
                0x72, 0xb8, 0x31, 0x57, 0x76, 0xe4, 0x7b, 0x05, 0x83, 0xc9, 0xff, 0xf2, 0xff, 0xbe,
                0x3f,
            ]),
            // A 38-byte match 2 back, overlapping the bytes it produces.
            ("overlapping match", b"ab".repeat(20), &[0x4b, 0x4c, 0x4a, 0x24, 0x0a, 0x02, 0x00]),
            // Two 258-byte matches 1 back, then 83 bytes.
            ("258-byte match", vec![b'z'; 600], &[0xab, 0xaa, 0x1a, 0x05, 0xa3, 0x80, 0xfa, 0x00, 0x00]),
            // Z_SYNC_FLUSH between two writes: a non-final fixed block, an
            // empty stored block, then the final fixed block.
            ("three blocks", b"first part, then the second part".to_vec(), &[
                0x4a, 0xcb, 0x2c, 0x2a, 0x2e, 0x51, 0x28, 0x48, 0x2c, 0x2a, 0xd1, 0x51, 0x00, 0x00,
                0x00, 0x00, 0xff, 0xff, 0x2b, 0xc9, 0x48, 0xcd, 0x03, 0x11, 0x0a, 0xc5, 0xa9, 0xc9,
                0xf9, 0x79, 0x29, 0x60, 0x51, 0x00,
            ]),
        ];
        for (what, raw, stream) in vectors {
            let block = [varint_bytes(raw.len() as u64), stream.to_vec()].concat();
            assert_eq!(decompress(&block, &[]).as_deref(), Ok(&raw[..]), "{what}");
        }
    }

    /// Raw DEFLATE streams against a preset dictionary, each checked with
    /// zlib 1.2.13 (`zlib.decompressobj(-15, zdict=dictionary)` in Python
    /// inflates it to the input given): three written by
    /// `zlib.compressobj(level, DEFLATED, -15, 9, strategy, zdict=…)`, and
    /// one written by hand, because zlib never reaches back more than
    /// 32 506 bytes: a match of the dictionary's first ten bytes, 32 768
    /// back, the farthest a distance reaches. Nothing here comes from
    /// [`compress`].
    #[test]
    fn streams_against_a_dictionary_of_an_independent_encoder_inflate_to_their_inputs() {
        let batch = |i: u32, table: u32| {
            format!("batch {i}: table {table} of the song class, header year, cells 19{:02}; ", i * 3 % 100)
        };
        let text: String = (0..6).map(|i| batch(i, i * 7 % 13)).collect();
        let mut seed = 0x5eed_0034;
        let far: Vec<u8> = (0..WINDOW).map(|_| splitmix(&mut seed) as u8).collect();
        // What, dictionary, input, raw DEFLATE stream.
        type Vector<'a> = (&'a str, &'a [u8], Vec<u8>, &'a [u8]);
        let vectors: [Vector; 5] = [
            // Level 0: one final stored block; the dictionary goes unused.
            ("stored", text.as_bytes(), b"stored: a dictionary does not matter here".to_vec(), &[
                0x01, 0x29, 0x00, 0xd6, 0xff, 0x73, 0x74, 0x6f, 0x72, 0x65, 0x64, 0x3a, 0x20, 0x61,
                0x20, 0x64, 0x69, 0x63, 0x74, 0x69, 0x6f, 0x6e, 0x61, 0x72, 0x79, 0x20, 0x64, 0x6f,
                0x65, 0x73, 0x20, 0x6e, 0x6f, 0x74, 0x20, 0x6d, 0x61, 0x74, 0x74, 0x65, 0x72, 0x20,
                0x68, 0x65, 0x72, 0x65,
            ]),
            // Z_FIXED: one fixed block, nearly all matches into the text.
            ("fixed", text.as_bytes(), batch(6, 3).into_bytes(), &[
                0x83, 0x68, 0x36, 0x83, 0x69, 0x36, 0x26, 0x5e, 0xb3, 0x85, 0xb5, 0x02, 0x00,
            ]),
            // Level 9: one dynamic block.
            ("dynamic", text.as_bytes(), (6..14).map(|i| batch(i, i * 5 % 13)).collect::<String>().into_bytes(), &[
                0x95, 0xd3, 0xd1, 0x09, 0x00, 0x30, 0x08, 0x43, 0xc1, 0x99, 0x34, 0xa2, 0xed, 0xfe,
                0x8b, 0xb5, 0x50, 0x92, 0xfe, 0xea, 0x00, 0x47, 0x40, 0x9e, 0x0f, 0x27, 0x71, 0xf4,
                0xf1, 0x22, 0xae, 0xf9, 0xb2, 0x1b, 0xf1, 0x9a, 0x5f, 0xdb, 0x83, 0x78, 0x13, 0x67,
                0x1f, 0x97, 0x22, 0x51, 0x62, 0xd6, 0xdf, 0xc6, 0x6f, 0x4c, 0x91, 0xa1, 0xaf, 0x15,
                0x99, 0xf9, 0x3c, 0x14, 0xa8, 0x32, 0xc3, 0xfc, 0x3b, 0x70, 0x33, 0x3b,
            ]),
            // Level 9 against 32 KiB of noise: 300 bytes 32 468 back, and
            // 100 bytes 768 back.
            ("far matches", &far, [&far[300..600], b"; ", &far[32_000..32_100]].concat(), &[
                0x1b, 0xbd, 0xd3, 0x9e, 0xf8, 0x3b, 0xed, 0xad, 0x15, 0xe8, 0x51, 0x5a, 0x00, 0x00,
            ]),
            // By hand, one fixed block: length symbol 264, distance symbol
            // 29 with all 13 extra bits set, literal '!', end of block.
            ("a match 32 768 back", &far, [&far[..10], b"!"].concat(), &[0x43, 0xdc, 0xff, 0xaf, 0x08, 0x00]),
        ];
        for (what, dictionary, raw, stream) in vectors {
            let block = [varint_bytes(raw.len() as u64), stream.to_vec()].concat();
            assert_eq!(decompress(&block, dictionary).as_deref(), Ok(&raw[..]), "{what}");
            // Without the dictionary every match into it is refused.
            if what != "stored" {
                assert!(matches!(decompress(&block, &[]), Err(CodecError::BlockOffset { .. })), "{what}");
            }
        }
    }

    #[test]
    fn blocks_against_a_dictionary_round_trip_and_only_with_it() {
        let seed = &mut 0x5eed_0035;
        let noise = |seed: &mut u64, n: usize| -> Vec<u8> { (0..n).map(|_| splitmix(seed) as u8).collect() };
        // A record that repeats its dictionary is a handful of matches; the
        // same bytes alone are stored.
        let record = noise(seed, 1500);
        let alone = compress(&record, &[]);
        let against = compress(&record, &record);
        assert!(alone.len() > record.len() && against.len() < 32, "{} / {}", alone.len(), against.len());
        assert_eq!(decompress(&against, &record).unwrap(), record);
        // Only the last 32 KiB of a dictionary is used, so a longer one
        // gives the same block; a match 32 768 back still reaches its first
        // byte.
        let dictionary = [noise(seed, WINDOW), noise(seed, 100)].concat();
        let tail = &dictionary[dictionary.len() - WINDOW..];
        let raw = [&tail[..64], &noise(seed, 40)[..], &tail[WINDOW - 64..]].concat();
        let block = compress(&raw, &dictionary);
        assert_eq!(block, compress(&raw, tail));
        assert!(block.len() < 64, "{} bytes", block.len());
        assert_eq!(decompress(&block, &dictionary).unwrap(), raw);
        assert_eq!(decompress(&block, tail).unwrap(), raw);
        // Seeded mixes of dictionary copies, noise and runs, against
        // dictionaries of every length up to the window.
        for round in 0..60 {
            let len = (splitmix(seed) % (WINDOW as u64 + 1)) as usize;
            let dictionary = noise(seed, len);
            let mut raw = Vec::new();
            while raw.len() < (round * 97) % 4000 {
                let piece = (splitmix(seed) % 300) as usize + 1;
                match splitmix(seed) % 3 {
                    0 if !dictionary.is_empty() => {
                        let from = (splitmix(seed) as usize) % dictionary.len();
                        raw.extend_from_slice(&dictionary[from..dictionary.len().min(from + piece)]);
                    }
                    1 => raw.resize(raw.len() + piece, splitmix(seed) as u8),
                    _ => raw.extend(noise(seed, piece)),
                }
            }
            let block = compress(&raw, &dictionary);
            assert_eq!(decompress(&block, &dictionary).unwrap(), raw, "round {round}");
            assert!(raw.len() <= BLOCK_EXPANSION_LIMIT * block.len());
            // Without the dictionary, a block either never reached into it
            // or is refused at its first match that does.
            match decompress(&block, &[]) {
                Ok(alone) => assert_eq!(alone, raw, "round {round}"),
                Err(e) => assert!(matches!(e, CodecError::BlockOffset { .. }), "round {round}: {e}"),
            }
        }
    }

    #[test]
    fn seeded_blocks_round_trip_from_empty_input_to_repeats_past_the_window() {
        // The empty stream is a fixed block holding only its end of block;
        // one byte is a fixed block of one literal (zlib writes both alike).
        assert_eq!(round_trip(&[]), [0, 0x03, 0x00]);
        assert_eq!(round_trip(&[7]), [1, 0x63, 0x07, 0x00]);

        // 64 KiB of noise is stored: five bytes of framing per 65 535.
        let mut seed = 0x5eed_0033;
        let mut noise = |n: usize| -> Vec<u8> { (0..n).map(|_| splitmix(&mut seed) as u8).collect() };
        let random = noise(64 << 10);
        let framing = 5 * random.len().div_ceil(usize::from(u16::MAX));
        let header = varint_bytes(random.len() as u64).len();
        assert!(round_trip(&random).len() <= header + random.len() + framing);

        // A 20 KiB stretch again 40 KiB on is past the 32 KiB window, so
        // only literals can carry it ...
        let (stretch, gap) = (noise(20 << 10), noise(20 << 10));
        let far = [&stretch[..], &gap, &stretch].concat();
        assert!(round_trip(&far).len() >= far.len());
        // ... and right after itself it is matches.
        let near = [&stretch[..], &stretch].concat();
        assert!(round_trip(&near).len() < stretch.len() + 1024);

        // Seeded mixes of noise over a small alphabet, runs of one byte and
        // copies of earlier stretches, so blocks of every type, matches of
        // every length symbol and runs past 258 occur.
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

    /// A block around a hand-written DEFLATE stream: the declared length,
    /// then the stream's fields as `(value, bits)`, packed least
    /// significant bit first.
    fn crafted(declared: usize, fields: &[(u32, u8)]) -> Vec<u8> {
        let mut w = BitWriter::default();
        for &(value, bits) in fields {
            w.put(value, bits);
        }
        [varint_bytes(declared as u64), w.finish()].concat()
    }

    /// A Huffman code as a stream field: its bits reversed, because codes
    /// are packed most significant bit first.
    fn code(code: u32, bits: u8) -> (u32, u8) {
        (code.reverse_bits() >> (32 - bits), bits)
    }

    /// Literal/length `symbol` in the fixed code (RFC 1951 §3.2.6).
    fn fixed_literal(symbol: u32) -> (u32, u8) {
        match symbol {
            0..=143 => code(0x30 + symbol, 8),
            144..=255 => code(0x190 + symbol - 144, 9),
            256..=279 => code(symbol - 256, 7),
            _ => code(0xc0 + symbol - 280, 8),
        }
    }

    /// The three-bit block header.
    fn header(last: bool, block_type: u32) -> (u32, u8) {
        (u32::from(last) | block_type << 1, 3)
    }

    /// A dynamic block's header through its code-length code, which gives
    /// the eight symbols 0, 1, 2, 7, 8, 16, 17 and 18 three bits each, then
    /// the code lengths in `runs` (code-length symbol, extra bits).
    fn dynamic(literals: u32, distances: u32, runs: &[(u32, u32)]) -> Vec<(u32, u8)> {
        const THREE_BITS: [u32; 8] = [0, 1, 2, 7, 8, 16, 17, 18];
        let mut fields = vec![header(true, DYNAMIC), (literals - 257, 5), (distances - 1, 5), (18 - 4, 4)];
        for symbol in &CODE_LENGTH_ORDER[..18] {
            fields.push((if THREE_BITS.contains(&(*symbol as u32)) { 3 } else { 0 }, 3));
        }
        for &(symbol, extra) in runs {
            let index = THREE_BITS.iter().position(|&s| s == symbol).unwrap();
            fields.push(code(index as u32, 3));
            fields.push((extra, repeat_bits(symbol as u8)));
        }
        fields
    }

    #[test]
    fn malformed_blocks_are_typed_rejections() {
        let refused =
            |declared: usize, fields: &[(u32, u8)]| decompress(&crafted(declared, fields), &[]).unwrap_err();
        let (a, end) = (fixed_literal(u32::from(b'a')), fixed_literal(256));
        let fixed = header(true, FIXED);
        let length_3 = fixed_literal(257);
        let reserved = CodecError::InvalidTag { what: "deflate block type", tag: 3 };
        assert_eq!(refused(1, &[header(true, 3)]), reserved);
        // Stored blocks: NLEN not LEN's complement, and LEN past the
        // declared length.
        assert_eq!(
            decompress(&[1, 0x01, 0x01, 0x00, 0xfe, 0xfe, b'a'], &[]).unwrap_err(),
            CodecError::StoredLength { len: 1, nlen: 0xfefe }
        );
        assert_eq!(
            decompress(&[1, 0x01, 0x02, 0x00, 0xfd, 0xff, b'a', b'b'], &[]).unwrap_err(),
            CodecError::BlockOverrun { what: "stored block", declared: 1 }
        );
        // The fixed code's symbols that never occur.
        assert_eq!(
            refused(1, &[fixed, fixed_literal(286)]),
            CodecError::OutOfRange { what: "literal/length symbol", value: 286, allowed: 0..286 }
        );
        assert_eq!(
            refused(4, &[fixed, a, length_3, code(31, 5)]),
            CodecError::OutOfRange { what: "distance symbol", value: 31, allowed: 0..30 }
        );
        // A distance past the one byte produced; a literal, and a match,
        // past the declared length.
        let (offset, produced) = (2, 1);
        assert_eq!(refused(4, &[fixed, a, length_3, code(1, 5)]), CodecError::BlockOffset { offset, produced });
        let overrun = |what, declared| CodecError::BlockOverrun { what, declared };
        assert_eq!(refused(1, &[fixed, a, a]), overrun("literal", 1));
        assert_eq!(refused(3, &[fixed, a, length_3, code(0, 5)]), overrun("match", 3));
        // A final block that ends short, one followed by another byte, and
        // a stream that stops after a non-final block.
        assert_eq!(refused(2, &[fixed, a, end]), CodecError::BlockShort { declared: 2, produced: 1 });
        let mut trailing = crafted(1, &[fixed, a, end]);
        trailing.push(0);
        assert_eq!(decompress(&trailing, &[]).unwrap_err(), CodecError::TrailingBytes(1));
        assert!(matches!(refused(1, &[header(false, FIXED), a, end]), CodecError::UnexpectedEof { .. }));
        assert!(matches!(decompress(&[], &[]).unwrap_err(), CodecError::UnexpectedEof { .. }));

        // Dynamic headers. 257 literal/length and one distance code length
        // are 258 lengths: 138 + 117 zeros make up 255 of them.
        let zeros_255 = [(18, 127), (18, 106)];
        let block_code = |what, defect| CodecError::BlockCode { what, defect };
        assert_eq!(
            refused(1, &[header(true, DYNAMIC), (0, 5), (0, 5), (0, 4), (1, 3), (1, 3), (1, 3), (1, 3)]),
            block_code("code length code", CodeDefect::OverSubscribed)
        );
        // Literal 0 one bit, end of block two: half a code is missing.
        let incomplete = [&[(1, 0)][..], &zeros_255, &[(2, 0), (1, 0)]].concat();
        assert_eq!(
            refused(1, &dynamic(257, 1, &incomplete)),
            block_code("literal/length code", CodeDefect::Incomplete)
        );
        let first_repeats = [&[(16, 0)][..], &zeros_255].concat();
        assert_eq!(
            refused(1, &dynamic(257, 1, &first_repeats)),
            block_code("code lengths", CodeDefect::RepeatWithoutLength)
        );
        assert_eq!(
            refused(1, &dynamic(257, 1, &[(18, 127), (18, 127)])),
            block_code("code lengths", CodeDefect::RepeatPastEnd)
        );
        let no_end = [&[(1, 0), (1, 0)][..], &zeros_255, &[(1, 0)]].concat();
        assert_eq!(
            refused(1, &dynamic(257, 1, &no_end)),
            block_code("literal/length code", CodeDefect::NoEndOfBlock)
        );
        assert_eq!(
            refused(1, &dynamic(287, 1, &[])),
            CodecError::OutOfRange { what: "literal/length code count", value: 287, allowed: 257..287 }
        );
        assert_eq!(
            refused(1, &dynamic(257, 31, &[])),
            CodecError::OutOfRange { what: "distance code count", value: 31, allowed: 1..31 }
        );

        // RFC 1951's exception: a distance code of one one-bit code, or of
        // none, is accepted. Literal 'a' and end of block take a bit each.
        let a_and_end = [(18, 86), (1, 0), (18, 127), (18, 9), (1, 0)];
        for distance in [1, 0] {
            let runs = [&a_and_end[..], &[(distance, 0)]].concat();
            let block = crafted(1, &[dynamic(257, 1, &runs), vec![(0, 1), (1, 1)]].concat());
            assert_eq!(decompress(&block, &[]).as_deref(), Ok(&b"a"[..]), "{distance} distance code");
        }
    }

    #[test]
    fn a_block_declaring_past_the_expansion_limit_is_refused_before_it_allocates() {
        // DEFLATE codes 1 MiB of one byte at about 800 : 1, so the block is
        // padded with empty stored blocks to the 255 : 1 the decoder allows,
        // and no further.
        let raw = vec![0; 1 << 20];
        let block = round_trip(&raw);
        assert!(block.len() < raw.len().div_ceil(BLOCK_EXPANSION_LIMIT) + EMPTY_STORED_BLOCK.len());
        let stream = &block[varint_bytes(raw.len() as u64).len()..];
        assert!(stream.starts_with(&EMPTY_STORED_BLOCK));
        // The same stream under another declared length: at the limit the
        // check passes and the stream ends short of it; one past it is
        // refused before anything is decoded.
        let redeclared = |declared: u64| [varint_bytes(declared), stream.to_vec()].concat();
        let header = (1..=10)
            .find(|&n| varint_bytes((BLOCK_EXPANSION_LIMIT * (n + stream.len()) + 1) as u64).len() == n)
            .unwrap();
        let limit = BLOCK_EXPANSION_LIMIT * (header + stream.len());
        assert_eq!(
            decompress(&redeclared(limit as u64), &[]).unwrap_err(),
            CodecError::BlockShort { declared: limit, produced: raw.len() }
        );
        assert_eq!(
            decompress(&redeclared(limit as u64 + 1), &[]).unwrap_err(),
            CodecError::BlockExpansion { declared: limit as u64 + 1, limit }
        );
        assert_eq!(
            decompress(&redeclared(u64::MAX), &[]).unwrap_err(),
            CodecError::BlockExpansion {
                declared: u64::MAX,
                limit: BLOCK_EXPANSION_LIMIT * (10 + stream.len())
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
