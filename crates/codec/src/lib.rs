//! # ltee-codec
//!
//! The workspace's one binary codec: every on-disk format (model artifact,
//! state checkpoint, write-ahead log) is written and read through it.
//!
//! Five layers, depending on nothing but `ltee-intern`: a [`ByteWriter`]
//! that appends little-endian scalars, LEB128 varints, raw bytes, sequences and options
//! to a buffer; a bounds-checked [`ByteReader`] that reads them back; the
//! [`StringTableWriter`] / [`StringTable`] pair that stores each distinct
//! string of a stream once; the [`compress`] / [`decompress`] block codec
//! every stored byte goes through; and the [`seal`] / [`open`] pair that
//! frames a payload in the shared file envelope.
//! `ltee_intern::fnv1a64` is the payload checksum and the config-fingerprint
//! hash.
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
//! * a string is a reference into the stream's one string table
//!   (`count · (byte length · UTF-8 bytes)*`, distinct strings in
//!   first-use order), coded by recency: `0` for a string's first use —
//!   it is the next table entry, so its index need not be spelled — and
//!   `cursor − index` for a repeat, where the cursor counts the strings
//!   introduced so far. A new string — the most frequent reference of a
//!   stream — is then always the same byte, and a repeat of a recent
//!   string a small number. A `0` past the table, a distance past the cursor
//!   and a table entry the body never introduces are all refused, so a
//!   stream, too, has exactly one spelling.
//!
//! Every payload — model artifact v4, checkpoint v8, WAL v6 batch — is such
//! a raw stream, table then body ([`StringTableWriter::into_stream`], read
//! back by [`read_stream`]), and the container stores it compressed: the
//! envelope ([`seal`] / [`open`]) compresses the one payload of an artifact
//! or a checkpoint, and the store compresses each WAL record against the
//! records before it in its segment. Only the framing around a payload is
//! fixed width: the envelope's header and the WAL's record headers are
//! little-endian `u32` / `u64` words, so a torn header is told by its
//! length alone.
//!
//! The block codec ([`compress`] / [`decompress`]) is DEFLATE (RFC 1951). A
//! block is `raw length (varint) · raw DEFLATE stream`: no zlib or gzip
//! wrapper, so `zlib.decompress(stream, -15)` inflates what follows the
//! varint, and the varint is what lets the decoder bound its work before
//! it starts. [`compress`] writes each DEFLATE block the cheapest of
//! stored, fixed and dynamic Huffman; [`decompress`] reads any stream a
//! conforming encoder writes, but refuses a code that is over-subscribed
//! or incomplete (save RFC 1951's one exception, a distance code of at
//! most one one-bit code), a symbol its alphabet does not allow, a
//! distance before the output and any output past the declared length.
//! DEFLATE reaches about 1 032 : 1; [`BLOCK_EXPANSION_LIMIT`] says why no
//! block, from any writer, costs a decoder more than 255 bytes per stored
//! byte.
//!
//! Both take a **dictionary**: up to [`WINDOW`] bytes the output is taken
//! to follow, so a match may reach back into them; they are not part of the
//! block. Every caller but the write-ahead log passes an empty one. Such a
//! stream is what zlib writes and reads with a preset dictionary
//! (`zlib.decompressobj(-15, zdict=dictionary)` inflates it).
//!
//! The envelope ([`seal`] / [`open`]), with `N` format-specific header
//! words, is `magic(8) · version(u32) · N header words(u64) ·
//! payload_len(u64) · FNV-1a64(payload) · payload`, the payload being the
//! raw stream's block; byte offsets per format are tabulated in
//! `docs/ARCHITECTURE.md`, "On-disk formats". Its first three fields are
//! the [`write_header`] / [`read_header`] pair, which also spells the
//! write-ahead log's file header. A file of another version is refused by
//! version only when it is intact under the version it declares; otherwise
//! its header is damaged.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod codec;

pub use codec::*;
