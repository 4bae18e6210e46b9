//! # ltee-intern
//!
//! Deterministic, append-only string interning for the LTEE pipeline.
//!
//! The pipeline's hot paths — blocking, candidate lookup, token-set
//! similarity — compare the *same* normalised labels and tokens millions of
//! times. Keying those comparisons by owned `String`s means re-hashing and
//! re-allocating text that never changes. This crate collapses every
//! distinct string to a dense integer [`Sym`] backed by a single byte
//! arena, so that:
//!
//! * equality is a `u32` compare,
//! * hash-map postings are integer-keyed,
//! * token sets become sorted `Sym` slices whose intersections are
//!   branch-predictable merge scans with **zero allocation**.
//!
//! ## Determinism contract
//!
//! [`Sym`] ids are assigned in **insertion order**: interning the same
//! strings in the same order always yields the same ids, regardless of
//! thread count, process, or platform. All similarity kernels in this
//! crate return values that depend only on the *strings* behind the syms
//! (never on the numeric ids), with the single documented exception of
//! [`weighted_overlap`], whose floating-point summation order follows the
//! sorted sym order.
//!
//! ## Ownership and lifetime
//!
//! A [`Sym`] is only meaningful together with the [`Interner`] that minted
//! it. The pipeline owns **one interner per run** (`Pipeline::run`,
//! `IncrementalPipeline`); indexes that intern internally
//! (`ltee_index::LabelIndex`) own their own. Syms are never persisted:
//! model artifacts store strings by value and re-intern on load.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::Arc;

/// An interned string: a dense `u32` id into an [`Interner`].
///
/// `Sym`s are `Copy`, hash and compare as integers, and order by insertion
/// order of their interner (not lexicographically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The raw id. Only useful for diagnostics; a raw id must never be
    /// persisted (re-interning in another process yields different ids).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// 64-bit FNV-1a hash — the workspace's one stable, dependency-free hash:
/// interner buckets, payload checksums, config fingerprints, seed streams
/// and shard buckets all go through it, so its values are part of the
/// on-disk formats. Collision resistance beyond accident detection is not
/// a goal.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash over more bytes: for any split of `bytes` into
/// `a ‖ b`, `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(bytes)`.
#[inline]
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A deterministic, append-only string interner.
///
/// Strings live contiguously in one byte arena; each [`Sym`] is an index
/// into a span table. Interning an already known string is a hash lookup
/// plus a byte comparison — no allocation. Interned strings are never
/// removed, so [`Interner::resolve`] is valid for the interner's lifetime.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Concatenated UTF-8 bytes of every interned string.
    bytes: Vec<u8>,
    /// `(offset, len)` into `bytes` per sym, in insertion order.
    spans: Vec<(u32, u32)>,
    /// FNV-1a hash → syms with that hash (collisions resolved by byte
    /// comparison against the arena).
    buckets: HashMap<u64, Vec<Sym>>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an interner with pre-allocated capacity for roughly
    /// `strings` entries totalling `bytes` bytes.
    pub fn with_capacity(strings: usize, bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            spans: Vec::with_capacity(strings),
            buckets: HashMap::with_capacity(strings),
        }
    }

    /// Intern a string, returning its sym. The first call for a given
    /// string appends it to the arena; later calls return the existing sym.
    pub fn intern(&mut self, s: &str) -> Sym {
        let hash = fnv1a64(s.as_bytes());
        if let Some(bucket) = self.buckets.get(&hash) {
            for &sym in bucket {
                if self.resolve(sym) == s {
                    return sym;
                }
            }
        }
        assert!(
            self.bytes.len() + s.len() <= u32::MAX as usize && self.spans.len() < u32::MAX as usize,
            "interner arena exceeded u32 address space"
        );
        let offset = self.bytes.len() as u32;
        self.bytes.extend_from_slice(s.as_bytes());
        let sym = Sym(self.spans.len() as u32);
        self.spans.push((offset, s.len() as u32));
        self.buckets.entry(hash).or_default().push(sym);
        sym
    }

    /// Look up the sym of a string without interning it. Returns `None`
    /// when the string has never been interned — which also means no
    /// interned token can be equal to it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        let bucket = self.buckets.get(&fnv1a64(s.as_bytes()))?;
        bucket.iter().copied().find(|&sym| self.resolve(sym) == s)
    }

    /// The string behind a sym.
    ///
    /// # Panics
    ///
    /// Panics when the sym was minted by a different interner (id out of
    /// range). Syms from another interner that happen to be in range
    /// resolve to an unrelated string — never mix interners.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        let (offset, len) = self.spans[sym.0 as usize];
        // The arena only ever receives whole `&str`s, so every span is
        // valid UTF-8 at valid boundaries.
        unsafe {
            std::str::from_utf8_unchecked(&self.bytes[offset as usize..(offset + len) as usize])
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Bytes held by the string arena (diagnostics / benches).
    pub fn arena_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Iterate `(sym, string)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.spans.len() as u32).map(move |i| (Sym(i), self.resolve(Sym(i))))
    }

    /// Byte length of the string behind a sym, read from the span table
    /// without touching the arena (O(1), no string resolution).
    ///
    /// # Panics
    ///
    /// Panics when the sym was minted by a different interner.
    #[inline]
    pub fn span_len(&self, sym: Sym) -> usize {
        self.spans[sym.0 as usize].1 as usize
    }

    /// Iterate `(sym, byte length)` pairs in insertion order, reading only
    /// the span table. This is the substrate for length-bucketed token
    /// dictionaries (`ltee_index`): a consumer can bucket the whole arena
    /// by length without resolving a single string.
    pub fn iter_span_lens(&self) -> impl Iterator<Item = (Sym, usize)> + '_ {
        self.spans.iter().enumerate().map(|(i, &(_, len))| (Sym(i as u32), len as usize))
    }

    /// Freeze the interner into a cheaply cloneable, read-only handle that
    /// can be shared across threads. The sym ↔ string mapping is sealed at
    /// this point: a [`FrozenInterner`] can probe and resolve but never
    /// mint new syms, so every clone observes the same mapping forever.
    pub fn freeze(self) -> FrozenInterner {
        FrozenInterner { inner: Arc::new(self) }
    }
}

/// A frozen, shareable view of an [`Interner`].
///
/// Cloning is an `Arc` bump; all clones alias the same sealed arena. This
/// is the handle immutable data structures (published snapshots, read-only
/// index views) hold so that concurrent readers can resolve syms without
/// any locking: the underlying interner can no longer change.
#[derive(Debug, Clone)]
pub struct FrozenInterner {
    inner: Arc<Interner>,
}

impl FrozenInterner {
    /// Look up the sym of a string without (ever) interning it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.inner.get(s)
    }

    /// The string behind a sym (same caveats as [`Interner::resolve`]).
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        self.inner.resolve(sym)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing was interned before the freeze.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Bytes held by the sealed string arena.
    pub fn arena_bytes(&self) -> usize {
        self.inner.arena_bytes()
    }

    /// Iterate `(sym, string)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.inner.iter()
    }

    /// Byte length of the string behind a sym (O(1), span table only).
    #[inline]
    pub fn span_len(&self, sym: Sym) -> usize {
        self.inner.span_len(sym)
    }

    /// Iterate `(sym, byte length)` pairs in insertion order (span table
    /// only — see [`Interner::iter_span_lens`]).
    pub fn iter_span_lens(&self) -> impl Iterator<Item = (Sym, usize)> + '_ {
        self.inner.iter_span_lens()
    }
}

impl AsRef<Interner> for FrozenInterner {
    fn as_ref(&self) -> &Interner {
        &self.inner
    }
}

/// An interned token sequence: the tokens of one label, in text order,
/// plus a sorted-deduplicated view for set operations.
///
/// The text-order view drives order-sensitive measures (Monge-Elkan); the
/// sorted view makes set measures (jaccard, containment, overlap) single
/// merge scans without hashing or allocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenSeq {
    /// Tokens in original text order, duplicates preserved.
    tokens: Vec<Sym>,
    /// Sorted, deduplicated tokens.
    sorted: Vec<Sym>,
}

impl TokenSeq {
    /// Build a sequence from tokens in text order.
    pub fn from_syms(tokens: Vec<Sym>) -> Self {
        let mut sorted = tokens.clone();
        sorted.sort_unstable();
        sorted.dedup();
        Self { tokens, sorted }
    }

    /// The tokens in text order (duplicates preserved).
    #[inline]
    pub fn tokens(&self) -> &[Sym] {
        &self.tokens
    }

    /// The sorted, deduplicated tokens.
    #[inline]
    pub fn sorted(&self) -> &[Sym] {
        &self.sorted
    }

    /// Number of tokens in text order (counting duplicates).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Number of distinct tokens.
    pub fn distinct_len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sequence holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Whether the sequence contains a token (binary search on the sorted
    /// view).
    #[inline]
    pub fn contains(&self, sym: Sym) -> bool {
        self.sorted.binary_search(&sym).is_ok()
    }
}

/// Size of the intersection of two sorted `Sym` slices (merge scan, zero
/// allocation).
pub fn intersection_size(a: &[Sym], b: &[Sym]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Jaccard similarity of the distinct-token sets: `|A ∩ B| / |A ∪ B|`.
///
/// Mirrors `ltee_text::jaccard_similarity`: two empty sets are fully
/// similar (1.0); one empty set is fully dissimilar (0.0).
pub fn jaccard(a: &TokenSeq, b: &TokenSeq) -> f64 {
    if a.sorted.is_empty() && b.sorted.is_empty() {
        return 1.0;
    }
    if a.sorted.is_empty() || b.sorted.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(&a.sorted, &b.sorted);
    let union = a.sorted.len() + b.sorted.len() - inter;
    inter as f64 / union as f64
}

/// Containment of `a` in `b`: `|A ∩ B| / |A|`. An empty `a` is fully
/// contained (1.0).
pub fn containment(a: &TokenSeq, b: &TokenSeq) -> f64 {
    if a.sorted.is_empty() {
        return 1.0;
    }
    intersection_size(&a.sorted, &b.sorted) as f64 / a.sorted.len() as f64
}

/// Number of distinct tokens shared by the two sequences (mirrors
/// `ltee_text::token_overlap`).
pub fn token_overlap(a: &TokenSeq, b: &TokenSeq) -> usize {
    intersection_size(a.sorted(), b.sorted())
}

/// Weighted overlap: the sum of `weight(sym)` over the distinct shared
/// tokens, divided by the sum over the union (a weighted Jaccard). Both
/// empty → 1.0; a zero-weight union → 0.0.
///
/// **Determinism note:** the sums run in sorted-sym order, which follows
/// interner insertion order — use this kernel only where the weight
/// function is id-independent or bit-for-bit reproducibility across
/// differently-ordered interners is not required.
pub fn weighted_overlap(a: &TokenSeq, b: &TokenSeq, mut weight: impl FnMut(Sym) -> f64) -> f64 {
    if a.sorted.is_empty() && b.sorted.is_empty() {
        return 1.0;
    }
    let (mut i, mut j) = (0usize, 0usize);
    let (mut shared, mut union) = (0.0f64, 0.0f64);
    while i < a.sorted.len() && j < b.sorted.len() {
        match a.sorted[i].cmp(&b.sorted[j]) {
            std::cmp::Ordering::Less => {
                union += weight(a.sorted[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                union += weight(b.sorted[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let w = weight(a.sorted[i]);
                shared += w;
                union += w;
                i += 1;
                j += 1;
            }
        }
    }
    for &s in &a.sorted[i..] {
        union += weight(s);
    }
    for &s in &b.sorted[j..] {
        union += weight(s);
    }
    if union <= 0.0 {
        0.0
    } else {
        shared / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(interner: &mut Interner, tokens: &[&str]) -> TokenSeq {
        TokenSeq::from_syms(tokens.iter().map(|t| interner.intern(t)).collect())
    }

    #[test]
    fn fnv1a64_known_answers_and_split_anywhere() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let whole = "héllo wörld".as_bytes();
        for cut in 0..=whole.len() {
            assert_eq!(fnv1a64_extend(fnv1a64(&whole[..cut]), &whole[cut..]), fnv1a64(whole));
        }
    }

    #[test]
    fn intern_dedupes_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern("tom");
        let b = i.intern("brady");
        let a2 = i.intern("tom");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "tom");
        assert_eq!(i.resolve(b), "brady");
        assert_eq!(i.len(), 2);
        assert_eq!(i.arena_bytes(), "tombrady".len());
    }

    #[test]
    fn ids_are_insertion_ordered() {
        let mut i = Interner::new();
        for (n, s) in ["a", "b", "c", "a", "b", "d"].iter().enumerate() {
            let sym = i.intern(s);
            let expected = match n {
                0 | 3 => 0,
                1 | 4 => 1,
                2 => 2,
                _ => 3,
            };
            assert_eq!(sym.raw(), expected, "insert #{n} ({s})");
        }
    }

    #[test]
    fn get_is_read_only() {
        let mut i = Interner::new();
        i.intern("known");
        assert_eq!(i.get("known"), Some(Sym(0)));
        assert_eq!(i.get("unknown"), None);
        assert_eq!(i.len(), 1, "get must not intern");
    }

    #[test]
    fn empty_string_interns_fine() {
        let mut i = Interner::new();
        let e = i.intern("");
        assert_eq!(i.resolve(e), "");
        assert_eq!(i.get(""), Some(e));
    }

    #[test]
    fn non_ascii_round_trips() {
        let mut i = Interner::new();
        let s = i.intern("münchen 北京 i̇stanbul");
        assert_eq!(i.resolve(s), "münchen 北京 i̇stanbul");
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let all: Vec<(u32, String)> = i.iter().map(|(s, t)| (s.raw(), t.to_string())).collect();
        assert_eq!(all, vec![(0, "x".into()), (1, "y".into())]);
    }

    #[test]
    fn token_seq_views() {
        let mut i = Interner::new();
        let t = seq(&mut i, &["the", "the", "song"]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.distinct_len(), 2);
        assert!(t.contains(i.get("song").unwrap()));
        assert!(!t.contains(i.intern("title")));
    }

    #[test]
    fn jaccard_matches_set_semantics() {
        let mut i = Interner::new();
        let a = seq(&mut i, &["birth", "date"]);
        let b = seq(&mut i, &["birth", "place"]);
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        let empty = seq(&mut i, &[]);
        assert_eq!(jaccard(&empty, &empty), 1.0);
        assert_eq!(jaccard(&empty, &a), 0.0);
        assert_eq!(jaccard(&a, &a), 1.0);
    }

    #[test]
    fn containment_is_directional() {
        let mut i = Interner::new();
        let small = seq(&mut i, &["new", "york"]);
        let big = seq(&mut i, &["new", "york", "city"]);
        assert_eq!(containment(&small, &big), 1.0);
        assert!((containment(&big, &small) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(containment(&seq(&mut i, &[]), &big), 1.0);
    }

    #[test]
    fn overlap_counts_distinct_shared() {
        let mut i = Interner::new();
        let a = seq(&mut i, &["the", "the", "song"]);
        let b = seq(&mut i, &["the", "song", "title"]);
        assert_eq!(token_overlap(&a, &b), 2);
    }

    #[test]
    fn weighted_overlap_weights_shared_tokens() {
        let mut i = Interner::new();
        let a = seq(&mut i, &["rare", "common"]);
        let b = seq(&mut i, &["rare", "other"]);
        let rare = i.get("rare").unwrap();
        // rare weighs 3, everything else 1 → shared 3, union 3 + 1 + 1.
        let s = weighted_overlap(&a, &b, |t| if t == rare { 3.0 } else { 1.0 });
        assert!((s - 3.0 / 5.0).abs() < 1e-12);
        let empty = TokenSeq::default();
        assert_eq!(weighted_overlap(&empty, &empty, |_| 1.0), 1.0);
        assert_eq!(weighted_overlap(&a, &b, |_| 0.0), 0.0);
    }

    #[test]
    fn frozen_interner_probes_without_minting() {
        let mut i = Interner::new();
        let tom = i.intern("tom");
        let frozen = i.freeze();
        let clone = frozen.clone();
        assert_eq!(frozen.get("tom"), Some(tom));
        assert_eq!(clone.resolve(tom), "tom");
        assert_eq!(frozen.get("brady"), None);
        assert_eq!(clone.len(), 1);
        assert_eq!(frozen.arena_bytes(), 3);
        let all: Vec<&str> = frozen.iter().map(|(_, s)| s).collect();
        assert_eq!(all, vec!["tom"]);
    }

    #[test]
    fn span_lens_match_byte_lengths() {
        let mut i = Interner::new();
        let a = i.intern("tom");
        let b = i.intern("münchen");
        let c = i.intern("");
        assert_eq!(i.span_len(a), 3);
        assert_eq!(i.span_len(b), "münchen".len());
        assert_eq!(i.span_len(c), 0);
        let lens: Vec<(u32, usize)> =
            i.iter_span_lens().map(|(s, l)| (s.raw(), l)).collect();
        assert_eq!(lens, vec![(0, 3), (1, "münchen".len()), (2, 0)]);
        let frozen = i.freeze();
        assert_eq!(frozen.span_len(a), 3);
        assert_eq!(frozen.iter_span_lens().count(), 3);
    }

    #[test]
    fn intersection_size_merge_scan() {
        let mut i = Interner::new();
        let a = seq(&mut i, &["a", "b", "c", "d"]);
        let b = seq(&mut i, &["b", "d", "e"]);
        assert_eq!(intersection_size(a.sorted(), b.sorted()), 2);
        assert_eq!(intersection_size(a.sorted(), &[]), 0);
    }
}
