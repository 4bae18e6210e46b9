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
//! * postings are integer-keyed (and, the keys being dense, plain tables),
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
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

mod heap;
pub use heap::{HeapBytes, HeapSize};

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
/// interner probe table, payload checksums, config fingerprints, seed streams
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

/// Where a hash starts in a power-of-two table (`mask = len - 1`): the
/// high half folded into the low one before masking, so all 64 bits pick
/// the slot. Masking FNV-1a alone would send every string whose hash
/// agrees in its low 20 bits to one slot at every table size up to 2²⁰.
/// The hash stays unkeyed (table layout is a pure function of the
/// insertion sequence), so this spreads structure in the input; it is no
/// defence against a flood computed for this very function.
#[inline]
pub fn home_slot(hash: u64, mask: usize) -> usize {
    (hash ^ (hash >> 32)) as usize & mask
}

/// A deterministic, append-only string interner.
///
/// Strings live contiguously in one byte arena; each [`Sym`] is an index
/// into a span table. Interning an already known string is a probe of one
/// flat table plus a byte comparison — no allocation. Interned strings are
/// never removed, so [`Interner::resolve`] is valid for the interner's
/// lifetime.
///
/// The whole interner is three flat vectors, whatever it holds: the
/// arena, the span table and an open-addressed probe table of `u32`s
/// (linear probing from [`home_slot`], equality decided by the arena
/// bytes). The probe table's length is zero or a power of two and its
/// **load never exceeds ½** (`2 · len() ≤ table length`), which both
/// bounds probe sequences and guarantees every probe meets an empty
/// slot. It stores no hashes: growing it re-hashes the arena.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Concatenated UTF-8 bytes of every interned string.
    bytes: Vec<u8>,
    /// `(offset, len)` into `bytes` per sym, in insertion order.
    spans: Vec<(u32, u32)>,
    /// Probe table: `0` is an empty slot, any other value is `sym + 1`.
    table: Vec<u32>,
    /// How many times the probe table was (re)built by `intern`.
    #[cfg(test)]
    growths: usize,
}

/// Smallest non-empty probe table.
const MIN_TABLE_LEN: usize = 8;

/// The tight probe-table length for `strings` strings: the smallest
/// power of two that keeps the load at or below ½ (nothing for nothing).
fn table_len_for(strings: usize) -> usize {
    if strings == 0 {
        0
    } else {
        (strings * 2).next_power_of_two().max(MIN_TABLE_LEN)
    }
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an interner sized for `strings` entries totalling `bytes`
    /// bytes: interning up to `strings` distinct strings of that total
    /// size never regrows the probe table, the span table or the arena.
    pub fn with_capacity(strings: usize, bytes: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(bytes),
            spans: Vec::with_capacity(strings),
            table: vec![0; table_len_for(strings)],
            #[cfg(test)]
            growths: 0,
        }
    }

    /// Intern a string, returning its sym. The first call for a given
    /// string appends it to the arena; later calls return the existing sym.
    pub fn intern(&mut self, s: &str) -> Sym {
        let hash = fnv1a64(s.as_bytes());
        if let Some(sym) = self.find(s, hash) {
            return sym;
        }
        assert!(
            self.bytes.len() + s.len() <= u32::MAX as usize && self.spans.len() < u32::MAX as usize,
            "interner arena exceeded u32 address space"
        );
        if (self.spans.len() + 1) * 2 > self.table.len() {
            self.rebuild_table(table_len_for(self.spans.len() + 1));
            #[cfg(test)]
            {
                self.growths += 1;
            }
        }
        let slot = self.vacant_slot(hash);
        let offset = self.bytes.len() as u32;
        self.bytes.extend_from_slice(s.as_bytes());
        let sym = Sym(self.spans.len() as u32);
        self.spans.push((offset, s.len() as u32));
        self.table[slot] = sym.0 + 1;
        sym
    }

    /// Walk `s`'s probe sequence up to its first empty slot: the sym
    /// whose arena bytes equal `s`, if it was interned.
    fn find(&self, s: &str, hash: u64) -> Option<Sym> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = home_slot(hash, mask);
        while let Some(raw) = self.table[slot].checked_sub(1) {
            if self.resolve(Sym(raw)) == s {
                return Some(Sym(raw));
            }
            slot = (slot + 1) & mask;
        }
        None
    }

    /// The first empty slot of a hash's probe sequence (load ≤ ½, so one
    /// exists).
    fn vacant_slot(&self, hash: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = home_slot(hash, mask);
        while self.table[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Replace the probe table by one of `len` slots (a power of two, at
    /// least `2 · self.len()`), re-hashing every string from the arena in
    /// sym order.
    fn rebuild_table(&mut self, len: usize) {
        self.table = vec![0; len];
        for raw in 0..self.spans.len() as u32 {
            let slot = self.vacant_slot(fnv1a64(self.resolve(Sym(raw)).as_bytes()));
            self.table[slot] = raw + 1;
        }
    }

    /// Look up the sym of a string without interning it. Returns `None`
    /// when the string has never been interned — which also means no
    /// interned token can be equal to it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.find(s, fnv1a64(s.as_bytes()))
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

    /// Freeze the interner into a cheaply cloneable, read-only handle that
    /// can be shared across threads. The sym ↔ string mapping is sealed at
    /// this point: a [`FrozenInterner`] can probe and resolve but never
    /// mint new syms, so every clone observes the same mapping forever.
    /// Nothing can be interned afterwards, so the capacity slack of all
    /// three vectors is released first.
    pub fn freeze(mut self) -> FrozenInterner {
        self.bytes.shrink_to_fit();
        self.spans.shrink_to_fit();
        if self.table.len() > table_len_for(self.spans.len()) {
            self.rebuild_table(table_len_for(self.spans.len()));
        }
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

    /// Iterate `(sym, string)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.inner.iter()
    }

    /// Byte length of the string behind a sym (O(1), span table only).
    #[inline]
    pub fn span_len(&self, sym: Sym) -> usize {
        self.inner.span_len(sym)
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
///
/// Both views live in **one** exactly sized allocation: the text-order
/// tokens followed by the sorted ones — or the text-order tokens alone
/// when they already are strictly ascending (always the case for a
/// label whose tokens are all new to the interner), in which case the two
/// views are the same slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenSeq {
    /// `syms[..text_len]` is the text-order view (duplicates preserved),
    /// `syms[sorted_at..]` the sorted, deduplicated one; `sorted_at` is
    /// either `text_len` or, when the views coincide, `0`.
    syms: Box<[Sym]>,
    text_len: u32,
    sorted_at: u32,
}

impl TokenSeq {
    /// Build a sequence from tokens in text order.
    pub fn from_syms(mut tokens: Vec<Sym>) -> Self {
        let text_len = tokens.len();
        assert!(text_len <= u32::MAX as usize / 2, "token sequence exceeded u32 address space");
        let sorted_at = if tokens.windows(2).all(|w| w[0] < w[1]) {
            0
        } else {
            tokens.extend_from_within(..);
            tokens[text_len..].sort_unstable();
            // Deduplicate the sorted copy in place, behind the text view.
            let mut end = text_len + 1;
            for at in text_len + 1..tokens.len() {
                if tokens[at] != tokens[end - 1] {
                    tokens[end] = tokens[at];
                    end += 1;
                }
            }
            tokens.truncate(end);
            text_len
        };
        Self {
            syms: tokens.into_boxed_slice(),
            text_len: text_len as u32,
            sorted_at: sorted_at as u32,
        }
    }

    /// The tokens in text order (duplicates preserved).
    #[inline]
    pub fn tokens(&self) -> &[Sym] {
        &self.syms[..self.text_len as usize]
    }

    /// The sorted, deduplicated tokens.
    #[inline]
    pub fn sorted(&self) -> &[Sym] {
        &self.syms[self.sorted_at as usize..]
    }

    /// Number of tokens in text order (counting duplicates).
    pub fn len(&self) -> usize {
        self.text_len as usize
    }

    /// Number of distinct tokens.
    pub fn distinct_len(&self) -> usize {
        self.syms.len() - self.sorted_at as usize
    }

    /// True when the sequence holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.text_len == 0
    }

    /// Whether the sequence contains a token (binary search on the sorted
    /// view).
    #[inline]
    pub fn contains(&self, sym: Sym) -> bool {
        self.sorted().binary_search(&sym).is_ok()
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
    let (a, b) = (a.sorted(), b.sorted());
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = intersection_size(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Containment of `a` in `b`: `|A ∩ B| / |A|`. An empty `a` is fully
/// contained (1.0).
pub fn containment(a: &TokenSeq, b: &TokenSeq) -> f64 {
    let (a, b) = (a.sorted(), b.sorted());
    if a.is_empty() {
        return 1.0;
    }
    intersection_size(a, b) as f64 / a.len() as f64
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
    let (a, b) = (a.sorted(), b.sorted());
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j) = (0usize, 0usize);
    let (mut shared, mut union) = (0.0f64, 0.0f64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                union += weight(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                union += weight(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let w = weight(a[i]);
                shared += w;
                union += w;
                i += 1;
                j += 1;
            }
        }
    }
    for &s in &a[i..] {
        union += weight(s);
    }
    for &s in &b[j..] {
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

    /// Structural invariant of the probe table: empty or a power of two,
    /// load ≤ ½, and every sym stored exactly once.
    fn assert_table_invariant(i: &Interner) {
        if i.table.is_empty() {
            assert!(i.is_empty());
            return;
        }
        assert!(i.table.len().is_power_of_two());
        assert!(2 * i.len() <= i.table.len(), "load {} / {}", i.len(), i.table.len());
        let mut stored: Vec<u32> = i.table.iter().filter(|&&s| s != 0).map(|s| s - 1).collect();
        stored.sort_unstable();
        assert_eq!(stored, (0..i.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn probe_table_doubles_at_half_load_and_keeps_every_sym_findable() {
        let mut i = Interner::new();
        assert_table_invariant(&i);
        let n = if cfg!(miri) { 70 } else { 1000 };
        for k in 0..n {
            let before = i.table.len();
            assert_eq!(i.intern(&format!("w{k}")).raw(), k as u32);
            assert_table_invariant(&i);
            // Growth happens exactly when the new string would push the
            // load past a half, and lands on the tight size.
            if i.table.len() != before {
                assert!((k + 1) * 2 > before);
                assert_eq!(i.table.len(), table_len_for(k + 1));
            }
        }
        for k in 0..n {
            assert_eq!(i.get(&format!("w{k}")), Some(Sym(k as u32)));
        }
        // 8, 16, …: one build per doubling, none for re-interning.
        assert_eq!(i.growths, (table_len_for(n) / MIN_TABLE_LEN).trailing_zeros() as usize + 1);
        let growths = i.growths;
        for k in 0..n {
            i.intern(&format!("w{k}"));
        }
        assert_eq!(i.growths, growths);
    }

    #[test]
    fn with_capacity_never_regrows_within_its_budget() {
        for n in [0usize, 1, 4, 5, 8, 9, 500] {
            let words: Vec<String> = (0..n).map(|k| format!("wörd {k}")).collect();
            let bytes: usize = words.iter().map(String::len).sum();
            let mut i = Interner::with_capacity(n, bytes);
            let (arena_cap, spans_cap, table_len) =
                (i.bytes.capacity(), i.spans.capacity(), i.table.len());
            // Twice over: the second pass re-interns at full load.
            for w in words.iter().chain(&words) {
                i.intern(w);
            }
            assert_eq!(i.len(), n);
            assert_eq!(i.growths, 0, "{n} strings regrew the probe table");
            assert_eq!(
                (i.bytes.capacity(), i.spans.capacity(), i.table.len()),
                (arena_cap, spans_cap, table_len),
                "{n} strings"
            );
            assert_table_invariant(&i);
        }
    }

    #[test]
    fn freeze_releases_capacity_slack() {
        let mut i = Interner::with_capacity(1000, 10_000);
        let syms: Vec<Sym> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        let frozen = i.freeze();
        let inner: &Interner = frozen.as_ref();
        assert_eq!(inner.bytes.capacity(), 3);
        assert_eq!(inner.spans.capacity(), 3);
        assert_eq!(inner.table.len(), MIN_TABLE_LEN);
        assert_table_invariant(inner);
        for (sym, s) in syms.iter().zip(["a", "b", "c"]) {
            assert_eq!(frozen.get(s), Some(*sym));
        }
        assert_eq!(frozen.get("d"), None);
        // Nothing interned: nothing held.
        let empty = Interner::with_capacity(10, 10).freeze();
        assert!(empty.as_ref().table.is_empty());
        assert_eq!(empty.get(""), None);
    }

    /// Mean distance, in slots, between a stored sym and its home slot.
    fn mean_displacement(i: &Interner) -> f64 {
        let mask = i.table.len() - 1;
        let displaced: usize = (0..i.table.len())
            .filter(|&slot| i.table[slot] != 0)
            .map(|slot| {
                let home = home_slot(fnv1a64(i.resolve(Sym(i.table[slot] - 1)).as_bytes()), mask);
                slot.wrapping_sub(home) & mask
            })
            .sum();
        displaced as f64 / i.len() as f64
    }

    #[test]
    fn probe_sequences_stay_short_on_label_like_vocabulary() {
        // Similar short strings (numeric suffixes, shared stems) must not
        // pile up.
        let mut i = Interner::new();
        let n = if cfg!(miri) { 200 } else { 10_000 };
        for k in 0..n {
            i.intern(&format!("{k}"));
            i.intern(&format!("label {k}"));
            i.intern(&format!("münchen{}", k % 97));
        }
        let mean = mean_displacement(&i);
        assert!(mean < 1.0, "mean displacement {mean:.2} slots at load ≤ ½");
    }

    #[test]
    #[cfg_attr(miri, ignore = "a brute-force search, no memory access of interest")]
    fn strings_sharing_the_low_hash_bits_do_not_share_a_home_slot() {
        // Every string agrees with the others in the low 12 bits of its
        // FNV-1a hash: under a bare `hash & mask` all of them would start
        // at one slot of the 4096-slot table they end up in, and the
        // k-th insertion would walk k occupied slots.
        let mut i = Interner::new();
        let mut candidate = 0u64;
        while i.len() < 2_000 {
            let s = format!("row {candidate}");
            if fnv1a64(s.as_bytes()) & 0xfff == 0x5a5 {
                i.intern(&s);
            }
            candidate += 1;
        }
        assert_eq!(i.table.len(), 4096);
        let mean = mean_displacement(&i);
        assert!(mean < 1.0, "mean displacement {mean:.2} slots at load ≤ ½");
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
    fn token_seq_keeps_both_views_in_one_exact_slice() {
        let s = |raw: &[u32]| TokenSeq::from_syms(raw.iter().map(|&r| Sym(r)).collect());
        let syms = |raw: &[u32]| raw.iter().map(|&r| Sym(r)).collect::<Vec<_>>();
        // Strictly ascending text order: the views are the same slice.
        let ascending = s(&[2, 5, 9]);
        assert_eq!(ascending.syms.len(), 3);
        assert_eq!(ascending.tokens(), ascending.sorted());
        assert_eq!((ascending.len(), ascending.distinct_len()), (3, 3));
        // Otherwise the sorted, deduplicated view follows the text view.
        let mixed = s(&[7, 3, 7, 1]);
        assert_eq!(mixed.tokens(), syms(&[7, 3, 7, 1]));
        assert_eq!(mixed.sorted(), syms(&[1, 3, 7]));
        assert_eq!(mixed.syms.len(), 7);
        assert_eq!((mixed.len(), mixed.distinct_len()), (4, 3));
        // A repeated token is not strictly ascending.
        let repeated = s(&[4, 4]);
        assert_eq!(repeated.tokens(), syms(&[4, 4]));
        assert_eq!(repeated.sorted(), syms(&[4]));
        // Equal sequences are equal however they were allocated.
        let mut roomy = Vec::with_capacity(32);
        roomy.extend(syms(&[7, 3, 7, 1]));
        assert_eq!(TokenSeq::from_syms(roomy), mixed);
        assert_ne!(mixed, ascending);
        let empty = s(&[]);
        assert_eq!(empty, TokenSeq::default());
        assert!(empty.is_empty() && empty.sorted().is_empty() && !empty.contains(Sym(0)));
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
        assert_eq!(frozen.as_ref().arena_bytes(), 3);
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
        let frozen = i.freeze();
        assert_eq!(frozen.span_len(a), 3);
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
