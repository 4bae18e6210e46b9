//! # ltee-intern
//!
//! Deterministic, append-only string interning for the LTEE pipeline.
//!
//! The pipeline's hot paths — blocking, candidate lookup, token-set
//! similarity — compare the *same* normalised labels and tokens millions of
//! times. Keying those comparisons by owned `String`s means re-hashing and
//! re-allocating text that never changes. This crate collapses every
//! distinct string to a dense integer [`Sym`] backed by a single string
//! arena, so that:
//!
//! * equality is a `u32` compare,
//! * postings are integer-keyed (and, the keys being dense, plain tables),
//! * a label's tokens become one [`TokenSeq`] of syms, with a sorted view
//!   for membership tests (or one [`TokenSpan`] of a token arena many
//!   labels share).
//!
//! Beside the interner sits [`StrList`], the one layout for a long-lived
//! list of short strings: two heap blocks per list, not one per string.
//!
//! ## Determinism contract
//!
//! [`Sym`] ids are assigned in **insertion order**: interning the same
//! strings in the same order always yields the same ids, regardless of
//! thread count, process, or platform.
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
#![forbid(unsafe_code)]

mod heap;
pub mod str_list;
pub use heap::{HeapBytes, HeapSize};
pub use str_list::StrList;

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
/// Strings live contiguously in one `String` arena; each [`Sym`] is an
/// index into a span table. Interning an already known string is a probe
/// of one flat table plus a byte comparison — no allocation. Interned
/// strings are never removed, so [`Interner::resolve`] is valid for the
/// interner's lifetime.
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
    /// Every interned string, concatenated.
    arena: String,
    /// `(offset, len)` into `arena` per sym, in insertion order.
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
            arena: String::with_capacity(bytes),
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
            self.arena.len() + s.len() <= u32::MAX as usize && self.spans.len() < u32::MAX as usize,
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
        let offset = self.arena.len() as u32;
        self.arena.push_str(s);
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
        &self.arena[offset as usize..(offset + len) as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate `(sym, string)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.spans.len() as u32).map(move |i| (Sym(i), self.resolve(Sym(i))))
    }

    /// Release the capacity slack of all three tables, for an interner
    /// nothing more will be interned into (a sealed index's). Interning
    /// afterwards still works; the tables just grow again.
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.spans.shrink_to_fit();
        if self.table.len() > table_len_for(self.spans.len()) {
            self.rebuild_table(table_len_for(self.spans.len()));
        }
    }
}

/// Behind `syms[start..]`, one sequence's tokens in text order, append
/// their sorted, deduplicated view and return where it starts — unless
/// the text order already is strictly ascending (always the case for a
/// sequence whose tokens are all new to the interner), in which case the
/// two views are the same slice and the view starts at `start`.
fn append_sorted_view(syms: &mut Vec<Sym>, start: usize) -> usize {
    if syms[start..].windows(2).all(|w| w[0] < w[1]) {
        return start;
    }
    let text_end = syms.len();
    syms.extend_from_within(start..);
    syms[text_end..].sort_unstable();
    // Deduplicate the sorted copy in place, behind the text view.
    let mut end = text_end + 1;
    for at in text_end + 1..syms.len() {
        if syms[at] != syms[end - 1] {
            syms[end] = syms[at];
            end += 1;
        }
    }
    syms.truncate(end);
    text_end
}

/// An interned token sequence: the tokens of one label, in text order,
/// plus a sorted-deduplicated view for set operations.
///
/// The text-order view drives order-sensitive measures (Monge-Elkan); the
/// sorted view serves [`TokenSeq::contains`], Monge-Elkan's shared-token
/// shortcut.
///
/// Both views live in **one** exactly sized allocation: the text-order
/// tokens followed by the sorted ones, or the text-order tokens alone
/// when they already are strictly ascending, in which case the two views
/// are the same slice. A structure holding many sequences keeps them in
/// one arena instead, as [`TokenSpan`]s.
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
        let sorted_at = append_sorted_view(&mut tokens, 0);
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

/// Where one token sequence sits in a token arena that many sequences
/// share (a `Vec<Sym>`): its text-order view, then its sorted,
/// deduplicated view, the same two views as a [`TokenSeq`] in the same
/// layout, but no heap block of its own. The views are read against the
/// arena the span was [`closed`](TokenSpan::close) in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenSpan {
    /// `arena[start..text_end]` is the text-order view,
    /// `arena[sorted_start..end]` the sorted one (`sorted_start` is
    /// `text_end` or, when the views coincide, `start`).
    start: u32,
    text_end: u32,
    sorted_start: u32,
    end: u32,
}

impl TokenSpan {
    /// Close the sequence whose tokens, in text order, were pushed onto
    /// `arena` since it was `start` long: append its sorted view where
    /// needed and return where both views sit.
    ///
    /// # Panics
    ///
    /// When the arena would pass `u32::MAX` tokens.
    pub fn close(arena: &mut Vec<Sym>, start: usize) -> Self {
        let text_end = arena.len();
        let room = (text_end - start).checked_add(text_end).is_some_and(|end| end <= u32::MAX as usize);
        assert!(room, "token arena exceeded u32 address space");
        let sorted_start = append_sorted_view(arena, start);
        Self { start: start as u32, text_end: text_end as u32, sorted_start: sorted_start as u32, end: arena.len() as u32 }
    }

    /// The tokens in text order (duplicates preserved).
    #[inline]
    pub fn tokens(self, arena: &[Sym]) -> &[Sym] {
        &arena[self.start as usize..self.text_end as usize]
    }

    /// The sorted, deduplicated tokens.
    #[inline]
    pub fn sorted(self, arena: &[Sym]) -> &[Sym] {
        &arena[self.sorted_start as usize..self.end as usize]
    }

    /// Number of tokens in text order (counting duplicates).
    #[inline]
    pub fn len(self) -> usize {
        (self.text_end - self.start) as usize
    }

    /// True when the sequence holds no tokens.
    pub fn is_empty(self) -> bool {
        self.text_end == self.start
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
        assert_eq!(i.arena, "tombrady", "one arena copy per distinct string");
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
        let n = 1000;
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
                (i.arena.capacity(), i.spans.capacity(), i.table.len());
            // Twice over: the second pass re-interns at full load.
            for w in words.iter().chain(&words) {
                i.intern(w);
            }
            assert_eq!(i.len(), n);
            assert_eq!(i.growths, 0, "{n} strings regrew the probe table");
            assert_eq!(
                (i.arena.capacity(), i.spans.capacity(), i.table.len()),
                (arena_cap, spans_cap, table_len),
                "{n} strings"
            );
            assert_table_invariant(&i);
        }
    }

    #[test]
    fn shrink_to_fit_releases_capacity_slack() {
        let mut i = Interner::with_capacity(1000, 10_000);
        let syms: Vec<Sym> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        i.shrink_to_fit();
        assert_eq!(i.arena.capacity(), 3);
        assert_eq!(i.spans.capacity(), 3);
        assert_eq!(i.table.len(), MIN_TABLE_LEN);
        assert_table_invariant(&i);
        for (sym, s) in syms.iter().zip(["a", "b", "c"]) {
            assert_eq!(i.get(s), Some(*sym));
            assert_eq!(i.resolve(*sym), s);
        }
        assert_eq!(i.get("d"), None);
        // Nothing interned: nothing held.
        let mut empty = Interner::with_capacity(10, 10);
        empty.shrink_to_fit();
        assert!(empty.table.is_empty());
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
        let n = 10_000;
        for k in 0..n {
            i.intern(&format!("{k}"));
            i.intern(&format!("label {k}"));
            i.intern(&format!("münchen{}", k % 97));
        }
        let mean = mean_displacement(&i);
        assert!(mean < 1.0, "mean displacement {mean:.2} slots at load ≤ ½");
    }

    #[test]
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
        assert_eq!(t.sorted().len(), 2);
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
        assert_eq!((ascending.len(), ascending.sorted().len()), (3, 3));
        // Otherwise the sorted, deduplicated view follows the text view.
        let mixed = s(&[7, 3, 7, 1]);
        assert_eq!(mixed.tokens(), syms(&[7, 3, 7, 1]));
        assert_eq!(mixed.sorted(), syms(&[1, 3, 7]));
        assert_eq!(mixed.syms.len(), 7);
        assert_eq!((mixed.len(), mixed.sorted().len()), (4, 3));
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
    fn token_spans_share_one_arena_and_read_as_their_token_seqs() {
        let texts: [&[u32]; 5] = [&[7, 3, 7, 1], &[2, 5, 9], &[], &[4, 4], &[6]];
        let mut arena = Vec::new();
        let spans: Vec<TokenSpan> = texts
            .iter()
            .map(|text| {
                let start = arena.len();
                arena.extend(text.iter().map(|&r| Sym(r)));
                TokenSpan::close(&mut arena, start)
            })
            .collect();
        // Ascending sequences add nothing behind their text view.
        assert_eq!(arena.len(), 7 + 3 + 3 + 1, "text and sorted views of the first and fourth");
        for (text, span) in texts.iter().zip(&spans) {
            let seq = TokenSeq::from_syms(text.iter().map(|&r| Sym(r)).collect());
            assert_eq!(span.tokens(&arena), seq.tokens());
            assert_eq!(span.sorted(&arena), seq.sorted());
            assert_eq!((span.len(), span.is_empty()), (seq.len(), seq.is_empty()));
        }
    }
}
