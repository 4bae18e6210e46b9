//! Token-level inverted index over labels with fuzzy top-k lookup.
//!
//! Since the interned-symbol refactor the index stores **no per-entry
//! strings**: every raw label, normalised label and token lives once in
//! the index's own [`Interner`], and postings / exact-label blocks are
//! keyed by dense [`Sym`] integers. Every entry's token syms sit in one
//! index-wide token arena, so an index holds a constant number of heap
//! blocks however many labels it has. Lookups hash each query token once,
//! then work entirely on integers; near-miss scoring resolves candidate
//! tokens to `&str` slices of the interner's arena without allocating.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;

use ltee_intern::{Interner, Sym, TokenSpan};
use ltee_text::{normalize_label, tokenize, tokenize_interned_into, within_one_edit, SimilarityGate};

use crate::candidates::{d1_complete, CandidateIndex};
use crate::metrics::{self, LookupMetrics};
use crate::postings::PostingLists;

/// One indexed label. All text fields are syms of the owning
/// [`LabelIndex`]'s interner — resolve them via [`LabelIndex::resolve`] —
/// and its tokens sit in that index's token arena. An entry owns no heap.
/// The raw label is deliberately not retained: the index only ever
/// compares normalised forms, and raw labels are mostly distinct, so
/// storing them would double the arena for nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelEntry {
    /// Caller-provided identifier (row id, instance id, …).
    pub id: u64,
    /// The normalised label that forms the entry's block key, interned.
    pub normalized: Sym,
    /// Where the interned tokens of the normalised label sit in the
    /// index's token arena, memoised at insert time so that lookups (which
    /// score every candidate against the query tokens) never re-tokenise
    /// the same label.
    pub(crate) tokens: TokenSpan,
}

/// A candidate returned by a lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelMatch {
    /// Identifier of the matched entry.
    pub id: u64,
    /// Normalised label of the matched entry (a sym of the queried index —
    /// this *is* the entry's block key, directly usable as an integer
    /// blocking key).
    pub normalized: Sym,
    /// Ranking score in `[0, 1]`: fraction of query tokens found, softened
    /// by per-token edit similarity for near-miss tokens.
    pub score: f64,
}

/// Inverted index over labels.
///
/// The index stores each entry under its normalised label (the "block" key)
/// and under every token of that label. Lookups tokenise the query, collect
/// every entry sharing at least one exact token (plus entries sharing the
/// full normalised label), score them, and return the top-k.
///
/// Postings and blocks are integer-keyed (`Sym → positions`) and flat: a
/// span slot per sym plus one shared arena per table (the crate's
/// `PostingLists`), no hashing and no allocation per key. The index
/// owns the interner that defines those syms. Insertions mutate the
/// interner and must be sequential; lookups are read-only and safe to run
/// in parallel.
#[derive(Debug, Default, Clone)]
pub struct LabelIndex {
    /// Arena + symbol table for every raw label, normalised label and token.
    interner: Interner,
    entries: Vec<LabelEntry>,
    /// Every entry's token syms, entry after entry (see [`TokenSpan`]).
    tokens: Vec<Sym>,
    /// token sym → indices into `entries`, one per occurrence, ascending.
    postings: PostingLists,
    /// normalised label sym → indices into `entries` (exact-label block).
    by_label: PostingLists,
    /// Pruning side tables (token lengths, per-entry length buckets,
    /// deletion neighborhood), maintained in lockstep with `entries`.
    cands: CandidateIndex,
}

impl LabelIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a label under the given identifier and return the normalised
    /// label's sym (the entry's block key). Duplicate ids are allowed (an
    /// instance can have several labels); each call adds one entry.
    pub fn insert(&mut self, id: u64, label: &str) -> Sym {
        let normalized_str = normalize_label(label);
        let normalized = self.interner.intern(&normalized_str);
        let start = self.tokens.len();
        tokenize_interned_into(&normalized_str, &mut self.interner, &mut self.tokens);
        let tokens = TokenSpan::close(&mut self.tokens, start);
        let entry_pos = self.entries.len() as u32;
        for &token in tokens.tokens(&self.tokens) {
            self.postings.push(token, entry_pos);
        }
        self.by_label.push(normalized, entry_pos);
        self.cands.add_entry(&self.interner, tokens.sorted(&self.tokens));
        self.entries.push(LabelEntry { id, normalized, tokens });
        normalized
    }

    /// Insert many `(id, label)` pairs at once. Equivalent to calling
    /// [`LabelIndex::insert`] per pair. The index is fully incremental:
    /// entries added after earlier lookups are visible to later lookups.
    pub fn extend<I, S>(&mut self, items: I)
    where
        I: IntoIterator<Item = (u64, S)>,
        S: AsRef<str>,
    {
        for (id, label) in items {
            self.insert(id, label.as_ref());
        }
    }

    /// Normalise a label and intern it **without adding an entry**.
    /// Returns the sym the label would block under. Used by streaming
    /// blocking, where a row's own label must become an integer key before
    /// the row is (or without the row ever being) indexed; interning alone
    /// never affects lookup results. Tokens are not touched — they are
    /// interned if and when the label is actually [`LabelIndex::insert`]ed.
    pub fn intern_label(&mut self, label: &str) -> Sym {
        self.interner.intern(&normalize_label(label))
    }

    /// The string behind one of this index's syms.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// The index's interner (read access; e.g. for diagnostics).
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The exact block of an already normalised query (the query's
    /// *block* in the paper's blocking scheme), without allocating: a
    /// caller probing several indexes with one query (a cross-class lookup)
    /// normalises it once. Entries come in insertion order; an id indexed
    /// under two labels that normalise alike appears twice.
    pub fn exact_block_normalized(
        &self,
        label: &NormalizedLabel,
    ) -> impl ExactSizeIterator<Item = &LabelEntry> {
        let block = match self.interner.get(&label.0) {
            Some(sym) => self.by_label.get(sym),
            None => &[],
        };
        block.iter().map(|&pos| &self.entries[pos as usize])
    }

    /// Distinct entry ids of the exact block, in insertion order.
    pub fn exact_ids(&self, label: &str) -> Vec<u64> {
        let block = self.exact_block_normalized(&NormalizedLabel::new(label));
        // A block is the handful of entries sharing one normalised label:
        // the result doubles as the seen-set.
        let mut ids: Vec<u64> = Vec::with_capacity(block.len());
        for entry in block {
            if !ids.contains(&entry.id) {
                ids.push(entry.id);
            }
        }
        ids
    }

    /// Seal the index for sharing across threads (see
    /// [`SharedLabelIndex`]). Insertion is sealed; every lookup capability
    /// survives. Since nothing can be inserted afterwards, every table
    /// gives up its growth slack first: the sealed index holds exactly
    /// what its entries need.
    pub fn into_shared(self) -> SharedLabelIndex {
        let Self { mut interner, mut entries, mut tokens, postings, by_label, cands } = self;
        interner.shrink_to_fit();
        entries.shrink_to_fit();
        tokens.shrink_to_fit();
        SharedLabelIndex(Self {
            interner,
            entries,
            tokens,
            postings: postings.into_sealed(),
            by_label: by_label.into_sealed(),
            cands: cands.into_sealed(),
        })
    }

    /// Fuzzy top-k lookup: return up to `k` distinct entry ids whose labels
    /// are similar to the query label, most similar first.
    ///
    /// Candidates are gathered through the token postings (entries sharing at
    /// least one token with the query); when the query has no tokens in the
    /// index the result is empty. Scores combine exact token overlap with a
    /// Levenshtein-based credit for near-miss tokens so that e.g.
    /// "Jon Smith" still retrieves "John Smith". Query tokens are mapped to
    /// syms via a read-only interner probe — a token never interned cannot
    /// match any posting, and the query leaves the index untouched.
    ///
    /// Instead of scoring every candidate and sorting, the
    /// document-at-a-time merge visits them in entry order,
    /// bounds each candidate's score from precomputed length buckets, and
    /// fully scores only candidates whose bound could still enter the
    /// running top-k (`TopList`). Scored candidates resolve near-miss tokens
    /// through a per-token memo seeded from the deletion neighborhood and
    /// refined with the bounded bit-parallel kernel, so the number of edit
    /// distance computations depends on the query's local token
    /// neighbourhood, not on the index size. Results — ids, score bits,
    /// surfaced labels, order — are identical to the flat scan's.
    ///
    /// The work counters are tallied locally and published once, when the
    /// lookup ends, so concurrent lookups do not contend per candidate on
    /// the shared counters.
    pub fn lookup(&self, label: &str, k: usize) -> Vec<LabelMatch> {
        let mut tally = LookupMetrics { lookups: 1, ..LookupMetrics::default() };
        let matches = lookup_tallied(self, label, k, &mut tally);
        metrics::publish(tally);
        matches
    }
}

ltee_intern::heap_size! {
    LabelEntry {}
    LabelIndex { interner, entries, tokens, postings, by_label, cands }
    SharedLabelIndex { 0 }
}

/// A sealed [`LabelIndex`]: read-only, thread-shareable, and holding no
/// growth slack.
///
/// Produced by [`LabelIndex::into_shared`], it dereferences to the index
/// it sealed, so every read operation — fuzzy top-k lookup, exact blocks,
/// sym resolution — is the index's own, but it can never be inserted into,
/// which is what makes it safe to hand to concurrent readers without a
/// lock: every reader observes one immutable postings/arena state forever.
/// The knowledge base's per-class indexes and published KB snapshots
/// (`ltee-serve`) hold their label indexes as this type; snapshot versions
/// sharing an unchanged class share its slice, index included.
#[derive(Debug)]
pub struct SharedLabelIndex(LabelIndex);

impl Deref for SharedLabelIndex {
    type Target = LabelIndex;

    fn deref(&self) -> &LabelIndex {
        &self.0
    }
}

/// A query label in the normalised form every index keys its exact blocks
/// on ([`normalize_label`]'s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizedLabel(String);

impl NormalizedLabel {
    /// Normalise a query label.
    pub fn new(label: &str) -> Self {
        Self(normalize_label(label))
    }
}

/// Result-key ordering: score descending, then id, then entry position.
/// Entry positions are unique, so the order is total and two different
/// entries never compare equal.
#[inline]
fn key_cmp(a: &(f64, u64, u32), b: &(f64, u64, u32)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
}

/// One retained result: an id's best-scoring entry so far.
#[derive(Clone, Copy)]
struct TopItem {
    score: f64,
    id: u64,
    pos: u32,
    normalized: Sym,
}

impl TopItem {
    #[inline]
    fn key(&self) -> (f64, u64, u32) {
        (self.score, self.id, self.pos)
    }
}

/// The running top-k over *distinct ids*, ordered by [`key_cmp`]. Each id
/// holds exactly one slot — its best `(score, pos)` representative —
/// which reproduces the sort → dedup-by-id → truncate pipeline of a full
/// scan: an id evicted from a full list had the worst key of `k + 1`
/// distinct ids, so no entry at or below that key can appear in the
/// final result, and forgetting it is sound.
struct TopList {
    k: usize,
    items: Vec<TopItem>,
}

impl TopList {
    fn new(k: usize) -> Self {
        Self { k, items: Vec::with_capacity(k.min(64)) }
    }

    /// Whether an entry whose true score is at most `ub` could still
    /// change the result. `false` is a proof of irrelevance: the true
    /// key sorts at or after the `(ub, id, pos)` key (a lower score only
    /// moves it later), which already loses to the keys that matter.
    fn may_enter(&self, ub: f64, id: u64, pos: u32) -> bool {
        let key = (ub, id, pos);
        if let Some(existing) = self.items.iter().find(|it| it.id == id) {
            // This id's current representative already beats anything the
            // entry can produce, so neither the representative nor the
            // ranked id set can change.
            if key_cmp(&existing.key(), &key) == Ordering::Less {
                return false;
            }
        }
        match self.items.last() {
            Some(kth) if self.items.len() >= self.k => key_cmp(&key, &kth.key()) != Ordering::Greater,
            _ => true,
        }
    }

    fn insert(&mut self, item: TopItem) {
        if let Some(at) = self.items.iter().position(|it| it.id == item.id) {
            if key_cmp(&item.key(), &self.items[at].key()) == Ordering::Less {
                self.items.remove(at);
                self.insert_sorted(item);
            }
            return;
        }
        if self.items.len() == self.k {
            match self.items.last() {
                Some(kth) if key_cmp(&item.key(), &kth.key()) == Ordering::Less => {
                    self.items.pop();
                }
                _ => return,
            }
        }
        self.insert_sorted(item);
    }

    fn insert_sorted(&mut self, item: TopItem) {
        let key = item.key();
        let at = self.items.partition_point(|it| key_cmp(&it.key(), &key) == Ordering::Less);
        self.items.insert(at, item);
    }

    fn into_matches(self) -> Vec<LabelMatch> {
        self.items
            .into_iter()
            .map(|it| LabelMatch { id: it.id, normalized: it.normalized, score: it.score })
            .collect()
    }
}

/// The final score expression, shared between the exact score and the
/// upper bound so the two are the *same float program* — the bound
/// differs only by substituting per-token contributions that dominate
/// the true ones, and every op here rounds monotonically.
#[inline]
fn finish_score(total: f64, query_len: usize, candidate_len: usize, exact_hits: usize) -> f64 {
    let coverage = total / query_len as f64;
    let len_penalty = {
        let q = query_len as f64;
        let c = candidate_len as f64;
        1.0 - (q - c).abs() / (q + c)
    };
    // Exact hits give a small additive bonus to stabilise the ordering
    // among candidates that tie on coverage.
    let bonus = exact_hits as f64 * 1e-6;
    (coverage * 0.8 + len_penalty * 0.2 + bonus).min(1.0)
}

/// What a lookup knows about `levenshtein_similarity(query_token, sym)`.
#[derive(Clone, Copy)]
enum SimBound {
    /// The exact similarity, bit-identical to the full computation.
    Exact(f64),
    /// The similarity is provably *strictly below* this value (a bounded
    /// kernel run came back `None`). Usable as a skip proof only against
    /// a running maximum at or above the bound.
    Below(f64),
}

/// Hasher of the memo's [`Sym`] keys: one multiply of the sym id
/// (Fibonacci hashing). Syms are dense ids minted by the index's own
/// interner — no adversary chooses them — so SipHash's per-probe cost
/// buys nothing here. Only the memo's probe speed depends on it: what a
/// lookup stores and decides is the same under any hasher.
#[derive(Default)]
struct SymHasher(u64);

impl Hasher for SymHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-lookup scoring state: query-token measurements, the
/// similarity memo and the lazily seeded deletion neighborhood.
struct Scorer<'a> {
    interner: &'a Interner,
    /// The index's token arena, which entries' token spans read.
    arena: &'a [Sym],
    cands: &'a CandidateIndex,
    query_tokens: &'a [String],
    query_syms: &'a [Option<Sym>],
    q_char_lens: Vec<usize>,
    /// Per query token: its verified one-edit neighborhood, sorted by
    /// sym, with exact similarities. Filled by `seed_d1`.
    d1_sets: Vec<Vec<(Sym, f64)>>,
    /// Lazily computed query-token × query-token similarity matrix
    /// (row-major, `1.0` on the diagonal). Empty until first needed.
    cross: Vec<f64>,
    /// Per query token: candidate-token sym → similarity knowledge. Each
    /// distinct (query token, sym) pair runs the edit kernel at most a
    /// handful of times per lookup, independent of how many entries
    /// mention the sym.
    memo: Vec<HashMap<Sym, SimBound, BuildHasherDefault<SymHasher>>>,
    /// Whether token `i`'s d≤1 neighborhood has been folded into `memo`.
    d1_seeded: Vec<bool>,
    /// Per query token: the largest fuzzy contribution *any* vocabulary
    /// token could make (see `global_max`). `NaN` until computed.
    gmax: Vec<f64>,
    /// Coarse-bound contribution sums memoised per query hit mask
    /// (`2^q` slots, `NaN` until computed); only used when `q <= 8`, so
    /// the hit mask fully determines which tokens hit. The sum depends on
    /// nothing but the mask, and caching it keeps the per-candidate
    /// coarse gate to a lookup plus `finish_score`.
    coarse_sums: Vec<f64>,
    /// Per-token contributions of the most recent `upper_bound` call
    /// (1.0 for exact hits, the dominating bound otherwise). `score`
    /// reads them to complete partial scores optimistically.
    ub_contribs: Vec<f64>,
    /// Edit-distance kernel invocations so far, published with the rest of
    /// the lookup's tally when it ends.
    edit_calls: u64,
}

impl<'a> Scorer<'a> {
    fn new(
        interner: &'a Interner,
        arena: &'a [Sym],
        cands: &'a CandidateIndex,
        query_tokens: &'a [String],
        query_syms: &'a [Option<Sym>],
    ) -> Self {
        let q_char_lens: Vec<usize> =
            query_tokens.iter().map(|t| t.chars().count()).collect();
        Self {
            interner,
            arena,
            cands,
            query_tokens,
            query_syms,
            q_char_lens,
            d1_sets: vec![Vec::new(); query_tokens.len()],
            cross: Vec::new(),
            memo: (0..query_tokens.len()).map(|_| HashMap::default()).collect(),
            d1_seeded: vec![false; query_tokens.len()],
            gmax: vec![f64::NAN; query_tokens.len()],
            coarse_sums: Vec::new(),
            ub_contribs: vec![0.0; query_tokens.len()],
            edit_calls: 0,
        }
    }

    /// Whether query token `i` appears exactly in the entry. Tokens past
    /// the query mask's 64 bits fall back to the sorted-sym search.
    #[inline]
    fn token_exact(&self, entry: &LabelEntry, i: usize, qmask: u64) -> bool {
        if i < 64 {
            qmask & (1u64 << i) != 0
        } else {
            self.query_syms[i].is_some_and(|sym| entry.tokens.sorted(self.arena).binary_search(&sym).is_ok())
        }
    }

    /// The cheapest score upper bound: exact hits contribute 1.0, every
    /// fuzzy token its entry-independent `global_max` — a handful of
    /// float ops per candidate, no per-entry-token work at all. Also
    /// reports whether every query token hit exactly, in which case the
    /// bound *is* the score (the same `finish_score` over the same 1.0
    /// contributions in the same order).
    fn coarse_bound(&mut self, entry: &LabelEntry, qmask: u64, exact_hits: usize) -> (f64, bool) {
        let q = self.query_tokens.len();
        if q <= 8 {
            // Every token index fits the hit mask, so the mask alone
            // determines each token's contribution; memoise the sum per
            // mask (same 0..q addition order every time → identical bits).
            if self.coarse_sums.is_empty() {
                self.coarse_sums = vec![f64::NAN; 1 << q];
            }
            let idx = (qmask as usize) & ((1 << q) - 1);
            if self.coarse_sums[idx].is_nan() {
                let mut sum = 0.0f64;
                for i in 0..q {
                    sum += if idx & (1 << i) != 0 { 1.0 } else { self.global_max(i) };
                }
                self.coarse_sums[idx] = sum;
            }
            let all_exact = idx == (1 << q) - 1;
            return (
                finish_score(self.coarse_sums[idx], q, entry.tokens.len(), exact_hits),
                all_exact,
            );
        }
        let mut total = 0.0f64;
        let mut all_exact = true;
        for i in 0..q {
            total += if self.token_exact(entry, i, qmask) {
                1.0
            } else {
                all_exact = false;
                self.global_max(i)
            };
        }
        (finish_score(total, q, entry.tokens.len(), exact_hits), all_exact)
    }

    /// The largest fuzzy contribution query token `i` could draw from
    /// *any* vocabulary token: the maximum over its verified one-edit
    /// similarities (excluding the query token's own sym, which can never
    /// be a fuzzy match) and the length bounds of every character length
    /// present in the vocabulary. Dominates `fuzzy_bound` for every entry
    /// termwise: each of `fuzzy_bound`'s cases — cross-query similarities
    /// included, since the other query token is itself in the vocabulary —
    /// is either one of these exact d≤1 similarities or the identical
    /// length-bound float expression evaluated at a present length (the
    /// ≥64 pool's supremum `1 - 1/max(lq, 64)` dominates each pooled
    /// length's bound with real-arithmetic margin ≥ `1/(64·max_len)`, far
    /// above f64 rounding; the equal-length case is the same expression
    /// bit-for-bit).
    fn global_max(&mut self, i: usize) -> f64 {
        if !self.gmax[i].is_nan() {
            return self.gmax[i];
        }
        if !self.d1_seeded[i] {
            self.d1_seeded[i] = true;
            self.seed_d1(i);
        }
        let lq = self.q_char_lens[i];
        let mut g = 0.0f64;
        for &(sym, s) in &self.d1_sets[i] {
            if Some(sym) != self.query_syms[i] && s > g {
                g = s;
            }
        }
        let mut mask = self.cands.vocab_len_mask();
        while mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let lc = if bit == 63 { lq.max(64) } else { bit + 1 };
            let min_dist = lq.abs_diff(lc).max(if bit == 63 || !d1_complete(lq, lc) {
                1
            } else {
                2
            });
            let bound = 1.0 - min_dist as f64 / lq.max(lc) as f64;
            if bound > g {
                g = bound;
            }
        }
        self.gmax[i] = g;
        g
    }

    /// A score upper bound without running the edit kernel against any
    /// candidate token.
    fn upper_bound(&mut self, entry: &LabelEntry, qmask: u64, exact_hits: usize) -> f64 {
        let q = self.query_tokens.len();
        let mut total = 0.0f64;
        for i in 0..q {
            let contrib = if self.token_exact(entry, i, qmask) {
                1.0
            } else {
                self.fuzzy_bound(i, entry, qmask)
            };
            self.ub_contribs[i] = contrib;
            total += contrib;
        }
        finish_score(total, q, entry.tokens.len(), exact_hits)
    }

    /// A dominating bound on query token `i`'s fuzzy contribution to the
    /// entry, from three exhaustive cases over the entry's tokens:
    ///
    /// * a token exactly matching another query token contributes exactly
    ///   the query-to-query similarity (computed once per query);
    /// * a token in `i`'s verified one-edit neighborhood contributes its
    ///   exact, memoised similarity;
    /// * any other token is provably at distance ≥ 2 when both sides are
    ///   short enough for the deletion index to be complete (≥ 1
    ///   otherwise), and its exact character length is known — bounded
    ///   with the similarity's own float expression, so the bound
    ///   dominates the true value in actual f64 arithmetic.
    fn fuzzy_bound(&mut self, i: usize, entry: &LabelEntry, qmask: u64) -> f64 {
        if !self.d1_seeded[i] {
            self.d1_seeded[i] = true;
            self.seed_d1(i);
        }
        let q = self.query_tokens.len();
        let lq = self.q_char_lens[i];
        let mut bound = 0.0f64;
        for j in 0..q {
            if j != i && self.token_exact(entry, j, qmask) {
                let s = self.cross_sim(i, j);
                if s > bound {
                    bound = s;
                }
            }
        }
        let d1 = &self.d1_sets[i];
        for &ct in entry.tokens.sorted(self.arena) {
            // Tokens equal to a query token are covered by the
            // cross-similarity pass above (they can only be in the entry
            // as exact hits of that query token).
            if self.query_syms.contains(&Some(ct)) {
                continue;
            }
            let s = if let Ok(at) = d1.binary_search_by_key(&ct, |&(sym, _)| sym) {
                d1[at].1
            } else {
                let lc = self.cands.token_char_len(ct);
                let max_len = lq.max(lc);
                let min_dist = lq.abs_diff(lc).max(if d1_complete(lq, lc) { 2 } else { 1 });
                1.0 - min_dist as f64 / max_len as f64
            };
            if s > bound {
                bound = s;
            }
        }
        bound
    }

    /// `levenshtein_similarity(query_token_i, query_token_j)`, from a
    /// lazily built per-query matrix.
    fn cross_sim(&mut self, i: usize, j: usize) -> f64 {
        let q = self.query_tokens.len();
        if self.cross.is_empty() {
            self.edit_calls += (q * q - q) as u64;
            self.cross = (0..q * q)
                .map(|x| {
                    let (a, b) = (x / q, x % q);
                    if a == b {
                        1.0
                    } else {
                        // A floor of 0 refutes nothing: every similarity is at least 0.
                        SimilarityGate::new(self.q_char_lens[a], self.q_char_lens[b])
                            .similarity_above(&self.query_tokens[a], &self.query_tokens[b], 0.0)
                            .unwrap_or(0.0)
                    }
                })
                .collect();
        }
        self.cross[i * q + j]
    }

    /// The exact score, bit-identical to scoring the entry with the full
    /// per-token `levenshtein_similarity` maximum: contributions
    /// accumulate in query-token order, and the fuzzy maximum only ever
    /// skips tokens proven unable to change it.
    ///
    /// Returns `None` when the entry is abandoned part-way: before each
    /// fuzzy token, the running total is completed with the remaining
    /// tokens' `upper_bound` contributions — the same addition sequence
    /// with termwise-dominating addends, so the completion dominates the
    /// true score in f64 — and if even that completion cannot enter
    /// `top`, neither can the entry. `upper_bound` must have been called
    /// for this entry immediately before (it fills the contributions).
    fn score(
        &mut self,
        entry: &LabelEntry,
        pos: u32,
        qmask: u64,
        exact_hits: usize,
        top: &TopList,
    ) -> Option<f64> {
        let q = self.query_tokens.len();
        let mut total = 0.0f64;
        for i in 0..q {
            if self.token_exact(entry, i, qmask) {
                total += 1.0;
                continue;
            }
            let mut optimistic = total;
            for j in i..q {
                optimistic += self.ub_contribs[j];
            }
            let completion = finish_score(optimistic, q, entry.tokens.len(), exact_hits);
            if !top.may_enter(completion, entry.id, pos) {
                return None;
            }
            total += self.best_fuzzy(i, entry);
        }
        Some(finish_score(total, q, entry.tokens.len(), exact_hits))
    }

    /// Query token `i`'s best similarity against the entry's tokens.
    fn best_fuzzy(&mut self, i: usize, entry: &LabelEntry) -> f64 {
        if !self.d1_seeded[i] {
            self.d1_seeded[i] = true;
            self.seed_d1(i);
        }
        let qt = self.query_tokens[i].as_str();
        let lq = self.q_char_lens[i];
        let mut best = 0.0f64;
        for &ct in entry.tokens.tokens(self.arena) {
            // Length bound first, before any hashing: the entry does not
            // contain query token `i` (that is why we are in the fuzzy
            // path), so `ct` differs from it. A bound at or below the
            // running maximum means the token cannot raise it — even if a
            // memoised exact value exists.
            let gate = SimilarityGate::new(lq, self.cands.token_char_len(ct));
            if gate.length_bound(true) <= best {
                continue;
            }
            let cached = self.memo[i].get(&ct).copied();
            match cached {
                Some(SimBound::Exact(s)) => {
                    if s > best {
                        best = s;
                    }
                }
                // The memoised refutation is at or below the running
                // maximum: the token provably cannot raise it.
                Some(SimBound::Below(b)) if b <= best => {}
                _ => {
                    self.edit_calls += 1;
                    match gate.similarity_above(qt, self.interner.resolve(ct), best) {
                        Some(s) => {
                            self.memo[i].insert(ct, SimBound::Exact(s));
                            if s > best {
                                best = s;
                            }
                        }
                        None => {
                            // sim < best, and best is tighter than any
                            // previously stored refutation (a looser one
                            // is why we re-ran the kernel).
                            self.memo[i].insert(ct, SimBound::Below(best));
                        }
                    }
                }
            }
        }
        best
    }

    /// Fold the d≤1 deletion neighborhood of query token `i` into the
    /// memo: these carry almost all near-miss score mass, and knowing
    /// them exactly up front lets the running maximum start high so the
    /// bounded kernel can refute everything else cheaply.
    fn seed_d1(&mut self, i: usize) {
        let qt = self.query_tokens[i].as_str();
        let lq = self.q_char_lens[i];
        let near = self.cands.near_syms(qt, lq);
        if near.is_empty() {
            return;
        }
        self.edit_calls += near.len() as u64;
        for sym in near {
            if let Some(d) = within_one_edit(qt, self.interner.resolve(sym)) {
                let max_len = lq.max(self.cands.token_char_len(sym));
                let s = 1.0 - d as f64 / max_len as f64;
                self.memo[i].insert(sym, SimBound::Exact(s));
                // `near` is sorted, so the set stays sorted by sym.
                self.d1_sets[i].push((sym, s));
            }
        }
    }
}

/// One query-token posting cursor of the document-at-a-time merge.
struct Cursor<'a> {
    /// Index of the query token this cursor belongs to.
    token: usize,
    /// The token's posting list (entry positions, ascending, one per
    /// occurrence of the token in the entry).
    list: &'a [u32],
    /// Next unconsumed offset in `list`.
    at: usize,
}

/// How many posting slots of the rarest query token the floor-warming
/// pass resolves before the merge. Purely a latency knob: warming more
/// costs more up-front scoring, warming less leaves the early merge with
/// a low floor. Results are identical at any value.
const WARM_CAP: usize = 1024;

/// [`LabelIndex::lookup`]'s body, counting its work into `tally`.
fn lookup_tallied(index: &LabelIndex, label: &str, k: usize, tally: &mut LookupMetrics) -> Vec<LabelMatch> {
    let LabelIndex { interner, entries, tokens, postings, cands, .. } = index;
    if k == 0 || entries.is_empty() {
        return Vec::new();
    }
    let normalized = normalize_label(label);
    let query_tokens = tokenize(&normalized);
    if query_tokens.is_empty() {
        return Vec::new();
    }
    let query_syms: Vec<Option<Sym>> = query_tokens.iter().map(|t| interner.get(t)).collect();

    // One cursor per query-token occurrence with a posting list. A token
    // never interned, or interned but never indexed, cannot match any
    // entry; duplicate query tokens keep one cursor per occurrence so
    // hit multiplicities match the original accumulation.
    let mut cursors: Vec<Cursor> = Vec::with_capacity(query_tokens.len());
    for (i, sym) in query_syms.iter().enumerate() {
        if let Some(sym) = *sym {
            let list = postings.get(sym);
            if !list.is_empty() {
                cursors.push(Cursor { token: i, list, at: 0 });
            }
        }
    }
    if cursors.is_empty() {
        return Vec::new();
    }

    let mut scorer = Scorer::new(interner, tokens, cands, &query_tokens, &query_syms);
    let mut top = TopList::new(k);

    // Weigh a candidate exactly once, through two bound gates of
    // increasing cost: the entry-independent coarse bound (a few float
    // ops) rejects the bulk of one-hit candidates without touching the
    // entry's tokens; survivors pay for the per-entry-token bound, and
    // only candidates passing both are scored exactly.
    let mut consider = |pos: u32, qmask: u64, exact_hits: usize| {
        let entry = &entries[pos as usize];
        let (coarse, all_exact) = scorer.coarse_bound(entry, qmask, exact_hits);
        if !top.may_enter(coarse, entry.id, pos) {
            tally.candidates_skipped += 1;
            return;
        }
        if all_exact {
            // The coarse bound over all-1.0 contributions *is* the score.
            tally.candidates_scored += 1;
            top.insert(TopItem { score: coarse, id: entry.id, pos, normalized: entry.normalized });
            return;
        }
        let ub = scorer.upper_bound(entry, qmask, exact_hits);
        if !top.may_enter(ub, entry.id, pos) {
            tally.candidates_skipped += 1;
            return;
        }
        tally.candidates_scored += 1;
        if let Some(score) = scorer.score(entry, pos, qmask, exact_hits, &top) {
            top.insert(TopItem { score, id: entry.id, pos, normalized: entry.normalized });
        }
    };

    // Floor warming: the position-ordered merge raises the top-k floor
    // only as strong candidates stream past, so a query whose best
    // matches sit late in the entry array would score thousands of
    // mediocre candidates first. Resolving a capped prefix of the
    // *rarest* query token's posting list up front — where the
    // highest-coverage matches concentrate — raises the floor before the
    // merge starts. Scoring any subset exactly is always sound, and the
    // top list is insertion-order independent, so results are unchanged.
    let warm: &[u32] = {
        let shortest = cursors.iter().map(|c| c.list).min_by_key(|l| l.len()).unwrap_or_default();
        &shortest[..shortest.len().min(WARM_CAP)]
    };
    let mut warm_at = 0usize;
    let mut prev = None;
    for &pos in warm {
        // Posting lists carry one slot per token occurrence; duplicate
        // positions are consecutive.
        if prev == Some(pos) {
            continue;
        }
        prev = Some(pos);
        let (qmask, exact_hits) = exact_profile(entries[pos as usize].tokens.tokens(tokens), &query_syms);
        consider(pos, qmask, exact_hits);
    }

    loop {
        // Next candidate: the smallest unconsumed entry position.
        let mut pos = u32::MAX;
        for c in &cursors {
            if let Some(&p) = c.list.get(c.at) {
                pos = pos.min(p);
            }
        }
        if pos == u32::MAX {
            break;
        }
        // Drain every cursor at `pos`: which query tokens hit (qmask) and
        // with what total multiplicity (exact_hits).
        let mut qmask = 0u64;
        let mut exact_hits = 0usize;
        for c in &mut cursors {
            while c.list.get(c.at) == Some(&pos) {
                exact_hits += 1;
                if c.token < 64 {
                    qmask |= 1u64 << c.token;
                }
                c.at += 1;
            }
        }

        // Warmed positions were already weighed (exactly — the warm pass
        // computes the same qmask/exact_hits from the entry's tokens).
        // `warm` is ascending and the merge emits positions in ascending
        // order, so a single advancing pointer replaces a binary search.
        while warm_at < warm.len() && warm[warm_at] < pos {
            warm_at += 1;
        }
        if warm.get(warm_at) != Some(&pos) {
            consider(pos, qmask, exact_hits);
        }
    }

    tally.edit_distance_calls += scorer.edit_calls;
    top.into_matches()
}

/// Which query tokens an entry contains (`qmask` bit per query-token
/// index < 64) and the total posting multiplicity (`exact_hits`) —
/// computed from the entry's tokens directly, bit-identical to what the
/// posting-cursor drain derives for the same entry.
fn exact_profile(entry_tokens: &[Sym], query_syms: &[Option<Sym>]) -> (u64, usize) {
    let mut qmask = 0u64;
    let mut exact_hits = 0usize;
    for (i, sym) in query_syms.iter().enumerate() {
        if let Some(sym) = *sym {
            let mult = entry_tokens.iter().filter(|&&t| t == sym).count();
            if mult > 0 {
                exact_hits += mult;
                if i < 64 {
                    qmask |= 1u64 << i;
                }
            }
        }
    }
    (qmask, exact_hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn index_of<S: AsRef<str>>(items: impl IntoIterator<Item = (u64, S)>) -> LabelIndex {
        let mut idx = LabelIndex::new();
        idx.extend(items);
        idx
    }

    fn ids(matches: Vec<LabelMatch>) -> Vec<u64> {
        matches.into_iter().map(|m| m.id).collect()
    }

    fn sample_index() -> LabelIndex {
        index_of(vec![
            (1, "Tom Brady"),
            (2, "Tom Brady Jr."),
            (3, "Peyton Manning"),
            (4, "Eli Manning"),
            (5, "Paris"),
            (6, "Paris, Texas"),
            (7, "Yellow Submarine"),
            (8, "Yellow Submarine (Remastered)"),
        ])
    }

    #[test]
    fn exact_block_groups_same_normalised_label() {
        let idx = sample_index();
        // "Yellow Submarine (Remastered)" normalises to "yellow submarine".
        assert_eq!(idx.exact_ids("yellow submarine"), vec![7, 8]);
        assert_eq!(idx.exact_ids("Yellow  SUBMARINE!"), vec![7, 8]);
    }

    #[test]
    fn entries_share_syms_for_shared_labels() {
        let idx = sample_index();
        let block: Vec<&LabelEntry> =
            idx.exact_block_normalized(&NormalizedLabel::new("yellow submarine")).collect();
        assert_eq!(block.len(), 2);
        // Same normalised label → same sym, one arena copy.
        assert_eq!(block[0].normalized, block[1].normalized);
        assert_eq!(idx.resolve(block[0].normalized), "yellow submarine");
    }

    #[test]
    fn insert_returns_block_key_sym() {
        let mut idx = LabelIndex::new();
        let a = idx.insert(1, "Abbey Road");
        let b = idx.insert(2, "  ABBEY   road ");
        assert_eq!(a, b, "same normalised label must yield the same block sym");
        assert_eq!(idx.intern_label("Abbey Road!"), a);
    }

    #[test]
    fn intern_label_does_not_add_entries() {
        let mut idx = sample_index();
        let before = idx.len();
        let sym = idx.intern_label("Completely New Label");
        assert_eq!(idx.len(), before);
        assert_eq!(idx.resolve(sym), "completely new label");
        // A label interned but never inserted is not retrievable.
        assert!(idx.exact_ids("Completely New Label").is_empty());
    }

    #[test]
    fn lookup_finds_exact_match_first() {
        let idx = sample_index();
        let matches = idx.lookup("Tom Brady", 3);
        assert_eq!(matches[0].id, 1);
        assert!(matches[0].score > matches[1].score);
    }

    #[test]
    fn lookup_tolerates_typos() {
        let idx = sample_index();
        let found = ids(idx.lookup("Peyton Maning", 2));
        assert!(found.contains(&3), "typo lookup should still find Peyton Manning, got {found:?}");
    }

    #[test]
    fn lookup_respects_k() {
        let idx = sample_index();
        assert!(idx.lookup("Manning", 1).len() <= 1);
        assert!(idx.lookup("Manning", 10).len() >= 2);
    }

    #[test]
    fn lookup_unknown_label_is_empty() {
        let idx = sample_index();
        assert!(idx.lookup("Zlatan Ibrahimovic", 5).is_empty());
    }

    #[test]
    fn lookup_empty_query_is_empty() {
        let idx = sample_index();
        assert!(idx.lookup("   ", 5).is_empty());
    }

    #[test]
    fn lookup_k_zero_is_empty() {
        let idx = sample_index();
        assert!(idx.lookup("Paris", 0).is_empty());
    }

    #[test]
    fn duplicate_ids_are_deduplicated_in_results() {
        let mut idx = LabelIndex::new();
        idx.insert(42, "Abbey Road");
        idx.insert(42, "Abbey Road (Album)");
        let matches = idx.lookup("Abbey Road", 10);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].id, 42);
    }

    #[test]
    fn shorter_query_prefers_closest_length_label() {
        let idx = sample_index();
        let matches = idx.lookup("Paris", 2);
        assert_eq!(matches[0].id, 5, "bare 'Paris' should rank before 'Paris, Texas'");
    }

    #[test]
    fn empty_index_lookup_is_empty() {
        let idx = LabelIndex::new();
        assert!(idx.lookup("anything", 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn shared_view_agrees_with_the_mutable_index() {
        let idx = sample_index();
        let shared = sample_index().into_shared();
        for query in ["Tom Brady", "Peyton Maning", "paris", "yellow submarine", "zzz", ""] {
            assert_eq!(idx.lookup(query, 5), shared.lookup(query, 5), "lookup({query:?})");
            assert_eq!(idx.exact_ids(query), shared.exact_ids(query), "exact_ids({query:?})");
        }
        assert_eq!(shared.len(), idx.len());
        assert!(!shared.is_empty());
        let m = shared.lookup("Paris", 1).remove(0);
        assert_eq!(shared.resolve(m.normalized), "paris");
        assert_eq!(shared.interner().get("paris"), Some(m.normalized));
    }

    #[test]
    fn shared_exact_ids_deduplicate() {
        let mut idx = LabelIndex::new();
        idx.insert(42, "Abbey Road");
        idx.insert(42, "abbey ROAD");
        idx.insert(7, "Abbey Road");
        assert_eq!(idx.exact_ids("abbey road"), vec![42, 7]);
        let shared = idx.into_shared();
        assert_eq!(shared.exact_ids("abbey road"), vec![42, 7]);
        assert!(shared.exact_ids("unknown").is_empty());

        // A long block with interleaved repeats keeps first-seen order.
        let mut idx = LabelIndex::new();
        for n in 0..300u64 {
            idx.insert((n * 7) % 100, "Yellow Submarine");
            idx.insert(n, "other");
        }
        let first_seen: Vec<u64> = (0..100u64).map(|n| (n * 7) % 100).collect();
        assert_eq!(idx.into_shared().exact_ids("yellow submarine"), first_seen);
    }

    #[test]
    fn match_normalized_sym_resolves_to_block_label() {
        let idx = sample_index();
        let m = idx.lookup("Paris", 1).remove(0);
        assert_eq!(idx.resolve(m.normalized), "paris");
    }

    /// The string-level flat scan ([`crate::reference`]) as `LabelMatch`es
    /// of `idx`. The pruned lookup must reproduce it bit-for-bit.
    fn reference_lookup(
        items: &[(u64, String)],
        idx: &LabelIndex,
        label: &str,
        k: usize,
    ) -> Vec<LabelMatch> {
        let scan = crate::reference::ScanIndex::build(items.iter().map(|(id, l)| (*id, l.as_str())));
        let (hits, _) = scan.lookup(label, k);
        hits.into_iter()
            .map(|hit| LabelMatch {
                id: hit.id,
                normalized: idx.interner().get(&hit.normalized).expect("inserted label is interned"),
                score: hit.score,
            })
            .collect()
    }

    #[test]
    fn pruning_skips_candidates_without_changing_the_winner() {
        let mut idx = LabelIndex::new();
        idx.insert(0, "alpha beta gamma");
        for i in 1..300u64 {
            idx.insert(i, format!("alpha filler{i}").as_str());
        }
        let before = crate::metrics::snapshot();
        let matches = idx.lookup("alpha beta gamma", 1);
        let after = crate::metrics::snapshot();
        assert_eq!(matches[0].id, 0);
        // With k = 1 and an exact self-match, every other candidate must
        // be dismissed from its bound alone. Counters are process-global
        // and other tests add concurrently, but only this lookup runs
        // between the two snapshots on this thread, and additions are
        // monotone — a strict increase proves this lookup skipped.
        assert!(
            after.candidates_skipped > before.candidates_skipped,
            "expected upper-bound pruning to engage"
        );
    }

    proptest! {
        #[test]
        fn pruned_lookup_matches_flat_reference(
            labels in proptest::collection::vec("[ab ]{1,10}", 1..24),
            query in "[ab ]{1,10}",
            k in 1usize..5,
        ) {
            // Tiny alphabet: heavy token sharing, near-miss tokens one or
            // two edits apart, duplicate ids — the worst case for pruning
            // correctness.
            let items: Vec<(u64, String)> = labels
                .into_iter()
                .enumerate()
                .map(|(i, l)| ((i % 5) as u64, l))
                .collect();
            let idx = index_of(items.iter().map(|(id, l)| (*id, l.as_str())));
            let expected = reference_lookup(&items, &idx, &query, k);
            prop_assert_eq!(&idx.lookup(&query, k), &expected);
            let shared = idx.into_shared();
            prop_assert_eq!(&shared.lookup(&query, k), &expected);
        }

        #[test]
        fn pruned_lookup_matches_reference_on_dropped_char_queries(
            labels in proptest::collection::vec("[abc]{2,8}", 2..16),
            pick in 0usize..16,
            drop in 0usize..8,
        ) {
            // Query = an indexed label with one char removed: guarantees
            // the fuzzy path (and the d<=1 seeding) is exercised.
            let items: Vec<(u64, String)> = labels
                .into_iter()
                .enumerate()
                .map(|(i, l)| (i as u64, l))
                .collect();
            let src = &items[pick % items.len()].1;
            let at = drop % src.chars().count();
            let query: String = src
                .chars()
                .enumerate()
                .filter_map(|(i, c)| (i != at).then_some(c))
                .collect();
            prop_assume!(!query.is_empty());
            let idx = index_of(items.iter().map(|(id, l)| (*id, l.as_str())));
            let expected = reference_lookup(&items, &idx, &query, 3);
            prop_assert_eq!(&idx.lookup(&query, 3), &expected);
        }

        #[test]
        fn lookup_never_exceeds_k(label in "[a-z ]{1,20}", k in 0usize..6) {
            let idx = sample_index();
            prop_assert!(idx.lookup(&label, k).len() <= k);
        }

        #[test]
        fn scores_in_unit_interval(label in "[a-z ]{1,20}") {
            let idx = sample_index();
            for m in idx.lookup(&label, 8) {
                prop_assert!((0.0..=1.0).contains(&m.score));
            }
        }

        #[test]
        fn indexed_label_always_retrievable(words in proptest::collection::vec("[a-z]{2,8}", 1..4)) {
            let label = words.join(" ");
            let mut idx = sample_index();
            idx.insert(999, &label);
            prop_assert!(ids(idx.lookup(&label, 20)).contains(&999));
        }
    }
}
