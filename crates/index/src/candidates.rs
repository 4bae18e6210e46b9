//! Pruned candidate generation support: per-token length buckets and a
//! deletion-neighborhood token dictionary.
//!
//! [`CandidateIndex`] is the side table that makes the fuzzy lookup
//! sublinear. It is maintained incrementally by [`crate::LabelIndex`]
//! during `insert` and sealed with the rest of the index by `into_shared`,
//! so every sealed index (the KB's per class, each published snapshot's)
//! carries a fully built candidate index at zero per-lookup cost. It holds two
//! structures, both keyed on the interner's dense symbols:
//!
//! * **`char_len`** — the character length of every token sym, resolved
//!   once at first sighting (byte length and char length differ for
//!   non-ASCII tokens). Lookups use it to derive Levenshtein bounds
//!   without touching the arena.
//! * **`del1`** — a SymSpell-style deletion neighborhood: the FNV-1a hash
//!   of every vocabulary token *and of each of its one-character
//!   deletions* maps to the token syms it could belong to (a flat chained
//!   hash multimap, see [`Del1Table`]). Probing the
//!   query token's own deletion hashes surfaces every vocabulary token
//!   within one edit (plus hash/deletion collisions, which a cheap
//!   verification pass removes). The neighborhood is *complete* for
//!   token pairs short enough to be deletion-indexed (see
//!   [`d1_complete`]): a vocabulary token outside it is provably at
//!   edit distance ≥ 2, which is what turns character lengths into
//!   tight, score-dominating upper bounds — and the d≤1 neighbours
//!   themselves carry almost all near-miss score mass, so seeding them
//!   first lets the scoring loop reject everything else cheaply.

use ltee_intern::{fnv1a64, fnv1a64_extend, home_slot, Interner, Sym};

/// Tokens longer than this many chars skip deletion-neighborhood
/// indexing (and probing): the one-time cost is quadratic in token
/// length, and tokens this long gain nothing from d=1 seeding. Purely an
/// optimisation bound — lookups stay exact without the seeds.
const DEL1_MAX_CHARS: usize = 256;

/// Whether the deletion neighborhood is guaranteed complete for a query
/// token of `lq` chars against a vocabulary token of `lc` chars: both
/// sides short enough that every one-edit pair shares an indexed
/// deletion hash. Outside this regime only the trivial distance-≥-1
/// bound holds for non-equal tokens.
#[inline]
pub(crate) fn d1_complete(lq: usize, lc: usize) -> bool {
    lq <= DEL1_MAX_CHARS && lc <= DEL1_MAX_CHARS
}

/// Incrementally maintained candidate-generation tables (see the module
/// docs). Owned by `LabelIndex`.
#[derive(Debug, Default, Clone)]
pub(crate) struct CandidateIndex {
    /// Character length per sym (indexed by `Sym::raw`); `0` marks a sym
    /// never seen as a token (tokens are never empty).
    char_len: Vec<u32>,
    /// Bit `min(len, 64) - 1` set for every character length occurring in
    /// the vocabulary (bucket 64 pools longer tokens). Lets lookups bound
    /// what *any* vocabulary token could contribute from lengths alone.
    vocab_len_mask: u64,
    /// FNV-1a hash of each vocabulary token and its 1-deletions → syms.
    del1: Del1Table,
}

/// One `(hash, sym)` pair of the deletion neighborhood.
#[derive(Debug, Clone, Copy)]
struct Del1Node {
    hash: u64,
    sym: Sym,
    /// The next pair in the same bucket: node index + 1, `0` ends the
    /// chain.
    next: u32,
}

/// The deletion neighborhood as a chained hash multimap in two flat
/// vectors: `heads[home_slot(hash)]` starts a chain through `nodes` of
/// every pair whose hash lands in that bucket. Pairs are never removed
/// and one hash may carry several syms (a deletion shared by several
/// tokens), so a probe walks the whole chain and keeps the full-hash
/// matches. The bucket count is zero or a power of two and never below
/// the pair count (**load ≤ 1**, chains average under one node); growing
/// it re-threads the nodes from their stored hashes, in insertion order,
/// so the layout is a pure function of the insertion sequence.
#[derive(Debug, Default, Clone)]
struct Del1Table {
    /// Per bucket: first node index + 1, `0` for an empty bucket.
    heads: Vec<u32>,
    nodes: Vec<Del1Node>,
}

/// Smallest non-empty bucket array.
const MIN_DEL1_BUCKETS: usize = 16;

ltee_intern::heap_size! {
    CandidateIndex { char_len, del1 }
    Del1Table { heads, nodes }
    Del1Node {}
}

impl Del1Table {
    fn insert(&mut self, hash: u64, sym: Sym) {
        assert!(self.nodes.len() < u32::MAX as usize - 1, "del1 exceeded u32 address space");
        if self.nodes.len() == self.heads.len() {
            self.heads = vec![0; (self.heads.len() * 2).max(MIN_DEL1_BUCKETS)];
            for at in 0..self.nodes.len() {
                self.link(at);
            }
        }
        self.nodes.push(Del1Node { hash, sym, next: 0 });
        self.link(self.nodes.len() - 1);
    }

    /// Put node `at` at the head of its bucket's chain.
    fn link(&mut self, at: usize) {
        let bucket = home_slot(self.nodes[at].hash, self.heads.len() - 1);
        self.nodes[at].next = self.heads[bucket];
        self.heads[bucket] = at as u32 + 1;
    }

    /// Every sym stored under exactly `hash`, in no particular order.
    fn for_each(&self, hash: u64, mut f: impl FnMut(Sym)) {
        if self.heads.is_empty() {
            return;
        }
        let mut link = self.heads[home_slot(hash, self.heads.len() - 1)];
        while let Some(at) = link.checked_sub(1) {
            let node = &self.nodes[at as usize];
            if node.hash == hash {
                f(node.sym);
            }
            link = node.next;
        }
    }
}

impl CandidateIndex {
    /// Record one inserted entry's tokens (their sorted, deduplicated
    /// view), indexing each vocabulary token at first sighting.
    pub(crate) fn add_entry(&mut self, interner: &Interner, sorted: &[Sym]) {
        for &t in sorted {
            let raw = t.raw() as usize;
            if raw >= self.char_len.len() {
                self.char_len.resize(raw + 1, 0);
            }
            if self.char_len[raw] == 0 {
                // First sighting of this vocabulary token: measure it and
                // index its deletion neighborhood.
                let s = interner.resolve(t);
                let len = s.chars().count() as u32;
                self.char_len[raw] = len;
                self.vocab_len_mask |= 1u64 << ((len as usize).min(64) - 1);
                // Deleting either of two equal neighbouring chars gives the
                // same string; such repeats arrive back to back.
                let mut last = fnv1a64(s.as_bytes());
                self.del1.insert(last, t);
                if (len as usize) <= DEL1_MAX_CHARS {
                    for_each_deletion_hash(s, |h| {
                        if h != last {
                            self.del1.insert(h, t);
                            last = h;
                        }
                    });
                }
            }
        }
    }

    /// Character length of a vocabulary token (must have been indexed).
    #[inline]
    pub(crate) fn token_char_len(&self, sym: Sym) -> usize {
        self.char_len[sym.raw() as usize] as usize
    }

    /// Bitmask of character lengths present in the vocabulary: bit
    /// `min(len, 64) - 1` per distinct length, bucket 64 pooling longer
    /// tokens (see the field docs).
    #[inline]
    pub(crate) fn vocab_len_mask(&self) -> u64 {
        self.vocab_len_mask
    }

    /// All vocabulary syms that *might* be within one edit of `query`
    /// (every true d≤1 neighbour is included; hash and shared-deletion
    /// collisions add false candidates the caller must verify). Sorted
    /// and deduplicated, so iteration order is deterministic.
    pub(crate) fn near_syms(&self, query: &str, query_chars: usize) -> Vec<Sym> {
        let mut out: Vec<Sym> = Vec::new();
        let mut probe = |h: u64| self.del1.for_each(h, |sym| out.push(sym));
        probe(fnv1a64(query.as_bytes()));
        if query_chars <= DEL1_MAX_CHARS {
            for_each_deletion_hash(query, &mut probe);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Release every vector's spare capacity: nothing is added to a
    /// sealed index. (The bucket array is already the tight power of two.)
    pub(crate) fn into_sealed(mut self) -> Self {
        self.char_len.shrink_to_fit();
        self.del1.nodes.shrink_to_fit();
        self
    }
}

/// FNV-1a of every one-character deletion of `s`, without materialising
/// the variants: each is hashed as the two byte ranges around the char.
fn for_each_deletion_hash(s: &str, mut f: impl FnMut(u64)) {
    let bytes = s.as_bytes();
    for (start, c) in s.char_indices() {
        let end = start + c.len_utf8();
        f(fnv1a64_extend(fnv1a64(&bytes[..start]), &bytes[end..]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_intern::TokenSeq;
    use ltee_text::{levenshtein_similarity, normalize_label, tokenize};
    use std::collections::HashMap;

    /// The retired deletion-neighborhood layout — one hash-map slot and
    /// one heap vector per hash — kept as the oracle [`Del1Table`] must
    /// agree with probe for probe.
    #[derive(Default)]
    struct Del1Oracle(HashMap<u64, Vec<Sym>>);

    impl Del1Oracle {
        fn add_token(&mut self, s: &str, t: Sym) {
            self.0.entry(fnv1a64(s.as_bytes())).or_default().push(t);
            if s.chars().count() <= DEL1_MAX_CHARS {
                for_each_deletion_hash(s, |h| self.0.entry(h).or_default().push(t));
            }
        }

        fn near_syms(&self, query: &str, query_chars: usize) -> Vec<Sym> {
            let mut out: Vec<Sym> = Vec::new();
            let mut probe = |h: u64| {
                if let Some(syms) = self.0.get(&h) {
                    out.extend_from_slice(syms);
                }
            };
            probe(fnv1a64(query.as_bytes()));
            if query_chars <= DEL1_MAX_CHARS {
                for_each_deletion_hash(query, &mut probe);
            }
            out.sort_unstable();
            out.dedup();
            out
        }
    }

    /// Every string one edit away from `token` at a stride of positions:
    /// deletions, substitutions, insertions and transpositions.
    fn one_edit_variants(token: &str, stride: usize) -> Vec<String> {
        let chars: Vec<char> = token.chars().collect();
        let mut out = Vec::new();
        for at in (0..chars.len()).step_by(stride) {
            let mut deleted = chars.clone();
            deleted.remove(at);
            let mut substituted = chars.clone();
            substituted[at] = if chars[at] == 'x' { 'ü' } else { 'x' };
            let mut inserted = chars.clone();
            inserted.insert(at, 'q');
            let mut swapped = chars.clone();
            swapped.swap(at, (at + 1) % chars.len());
            out.extend([deleted, substituted, inserted, swapped].map(String::from_iter));
        }
        out.retain(|v: &String| !v.is_empty());
        out
    }

    /// Index `vocabulary` into the flat table and the oracle alike, then
    /// probe both with every vocabulary token, every `extra` query and
    /// all their one-edit variants.
    fn assert_near_syms_match_the_oracle(vocabulary: &[String], extra: &[String]) {
        let mut interner = Interner::new();
        let mut cands = CandidateIndex::default();
        let mut oracle = Del1Oracle::default();
        // Added in small batches, as entries arrive, with repeats.
        for chunk in vocabulary.chunks(3) {
            let syms: Vec<Sym> = chunk.iter().map(|t| interner.intern(t)).collect();
            for (token, &sym) in chunk.iter().zip(&syms) {
                if cands.char_len.get(sym.raw() as usize).is_none_or(|&len| len == 0) {
                    oracle.add_token(token, sym);
                }
            }
            cands.add_entry(&interner, TokenSeq::from_syms(syms).sorted());
        }
        assert!(cands.del1.heads.len().is_power_of_two());
        assert!(cands.del1.nodes.len() <= cands.del1.heads.len(), "bucket load above 1");

        let mut probes = 0usize;
        let mut hits = 0usize;
        for tables in [cands.clone(), cands.into_sealed()] {
            for query in vocabulary.iter().chain(extra) {
                // About six edit positions per query, whatever its length.
                let stride = (query.chars().count() / 6).max(1);
                for q in std::iter::once(query.clone()).chain(one_edit_variants(query, stride)) {
                    let chars = q.chars().count();
                    let near = tables.near_syms(&q, chars);
                    assert_eq!(near, oracle.near_syms(&q, chars), "near_syms({q:?})");
                    probes += 1;
                    hits += near.len();
                }
            }
        }
        assert!(hits > probes / 2, "the probes barely hit: {hits} syms over {probes} probes");
    }

    /// The distinct normalised tokens of `labels`, in first-seen order.
    fn vocabulary_of(labels: &[String]) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut vocabulary = Vec::new();
        for label in labels {
            for token in tokenize(&normalize_label(label)) {
                if seen.insert(token.clone()) {
                    vocabulary.push(token);
                }
            }
        }
        vocabulary
    }

    #[test]
    fn near_syms_match_the_hash_map_oracle_on_the_scaling_vocabulary() {
        let labels = crate::scaling_corpus::scaling_labels(5_000);
        let vocabulary = vocabulary_of(&labels);
        assert!(vocabulary.len() > 50);
        let unrelated = ["zzzzzz", "q", "", "tom brady", "münchen"].map(String::from);
        assert_near_syms_match_the_oracle(&vocabulary, &unrelated);
    }

    /// The shape of `tests/serve_fuzzy_agreement.rs`'s near-duplicate
    /// flood corpus (the scenario generator itself lives downstream of
    /// this crate): every token of a small pool under one and two stacked
    /// edits, so most deletion hashes are shared by many tokens and the
    /// multimap chains are long.
    #[test]
    fn near_syms_match_the_hash_map_oracle_on_a_near_duplicate_flood() {
        let pool = vocabulary_of(&crate::scaling_corpus::scaling_labels(200));
        let mut flood = Vec::new();
        for token in pool.iter().filter(|t| t.chars().count() >= 4).take(12) {
            flood.push(token.clone());
            for once in one_edit_variants(token, 1) {
                flood.extend(one_edit_variants(&once, 4));
                flood.push(once);
            }
        }
        let vocabulary = vocabulary_of(&flood);
        assert!(vocabulary.len() > 1_000, "flood of {} tokens", vocabulary.len());
        assert_near_syms_match_the_oracle(&vocabulary, &[]);
    }

    /// The shape of the long-label corpus: a stem repeated past 64 chars
    /// (the multi-block Myers kernel's territory) beside short tokens,
    /// and tokens on both sides of the deletion-indexing cut-off, ASCII
    /// and multi-byte.
    #[test]
    fn near_syms_match_the_hash_map_oracle_on_long_tokens() {
        let mut vocabulary = vec!["supercalifragilistic".repeat(4), "paris".into(), "p".into()];
        for chars in [DEL1_MAX_CHARS - 1, DEL1_MAX_CHARS, DEL1_MAX_CHARS + 1, 300] {
            vocabulary.push("ab".repeat(chars).chars().take(chars).collect());
            vocabulary.push("üñ".repeat(chars).chars().take(chars).collect());
        }
        vocabulary.extend(one_edit_variants(&vocabulary[0], 16));
        vocabulary.extend(one_edit_variants(&vocabulary[3], 64));
        let vocabulary = vocabulary_of(&vocabulary);
        assert_near_syms_match_the_oracle(&vocabulary, &["supercalifragilistic".into()]);
    }

    fn interner_with(tokens: &[&str]) -> (Interner, Vec<Sym>) {
        let mut interner = Interner::new();
        let syms = tokens.iter().map(|t| interner.intern(t)).collect();
        (interner, syms)
    }

    fn index_of(interner: &Interner, syms: &[Sym]) -> CandidateIndex {
        let mut cands = CandidateIndex::default();
        cands.add_entry(interner, TokenSeq::from_syms(syms.to_vec()).sorted());
        cands
    }

    #[test]
    fn char_lengths_are_char_counts() {
        let (interner, syms) = interner_with(&["tom", "münchen", "a"]);
        let cands = index_of(&interner, &syms);
        assert_eq!(cands.token_char_len(syms[0]), 3);
        assert_eq!(cands.token_char_len(syms[1]), 7);
        assert_eq!(cands.token_char_len(syms[2]), 1);
    }

    #[test]
    fn near_syms_cover_the_one_edit_neighborhood() {
        let (interner, syms) =
            interner_with(&["manning", "maning", "mannings", "manninx", "tom", "mxnning"]);
        let cands = index_of(&interner, &syms);
        let near = cands.near_syms("manning", 7);
        // Every true d<=1 token must be present (collisions may add more).
        for token in ["manning", "maning", "mannings", "manninx", "mxnning"] {
            let sym = interner.get(token).unwrap();
            assert!(near.contains(&sym), "missing d<=1 neighbour {token:?}");
        }
        let tom = interner.get("tom").unwrap();
        assert!(!near.contains(&tom), "d=4 token should not surface");
    }

    /// The distance-≥-2 length bound used by the lookup's `fuzzy_bound`
    /// (same float expression): dominates the true similarity for any
    /// token outside the query token's one-edit neighborhood.
    #[test]
    fn d2_length_bound_dominates_similarity_outside_the_one_edit_neighborhood() {
        let tokens =
            ["paris", "parisian", "p", "texas", "parisss", "tx", "zzzzz", "bannister"];
        for query in ["pariss", "tex", "x", "zzzz", &"pariss".repeat(12)] {
            let lq = query.chars().count();
            for token in tokens {
                let lc = token.chars().count();
                let sim = levenshtein_similarity(query, token);
                // Only tokens at distance >= 2 are in the bound's scope.
                if sim >= 1.0 - 1.0 / lq.max(lc) as f64 {
                    continue;
                }
                let min_dist = lq.abs_diff(lc).max(if d1_complete(lq, lc) { 2 } else { 1 });
                let bound = 1.0 - min_dist as f64 / lq.max(lc) as f64;
                assert!(bound >= sim, "d2 bound {bound} < sim {sim} for {query:?} vs {token:?}");
            }
        }
    }
}
