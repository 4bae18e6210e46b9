//! Pruned candidate generation support: per-token length buckets and a
//! deletion-neighborhood token dictionary.
//!
//! [`CandidateIndex`] is the side table that makes the fuzzy lookup
//! sublinear. It is maintained incrementally by [`crate::LabelIndex`]
//! during `insert` and moves — immutable from then on — into the shared
//! tables at `into_shared` time, so every published snapshot carries a
//! fully built candidate index at zero per-lookup cost. It holds two
//! structures, both keyed on the interner's dense symbols:
//!
//! * **`char_len`** — the character length of every token sym, resolved
//!   once at first sighting (byte length and char length differ for
//!   non-ASCII tokens). Lookups use it to derive Levenshtein bounds
//!   without touching the arena.
//! * **`del1`** — a SymSpell-style deletion neighborhood: the FNV-1a hash
//!   of every vocabulary token *and of each of its one-character
//!   deletions* maps to the token syms it could belong to. Probing the
//!   query token's own deletion hashes surfaces every vocabulary token
//!   within one edit (plus hash/deletion collisions, which a cheap
//!   verification pass removes). The neighborhood is *complete* for
//!   token pairs short enough to be deletion-indexed (see
//!   [`d1_complete`]): a vocabulary token outside it is provably at
//!   edit distance ≥ 2, which is what turns character lengths into
//!   tight, score-dominating upper bounds — and the d≤1 neighbours
//!   themselves carry almost all near-miss score mass, so seeding them
//!   first lets the scoring loop reject everything else cheaply.

use std::collections::HashMap;

use ltee_intern::{fnv1a64, fnv1a64_extend, Interner, Sym, TokenSeq};

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
/// docs). Owned by `LabelIndex`, shared immutably by `SharedLabelIndex`.
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
    del1: HashMap<u64, Vec<Sym>>,
}

impl CandidateIndex {
    /// Record one inserted entry's tokens, indexing each vocabulary
    /// token at first sighting.
    pub(crate) fn add_entry(&mut self, interner: &Interner, tokens: &TokenSeq) {
        for &t in tokens.sorted() {
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
                self.del1.entry(fnv1a64(s.as_bytes())).or_default().push(t);
                if (len as usize) <= DEL1_MAX_CHARS {
                    for_each_deletion_hash(s, |h| self.del1.entry(h).or_default().push(t));
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
        let mut probe = |h: u64| {
            if let Some(syms) = self.del1.get(&h) {
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
    use ltee_text::levenshtein_similarity;

    fn interner_with(tokens: &[&str]) -> (Interner, Vec<Sym>) {
        let mut interner = Interner::new();
        let syms = tokens.iter().map(|t| interner.intern(t)).collect();
        (interner, syms)
    }

    fn index_of(interner: &Interner, syms: &[Sym]) -> CandidateIndex {
        let mut cands = CandidateIndex::default();
        cands.add_entry(interner, &TokenSeq::from_syms(syms.to_vec()));
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
