//! String-level reference for `LabelIndex::lookup`: test-only, compiled
//! into the index's own property tests and into
//! `tests/serve_fuzzy_agreement.rs`, which includes this file by path. It
//! depends on `ltee_text` alone, so both test targets build it unchanged.
//!
//! It is the lookup contract spelled out with plain strings and no
//! pruning: every entry sharing at least one exact token with the query is
//! a candidate, every candidate is scored in full (one
//! `levenshtein_similarity` per distinct near-miss token pair), the hits
//! are sorted by (score desc, id asc, insertion order), the best entry per
//! id survives and the list is cut to `k`. The pruned index must reproduce
//! it id for id and score bit for score bit.

use std::collections::{HashMap, HashSet};

use ltee_text::{levenshtein_similarity, normalize_label, tokenize};

/// One reference hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Id of the matched entry.
    pub id: u64,
    /// Similarity in `[0, 1]`.
    pub score: f64,
    /// The normalised label that produced the score.
    pub normalized: String,
}

/// `(id, label)` entries in insertion order, pre-normalised, plus string
/// postings (token → entry positions, one per occurrence).
#[derive(Debug, Default)]
pub struct ScanIndex {
    entries: Vec<(u64, String, Vec<String>)>,
    postings: HashMap<String, Vec<u32>>,
}

impl ScanIndex {
    /// Index `(id, label)` pairs in iteration order.
    pub fn build<'a>(items: impl IntoIterator<Item = (u64, &'a str)>) -> Self {
        let mut index = Self::default();
        for (id, label) in items {
            let normalized = normalize_label(label);
            // Text-order tokens, duplicates preserved: the token-count
            // penalty and the exact-hit bonus both count duplicates.
            let tokens = tokenize(&normalized);
            for token in &tokens {
                index.postings.entry(token.clone()).or_default().push(index.entries.len() as u32);
            }
            index.entries.push((id, normalized, tokens));
        }
        index
    }

    /// The top `k` hits for `label`, and the number of
    /// `levenshtein_similarity` calls the lookup made.
    pub fn lookup(&self, label: &str, k: usize) -> (Vec<Hit>, u64) {
        let query_tokens = tokenize(&normalize_label(label));
        if k == 0 || query_tokens.is_empty() {
            return (Vec::new(), 0);
        }
        // Exact-token hits per entry: query tokens × posting occurrences.
        let mut exact_hits: HashMap<u32, usize> = HashMap::new();
        for qt in &query_tokens {
            for &pos in self.postings.get(qt).map_or(&[][..], Vec::as_slice) {
                *exact_hits.entry(pos).or_insert(0) += 1;
            }
        }

        let mut edit_calls = 0u64;
        let mut memo: Vec<HashMap<&str, f64>> = vec![HashMap::new(); query_tokens.len()];
        // (score, id, entry position) per candidate.
        let mut scored: Vec<(f64, u64, u32)> = exact_hits
            .into_iter()
            .map(|(pos, exact_hits)| {
                let (id, _, tokens) = &self.entries[pos as usize];
                let mut total = 0.0;
                for (qt, memo) in query_tokens.iter().zip(&mut memo) {
                    total += if tokens.contains(qt) {
                        1.0
                    } else {
                        let mut best = 0.0f64;
                        for ct in tokens {
                            let s = *memo.entry(ct.as_str()).or_insert_with(|| {
                                edit_calls += 1;
                                levenshtein_similarity(qt, ct)
                            });
                            if s > best {
                                best = s;
                            }
                        }
                        best
                    };
                }
                let coverage = total / query_tokens.len() as f64;
                let len_penalty = {
                    let q = query_tokens.len() as f64;
                    let c = tokens.len() as f64;
                    1.0 - (q - c).abs() / (q + c)
                };
                let bonus = exact_hits as f64 * 1e-6;
                ((coverage * 0.8 + len_penalty * 0.2 + bonus).min(1.0), *id, pos)
            })
            .collect();

        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        let mut seen = HashSet::new();
        scored.retain(|&(_, id, _)| seen.insert(id));
        scored.truncate(k);
        let hits = scored
            .into_iter()
            .map(|(score, id, pos)| Hit {
                id,
                score,
                normalized: self.entries[pos as usize].1.clone(),
            })
            .collect();
        (hits, edit_calls)
    }
}
