//! Binary bag-of-words term vectors and cosine similarity.
//!
//! The `BOW` row-similarity metric builds, for each row, "a bag-of-words
//! binary term vector that contains the terms that occur in all cells of a
//! row" (Section 3.2) and compares rows by cosine similarity. The new
//! detection `BOW` metric combines the vectors of all rows of an entity and
//! compares against a vector built from the labels, abstract and facts of a
//! candidate knowledge base instance.

use std::cmp::Ordering;
use std::fmt;

use ltee_intern::StrList;

use crate::normalize::for_each_token;

/// A binary bag-of-words vector: the set of distinct terms observed.
///
/// The terms are one [`StrList`], in ascending order: two heap blocks
/// whatever the term count, and four bytes per term beyond the term bytes.
/// A serving class keeps one bag per ingested row, so this is a per-row
/// cost. Intersection is a linear merge of two lists, a term is found by
/// binary search, and the representation is canonical (equal sets have
/// equal lists), which keeps experiments reproducible.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BowVector {
    /// The distinct terms, ascending.
    terms: StrList,
}

ltee_intern::heap_size!(BowVector { terms });

impl BowVector {
    /// Create an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a vector from a single piece of text.
    pub fn from_text(text: &str) -> Self {
        Self::from_texts([text])
    }

    /// Build a vector from several pieces of text (e.g. all cells of a row),
    /// in one pass: every token is gathered into one scratch buffer, the
    /// token spans are sorted and deduplicated, and the list is written
    /// once, exact-sized.
    pub fn from_texts<I>(texts: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut scratch = String::new();
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for text in texts {
            for_each_token(text.as_ref(), |token| {
                spans.push((scratch.len(), scratch.len() + token.len()));
                scratch.push_str(token);
            });
        }
        let term = |&(start, end): &(usize, usize)| &scratch[start..end];
        spans.sort_unstable_by(|a, b| term(a).cmp(term(b)));
        spans.dedup_by(|a, b| term(a) == term(b));
        let terms = spans.iter().map(term);
        // The list's end offsets are `u32`: past 4 GiB of distinct term
        // bytes, a term that would not fit is not added.
        let terms = StrList::try_collect(terms.clone()).unwrap_or_else(|| {
            let mut bytes = 0usize;
            let fits = |term: &&str| {
                let fits = bytes + term.len() <= u32::MAX as usize;
                bytes += if fits { term.len() } else { 0 };
                fits
            };
            terms.filter(fits).collect()
        });
        Self { terms }
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the vector contains no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether the vector contains the given term (a binary search).
    pub fn contains(&self, term: &str) -> bool {
        let (mut low, mut high) = (0, self.len());
        while low < high {
            let mid = low + (high - low) / 2;
            match self.terms[mid].cmp(term) {
                Ordering::Less => low = mid + 1,
                Ordering::Greater => high = mid,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// Iterate over the distinct terms in sorted order.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.terms.iter()
    }

    /// Number of terms shared with `other`.
    pub fn intersection_size(&self, other: &BowVector) -> usize {
        let (mut ours, mut theirs) = (self.terms(), other.terms());
        let (mut a, mut b) = (ours.next(), theirs.next());
        let mut shared = 0;
        while let (Some(x), Some(y)) = (a, b) {
            match x.cmp(y) {
                Ordering::Less => a = ours.next(),
                Ordering::Greater => b = theirs.next(),
                Ordering::Equal => {
                    shared += 1;
                    a = ours.next();
                    b = theirs.next();
                }
            }
        }
        shared
    }

    /// Cosine similarity between this and another binary vector.
    pub fn cosine(&self, other: &BowVector) -> f64 {
        cosine_similarity(self, other)
    }
}

/// Prints the terms as a set.
impl fmt::Debug for BowVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.terms()).finish()
    }
}

/// Cosine similarity of two binary term vectors:
/// `|A ∩ B| / (sqrt(|A|) * sqrt(|B|))`.
///
/// Two empty vectors are considered fully similar; an empty vector against a
/// non-empty one scores zero.
pub fn cosine_similarity(a: &BowVector, b: &BowVector) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection_size(b) as f64;
    inter / ((a.len() as f64).sqrt() * (b.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::tokenize;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn from_text_deduplicates_terms() {
        let v = BowVector::from_text("the song the remix");
        assert_eq!(v.len(), 3);
        assert!(v.contains("song"));
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = BowVector::from_text("tom brady patriots");
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_disjoint_vectors_is_zero() {
        let a = BowVector::from_text("tom brady");
        let b = BowVector::from_text("yellow submarine");
        assert_eq!(cosine_similarity(&a, &b), 0.0);
    }

    #[test]
    fn cosine_partial_overlap() {
        let a = BowVector::from_text("a b");
        let b = BowVector::from_text("b c");
        // 1 shared term / (sqrt(2) * sqrt(2)) = 0.5
        assert!((cosine_similarity(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_vectors_are_similar() {
        assert_eq!(cosine_similarity(&BowVector::new(), &BowVector::new()), 1.0);
    }

    #[test]
    fn empty_vs_nonempty_is_zero() {
        let a = BowVector::new();
        let b = BowVector::from_text("x");
        assert_eq!(cosine_similarity(&a, &b), 0.0);
    }

    #[test]
    fn from_texts_collects_all_cells() {
        let v = BowVector::from_texts(["Tom Brady", "QB", "Michigan"]);
        assert!(v.contains("qb"));
        assert!(v.contains("michigan"));
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn debug_prints_the_terms() {
        assert_eq!(format!("{:?}", BowVector::from_text("b a b")), r#"{"a", "b"}"#);
    }

    /// The sorted set of owned strings the list replaced, as the oracle:
    /// one heap `String` per term in a `BTreeSet`.
    #[derive(Default, PartialEq, Eq)]
    struct SetOracle {
        terms: BTreeSet<String>,
    }

    impl SetOracle {
        fn of(texts: &[String]) -> Self {
            Self { terms: texts.iter().flat_map(|text| tokenize(text)).collect() }
        }

        fn intersection_size(&self, other: &SetOracle) -> usize {
            self.terms.intersection(&other.terms).count()
        }

        fn cosine(&self, other: &SetOracle) -> f64 {
            let (a, b) = (self.terms.len(), other.terms.len());
            match (a, b) {
                (0, 0) => 1.0,
                (0, _) | (_, 0) => 0.0,
                _ => self.intersection_size(other) as f64 / ((a as f64).sqrt() * (b as f64).sqrt()),
            }
        }
    }

    proptest! {
        #[test]
        fn cosine_symmetric(a in "[a-d ]{0,20}", b in "[a-d ]{0,20}") {
            let va = BowVector::from_text(&a);
            let vb = BowVector::from_text(&b);
            prop_assert!((cosine_similarity(&va, &vb) - cosine_similarity(&vb, &va)).abs() < 1e-12);
        }

        #[test]
        fn cosine_in_unit_interval(a in "[a-d ]{0,20}", b in "[a-d ]{0,20}") {
            let va = BowVector::from_text(&a);
            let vb = BowVector::from_text(&b);
            let s = cosine_similarity(&va, &vb);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        }

        #[test]
        fn intersection_bounded(a in "[a-d ]{0,20}", b in "[a-d ]{0,20}") {
            let va = BowVector::from_text(&a);
            let vb = BowVector::from_text(&b);
            prop_assert!(va.intersection_size(&vb) <= va.len().min(vb.len()));
        }

        /// Few letters (two of them multi-byte, one with an upper-case
        /// form), short texts: terms repeat within and across the bags.
        #[test]
        fn arena_bag_agrees_with_the_set_oracle(
            texts in proptest::collection::vec("[abéÉ中 ]{0,6}", 0..24),
            split in 0usize..24,
        ) {
            let (first, second) = texts.split_at(split.min(texts.len()));
            let (a, oracle_a) = (BowVector::from_texts(first), SetOracle::of(first));
            let (b, oracle_b) = (BowVector::from_texts(second), SetOracle::of(second));
            for (bag, oracle) in [(&a, &oracle_a), (&b, &oracle_b)] {
                prop_assert_eq!(bag.len(), oracle.terms.len());
                prop_assert_eq!(bag.is_empty(), oracle.terms.is_empty());
                prop_assert!(bag.terms().eq(oracle.terms.iter().map(String::as_str)));
                for probe in texts.iter().map(String::as_str).chain(["", "a", "zz"]) {
                    prop_assert_eq!(bag.contains(probe), oracle.terms.contains(probe));
                }
            }
            prop_assert_eq!(a.intersection_size(&b), oracle_a.intersection_size(&oracle_b));
            prop_assert_eq!(b.intersection_size(&a), oracle_a.intersection_size(&oracle_b));
            prop_assert_eq!(a == b, oracle_a == oracle_b);
            prop_assert_eq!(a.cosine(&b).to_bits(), oracle_a.cosine(&oracle_b).to_bits());
            prop_assert_eq!(cosine_similarity(&b, &a).to_bits(), oracle_b.cosine(&oracle_a).to_bits());
            // The same set reached by another route has the same list.
            prop_assert!(BowVector::from_texts(first.iter().rev()) == a);
            prop_assert!(BowVector::from_texts(oracle_a.terms.iter().rev()) == a);
        }
    }
}
