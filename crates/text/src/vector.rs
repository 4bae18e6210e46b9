//! Binary bag-of-words term vectors and cosine similarity.
//!
//! The `BOW` row-similarity metric builds, for each row, "a bag-of-words
//! binary term vector that contains the terms that occur in all cells of a
//! row" (Section 3.2) and compares rows by cosine similarity. The new
//! detection `BOW` metric combines the vectors of all rows of an entity and
//! compares against a vector built from the labels, abstract and facts of a
//! candidate knowledge base instance.

use std::collections::BTreeSet;

use crate::normalize::tokenize;

/// A binary bag-of-words vector: the set of distinct terms observed.
///
/// Terms are stored in a sorted set so that intersection is linear and the
/// representation is deterministic (important for reproducible experiments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BowVector {
    terms: BTreeSet<String>,
}

impl BowVector {
    /// Create an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a vector from a single piece of text.
    pub fn from_text(text: &str) -> Self {
        let mut v = Self::new();
        v.add_text(text);
        v
    }

    /// Build a vector from several pieces of text (e.g. all cells of a row).
    pub fn from_texts<'a, I: IntoIterator<Item = &'a str>>(texts: I) -> Self {
        let mut v = Self::new();
        for t in texts {
            v.add_text(t);
        }
        v
    }

    /// Tokenise `text` and add its terms to the vector.
    pub fn add_text(&mut self, text: &str) {
        for token in tokenize(text) {
            self.terms.insert(token);
        }
    }

    /// Add a single already-normalised term.
    pub fn add_term(&mut self, term: impl Into<String>) {
        self.terms.insert(term.into());
    }

    /// Merge another vector into this one (set union).
    pub fn merge(&mut self, other: &BowVector) {
        for t in &other.terms {
            self.terms.insert(t.clone());
        }
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the vector contains no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether the vector contains the given term.
    pub fn contains(&self, term: &str) -> bool {
        self.terms.contains(term)
    }

    /// Iterate over the distinct terms in sorted order.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().map(String::as_str)
    }

    /// Number of terms shared with `other`.
    pub fn intersection_size(&self, other: &BowVector) -> usize {
        if self.len() <= other.len() {
            self.terms.iter().filter(|t| other.terms.contains(*t)).count()
        } else {
            other.terms.iter().filter(|t| self.terms.contains(*t)).count()
        }
    }

    /// Cosine similarity between this and another binary vector.
    pub fn cosine(&self, other: &BowVector) -> f64 {
        cosine_similarity(self, other)
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
    use proptest::prelude::*;

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
    fn merge_is_union() {
        let mut a = BowVector::from_text("a b");
        let b = BowVector::from_text("b c");
        a.merge(&b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn from_texts_collects_all_cells() {
        let v = BowVector::from_texts(["Tom Brady", "QB", "Michigan"]);
        assert!(v.contains("qb"));
        assert!(v.contains("michigan"));
        assert_eq!(v.len(), 4);
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
    }
}
