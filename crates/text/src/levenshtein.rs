//! Levenshtein edit distance (from the kernel in [`crate::myers`]), its
//! normalised similarity, and the gate every running maximum of it takes.
//!
//! Used as the inner similarity function of [Monge-Elkan](crate::monge_elkan)
//! when comparing labels of rows, entities and knowledge base instances.

use crate::myers::{bounded_with_lens, char_count};

/// Compute the Levenshtein (edit) distance between two strings, counted in
/// Unicode scalar values.
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    let (la, lb) = (char_count(a), char_count(b));
    // The distance never exceeds the longer length: the bound refutes nothing.
    bounded_with_lens(a, la, b, lb, la.max(lb)).unwrap_or(la.max(lb))
}

/// Levenshtein similarity normalised to `[0, 1]`:
/// `1 - distance / max(|a|, |b|)`. Two empty strings are fully similar.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    // A floor of 0 refutes nothing: every similarity is at least 0.
    SimilarityGate::new(char_count(a), char_count(b)).similarity_above(a, b, 0.0).unwrap_or(0.0)
}

/// The exact gate of a running maximum of [`levenshtein_similarity`]
/// values, built from the two strings' char lengths: first
/// [`SimilarityGate::length_bound`], which reads no text, then
/// [`SimilarityGate::similarity_above`], whose kernel stops once the best
/// is out of reach. Both skip only pairs whose similarity cannot exceed the
/// best, so a maximum taken through the gate is the ungated one, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct SimilarityGate {
    la: usize,
    lb: usize,
    /// `max(la, lb, 1)`: two empty strings are at distance 0.
    max_len: usize,
}

impl SimilarityGate {
    /// The gate of two strings of `la` and `lb` chars.
    #[inline]
    pub fn new(la: usize, lb: usize) -> Self {
        Self { la, lb, max_len: la.max(lb).max(1) }
    }

    /// An upper bound on the similarity from the lengths alone: the
    /// distance is at least their difference, and at least 1 when the
    /// strings are known to differ (`distinct`). It is the similarity's own
    /// float expression at that distance, so it dominates in f64 too.
    #[inline]
    pub fn length_bound(&self, distinct: bool) -> f64 {
        let min_dist = self.la.abs_diff(self.lb).max(usize::from(distinct));
        1.0 - min_dist as f64 / self.max_len as f64
    }

    /// `Some(levenshtein_similarity(a, b))`, or `None`, which proves the
    /// similarity strictly below `best`. `a` and `b` must have the lengths
    /// the gate was built with.
    #[inline]
    pub fn similarity_above(&self, a: &str, b: &str, best: f64) -> Option<f64> {
        bounded_with_lens(a, self.la, b, self.lb, max_dist_for(best, self.max_len))
            .map(|d| 1.0 - d as f64 / self.max_len as f64)
    }
}

/// The largest edit distance that could still push a similarity strictly
/// above `best`: any larger `d` sits at least `1/max_len` below `best` in
/// real arithmetic, orders of magnitude above f64 rounding error.
#[inline]
fn max_dist_for(best: f64, max_len: usize) -> usize {
    if best <= 0.0 {
        // d <= max(|a|, |b|) always holds: the kernel cannot come back
        // `None`, so no similarity is ever claimed below 0.
        return max_len;
    }
    (((1.0 - best) * max_len as f64).ceil() as usize).min(max_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_strings_have_zero_distance() {
        assert_eq!(levenshtein_distance("smith", "smith"), 0);
    }

    #[test]
    fn empty_vs_nonempty() {
        assert_eq!(levenshtein_distance("", "abc"), 3);
        assert_eq!(levenshtein_distance("abc", ""), 3);
    }

    #[test]
    fn classic_kitten_sitting() {
        assert_eq!(levenshtein_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn unicode_counted_as_scalars() {
        assert_eq!(levenshtein_distance("café", "cafe"), 1);
    }

    #[test]
    fn similarity_of_identical_is_one() {
        assert_eq!(levenshtein_similarity("paris", "paris"), 1.0);
    }

    #[test]
    fn similarity_of_disjoint_is_zero() {
        assert_eq!(levenshtein_similarity("aaa", "bbb"), 0.0);
    }

    #[test]
    fn similarity_of_two_empties_is_one() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(a in ".{0,30}", b in ".{0,30}") {
            prop_assert_eq!(levenshtein_distance(&a, &b), levenshtein_distance(&b, &a));
        }

        #[test]
        fn distance_zero_iff_equal(a in ".{0,30}", b in ".{0,30}") {
            let d = levenshtein_distance(&a, &b);
            prop_assert_eq!(d == 0, a == b);
        }

        #[test]
        fn distance_bounded_by_longer_length(a in ".{0,30}", b in ".{0,30}") {
            let d = levenshtein_distance(&a, &b);
            prop_assert!(d <= a.chars().count().max(b.chars().count()));
        }

        #[test]
        fn similarity_in_unit_interval(a in ".{0,30}", b in ".{0,30}") {
            let s = levenshtein_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn triangle_inequality(a in "[a-c]{0,12}", b in "[a-c]{0,12}", c in "[a-c]{0,12}") {
            let ab = levenshtein_distance(&a, &b);
            let bc = levenshtein_distance(&b, &c);
            let ac = levenshtein_distance(&a, &c);
            prop_assert!(ac <= ab + bc);
        }
    }
}
