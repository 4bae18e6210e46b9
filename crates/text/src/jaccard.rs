//! Token-level Jaccard similarity.
//!
//! Used by the label-based schema matchers (`KB-Label`, `WT-Label`) to
//! compare attribute header labels with property labels, and by a few
//! diagnostics in the evaluation crate.

use std::collections::HashSet;

use crate::normalize::tokenize;

/// Jaccard similarity of the token sets of two strings: `|A ∩ B| / |A ∪ B|`.
/// Two strings that both tokenise to the empty set count as fully similar.
pub fn jaccard_similarity(a: &str, b: &str) -> f64 {
    let a_set: HashSet<String> = tokenize(a).into_iter().collect();
    let b_set: HashSet<String> = tokenize(b).into_iter().collect();
    if a_set.is_empty() && b_set.is_empty() {
        return 1.0;
    }
    if a_set.is_empty() || b_set.is_empty() {
        return 0.0;
    }
    let intersection = a_set.intersection(&b_set).count();
    let union = a_set.len() + b_set.len() - intersection;
    intersection as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_strings_full_similarity() {
        assert_eq!(jaccard_similarity("record label", "record label"), 1.0);
    }

    #[test]
    fn disjoint_strings_zero_similarity() {
        assert_eq!(jaccard_similarity("birth date", "team"), 0.0);
    }

    #[test]
    fn partial_overlap() {
        // tokens: {birth, date} vs {birth, place} -> 1/3
        let s = jaccard_similarity("birth date", "birth place");
        assert!((s - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn both_empty_is_one() {
        assert_eq!(jaccard_similarity("", ""), 1.0);
    }

    #[test]
    fn one_empty_is_zero() {
        assert_eq!(jaccard_similarity("", "genre"), 0.0);
    }

    proptest! {
        #[test]
        fn symmetric(a in "[a-z ]{0,20}", b in "[a-z ]{0,20}") {
            prop_assert_eq!(jaccard_similarity(&a, &b), jaccard_similarity(&b, &a));
        }

        #[test]
        fn in_unit_interval(a in "[a-z ]{0,20}", b in "[a-z ]{0,20}") {
            let s = jaccard_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }
}
