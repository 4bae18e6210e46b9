//! Monge-Elkan token-set similarity.
//!
//! The paper uses "Monge-Elkan similarity with Levenshtein as the inner
//! similarity function" for all label comparisons (row clustering `LABEL`
//! metric and new detection `LABEL` metric). Monge-Elkan aligns each token of
//! the first string with its best-matching token of the second string and
//! averages those best scores; to make the measure symmetric we compute it in
//! both directions and take the mean, a common variant that avoids the
//! asymmetry of the original definition.

use crate::levenshtein::levenshtein_similarity;
use crate::normalize::tokenize;

/// Directed Monge-Elkan score: mean over tokens of `a` of the best inner
/// similarity against any token of `b`.
///
/// [`crate::interned::monge_elkan_tokens`] implements the same kernel over
/// interned syms (with an exact-match fast path); the two must stay
/// bit-for-bit interchangeable — any change here needs the mirror change
/// there, and `crates/text/tests/intern_agreement.rs` property-tests the
/// equivalence.
fn directed_monge_elkan<S: AsRef<str>>(a_tokens: &[S], b_tokens: &[S]) -> f64 {
    if a_tokens.is_empty() {
        return if b_tokens.is_empty() { 1.0 } else { 0.0 };
    }
    let mut total = 0.0;
    for at in a_tokens {
        let mut best: f64 = 0.0;
        for bt in b_tokens {
            let s = levenshtein_similarity(at.as_ref(), bt.as_ref());
            if s > best {
                best = s;
            }
            if (best - 1.0).abs() < f64::EPSILON {
                break;
            }
        }
        total += best;
    }
    total / a_tokens.len() as f64
}

/// Symmetric Monge-Elkan similarity of two labels with Levenshtein inner
/// similarity. The inputs are tokenised with the shared pipeline
/// tokenisation; the result is in `[0, 1]`.
pub fn monge_elkan_similarity(a: &str, b: &str) -> f64 {
    monge_elkan_tokenized(&tokenize(a), &tokenize(b))
}

/// [`monge_elkan_similarity`] of two labels already split by
/// [`tokenize`], for callers that compare the same label many times (and
/// may keep the tokens in whatever string type suits them).
pub fn monge_elkan_tokenized<S: AsRef<str>>(a_tokens: &[S], b_tokens: &[S]) -> f64 {
    if a_tokens.is_empty() && b_tokens.is_empty() {
        return 1.0;
    }
    if a_tokens.is_empty() || b_tokens.is_empty() {
        return 0.0;
    }
    let forward = directed_monge_elkan(a_tokens, b_tokens);
    let backward = directed_monge_elkan(b_tokens, a_tokens);
    (forward + backward) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_labels_are_fully_similar() {
        assert!((monge_elkan_similarity("Tom Brady", "Tom Brady") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn token_reordering_keeps_high_similarity() {
        let s = monge_elkan_similarity("Brady Tom", "Tom Brady");
        assert!(s > 0.99, "reordered tokens should stay similar, got {s}");
    }

    #[test]
    fn abbreviation_is_partially_similar() {
        let s = monge_elkan_similarity("T. Brady", "Tom Brady");
        assert!(s > 0.5 && s < 1.0, "got {s}");
    }

    #[test]
    fn unrelated_labels_have_low_similarity() {
        let s = monge_elkan_similarity("Yellow Submarine", "Quarterback Draft");
        assert!(s < 0.5, "got {s}");
    }

    #[test]
    fn empty_vs_nonempty_is_zero() {
        assert_eq!(monge_elkan_similarity("", "Tom Brady"), 0.0);
    }

    #[test]
    fn both_empty_is_one() {
        assert_eq!(monge_elkan_similarity("", ""), 1.0);
    }

    #[test]
    fn superset_of_tokens_scores_higher_than_disjoint() {
        let sup = monge_elkan_similarity("New York City", "New York");
        let dis = monge_elkan_similarity("New York City", "Los Angeles");
        assert!(sup > dis);
    }

    proptest! {
        #[test]
        fn symmetric(a in "[a-z ]{0,25}", b in "[a-z ]{0,25}") {
            let ab = monge_elkan_similarity(&a, &b);
            let ba = monge_elkan_similarity(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-12);
        }

        #[test]
        fn in_unit_interval(a in "[a-z0-9 ,.]{0,25}", b in "[a-z0-9 ,.]{0,25}") {
            let s = monge_elkan_similarity(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        }

        #[test]
        fn reflexive(a in "[a-z ]{1,25}") {
            prop_assume!(!crate::normalize::tokenize(&a).is_empty());
            let s = monge_elkan_similarity(&a, &a);
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
