//! Monge-Elkan token-set similarity.
//!
//! The paper uses "Monge-Elkan similarity with Levenshtein as the inner
//! similarity function" for all label comparisons (row clustering `LABEL`
//! metric and new detection `LABEL` metric). Monge-Elkan aligns each token of
//! the first string with its best-matching token of the second string and
//! averages those best scores; to make the measure symmetric we compute it in
//! both directions and take the mean, a common variant that avoids the
//! asymmetry of the original definition. String and interned tokens
//! ([`crate::monge_elkan_tokens`]) run the same kernel through `TokenSide`.

use crate::levenshtein::SimilarityGate;
use crate::myers::char_count;
use crate::normalize::{normal_form_tokens, tokenize};

/// How the Monge-Elkan kernel reads one side's tokens (repeats included):
/// their count, their texts in order, and whether this side holds a token
/// equal to `other`'s token `i`, where that is known without comparing
/// text.
pub(crate) trait TokenSide {
    fn len(&self) -> usize;
    fn texts(&self) -> impl Iterator<Item = &str>;
    fn holds(&self, _other: &Self, _i: usize) -> Option<bool> {
        None
    }
}

impl<S: AsRef<str>> TokenSide for [S] {
    fn len(&self) -> usize {
        <[S]>::len(self)
    }

    fn texts(&self) -> impl Iterator<Item = &str> {
        self.iter().map(AsRef::as_ref)
    }
}

/// A label in [`crate::normalize_label`]'s form, whose tokens are read
/// off it on demand ([`normal_form_tokens`]).
struct NormalForm<'a> {
    text: &'a str,
    tokens: usize,
}

impl<'a> NormalForm<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, tokens: normal_form_tokens(text).count() }
    }
}

impl TokenSide for NormalForm<'_> {
    fn len(&self) -> usize {
        self.tokens
    }

    fn texts(&self) -> impl Iterator<Item = &str> {
        normal_form_tokens(self.text)
    }
}

/// Symmetric Monge-Elkan over two token sides: 1.0 when both are empty,
/// 0.0 when one is, else the mean of the two directed scores.
pub(crate) fn monge_elkan<T: TokenSide + ?Sized>(a: &T, b: &T) -> f64 {
    if a.len() == 0 || b.len() == 0 {
        return if a.len() == b.len() { 1.0 } else { 0.0 };
    }
    (directed(a, b) + directed(b, a)) / 2.0
}

/// Directed Monge-Elkan score: mean over tokens of `a` of the best inner
/// similarity against any token of `b`. A token `b` is known to hold
/// scores 1.0, the only similarity of identical strings, without a scan;
/// a scan takes its maximum through the [`SimilarityGate`], which skips
/// only tokens that cannot raise the running best, so the maximum is the
/// ungated scan's, bit for bit.
fn directed<T: TokenSide + ?Sized>(a: &T, b: &T) -> f64 {
    let mut total = 0.0;
    for (i, token) in a.texts().enumerate() {
        let holds = b.holds(a, i);
        if holds == Some(true) {
            total += 1.0;
            continue;
        }
        let len = char_count(token);
        let mut best: f64 = 0.0;
        for other in b.texts() {
            let gate = SimilarityGate::new(len, char_count(other));
            if gate.length_bound(holds == Some(false)) <= best {
                continue;
            }
            if let Some(s) = gate.similarity_above(token, other, best) {
                best = best.max(s);
                // An equal token: nothing scores higher.
                if (best - 1.0).abs() < f64::EPSILON {
                    break;
                }
            }
        }
        total += best;
    }
    total / a.len() as f64
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
    monge_elkan(a_tokens, b_tokens)
}

/// [`monge_elkan_tokenized`] of the [`tokenize`]d forms of two labels
/// already in [`crate::normalize_label`]'s form, bit for bit, reading the
/// tokens off the forms without allocating. Other text must go through
/// [`monge_elkan_similarity`].
pub fn monge_elkan_normalized(a: &str, b: &str) -> f64 {
    monge_elkan(&NormalForm::new(a), &NormalForm::new(b))
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

        /// Read off two normal forms, the tokens score as `tokenize`d;
        /// `text` has the shape of the text values that `text_equivalent`
        /// compares (titles with digits and punctuation).
        #[test]
        fn normal_forms_score_as_their_tokens(
            a in ".{0,20}",
            b in "[a-zA-Zé ,.()]{0,20}",
            text in "[A-Za-z0-9 '&():,.!?/-]{0,30}",
        ) {
            let (a, b, text) = (crate::normalize_label(&a), crate::normalize_label(&b), crate::normalize_label(&text));
            for (x, y) in [(&a, &b), (&text, &a), (&b, &text)] {
                let tokenized = monge_elkan_tokenized(&tokenize(x), &tokenize(y));
                prop_assert_eq!(monge_elkan_normalized(x, y).to_bits(), tokenized.to_bits());
            }
        }

        #[test]
        fn reflexive(a in "[a-z ]{1,25}") {
            prop_assume!(!crate::normalize::tokenize(&a).is_empty());
            let s = monge_elkan_similarity(&a, &a);
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
