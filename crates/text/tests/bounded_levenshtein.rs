//! Known-answer and property tests for the bit-parallel bounded
//! Levenshtein kernel and the similarity gate built on it:
//! [`bounded_levenshtein`] must agree with the classic two-row DP
//! (`oracle::levenshtein_distance`) on every input — ASCII and unicode,
//! single-block and multi-block — and must return `None` exactly when the
//! true distance exceeds the bound; [`SimilarityGate`] must skip only what
//! cannot beat its floor.

mod oracle;

use ltee_text::{
    bounded_levenshtein, levenshtein_distance, levenshtein_similarity, within_one_edit, SimilarityGate,
};
use oracle::levenshtein_distance as dp_distance;
use proptest::prelude::*;

/// The contract, checked exhaustively around the true distance: `Some(d)`
/// iff `d <= bound`, with `d` the oracle's integer.
fn assert_bounded_contract(a: &str, b: &str) {
    let d = dp_distance(a, b);
    assert_eq!(levenshtein_distance(a, b), d, "levenshtein_distance({a:?}, {b:?})");
    assert_eq!(
        levenshtein_similarity(a, b).to_bits(),
        oracle::levenshtein_similarity(a, b).to_bits(),
        "levenshtein_similarity({a:?}, {b:?})"
    );
    for bound in d.saturating_sub(2)..=d + 2 {
        let got = bounded_levenshtein(a, b, bound);
        let expected = (d <= bound).then_some(d);
        assert_eq!(got, expected, "bounded_levenshtein({a:?}, {b:?}, {bound}), true d = {d}");
    }
    assert_eq!(bounded_levenshtein(a, b, usize::MAX), Some(d), "unbounded ({a:?}, {b:?})");
}

#[test]
fn known_answers() {
    let cases: &[(&str, &str, usize)] = &[
        ("kitten", "sitting", 3),
        ("saturday", "sunday", 3),
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("flaw", "lawn", 2),
        ("ab", "ba", 2),
        ("gumbo", "gambol", 2),
        ("café", "cafe", 1),
        ("münchen", "munchen", 1),
    ];
    for &(a, b, d) in cases {
        assert_eq!(dp_distance(a, b), d, "oracle ({a:?}, {b:?})");
        assert_bounded_contract(a, b);
        // Symmetry of the kernel, both argument orders.
        assert_bounded_contract(b, a);
    }
}

/// The multi-char case-fold corpus: 'İ' (U+0130) lower-cases to the
/// two-char "i\u{307}", which is exactly the kind of label the normaliser
/// produces and the index compares. The kernel must count scalar values,
/// combining marks included.
#[test]
fn case_fold_corpus() {
    let corpus = [
        "i\u{307}stanbul",
        "istanbul",
        "i\u{307}stanbul buluşması",
        "stra\u{DF}e",
        "strasse",
        "i\u{307}i\u{307}i\u{307}",
    ];
    for a in &corpus {
        for b in &corpus {
            assert_bounded_contract(a, b);
        }
    }
    // Counted in scalars: the combining dot is one edit.
    assert_eq!(bounded_levenshtein("i\u{307}stanbul", "istanbul", 1), Some(1));
}

/// Strings past 64 chars force the multi-block kernel; build them so edits
/// land on both sides of the block boundary.
#[test]
fn multi_block_known_answers() {
    let base: String = "abcdefghijklmnopqrstuvwxyz".repeat(3); // 78 chars
    let mut sub_at_70 = base.clone();
    sub_at_70.replace_range(70..71, "X");
    let mut sub_at_10 = base.clone();
    sub_at_10.replace_range(10..11, "X");
    let truncated: String = base.chars().take(65).collect();
    let shifted: String = format!("zz{base}");
    for other in [&sub_at_70, &sub_at_10, &truncated, &shifted] {
        assert_bounded_contract(&base, other);
    }
    assert_eq!(dp_distance(&base, &sub_at_70), 1);
    assert_eq!(bounded_levenshtein(&base, &sub_at_70, 0), None);
    // A long unicode pair exercises the char-level multi-block path.
    let uni = format!("{}ß", "é".repeat(70));
    let uni_edit = format!("{}x", "é".repeat(69));
    assert_bounded_contract(&uni, &uni_edit);
}

#[test]
fn length_gap_rejects_without_matrix_work() {
    // |len difference| > bound must be None no matter the contents.
    assert_eq!(bounded_levenshtein("abc", "abcdefgh", 3), None);
    assert_eq!(bounded_levenshtein(&"a".repeat(500), "a", 100), None);
    assert_eq!(bounded_levenshtein("", "xy", 1), None);
}

/// The gate's contract against a floor: a length bound at or below the
/// floor means the exact similarity is too (`distinct` only when the
/// strings differ), a refusal means the similarity is strictly below the
/// floor, and every answer is the oracle's similarity, bit for bit.
fn assert_gate_exact(a: &str, b: &str, floor: f64) {
    let exact = oracle::levenshtein_similarity(a, b);
    let gate = SimilarityGate::new(a.chars().count(), b.chars().count());
    for distinct in [false, a != b] {
        if gate.length_bound(distinct) <= floor {
            assert!(exact <= floor, "({a:?}, {b:?}) skipped at floor {floor}, distinct {distinct}: sim {exact}");
        }
    }
    match gate.similarity_above(a, b, floor) {
        Some(s) => assert_eq!(s.to_bits(), exact.to_bits(), "({a:?}, {b:?}) at floor {floor}"),
        None => assert!(exact < floor, "({a:?}, {b:?}) refused at floor {floor}: sim {exact}"),
    }
}

/// Every pair of a corpus with short, non-ASCII and multi-block strings,
/// at fixed floors and at every similarity the corpus reaches (and just
/// around it), where a skip is most likely to be off by one.
#[test]
fn gate_skips_only_tokens_at_or_below_the_floor() {
    let long: String = "abcdefghij".repeat(7);
    let long_edit = format!("{}xyz", &long[..66]);
    let corpus = [
        "", "a", "ab", "ba", "abc", "abd", "kitten", "sitting", "café", "cafe", "日本語", "日本", "ß",
        long.as_str(), long_edit.as_str(),
    ];
    let mut floors = vec![0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
    for a in corpus {
        for b in corpus {
            let s = oracle::levenshtein_similarity(a, b);
            floors.extend([s, s - 1e-12, s + 1e-12]);
        }
    }
    for a in corpus {
        for b in corpus {
            for &floor in &floors {
                assert_gate_exact(a, b, floor);
            }
        }
    }
}

proptest! {
    #[test]
    fn gate_agrees_with_dp(a in ".{0,12}", b in "[a-cé]{0,12}", floor in 0.0f64..1.0) {
        assert_gate_exact(&a, &b, floor);
        assert_gate_exact(&a, &b, oracle::levenshtein_similarity(&a, &b));
    }

    #[test]
    fn agrees_with_dp_on_random_unicode(a in ".{0,30}", b in ".{0,30}") {
        assert_bounded_contract(&a, &b);
    }

    #[test]
    fn agrees_with_dp_on_long_pairs_forcing_multi_block(
        a in "[ab]{60,90}",
        b in "[abc]{60,90}",
    ) {
        // Small alphabet: distances far below the length, so the bound
        // sweep in the contract exercises both Some and None paths deep
        // inside the multi-block kernel.
        assert_bounded_contract(&a, &b);
    }

    #[test]
    fn agrees_with_dp_on_mixed_length_pairs(a in ".{0,80}", b in "[a-f]{0,80}") {
        assert_bounded_contract(&a, &b);
    }

    #[test]
    fn none_exactly_when_distance_exceeds_bound(
        a in "[a-d]{0,20}",
        b in "[a-d]{0,20}",
        bound in 0usize..12,
    ) {
        let d = dp_distance(&a, &b);
        prop_assert_eq!(bounded_levenshtein(&a, &b, bound), (d <= bound).then_some(d));
    }

    #[test]
    fn within_one_edit_matches_dp(a in "[ab]{0,6}", b in "[ab]{0,6}") {
        let d = dp_distance(&a, &b);
        prop_assert_eq!(within_one_edit(&a, &b), (d <= 1).then_some(d));
    }
}
