//! Known-answer tests for the ltee-text similarity primitives.
//!
//! Each case pins an exact, hand-computed value (or a tight interval) so a
//! regression in tokenisation, normalisation or the DP recurrences shows up
//! as a concrete wrong number rather than a vague threshold miss.

use ltee_text::{
    clean_label, jaccard_similarity, levenshtein_distance, levenshtein_similarity,
    monge_elkan_similarity, normalize_label, tokenize,
};

const EPS: f64 = 1e-12;

// ---------------------------------------------------------------- jaccard

#[test]
fn jaccard_half_overlap() {
    // {birth, date, year} vs {date, year, team}: 2 shared / 4 union.
    assert!((jaccard_similarity("birth date year", "date year team") - 0.5).abs() < EPS);
}

#[test]
fn jaccard_ignores_token_order_and_multiplicity() {
    assert!((jaccard_similarity("date birth", "birth birth date") - 1.0).abs() < EPS);
}

#[test]
fn jaccard_case_insensitive_via_tokenization() {
    assert!((jaccard_similarity("Record Label", "record label") - 1.0).abs() < EPS);
}

#[test]
fn jaccard_unicode_tokens() {
    assert!((jaccard_similarity("Mötley Crüe", "mötley crüe") - 1.0).abs() < EPS);
}

#[test]
fn jaccard_punctuation_only_counts_as_empty() {
    // "..." tokenises to nothing, so it behaves like the empty string.
    assert_eq!(jaccard_similarity("...", "..."), 1.0);
    assert_eq!(jaccard_similarity("...", "team"), 0.0);
}

// ----------------------------------------------------------- levenshtein

#[test]
fn levenshtein_classic_pairs() {
    assert_eq!(levenshtein_distance("flaw", "lawn"), 2);
    assert_eq!(levenshtein_distance("saturday", "sunday"), 3);
    assert_eq!(levenshtein_distance("gridiron", ""), 8);
}

#[test]
fn levenshtein_single_edit_kinds() {
    assert_eq!(levenshtein_distance("smith", "smiths"), 1); // insertion
    assert_eq!(levenshtein_distance("smith", "smit"), 1); // deletion
    assert_eq!(levenshtein_distance("smith", "smyth"), 1); // substitution
}

#[test]
fn levenshtein_counts_unicode_scalars_not_bytes() {
    // Each of the four chars is multi-byte in UTF-8; one substitution.
    assert_eq!(levenshtein_distance("日本語あ", "日本語を"), 1);
    assert_eq!(levenshtein_distance("über", "uber"), 1);
}

#[test]
fn levenshtein_similarity_known_ratio() {
    // kitten/sitting: distance 3 over max length 7.
    assert!((levenshtein_similarity("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < EPS);
}

#[test]
fn levenshtein_similarity_empty_cases() {
    assert_eq!(levenshtein_similarity("", ""), 1.0);
    assert_eq!(levenshtein_similarity("", "abc"), 0.0);
}

// ----------------------------------------------------------- monge-elkan

#[test]
fn monge_elkan_exact_value_for_partial_token_match() {
    // "tom brady" vs "tom": forward = (1 + 0)/2 = 0.5 (brady vs tom has
    // levenshtein similarity 0), backward = 1. Symmetric mean = 0.75.
    assert!((monge_elkan_similarity("tom brady", "tom") - 0.75).abs() < EPS);
}

#[test]
fn monge_elkan_identical_multi_token_labels() {
    assert!((monge_elkan_similarity("new york city", "new york city") - 1.0).abs() < EPS);
}

#[test]
fn monge_elkan_typo_stays_high() {
    let s = monge_elkan_similarity("Tom Brady", "Tom Bradey");
    assert!(s > 0.85 && s < 1.0, "got {s}");
}

#[test]
fn monge_elkan_is_order_insensitive_and_unicode_safe() {
    assert!((monge_elkan_similarity("Crüe Mötley", "Mötley Crüe") - 1.0).abs() < EPS);
}

#[test]
fn monge_elkan_identical_inputs_various() {
    for label in ["a", "tom brady", "la paz", "x y z w"] {
        assert!((monge_elkan_similarity(label, label) - 1.0).abs() < EPS, "label {label}");
    }
}

// ------------------------------------------------------------- normalize

#[test]
fn normalize_strips_bracketed_qualifiers() {
    assert_eq!(normalize_label("Paris (Texas)"), "paris");
    assert_eq!(normalize_label("Smith [QB]"), "smith");
}

#[test]
fn normalize_keeps_bracket_content_when_nothing_remains() {
    // If the whole label is a bracketed qualifier, dropping it would leave
    // nothing, so the content is kept instead.
    assert_eq!(normalize_label("(Texas)"), "texas");
}

#[test]
fn normalize_lowercases_and_collapses() {
    assert_eq!(normalize_label("  John   SMITH  "), "john smith");
    assert_eq!(normalize_label("AC/DC"), "ac dc");
    assert_eq!(normalize_label(""), "");
}

#[test]
fn clean_label_trims_quotes_footnotes_and_whitespace() {
    assert_eq!(clean_label("  \"Tom  Brady\"* "), "Tom Brady");
    assert_eq!(clean_label("†Smith†"), "Smith");
    assert_eq!(clean_label(""), "");
}

#[test]
fn tokenize_known_splits() {
    assert_eq!(tokenize("Tom-Brady (QB)"), vec!["tom", "brady", "qb"]);
    assert_eq!(tokenize("AC/DC 1984"), vec!["ac", "dc", "1984"]);
    assert!(tokenize("...").is_empty());
    assert!(tokenize("").is_empty());
}
