//! Property tests: interned tokenisation and Monge-Elkan must agree — bit
//! for bit — with the `String`-based `ltee-text` implementations on random
//! inputs, and every Monge-Elkan entry point with the ungated Monge-Elkan
//! over the two-row DP (`oracle::monge_elkan`).
//!
//! This is the contract that lets the pipeline swap its hot paths to
//! interned tokens and gated kernels without changing a single score.

mod oracle;

use ltee_intern::Interner;
use ltee_text::{
    monge_elkan_similarity, monge_elkan_tokenized, monge_elkan_tokens, normalize_and_intern,
    normalize_label, tokenize, tokenize_interned,
};
use proptest::prelude::*;

/// A label of `short` tokens (non-ASCII included), then `long` ones (past
/// one 64-char word), then the first token again when `repeat` is 1.
fn label(short: &[String], long: &[String], repeat: usize) -> String {
    let mut tokens: Vec<&str> = short.iter().chain(long).map(String::as_str).collect();
    if repeat == 1 {
        if let Some(&first) = tokens.first() {
            tokens.push(first);
        }
    }
    tokens.join(" ")
}

/// The string, tokenised-string and interned Monge-Elkan of two labels
/// all carry the oracle's bits.
fn assert_monge_elkan_matches_oracle(a: &str, b: &str) {
    let (ta, tb) = (tokenize(a), tokenize(b));
    let expected = oracle::monge_elkan(&ta, &tb).to_bits();
    assert_eq!(monge_elkan_similarity(a, b).to_bits(), expected, "string ({a:?}, {b:?})");
    assert_eq!(monge_elkan_tokenized(&ta, &tb).to_bits(), expected, "tokenized ({a:?}, {b:?})");
    let mut interner = Interner::new();
    let sa = tokenize_interned(a, &mut interner);
    let sb = tokenize_interned(b, &mut interner);
    assert_eq!(monge_elkan_tokens(&sa, &sb, &interner).to_bits(), expected, "interned ({a:?}, {b:?})");
}

#[test]
fn monge_elkan_edge_cases_match_the_oracle() {
    let long = "ab".repeat(40);
    let long_edit = format!("{}c", &long[1..]);
    let cases = [
        ("", ""),
        ("", "tom"),
        ("tom tom tom", "tom"),
        ("tom tim", "tim tom tam"),
        ("café crème", "cafe creme"),
        ("日本語 ß", "日本 ss"),
        ("i\u{307}stanbul", "istanbul"),
    ];
    for (a, b) in cases {
        assert_monge_elkan_matches_oracle(a, b);
        assert_monge_elkan_matches_oracle(b, a);
    }
    let long_pair = (format!("x {long} {long}"), format!("{long_edit} x y"));
    assert_monge_elkan_matches_oracle(&long_pair.0, &long_pair.1);
}

proptest! {
    #[test]
    fn interned_tokens_resolve_to_string_tokens(text in "[a-zA-Z0-9 ,.()-]{0,30}") {
        let mut interner = Interner::new();
        let seq = tokenize_interned(&text, &mut interner);
        let resolved: Vec<String> =
            seq.tokens().iter().map(|&s| interner.resolve(s).to_string()).collect();
        prop_assert_eq!(resolved, tokenize(&text));
    }

    #[test]
    fn interned_monge_elkan_agrees_with_string_monge_elkan(
        a in "[a-z ]{0,25}",
        b in "[a-z ]{0,25}",
    ) {
        let mut interner = Interner::new();
        let sa = tokenize_interned(&a, &mut interner);
        let sb = tokenize_interned(&b, &mut interner);
        prop_assert_eq!(
            monge_elkan_tokens(&sa, &sb, &interner).to_bits(),
            monge_elkan_similarity(&a, &b).to_bits()
        );
    }

    #[test]
    fn gated_monge_elkan_agrees_with_the_ungated_dp_oracle(
        a_short in proptest::collection::vec("[a-cé日ß]{1,5}", 0..5),
        a_long in proptest::collection::vec("[ab]{60,75}", 0..2),
        a_repeat in 0usize..2,
        b_short in proptest::collection::vec("[a-cé日ß]{1,5}", 0..5),
        b_long in proptest::collection::vec("[abc]{60,75}", 0..2),
        b_repeat in 0usize..2,
    ) {
        let a = label(&a_short, &a_long, a_repeat);
        let b = label(&b_short, &b_long, b_repeat);
        assert_monge_elkan_matches_oracle(&a, &b);
    }

    #[test]
    fn normalize_and_intern_agrees_with_normalize(label in "[a-zA-Z0-9 ,.()]{0,30}") {
        let mut interner = Interner::new();
        let sym = normalize_and_intern(&label, &mut interner);
        prop_assert_eq!(interner.resolve(sym), normalize_label(&label).as_str());
    }
}
