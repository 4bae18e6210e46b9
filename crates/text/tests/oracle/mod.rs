//! The test oracle of the crate's edit-distance paths: the classic two-row
//! Levenshtein dynamic program and an ungated Monge-Elkan over it.
//!
//! Nothing here is on a shipping path. The library runs one kernel, the
//! bounded bit-parallel [`ltee_text::bounded_levenshtein`], and takes every
//! Monge-Elkan maximum through a length-and-bound gate; these functions
//! compute the same values the plain way, so a test can hold the kernel and
//! the gate to them bit for bit. Included by the crate's unit tests, its
//! integration tests and `ltee-types`' tests (`#[path]`), so there is one
//! copy.

#![allow(dead_code)]

/// Levenshtein distance counted in Unicode scalar values, by the two-row
/// dynamic program over the longer string.
pub fn levenshtein_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr = vec![0; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// `1 - distance / max(|a|, |b|)`; two empty strings are fully similar.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein_distance(a, b) as f64 / max_len as f64
}

/// Symmetric Monge-Elkan over two token lists: the mean of both directed
/// scores, each the mean over one side's tokens of its best oracle
/// similarity against every token of the other side — no gate, no early
/// exit, no shared-token shortcut.
pub fn monge_elkan<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    (directed(a, b) + directed(b, a)) / 2.0
}

fn directed<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let mut total = 0.0;
    for at in a {
        let mut best: f64 = 0.0;
        for bt in b {
            best = best.max(levenshtein_similarity(at.as_ref(), bt.as_ref()));
        }
        total += best;
    }
    total / a.len() as f64
}
