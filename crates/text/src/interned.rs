//! Interned entry points of the shared text layer.
//!
//! These functions produce and consume [`ltee_intern`] symbols instead of
//! owned `String`s, so the pipeline normalises and tokenises each distinct
//! label **once per run** and then compares integers. Every function here
//! is bit-for-bit compatible with its `String`-based sibling: feeding the
//! same text through [`tokenize_interned`] + [`monge_elkan_tokens`] yields
//! exactly the floats that [`crate::tokenize`] +
//! [`crate::monge_elkan_similarity`] yield (a property-tested invariant).

use ltee_intern::{Interner, Sym, TokenSeq};

use crate::monge_elkan::{monge_elkan, TokenSide};
use crate::normalize::normalize_label;

/// Normalise a label (see [`normalize_label`]) and intern the result.
pub fn normalize_and_intern(label: &str, interner: &mut Interner) -> Sym {
    interner.intern(&normalize_label(label))
}

/// Tokenise already cleaned text exactly like [`crate::tokenize`] (both
/// run on the same token-splitting core), but intern each token instead
/// of allocating an owned `String` per token. One scratch buffer is
/// reused across tokens; known tokens allocate nothing.
pub fn tokenize_interned(text: &str, interner: &mut Interner) -> TokenSeq {
    let mut syms = Vec::new();
    tokenize_interned_into(text, interner, &mut syms);
    TokenSeq::from_syms(syms)
}

/// [`tokenize_interned`]'s syms, in text order, pushed onto `syms` (a
/// token arena many labels share) instead of boxed as a [`TokenSeq`].
pub fn tokenize_interned_into(text: &str, interner: &mut Interner, syms: &mut Vec<Sym>) {
    crate::normalize::for_each_token(text, |t| syms.push(interner.intern(t)));
}

/// One side of an interned Monge-Elkan comparison: a token sequence and
/// the interner its syms come from. Sym equality is string equality, so
/// the kernel gets its shared-token shortcut from [`TokenSeq::contains`].
struct Interned<'a> {
    seq: &'a TokenSeq,
    interner: &'a Interner,
}

impl TokenSide for Interned<'_> {
    fn len(&self) -> usize {
        self.seq.len()
    }

    fn texts(&self) -> impl Iterator<Item = &str> {
        self.seq.tokens().iter().map(|&sym| self.interner.resolve(sym))
    }

    fn holds(&self, other: &Self, i: usize) -> Option<bool> {
        Some(self.seq.contains(other.seq.tokens()[i]))
    }
}

/// Symmetric Monge-Elkan similarity over pre-tokenised, interned labels.
///
/// Both sequences must come from the same `interner`. Bit-for-bit equal to
/// [`crate::monge_elkan_similarity`] on the corresponding strings (the
/// same kernel), while skipping re-tokenisation and all per-call
/// allocation.
pub fn monge_elkan_tokens(a: &TokenSeq, b: &TokenSeq, interner: &Interner) -> f64 {
    monge_elkan(&Interned { seq: a, interner }, &Interned { seq: b, interner })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{monge_elkan_similarity, tokenize};

    #[test]
    fn tokenize_interned_matches_string_tokenize() {
        let mut interner = Interner::new();
        for text in ["hey-you 42", "  --  ", "ABBA Gold", "İstanbul (city)", "the the song"] {
            let interned = tokenize_interned(text, &mut interner);
            let strings: Vec<&str> =
                interned.tokens().iter().map(|&s| interner.resolve(s)).collect();
            assert_eq!(strings, tokenize(text), "{text:?}");
        }
    }

    #[test]
    fn repeated_tokens_share_syms() {
        let mut interner = Interner::new();
        let seq = tokenize_interned("the the song", &mut interner);
        assert_eq!(seq.len(), 3);
        assert_eq!(seq.sorted().len(), 2);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn normalize_and_intern_dedupes_across_variants() {
        let mut interner = Interner::new();
        let a = normalize_and_intern("Yellow Submarine (Remastered)", &mut interner);
        let b = normalize_and_intern("  yellow   SUBMARINE ", &mut interner);
        assert_eq!(a, b);
        assert_eq!(interner.resolve(a), "yellow submarine");
    }

    #[test]
    fn monge_elkan_tokens_bit_matches_string_version() {
        let mut interner = Interner::new();
        let cases = [
            ("Tom Brady", "Tom Brady"),
            ("Brady Tom", "Tom Brady"),
            ("T. Brady", "Tom Brady"),
            ("Yellow Submarine", "Quarterback Draft"),
            ("", "Tom Brady"),
            ("", ""),
            ("New York City", "New York"),
            ("Peyton Maning", "Peyton Manning"),
        ];
        for (a, b) in cases {
            let sa = tokenize_interned(a, &mut interner);
            let sb = tokenize_interned(b, &mut interner);
            assert_eq!(
                monge_elkan_tokens(&sa, &sb, &interner).to_bits(),
                monge_elkan_similarity(a, b).to_bits(),
                "({a:?}, {b:?})"
            );
        }
    }
}
