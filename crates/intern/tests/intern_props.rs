//! Property tests for the interner (vendored proptest shim).
//!
//! Covers the determinism contract: intern/resolve round-trips and id
//! stability under interleaved re-insertions — and holds the flat probe
//! table to a naive model (`Vec<String>` + `HashMap<String, u32>`) over
//! random scripts and at every table-growth boundary.

use std::collections::HashMap;

use ltee_intern::{Interner, Sym};
use proptest::prelude::*;

/// What an interner is, spelled out: the strings in first-seen order and
/// each string's position in that order.
#[derive(Default)]
struct Model {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Model {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }

    /// Everything observable about `interner` equals the model.
    fn assert_describes(&self, interner: &Interner) {
        assert_eq!(interner.len(), self.strings.len());
        assert_eq!(interner.is_empty(), self.strings.is_empty());
        let listed: Vec<(u32, &str)> = interner.iter().map(|(sym, s)| (sym.raw(), s)).collect();
        let expected: Vec<(u32, &str)> =
            self.strings.iter().enumerate().map(|(i, s)| (i as u32, s.as_str())).collect();
        assert_eq!(listed, expected);
        for (sym, s) in interner.iter() {
            assert_eq!(interner.get(s), Some(sym));
        }
    }
}

/// Intern `s` on both sides: same id, and the sym resolves to `s`.
fn intern_both(interner: &mut Interner, model: &mut Model, s: &str) -> Sym {
    let sym = interner.intern(s);
    assert_eq!(sym.raw(), model.intern(s), "sym of {s:?}");
    assert_eq!(interner.resolve(sym), s);
    sym
}

/// `n` distinct strings of every shape the arena must survive: the empty
/// string, multi-byte text, shared stems, bare numbers.
fn distinct_strings(n: usize) -> Vec<String> {
    (0..n)
        .map(|k| match k % 5 {
            0 if k == 0 => String::new(),
            0 => format!("{k}"),
            1 => format!("münchen {k}"),
            2 => format!("北京{k}"),
            3 => format!("label {k} (live)"),
            _ => format!("{k} i̇stanbul"),
        })
        .collect()
}

#[test]
fn model_agreement_across_every_growth_boundary() {
    // The probe table doubles when a new string would push its load past
    // a half, i.e. as the length crosses a power of two: check the full
    // model just before, at and just after each, and at 0 and 1.
    let total = 10_000;
    let mut interner = Interner::new();
    let mut model = Model::default();
    model.assert_describes(&interner);
    assert_eq!(interner.get(""), None);
    for (k, s) in distinct_strings(total).iter().enumerate() {
        assert_eq!(interner.get(s), None, "{s:?} before its insertion");
        intern_both(&mut interner, &mut model, s);
        let len = k + 1;
        if len <= 2 || (len - 1).is_power_of_two() || len.is_power_of_two() || (len + 1).is_power_of_two() {
            model.assert_describes(&interner);
        }
    }
    model.assert_describes(&interner);
    // Re-interning everything, in another order, mints nothing.
    for s in distinct_strings(total).iter().rev() {
        intern_both(&mut interner, &mut model, s);
    }
    assert_eq!(interner.len(), total);
    // Shrinking keeps the same mapping.
    interner.shrink_to_fit();
    model.assert_describes(&interner);
}

proptest! {
    #[test]
    fn random_scripts_agree_with_the_string_model(
        words in proptest::collection::vec(".{0,3}", 1..120),
        kinds in proptest::collection::vec(0u8..8, 120usize..121),
    ) {
        // Short strings over a wide alphabet: plenty of repeats, empty
        // strings and multi-byte characters.
        let mut interner = Interner::new();
        let mut model = Model::default();
        for (word, kind) in words.iter().zip(&kinds) {
            match kind {
                // `get` never mints.
                0 | 1 => {
                    let found = interner.get(word).map(Sym::raw);
                    prop_assert_eq!(found, model.ids.get(word).copied());
                    prop_assert_eq!(interner.len(), model.strings.len());
                }
                // Clone, then diverge: the original never sees the fork's
                // strings, the fork keeps every sym of the original.
                2 => {
                    let mut fork = interner.clone();
                    let novel = format!("{word}\u{1}fork");
                    let minted = fork.intern(&novel);
                    prop_assert_eq!(minted.raw() as usize, model.strings.len());
                    prop_assert_eq!(fork.intern(word).raw(), model.ids.get(word).copied().unwrap_or(minted.raw() + 1));
                    prop_assert_eq!(interner.get(&novel), None);
                    model.assert_describes(&interner);
                    for (sym, s) in interner.iter() {
                        prop_assert_eq!(fork.resolve(sym), s);
                    }
                }
                _ => {
                    intern_both(&mut interner, &mut model, word);
                }
            }
        }
        model.assert_describes(&interner);
    }

    #[test]
    fn intern_resolve_round_trip(words in proptest::collection::vec("[a-z0-9 ]{0,12}", 0..40)) {
        let mut interner = Interner::new();
        let syms: Vec<_> = words.iter().map(|w| interner.intern(w)).collect();
        for (word, sym) in words.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(*sym), word.as_str());
            prop_assert_eq!(interner.get(word), Some(*sym));
        }
    }

    #[test]
    fn ids_stable_under_interleaved_inserts(words in proptest::collection::vec("[a-z]{1,8}", 1..30)) {
        // Interning the word list once, and interning it with every prefix
        // repeated in between, must assign identical ids: re-insertions
        // never mint new syms or shift later ones.
        let mut plain = Interner::new();
        let plain_syms: Vec<_> = words.iter().map(|w| plain.intern(w)).collect();

        let mut interleaved = Interner::new();
        let mut interleaved_syms = Vec::new();
        for (i, w) in words.iter().enumerate() {
            interleaved_syms.push(interleaved.intern(w));
            for earlier in &words[..i] {
                interleaved.intern(earlier);
            }
        }
        prop_assert_eq!(plain_syms, interleaved_syms);
        prop_assert_eq!(plain.len(), interleaved.len());
    }

    #[test]
    fn distinct_strings_get_distinct_syms(words in proptest::collection::vec("[a-z]{1,8}", 1..30)) {
        let mut interner = Interner::new();
        let syms: Vec<_> = words.iter().map(|w| interner.intern(w)).collect();
        for (i, a) in words.iter().enumerate() {
            for (j, b) in words.iter().enumerate() {
                prop_assert_eq!(syms[i] == syms[j], a == b);
            }
        }
    }
}
