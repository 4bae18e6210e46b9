//! Shared text normalisation and tokenisation.
//!
//! Web table cells and knowledge base labels arrive in wildly different
//! shapes ("J. Smith", "Smith, John", "john  SMITH  (QB)"). Every component
//! of the pipeline that compares strings first pushes them through the same
//! normalisation so that superficial differences (case, punctuation,
//! bracketed qualifiers, redundant whitespace) do not dominate the
//! similarity scores.

/// Normalise a label for comparison and indexing.
///
/// Lower-cases, strips bracketed qualifiers (`"Paris (Texas)"` → `"paris"`
/// keeps only the part outside parentheses when there is text outside them),
/// replaces punctuation with spaces and collapses whitespace runs.
///
/// One allocation, the result's, unless the label holds a bracket (which
/// costs the stripped copy) or lower-cases to more bytes than it has.
pub fn normalize_label(label: &str) -> String {
    let stripped;
    let source = if label.contains(['(', ')', '[', ']']) {
        stripped = strip_bracketed(label);
        if stripped.trim().is_empty() {
            label
        } else {
            &stripped
        }
    } else {
        // Without a bracket there is nothing to strip.
        label
    };
    let mut out = String::with_capacity(source.len());
    let mut last_space = true;
    for ch in source.chars() {
        // Alphanumerics and non-punctuation unicode symbols are kept,
        // lower-cased; punctuation and whitespace collapse to one space.
        // Lower-casing can expand to multiple chars ('İ' → "i\u{307}"),
        // so every produced char is emitted — taking only the first would
        // silently truncate such labels.
        if ch.is_alphanumeric() || !(ch.is_whitespace() || ch.is_ascii_punctuation()) {
            for lc in ch.to_lowercase() {
                out.push(lc);
            }
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    // No kept char lower-cases to whitespace and no space is pushed at
    // the start or after another, so at most one space trails.
    if out.ends_with(' ') {
        out.pop();
    }
    out.shrink_to_fit();
    out
}

/// Remove bracketed qualifiers: `(...)`, `[...]` are dropped entirely.
fn strip_bracketed(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut depth = 0usize;
    for ch in label.chars() {
        match ch {
            '(' | '[' => depth += 1,
            ')' | ']' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(ch),
            _ => {}
        }
    }
    out
}

/// Clean a raw web table cell value: trim, collapse whitespace, drop
/// surrounding quotes and trailing footnote markers such as `*` or `†`.
pub fn clean_label(raw: &str) -> String {
    let trimmed = raw
        .trim()
        .trim_matches(|c| c == '"' || c == '\'' || c == '*' || c == '†');
    let mut out = String::with_capacity(trimmed.len());
    let mut last_space = false;
    for ch in trimmed.chars() {
        if ch.is_whitespace() {
            if !last_space && !out.is_empty() {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(ch);
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// The single token-splitting core behind [`tokenize`] and
/// [`crate::interned::tokenize_interned`]: lower-cased alphanumeric runs,
/// each yielded through `f` from a reused scratch buffer. Both public
/// tokenisers must go through here so they cannot drift apart.
pub(crate) fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lc in ch.to_lowercase() {
                current.push(lc);
            }
        } else if !current.is_empty() {
            f(&current);
            current.clear();
        }
    }
    if !current.is_empty() {
        f(&current);
    }
}

/// Tokenise an already cleaned string into lower-cased alphanumeric tokens.
///
/// This is the tokenisation used to build bag-of-words vectors and blocking
/// keys. Tokens of length zero are never produced.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |t| tokens.push(t.to_string()));
    tokens
}

/// The tokens of a label already in [`normalize_label`]'s form, read off
/// it without allocating: its alphanumeric runs. They equal
/// [`tokenize`] of the form, because every alphanumeric char a label
/// lower-cases to lower-cases to itself, so tokenising the form changes
/// no char of it (checked over every `char` in this module's tests). On
/// text in any other form the two differ.
pub(crate) fn normal_form_tokens(normalized: &str) -> impl Iterator<Item = &str> {
    normalized.split(|ch: char| !ch.is_alphanumeric()).filter(|token| !token.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`normalize_label`]'s reference: the bracket pass always run and a
    /// trimmed copy at the end, three allocations per call.
    fn normalize_label_oracle(label: &str) -> String {
        let without_brackets = strip_bracketed(label);
        let source = if without_brackets.trim().is_empty() { label } else { &without_brackets };
        let mut out = String::with_capacity(source.len());
        let mut last_space = true;
        for ch in source.chars() {
            if ch.is_alphanumeric() || !(ch.is_whitespace() || ch.is_ascii_punctuation()) {
                for lc in ch.to_lowercase() {
                    out.push(lc);
                }
                last_space = false;
            } else if !last_space {
                out.push(' ');
                last_space = true;
            }
        }
        out.trim().to_string()
    }

    /// Chars for a label: printable ASCII, the brackets and spaces the
    /// normaliser treats specially, chars whose lower case expands or is
    /// not ASCII, Latin to Arabic, and any scalar value at all.
    fn label_char(kind: u32, code: u32) -> Option<char> {
        const SPECIAL: &[char] = &['(', ')', '[', ']', ' ', ' ', '\t', '\u{85}', '\u{3000}', '\u{130}', '\u{1E9E}', 'Σ', '\u{307}'];
        match kind {
            0 => char::from_u32(0x20 + code % 0x5f),
            1 => Some(SPECIAL[code as usize % SPECIAL.len()]),
            2 => char::from_u32(0x80 + code % 0x580),
            _ => char::from_u32(code),
        }
    }

    proptest! {
        #[test]
        fn normalize_label_is_bit_identical_to_the_oracle(
            picks in proptest::collection::vec(0u32..4 * 0x11_0000, 0..24),
        ) {
            let label: String = picks.into_iter().filter_map(|pick| label_char(pick % 4, pick / 4)).collect();
            let normalized = normalize_label(&label);
            prop_assert_eq!(&normalized, &normalize_label_oracle(&label));
            prop_assert_eq!(normalized.capacity(), normalized.len());
            prop_assert!(normal_form_tokens(&normalized).eq(tokenize(&normalized)));
        }
    }

    /// What makes [`normal_form_tokens`] equal [`tokenize`] on a normal
    /// form, and lets [`normalize_label`] drop its final `trim`: over every
    /// `char`, each char it lower-cases to lower-cases to itself when it is
    /// alphanumeric, and is not whitespace unless the char itself was.
    #[test]
    fn lower_casing_is_idempotent_on_every_alphanumeric_char_it_yields() {
        let mut alphanumeric = 0usize;
        for ch in (0..=u32::from(char::MAX)).filter_map(char::from_u32) {
            for lc in ch.to_lowercase() {
                assert!(ch.is_whitespace() || !lc.is_whitespace(), "{ch:?} lower-cases to whitespace");
                if lc.is_alphanumeric() {
                    alphanumeric += 1;
                    assert!(lc.to_lowercase().eq([lc]), "{ch:?} lower-cases to {lc:?}, which is not its own lower case");
                }
            }
        }
        assert!(alphanumeric > 100_000, "only {alphanumeric} cases checked");
    }

    #[test]
    fn normalize_lowercases_and_collapses() {
        assert_eq!(normalize_label("  John   SMITH "), "john smith");
    }

    #[test]
    fn normalize_strips_punctuation() {
        assert_eq!(normalize_label("O'Neill, J.R."), "o neill j r");
    }

    #[test]
    fn normalize_strips_bracketed_qualifier() {
        assert_eq!(normalize_label("Paris (Texas)"), "paris");
    }

    #[test]
    fn normalize_keeps_label_when_only_bracketed() {
        // A label that is entirely bracketed should not normalise to "".
        assert_eq!(normalize_label("(1998)"), "1998");
    }

    #[test]
    fn normalize_drops_the_one_trailing_space_and_keeps_unbracketed_labels() {
        assert_eq!(normalize_label("Tom Brady!"), "tom brady");
        assert_eq!(normalize_label("Tom Brady (QB) "), "tom brady");
        assert_eq!(normalize_label(" -- "), "");
        assert_eq!(normalize_label("(  )"), "");
        assert_eq!(normalize_label("1998)"), "1998");
    }

    #[test]
    fn normalize_empty_is_empty() {
        assert_eq!(normalize_label(""), "");
    }

    #[test]
    fn normalize_keeps_multi_char_lowercase_expansions() {
        // 'İ' (U+0130) lower-cases to "i\u{307}" — two chars. The per-char
        // path used to keep only the first, silently truncating the label.
        assert_eq!(normalize_label("\u{130}stanbul"), "i\u{307}stanbul");
        // 'ẞ' (U+1E9E) lower-cases to 'ß' and must stay intact too.
        assert_eq!(normalize_label("STRA\u{1E9E}E"), "stra\u{DF}e");
        // `tokenize` already emitted the full expansion (its line-98 path);
        // the normalised form now matches it char for char.
        assert_eq!(tokenize("\u{130}stanbul"), vec!["i\u{307}stanbul"]);
    }

    #[test]
    fn clean_trims_and_unquotes() {
        assert_eq!(clean_label("  \"Abbey Road\"  "), "Abbey Road");
    }

    #[test]
    fn clean_drops_footnote_markers() {
        assert_eq!(clean_label("Tom Brady*"), "Tom Brady");
    }

    #[test]
    fn clean_collapses_internal_whitespace() {
        assert_eq!(clean_label("New   York\tCity"), "New York City");
    }

    #[test]
    fn tokenize_splits_on_non_alphanumeric() {
        assert_eq!(tokenize("hey-you 42"), vec!["hey", "you", "42"]);
    }

    #[test]
    fn tokenize_empty() {
        assert!(tokenize("  --  ").is_empty());
    }

    #[test]
    fn tokenize_lowercases() {
        assert_eq!(tokenize("ABBA Gold"), vec!["abba", "gold"]);
    }
}
