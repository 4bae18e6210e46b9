//! Myers' bit-parallel Levenshtein distance with an edit bound: the one
//! edit-distance kernel of the crate.
//!
//! [`bounded_levenshtein`] processes 64 pattern positions per machine word
//! (Myers 1999, in Hyyrö's block formulation). It takes a `max_dist`
//! bound: when the true distance exceeds the bound the function returns
//! `None`, and may do so early — after any text position from which the
//! bound is provably unreachable — without finishing the matrix.
//!
//! Layout:
//!
//! * Strings whose shorter side fits one word (≤ 64 chars) run a
//!   single-block kernel with all state in registers and the pattern
//!   table on the stack.
//! * Longer patterns run the multi-block kernel: one `(Pv, Mv)` pair per
//!   64-row block, horizontal deltas carried between blocks.
//! * Both kernels have a byte-level ASCII fast path (no `Vec<char>`
//!   collection, pattern-alphabet table indexed by byte) and a char-level
//!   fallback for non-ASCII input, so distances are counted in Unicode
//!   scalar values.
//!
//! The oracle is the classic two-row dynamic program in
//! `crates/text/tests/oracle/mod.rs`; `crates/text/tests/bounded_levenshtein.rs`
//! property-tests the kernel against it.

/// Compute the Levenshtein distance between `a` and `b` if it is at most
/// `max_dist`, counted in Unicode scalar values.
///
/// Returns `Some(d)` with `d` the exact edit distance exactly when that
/// distance is `<= max_dist`, and `None` otherwise. The `None` path is
/// cheap: a length-difference check runs before any matrix work, and the
/// kernels abandon as soon as the bound is unreachable.
pub fn bounded_levenshtein(a: &str, b: &str, max_dist: usize) -> Option<usize> {
    bounded_with_lens(a, char_count(a), b, char_count(b), max_dist)
}

/// [`bounded_levenshtein`] of two strings whose char counts `la` and `lb`
/// the caller already holds.
pub(crate) fn bounded_with_lens(a: &str, la: usize, b: &str, lb: usize, max_dist: usize) -> Option<usize> {
    // The distance is at least the length difference: reject from lengths
    // alone before touching the contents.
    if la.abs_diff(lb) > max_dist {
        return None;
    }
    if la == 0 || lb == 0 {
        // One side empty: the distance is the other side's length, already
        // known to be within the bound by the check above.
        return Some(la.max(lb));
    }
    // The shorter string is the pattern (fewer blocks); symmetric measure.
    let (pat, m, text, text_len) = if la <= lb { (a, la, b, lb) } else { (b, lb, a, la) };
    let blocks = m.div_ceil(64);

    // A string is ASCII exactly when it has one byte per char. ASCII bytes
    // are < 128, so `& 127` changes no index and proves it in range.
    if la == a.len() && lb == b.len() {
        let pat = pat.as_bytes();
        if blocks == 1 {
            let mut table = [0u64; 128];
            for (i, &c) in pat.iter().enumerate() {
                table[usize::from(c & 127)] |= 1u64 << i;
            }
            single_block(m, text.bytes(), text_len, max_dist, |c| table[usize::from(c & 127)])
        } else {
            // Flat [symbol][block] layout.
            let mut table = vec![0u64; 128 * blocks];
            for (i, &c) in pat.iter().enumerate() {
                table[usize::from(c & 127) * blocks + i / 64] |= 1u64 << (i % 64);
            }
            multi_block(m, text.bytes(), text_len, max_dist, |c, block| {
                table[usize::from(c & 127) * blocks + block]
            })
        }
    } else {
        // Char-level fallback: the pattern's table; the text streams.
        let eq_mask = char_table(pat, blocks);
        if blocks == 1 {
            single_block(m, text.chars(), text_len, max_dist, |c| eq_mask(c, 0))
        } else {
            multi_block(m, text.chars(), text_len, max_dist, eq_mask)
        }
    }
}

/// Unicode scalar values in `s`.
#[inline]
pub(crate) fn char_count(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// The equality bitmasks of a non-ASCII pattern, as `(char, block) → mask`:
/// its sorted distinct chars and a flat `[char][block]` mask array.
fn char_table(pattern: &str, blocks: usize) -> impl Fn(char, usize) -> u64 {
    let mut distinct: Vec<char> = pattern.chars().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let mut masks = vec![0u64; distinct.len() * blocks];
    for (i, c) in pattern.chars().enumerate() {
        // Every pattern char is in `distinct`, so the search finds it.
        if let Ok(slot) = distinct.binary_search(&c) {
            masks[slot * blocks + i / 64] |= 1u64 << (i % 64);
        }
    }
    move |c, block| match distinct.binary_search(&c) {
        Ok(slot) => masks[slot * blocks + block],
        Err(_) => 0,
    }
}

/// Single-word kernel: pattern length 1..=64.
/// `eq_mask(c)` is the pattern-position bitmask of text symbol `c`.
fn single_block<S>(
    m: usize,
    text: impl Iterator<Item = S>,
    text_len: usize,
    max_dist: usize,
    eq_mask: impl Fn(S) -> u64,
) -> Option<usize> {
    debug_assert!((1..=64).contains(&m));
    let high = 1u64 << (m - 1);

    let mut pv: u64 = !0;
    let mut mv: u64 = 0;
    let mut score = m;
    for (j, c) in text.enumerate() {
        let eq = eq_mask(c);
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & high != 0 {
            score += 1;
        } else if mh & high != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
        // The final score can drop by at most 1 per remaining text char:
        // once even that best case misses the bound, abandon.
        let remaining = text_len - j - 1;
        if score > max_dist.saturating_add(remaining) {
            return None;
        }
    }
    (score <= max_dist).then_some(score)
}

/// Multi-word kernel: pattern length > 64, one `(Pv, Mv)` pair per block,
/// horizontal deltas chained through the blocks (Hyyrö's formulation).
/// `eq_mask(c, block)` is block `block`'s pattern-position bitmask of `c`.
fn multi_block<S: Copy>(
    m: usize,
    text: impl Iterator<Item = S>,
    text_len: usize,
    max_dist: usize,
    eq_mask: impl Fn(S, usize) -> u64,
) -> Option<usize> {
    let blocks = m.div_ceil(64);
    // Row bit of each block's bottom row: 63 except in the last block.
    let last_high = 1u64 << ((m - 1) % 64);

    let mut pv = vec![!0u64; blocks];
    let mut mv = vec![0u64; blocks];
    let mut score = m;
    for (j, c) in text.enumerate() {
        // First row of the matrix always steps +1 horizontally.
        let mut hin: i32 = 1;
        for b in 0..blocks {
            let high = if b + 1 == blocks { last_high } else { 1u64 << 63 };
            let mut eq = eq_mask(c, b);
            let pv_b = pv[b];
            let mv_b = mv[b];
            let xv = eq | mv_b;
            if hin < 0 {
                eq |= 1;
            }
            let xh = (((eq & pv_b).wrapping_add(pv_b)) ^ pv_b) | eq;
            let mut ph = mv_b | !(xh | pv_b);
            let mut mh = pv_b & xh;
            let hout = if ph & high != 0 {
                1
            } else if mh & high != 0 {
                -1
            } else {
                0
            };
            ph <<= 1;
            mh <<= 1;
            if hin > 0 {
                ph |= 1;
            } else if hin < 0 {
                mh |= 1;
            }
            pv[b] = mh | !(xv | ph);
            mv[b] = ph & xv;
            hin = hout;
        }
        score = (score as i64 + hin as i64) as usize;
        let remaining = text_len - j - 1;
        if score > max_dist.saturating_add(remaining) {
            return None;
        }
    }
    (score <= max_dist).then_some(score)
}

/// Whether two strings are within one edit of each other, returning the
/// exact distance (`0` or `1`) when they are.
///
/// A single two-pointer pass over the chars — no matrix, no tables. This
/// is the verification step behind the deletion-neighborhood candidate
/// index in `ltee-index`, where almost every probe is a true distance-1
/// neighbour and running even the bit-parallel kernel would be waste.
pub fn within_one_edit(a: &str, b: &str) -> Option<usize> {
    let (la, lb) = (char_count(a), char_count(b));
    if la.abs_diff(lb) > 1 {
        return None;
    }
    if a == b {
        return Some(0);
    }
    let (short, long) = if la <= lb { (a, b) } else { (b, a) };
    let mut s = short.chars();
    let mut l = long.chars();
    loop {
        match (s.clone().next(), l.clone().next()) {
            (Some(sc), Some(lc)) if sc == lc => {
                s.next();
                l.next();
            }
            (Some(_), Some(_)) => {
                // First mismatch: either substitute (equal lengths) or
                // delete from the longer; the rest must match exactly.
                if la == lb {
                    s.next();
                }
                l.next();
                return (s.as_str() == l.as_str()).then_some(1);
            }
            // Shorter exhausted: one trailing char on the longer side.
            (None, Some(_)) => return Some(1),
            _ => unreachable!("a == b was handled above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::levenshtein_distance;

    #[test]
    fn known_answers_match_dp() {
        for (a, b) in [
            ("kitten", "sitting"),
            ("", "abc"),
            ("abc", ""),
            ("same", "same"),
            ("café", "cafe"),
            ("ab", "ba"),
            ("flaw", "lawn"),
        ] {
            let d = levenshtein_distance(a, b);
            assert_eq!(bounded_levenshtein(a, b, usize::MAX), Some(d), "({a:?}, {b:?})");
            assert_eq!(bounded_levenshtein(a, b, d), Some(d), "tight bound ({a:?}, {b:?})");
            if d > 0 {
                assert_eq!(bounded_levenshtein(a, b, d - 1), None, "bound below ({a:?}, {b:?})");
            }
        }
    }

    #[test]
    fn multi_block_path_matches_dp() {
        let a: String = "abcdefghij".repeat(9); // 90 chars > 64
        let mut b = a.clone();
        b.replace_range(10..13, "XYZ");
        b.push_str("tail");
        let d = levenshtein_distance(&a, &b);
        assert_eq!(bounded_levenshtein(&a, &b, usize::MAX), Some(d));
        assert_eq!(bounded_levenshtein(&a, &b, d - 1), None);
    }

    #[test]
    fn one_edit_check_agrees_with_dp() {
        for (a, b) in [
            ("tom", "tom"),
            ("tom", "tmo"),
            ("tom", "to"),
            ("tom", "atom"),
            ("tom", "tim"),
            ("tom", "mot"),
            ("", "a"),
            ("a", ""),
            ("i\u{307}stanbul", "istanbul"),
        ] {
            let d = levenshtein_distance(a, b);
            let expected = (d <= 1).then_some(d);
            assert_eq!(within_one_edit(a, b), expected, "({a:?}, {b:?})");
        }
    }
}
