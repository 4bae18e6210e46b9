//! Myers' bit-parallel Levenshtein distance with an edit bound.
//!
//! [`bounded_levenshtein`] computes the same integer the classic two-row
//! dynamic program in [`crate::levenshtein`] computes, but processes 64
//! pattern positions per machine word (Myers 1999, in Hyyrö's block
//! formulation). It additionally takes a `max_dist` bound: when the true
//! distance exceeds the bound the function returns `None`, and may do so
//! early — after any text position from which the bound is provably
//! unreachable — without finishing the matrix.
//!
//! Layout:
//!
//! * Strings whose shorter side fits one word (≤ 64 chars) run a
//!   single-block kernel with all state in registers.
//! * Longer patterns run the multi-block kernel: one `(Pv, Mv)` pair per
//!   64-row block, horizontal deltas carried between blocks.
//! * Both kernels have a byte-level ASCII fast path (no `Vec<char>`
//!   collection, pattern-alphabet table indexed by byte) and a char-level
//!   fallback for non-ASCII input, so distances stay counted in Unicode
//!   scalar values exactly like [`crate::levenshtein_distance`].
//!
//! The agreement between the two implementations is property-tested in
//! `crates/text/tests/bounded_levenshtein.rs`; the classic DP remains the
//! oracle.

/// Compute the Levenshtein distance between `a` and `b` if it is at most
/// `max_dist`, counted in Unicode scalar values.
///
/// Returns `Some(d)` with `d == levenshtein_distance(a, b)` exactly when
/// that distance is `<= max_dist`, and `None` otherwise. The `None` path
/// is cheap: a length-difference check runs before any matrix work, and
/// the kernels abandon as soon as the bound is unreachable.
pub fn bounded_levenshtein(a: &str, b: &str, max_dist: usize) -> Option<usize> {
    // The distance is at least the length difference: reject from lengths
    // alone before touching the contents.
    let (la, lb) = (char_count(a), char_count(b));
    if la.abs_diff(lb) > max_dist {
        return None;
    }
    if la == 0 || lb == 0 {
        // One side empty: the distance is the other side's length, already
        // known to be within the bound by the check above.
        return Some(la.max(lb));
    }
    // The shorter string is the pattern (fewer blocks); symmetric measure.
    let (pat, pat_len, text, text_len) =
        if la <= lb { (a, la, b, lb) } else { (b, lb, a, la) };

    if a.is_ascii() && b.is_ascii() {
        if pat_len <= 64 {
            single_block(pat.as_bytes(), text.as_bytes().iter().copied(), text_len, max_dist)
        } else {
            multi_block(pat.as_bytes(), text.as_bytes().iter().copied(), text_len, max_dist)
        }
    } else {
        // Char-level fallback: collect only the pattern; the text streams.
        let pat_chars: Vec<char> = pat.chars().collect();
        if pat_len <= 64 {
            single_block(&pat_chars, text.chars(), text_len, max_dist)
        } else {
            multi_block(&pat_chars, text.chars(), text_len, max_dist)
        }
    }
}

#[inline]
fn char_count(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// Pattern symbols must build an equality bitmask table; bytes get a flat
/// 128-slot array, chars a sorted lookup vector.
trait PatternSymbol: Copy + Ord {
    type Table;
    fn build_table(pattern: &[Self], blocks: usize) -> Self::Table;
    /// The pattern-position bitmask of `block` for text symbol `c`.
    fn eq_mask(table: &Self::Table, c: Self, block: usize) -> u64;
}

impl PatternSymbol for u8 {
    type Table = Vec<u64>;

    fn build_table(pattern: &[u8], blocks: usize) -> Vec<u64> {
        // ASCII only reaches bytes < 128; flat [symbol][block] layout.
        let mut table = vec![0u64; 128 * blocks];
        for (i, &c) in pattern.iter().enumerate() {
            table[(c as usize) * blocks + i / 64] |= 1u64 << (i % 64);
        }
        table
    }

    #[inline]
    fn eq_mask(table: &Vec<u64>, c: u8, block: usize) -> u64 {
        table[(c as usize) * blocks_of(table) + block]
    }
}

/// Recover the block count a byte table was built with (length / 128).
#[inline]
fn blocks_of(table: &[u64]) -> usize {
    table.len() / 128
}

impl PatternSymbol for char {
    /// Sorted distinct pattern chars plus a flat `[char][block]` mask array.
    type Table = (Vec<char>, Vec<u64>, usize);

    fn build_table(pattern: &[char], blocks: usize) -> Self::Table {
        let mut distinct: Vec<char> = pattern.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut masks = vec![0u64; distinct.len() * blocks];
        for (i, &c) in pattern.iter().enumerate() {
            // Every pattern char is in `distinct`, so the search finds it.
            if let Ok(slot) = distinct.binary_search(&c) {
                masks[slot * blocks + i / 64] |= 1u64 << (i % 64);
            }
        }
        (distinct, masks, blocks)
    }

    #[inline]
    fn eq_mask(table: &Self::Table, c: char, block: usize) -> u64 {
        match table.0.binary_search(&c) {
            Ok(slot) => table.1[slot * table.2 + block],
            Err(_) => 0,
        }
    }
}

/// Single-word kernel: pattern length 1..=64.
fn single_block<S: PatternSymbol>(
    pattern: &[S],
    text: impl Iterator<Item = S>,
    text_len: usize,
    max_dist: usize,
) -> Option<usize> {
    let m = pattern.len();
    debug_assert!((1..=64).contains(&m));
    let table = S::build_table(pattern, 1);
    let high = 1u64 << (m - 1);

    let mut pv: u64 = !0;
    let mut mv: u64 = 0;
    let mut score = m;
    for (j, c) in text.enumerate() {
        let eq = S::eq_mask(&table, c, 0);
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
fn multi_block<S: PatternSymbol>(
    pattern: &[S],
    text: impl Iterator<Item = S>,
    text_len: usize,
    max_dist: usize,
) -> Option<usize> {
    let m = pattern.len();
    let blocks = m.div_ceil(64);
    let table = S::build_table(pattern, blocks);
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
            let mut eq = S::eq_mask(&table, c, b);
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
    use crate::levenshtein_distance;

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
