//! An immutable list of strings in two heap blocks.

use std::fmt;
use std::ops::Index;

/// An immutable list of strings, kept as two heap blocks however many
/// strings it holds: the strings concatenated in one `Box<str>`, and each
/// one's end offset in one `Box<[u32]>` (a string starts where its
/// predecessor ends).
///
/// A `Vec<String>` of short strings pays a heap block per string (a
/// 32-byte allocator chunk for anything up to 24 bytes) plus 24 inline
/// bytes of header; a list pays four bytes per string beyond its bytes.
/// Every long-lived list of short strings (a table column's cells, a
/// knowledge base instance's labels, a bag of words) is one of these.
///
/// The representation is canonical, so two lists are equal exactly when
/// their strings are, and `Debug` prints the strings as a `Vec<String>`
/// holding them would. An empty list holds no heap at all.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct StrList {
    /// The strings, concatenated.
    bytes: Box<str>,
    /// Where each string ends in `bytes`, string by string.
    ends: Box<[u32]>,
}

crate::heap_size!(StrList { bytes, ends });

impl StrList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// The list of `strings`, in order, or `None` when they total more
    /// than `u32::MAX` bytes (the end offsets are `u32`). It walks the
    /// strings twice, once to size both blocks exactly and once to fill
    /// them, so it takes an iterator that can be cloned (borrowed strings,
    /// typically). [`FromIterator`] takes any iterator in one walk, grows
    /// its blocks as it goes and panics where this returns `None`.
    pub fn try_collect<I>(strings: I) -> Option<Self>
    where
        I: IntoIterator,
        I::IntoIter: Clone,
        I::Item: AsRef<str>,
    {
        let strings = strings.into_iter();
        let (count, total) = strings.clone().fold((0, 0), |(count, total), s| (count + 1, total + s.as_ref().len()));
        u32::try_from(total).ok()?;
        let mut bytes = String::with_capacity(total);
        let mut ends = Vec::with_capacity(count);
        for s in strings {
            bytes.push_str(s.as_ref());
            ends.push(bytes.len() as u32);
        }
        Some(Self { bytes: bytes.into_boxed_str(), ends: ends.into_boxed_slice() })
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the list holds no string.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `index`-th string, if there is one.
    pub fn get(&self, index: usize) -> Option<&str> {
        let end = *self.ends.get(index)? as usize;
        let start = index.checked_sub(1).map_or(0, |before| self.ends[before] as usize);
        Some(&self.bytes[start..end])
    }

    /// The strings, in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { bytes: &self.bytes, ends: self.ends.iter(), start: 0 }
    }
}

/// # Panics
///
/// When the strings total more than `u32::MAX` bytes; see
/// [`StrList::try_collect`].
impl<S: AsRef<str>> FromIterator<S> for StrList {
    fn from_iter<I: IntoIterator<Item = S>>(strings: I) -> Self {
        let strings = strings.into_iter();
        let mut bytes = String::new();
        let mut ends = Vec::with_capacity(strings.size_hint().0);
        for s in strings {
            bytes.push_str(s.as_ref());
            match u32::try_from(bytes.len()) {
                Ok(end) => ends.push(end),
                Err(_) => panic!("string list exceeded u32 address space"),
            }
        }
        Self { bytes: bytes.into_boxed_str(), ends: ends.into_boxed_slice() }
    }
}

/// # Panics
///
/// When `index` is out of bounds, as a slice's indexing does.
impl Index<usize> for StrList {
    type Output = str;

    fn index(&self, index: usize) -> &str {
        match self.get(index) {
            Some(s) => s,
            None => panic!("index {index} out of bounds for a list of {} strings", self.len()),
        }
    }
}

impl<'a> IntoIterator for &'a StrList {
    type Item = &'a str;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Prints the strings, as a `Vec<String>` of them would.
impl fmt::Debug for StrList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The strings of a [`StrList`], in order, from either end.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    bytes: &'a str,
    /// The end offsets of the strings not yet yielded.
    ends: std::slice::Iter<'a, u32>,
    /// Where the next string from the front starts.
    start: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let end = *self.ends.next()? as usize;
        let s = &self.bytes[self.start..end];
        self.start = end;
        Some(s)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl<'a> DoubleEndedIterator for Iter<'a> {
    fn next_back(&mut self) -> Option<&'a str> {
        let end = *self.ends.next_back()? as usize;
        let start = self.ends.as_slice().last().map_or(self.start, |&before| before as usize);
        Some(&self.bytes[start..end])
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeapSize;
    use proptest::prelude::*;

    #[test]
    fn two_blocks_however_many_strings() {
        let list: StrList = ["Tom Brady", "", "Eli Manning", "münchen"].into_iter().collect();
        assert_eq!(list.len(), 4);
        assert_eq!(list.heap_bytes().blocks, 2);
        assert_eq!(list.heap_bytes().bytes, "Tom BradyEli Manningmünchen".len() + 4 * 4);
        assert_eq!(StrList::new().heap_bytes().blocks, 0, "an empty list holds no heap");
        let blanks: StrList = ["", ""].into_iter().collect();
        assert_eq!(blanks.heap_bytes().blocks, 1, "only the end offsets");
        assert_eq!(&list[2], "Eli Manning");
        assert_eq!(list.get(4), None);
        assert_eq!(list.get(0), Some("Tom Brady"));
    }

    #[test]
    #[should_panic(expected = "index 1 out of bounds")]
    fn indexing_past_the_end_panics() {
        let list: StrList = ["only"].into_iter().collect();
        let _ = &list[1];
    }

    proptest! {
        /// Empty and non-ASCII strings, empty lists: the list reads back
        /// the strings it was built from, from either end.
        #[test]
        fn round_trips_and_prints_like_the_vec(strings in proptest::collection::vec("[aé中 ]{0,4}", 0..12)) {
            let list: StrList = strings.iter().collect();
            prop_assert_eq!(list.len(), strings.len());
            prop_assert_eq!(list.is_empty(), strings.is_empty());
            prop_assert!(list.iter().eq(strings.iter().map(String::as_str)));
            prop_assert!(list.iter().rev().eq(strings.iter().rev().map(String::as_str)));
            prop_assert_eq!(list.iter().len(), strings.len());
            for (i, s) in strings.iter().enumerate() {
                prop_assert_eq!(list.get(i), Some(s.as_str()));
                prop_assert_eq!(&list[i], s.as_str());
            }
            prop_assert_eq!(list.get(strings.len()), None);
            prop_assert_eq!(format!("{list:?}"), format!("{strings:?}"));
            prop_assert_eq!(format!("{list:#?}"), format!("{strings:#?}"));
            prop_assert_eq!(StrList::try_collect(&strings), Some(list));
        }

        /// Meeting in the middle: a mixed front/back walk yields every
        /// string once, in place.
        #[test]
        fn front_and_back_meet(strings in proptest::collection::vec("[ab]{0,3}", 0..8), turns in proptest::collection::vec(0u8..2, 8..9)) {
            let list: StrList = strings.iter().collect();
            let (mut iter, mut front, mut back) = (list.iter(), Vec::new(), Vec::new());
            for from_back in turns.into_iter().map(|turn| turn == 1) {
                let next = if from_back { iter.next_back() } else { iter.next() };
                match next {
                    Some(s) if from_back => back.push(s),
                    Some(s) => front.push(s),
                    None => prop_assert_eq!(front.len() + back.len(), strings.len()),
                }
            }
            front.extend(iter);
            front.extend(back.into_iter().rev());
            prop_assert!(front.into_iter().eq(strings.iter().map(String::as_str)));
        }

        /// Equal exactly when the strings are: the concatenation alone
        /// does not decide it ("ab" + "" against "a" + "b").
        #[test]
        fn equal_exactly_when_the_strings_are(
            a in proptest::collection::vec("[ab]{0,2}", 0..4),
            b in proptest::collection::vec("[ab]{0,2}", 0..4),
        ) {
            let (x, y): (StrList, StrList) = (a.iter().collect(), b.iter().collect());
            prop_assert_eq!(x == y, a == b);
        }
    }
}
