//! Flat posting storage: every list of one table in a single arena.
//!
//! [`PostingLists`] maps a dense key — a [`Sym`] of the owning index's
//! interner — to a contiguous, append-ordered list of entry positions. It
//! replaces a hash map of heap vectors: a key costs one 8-byte span slot
//! (direct-indexed by `Sym::raw`, no hashing) and its list lives in the
//! shared `slots` arena, so the whole table is two allocations however
//! many keys it holds.
//!
//! A growing list owns a power-of-two block of slots; when the block is
//! full the list moves to a block of twice the size at the arena's end.
//! Appends are amortised O(1). Vacated blocks are not reused — they and
//! the block slack keep the arena below four slots per stored position
//! (about two on label corpora) until sealing packs the lists.

use ltee_intern::Sym;

/// Dense-key multimap `Sym → [entry position]` (see the module docs).
#[derive(Debug, Default, Clone)]
pub(crate) struct PostingLists {
    /// Per key, indexed by `Sym::raw`: `(start, len)` of the key's list
    /// in `slots`; `len == 0` for a key without postings. Until sealed,
    /// the list owns `len.next_power_of_two()` slots from `start`.
    spans: Vec<(u32, u32)>,
    slots: Vec<u32>,
    /// Set by [`Self::into_sealed`]: packed lists own no blocks to grow in.
    sealed: bool,
}

ltee_intern::heap_size!(PostingLists { spans, slots });

impl PostingLists {
    /// Append `position` to `key`'s list.
    pub(crate) fn push(&mut self, key: Sym, position: u32) {
        assert!(!self.sealed, "push to sealed posting lists");
        let raw = key.raw() as usize;
        if raw >= self.spans.len() {
            self.spans.resize(raw + 1, (0, 0));
        }
        let (mut start, len) = self.spans[raw];
        if len == 0 || len.is_power_of_two() {
            // No block yet, or a full one: continue in a fresh block of
            // twice the size at the end of the arena.
            let block = (2 * len as usize).max(1);
            let fresh = self.slots.len();
            assert!(fresh + block <= u32::MAX as usize, "posting arena exceeded u32 address space");
            self.slots.extend_from_within(start as usize..(start + len) as usize);
            self.slots.resize(fresh + block, 0);
            start = fresh as u32;
        }
        self.slots[(start + len) as usize] = position;
        self.spans[raw] = (start, len + 1);
    }

    /// `key`'s list, in append order; empty for a key never pushed to.
    #[inline]
    pub(crate) fn get(&self, key: Sym) -> &[u32] {
        match self.spans.get(key.raw() as usize) {
            Some(&(start, len)) => &self.slots[start as usize..(start + len) as usize],
            None => &[],
        }
    }

    /// The same lists packed end to end in key order: no block slack, no
    /// vacated blocks, no spare capacity. Sealing is final — packed lists
    /// no longer own power-of-two blocks, so [`Self::push`] panics on the
    /// result.
    pub(crate) fn into_sealed(mut self) -> Self {
        let mut packed = Vec::with_capacity(self.spans.iter().map(|s| s.1 as usize).sum());
        for span in &mut self.spans {
            let start = packed.len() as u32;
            packed.extend_from_slice(&self.slots[span.0 as usize..(span.0 + span.1) as usize]);
            span.0 = start;
        }
        self.spans.shrink_to_fit();
        Self { spans: self.spans, slots: packed, sealed: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltee_intern::Interner;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// `n` syms with raw ids `0..n`.
    fn syms(n: usize) -> Vec<Sym> {
        let mut interner = Interner::new();
        (0..n).map(|k| interner.intern(&k.to_string())).collect()
    }

    #[test]
    fn unknown_keys_have_empty_lists() {
        let keys = syms(3);
        let mut lists = PostingLists::default();
        assert!(lists.get(keys[2]).is_empty());
        lists.push(keys[1], 7);
        assert!(lists.get(keys[0]).is_empty());
        assert_eq!(lists.get(keys[1]), [7]);
        assert!(lists.get(keys[2]).is_empty());
    }

    #[test]
    #[should_panic(expected = "sealed")]
    fn sealed_lists_refuse_pushes() {
        let keys = syms(2);
        let mut lists = PostingLists::default();
        for position in 0..3 {
            lists.push(keys[0], position);
        }
        lists.push(keys[1], 3);
        // Packed, key 0's three positions sit right before key 1's.
        lists.into_sealed().push(keys[0], 4);
    }

    proptest! {
        #[test]
        fn lists_match_a_map_of_vecs(
            keys in proptest::collection::vec(0usize..24, 0..400),
        ) {
            // Few keys, many pushes: every list crosses several block
            // sizes, interleaved with the others.
            let key_syms = syms(24);
            let mut lists = PostingLists::default();
            let mut model: HashMap<usize, Vec<u32>> = HashMap::new();
            for (position, &key) in keys.iter().enumerate() {
                lists.push(key_syms[key], position as u32);
                model.entry(key).or_default().push(position as u32);
                prop_assert_eq!(lists.get(key_syms[key]), model[&key].as_slice());
            }
            prop_assert!(lists.slots.len() < 4 * keys.len().max(1));
            let mutable = lists.clone();
            let sealed = lists.into_sealed();
            prop_assert_eq!(sealed.slots.len(), keys.len());
            prop_assert_eq!(sealed.slots.capacity(), keys.len());
            for (key, &sym) in key_syms.iter().enumerate() {
                let expected = model.get(&key).map(Vec::as_slice).unwrap_or_default();
                prop_assert_eq!(mutable.get(sym), expected);
                prop_assert_eq!(sealed.get(sym), expected);
            }
        }
    }
}
