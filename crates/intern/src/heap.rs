//! Heap accounting from lengths and capacities, never measured, so the
//! figures are a pure function of a value's shape.

use std::collections::HashMap;
use std::mem::{align_of, size_of};
use std::ops::{Add, Sub};
use std::sync::Arc;

/// Heap memory: bytes requested from the allocator, in `blocks` allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapBytes {
    /// Bytes requested (the allocator's rounding is not included).
    pub bytes: usize,
    /// Live allocations.
    pub blocks: usize,
}

/// Control bytes per probe group of the standard library's hash table.
const HASH_GROUP: usize = if cfg!(all(target_feature = "sse2", any(target_arch = "x86", target_arch = "x86_64"))) { 16 } else { 8 };

impl HeapBytes {
    /// Nothing on the heap.
    pub const ZERO: Self = Self { bytes: 0, blocks: 0 };

    /// One allocation of `bytes` (none when `bytes` is zero).
    pub fn block(bytes: usize) -> Self {
        Self { bytes, blocks: usize::from(bytes > 0) }
    }

    /// The buffer of a `Vec<T>` or `Box<[T]>` with room for `capacity` items.
    pub fn buffer<T>(capacity: usize) -> Self {
        Self::block(capacity * size_of::<T>())
    }

    /// The box of an `Arc<T>`: two reference counts, then the value.
    pub fn arc_box<T>() -> Self {
        let align = align_of::<T>().max(align_of::<usize>());
        Self::block(((2 * size_of::<usize>()).next_multiple_of(align) + size_of::<T>()).next_multiple_of(align))
    }

    /// The one allocation of a std hash table whose `capacity()` is
    /// `capacity`, with entries of type `T`: the buckets, then a control
    /// byte per bucket and one trailing probe group. Exact for tables
    /// nothing was removed from.
    pub fn hash_table<T>(capacity: usize) -> Self {
        if capacity == 0 {
            return Self::ZERO;
        }
        let buckets = if capacity < 8 { capacity + 1 } else { capacity / 7 * 8 };
        Self::block((buckets * size_of::<T>()).next_multiple_of(align_of::<T>().max(HASH_GROUP)) + buckets + HASH_GROUP)
    }
}

impl Add for HeapBytes {
    type Output = Self;
    fn add(self, other: Self) -> Self {
        Self { bytes: self.bytes + other.bytes, blocks: self.blocks + other.blocks }
    }
}

impl Sub for HeapBytes {
    type Output = Self;
    fn sub(self, part: Self) -> Self {
        Self { bytes: self.bytes - part.bytes, blocks: self.blocks - part.blocks }
    }
}

impl std::iter::Sum for HeapBytes {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}

/// What a value holds on the heap: its own buffers plus what its items
/// hold, from lengths and capacities. Its inline `size_of` belongs to its
/// owner's buffer.
pub trait HeapSize {
    /// The heap bytes and blocks this value reaches, not counting itself.
    fn heap_bytes(&self) -> HeapBytes;
}

/// Implement [`HeapSize`] as the sum of the listed fields (`Type { field,
/// field }`), or as nothing for a type that owns no heap (`Type {}`). A
/// field left off the list is memory the ledger misses.
#[macro_export]
macro_rules! heap_size {
    ($($ty:ty { $($field:tt),* })*) => {$(
        impl $crate::HeapSize for $ty {
            fn heap_bytes(&self) -> $crate::HeapBytes {
                $crate::HeapBytes::ZERO $(+ $crate::HeapSize::heap_bytes(&self.$field))*
            }
        }
    )*};
}

heap_size! {
    u8 {} u32 {} u64 {} usize {} f64 {}
    &'static str {}
    crate::Sym {}
    crate::Interner { arena, spans, table }
    crate::TokenSeq { syms }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> HeapBytes {
        HeapBytes::block(self.capacity())
    }
}

impl HeapSize for Box<str> {
    fn heap_bytes(&self) -> HeapBytes {
        HeapBytes::block(self.len())
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> HeapBytes {
        HeapBytes::buffer::<T>(self.capacity()) + self.iter().map(HeapSize::heap_bytes).sum()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> HeapBytes {
        HeapBytes::buffer::<T>(self.len()) + self.iter().map(HeapSize::heap_bytes).sum()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> HeapBytes {
        self.as_ref().map_or(HeapBytes::ZERO, HeapSize::heap_bytes)
    }
}

/// One handle's view: the box and what it holds. An owner that shares the
/// box with others counts it once itself.
impl<T: HeapSize> HeapSize for Arc<T> {
    fn heap_bytes(&self) -> HeapBytes {
        HeapBytes::arc_box::<T>() + T::heap_bytes(self)
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> HeapBytes {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<A: HeapSize, B: HeapSize, C: HeapSize> HeapSize for (A, B, C) {
    fn heap_bytes(&self) -> HeapBytes {
        self.0.heap_bytes() + self.1.heap_bytes() + self.2.heap_bytes()
    }
}

impl<K: HeapSize, V: HeapSize, S> HeapSize for HashMap<K, V, S> {
    fn heap_bytes(&self) -> HeapBytes {
        HeapBytes::hash_table::<(K, V)>(self.capacity()) + self.iter().map(|(k, v)| k.heap_bytes() + v.heap_bytes()).sum()
    }
}
