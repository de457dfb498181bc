//! Indexed producers, their adapters, and the two drivers (`for_each`,
//! `collect`) that hand a producer's indices to the pool.
//!
//! Every parallel iterator here knows its length and can produce the item
//! at any index independently of the others — that is all the callers'
//! chains (`par_chunks_mut(..).zip(..).enumerate().skip(1).take(n)`, …)
//! need, and it makes one item one *part* of a region with no splitting
//! heuristics in between.

use crate::pool;
use std::marker::PhantomData;

mod private {
    /// Random access to a parallel iterator's items. Private, so the
    /// public traits below are sealed and `get` cannot be called (or
    /// implemented) outside this crate.
    pub trait Producer: Sized + Send + Sync {
        type Item: Send;

        fn len(&self) -> usize;

        /// The item at index `i`.
        ///
        /// # Safety
        /// `i < self.len()`, and no index is asked for twice over the
        /// producer's lifetime: mutable producers hand out `&mut` items,
        /// which must not alias.
        unsafe fn get(&self, i: usize) -> Self::Item;
    }
}
use private::Producer;

/// Mirrors `rayon::iter::ParallelIterator` (the methods this workspace
/// uses). Implemented for every producer of this crate and nothing else.
pub trait ParallelIterator: Producer {
    /// Call `op` on every item, in parallel; returns when all calls have.
    fn for_each<OP>(self, op: OP)
    where
        OP: Fn(Self::Item) + Sync + Send,
    {
        // SAFETY: `run` calls its body exactly once per index below `len`.
        pool::run(self.len(), &|i| op(unsafe { self.get(i) }));
    }

    /// Apply `map_op` to every item.
    fn map<F, R>(self, map_op: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, map_op }
    }

    /// Gather the items in index order.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

impl<P: Producer> ParallelIterator for P {}

/// Mirrors `rayon::iter::IndexedParallelIterator` (the methods this
/// workspace uses).
pub trait IndexedParallelIterator: ParallelIterator {
    /// Pair items index by index; as long as the shorter side.
    fn zip<Z: IndexedParallelIterator>(self, zip_op: Z) -> Zip<Self, Z> {
        Zip { a: self, b: zip_op }
    }

    /// Pair every item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Drop the first `n` items.
    fn skip(self, n: usize) -> Skip<Self> {
        let n = n.min(self.len());
        Skip { base: self, n }
    }

    /// Keep the first `n` items.
    fn take(self, n: usize) -> Take<Self> {
        let n = n.min(self.len());
        Take { base: self, n }
    }
}

impl<P: Producer> IndexedParallelIterator for P {}

/// Mirrors `rayon::iter::FromParallelIterator`, for `Vec` only.
pub trait FromParallelIterator<T: Send> {
    /// Build the collection from `par_iter`'s items, in index order.
    fn from_par_iter<I>(par_iter: I) -> Self
    where
        I: ParallelIterator<Item = T>;
}

/// A destination cursor parts write through, one slot each.
struct SlotPtr<T>(*mut T);
// SAFETY: only used to write distinct slots of a buffer the writer's
// caller owns and outlives; `T: Send` because the values written were
// made on other threads.
unsafe impl<T: Send> Sync for SlotPtr<T> {}

impl<T> SlotPtr<T> {
    /// # Safety
    /// `i` is in bounds of the buffer and written by no one else.
    unsafe fn write(&self, i: usize, value: T) {
        unsafe { self.0.add(i).write(value) };
    }
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I>(par_iter: I) -> Self
    where
        I: ParallelIterator<Item = T>,
    {
        let n = par_iter.len();
        let mut out = Vec::with_capacity(n);
        let slots = SlotPtr(out.as_mut_ptr());
        // SAFETY: part `i` runs once, takes item `i` once and writes slot
        // `i < n = capacity`. If a part panics `run` unwinds from here
        // with `out` still empty: written items leak, none is dropped
        // twice or read uninitialised.
        pool::run(n, &|i| unsafe { slots.write(i, par_iter.get(i)) });
        // SAFETY: `run` returned normally, so all `n` slots are written.
        unsafe { out.set_len(n) };
        out
    }
}

/// Parallel iterator over `&T`; see [`IntoParallelRefIterator`].
pub struct Iter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> Producer for Iter<'data, T> {
    type Item = &'data T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    unsafe fn get(&self, i: usize) -> &'data T {
        &self.slice[i]
    }
}

/// Parallel iterator over `&mut T`; see [`IntoParallelRefMutIterator`].
pub struct IterMut<'data, T> {
    ptr: *mut T,
    len: usize,
    marker: PhantomData<&'data mut [T]>,
}

// SAFETY: an `IterMut` is a `&mut [T]` that hands each element to one
// part; sharing it between threads moves `&mut T`s across them, which
// needs exactly `T: Send`.
unsafe impl<T: Send> Send for IterMut<'_, T> {}
unsafe impl<T: Send> Sync for IterMut<'_, T> {}

impl<'data, T: Send> Producer for IterMut<'data, T> {
    type Item = &'data mut T;

    fn len(&self) -> usize {
        self.len
    }

    unsafe fn get(&self, i: usize) -> &'data mut T {
        debug_assert!(i < self.len);
        // SAFETY: in bounds of the borrowed slice, and per the contract
        // no other `&mut` to element `i` is ever produced.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Parallel iterator over `chunk_size`-element `&[T]` pieces of a slice.
pub struct Chunks<'data, T> {
    slice: &'data [T],
    chunk_size: usize,
}

impl<'data, T: Sync> Producer for Chunks<'data, T> {
    type Item = &'data [T];

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk_size)
    }

    unsafe fn get(&self, i: usize) -> &'data [T] {
        let start = i * self.chunk_size;
        &self.slice[start..self.slice.len().min(start + self.chunk_size)]
    }
}

/// Parallel iterator over `chunk_size`-element `&mut [T]` pieces.
pub struct ChunksMut<'data, T> {
    ptr: *mut T,
    len: usize,
    chunk_size: usize,
    marker: PhantomData<&'data mut [T]>,
}

// SAFETY: as for `IterMut`, with disjoint sub-slices in place of elements.
unsafe impl<T: Send> Send for ChunksMut<'_, T> {}
unsafe impl<T: Send> Sync for ChunksMut<'_, T> {}

impl<'data, T: Send> Producer for ChunksMut<'data, T> {
    type Item = &'data mut [T];

    fn len(&self) -> usize {
        self.len.div_ceil(self.chunk_size)
    }

    unsafe fn get(&self, i: usize) -> &'data mut [T] {
        let start = i * self.chunk_size;
        debug_assert!(start < self.len);
        let n = self.chunk_size.min(self.len - start);
        // SAFETY: `[start, start + n)` lies inside the borrowed slice and
        // chunks of different indices do not overlap; per the contract
        // each index is produced once, so no two `&mut` alias.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), n) }
    }
}

/// Mirrors `rayon::slice::ParallelSlice`.
pub trait ParallelSlice<T: Sync> {
    /// Parallel `chunks`: the last piece may be shorter. Panics if
    /// `chunk_size` is 0.
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        Chunks {
            slice: self,
            chunk_size,
        }
    }
}

/// Mirrors `rayon::slice::ParallelSliceMut`.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel `chunks_mut`: the last piece may be shorter. Panics if
    /// `chunk_size` is 0.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            chunk_size,
            marker: PhantomData,
        }
    }
}

/// Mirrors `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;

    /// Parallel `iter`.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = Iter<'data, T>;
    type Item = &'data T;

    fn par_iter(&'data self) -> Iter<'data, T> {
        Iter { slice: self }
    }
}

/// Mirrors `rayon::iter::IntoParallelRefMutIterator`.
pub trait IntoParallelRefMutIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;

    /// Parallel `iter_mut`.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Iter = IterMut<'data, T>;
    type Item = &'data mut T;

    fn par_iter_mut(&'data mut self) -> IterMut<'data, T> {
        IterMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            marker: PhantomData,
        }
    }
}

/// See [`IndexedParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    unsafe fn get(&self, i: usize) -> Self::Item {
        // SAFETY: `i` is below both lengths; uniqueness is the caller's.
        unsafe { (self.a.get(i), self.b.get(i)) }
    }
}

/// See [`IndexedParallelIterator::enumerate`].
pub struct Enumerate<I> {
    base: I,
}

impl<I: Producer> Producer for Enumerate<I> {
    type Item = (usize, I::Item);

    fn len(&self) -> usize {
        self.base.len()
    }

    unsafe fn get(&self, i: usize) -> Self::Item {
        // SAFETY: same index, same contract.
        (i, unsafe { self.base.get(i) })
    }
}

/// See [`IndexedParallelIterator::skip`].
pub struct Skip<I> {
    base: I,
    /// At most `base.len()`.
    n: usize,
}

impl<I: Producer> Producer for Skip<I> {
    type Item = I::Item;

    fn len(&self) -> usize {
        self.base.len() - self.n
    }

    unsafe fn get(&self, i: usize) -> Self::Item {
        // SAFETY: `i + n < base.len()`, and distinct `i` stay distinct.
        unsafe { self.base.get(i + self.n) }
    }
}

/// See [`IndexedParallelIterator::take`].
pub struct Take<I> {
    base: I,
    /// At most `base.len()`.
    n: usize,
}

impl<I: Producer> Producer for Take<I> {
    type Item = I::Item;

    fn len(&self) -> usize {
        self.n
    }

    unsafe fn get(&self, i: usize) -> Self::Item {
        // SAFETY: `i < n <= base.len()`.
        unsafe { self.base.get(i) }
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    map_op: F,
}

impl<I, F, R> Producer for Map<I, F>
where
    I: Producer,
    F: Fn(I::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;

    fn len(&self) -> usize {
        self.base.len()
    }

    unsafe fn get(&self, i: usize) -> R {
        // SAFETY: same index, same contract.
        (self.map_op)(unsafe { self.base.get(i) })
    }
}
