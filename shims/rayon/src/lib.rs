//! Offline, dependency-free implementation of the part of the `rayon` API
//! this workspace uses, on real worker threads.
//!
//! The build has no network and no crates.io mirror, so the workspace
//! vendors this crate under rayon's name as a path dependency. Its public
//! surface is a strict subset of upstream's — swapping the real crate in
//! is a one-line change of `[workspace.dependencies]`.
//!
//! # Supported subset
//! - `par_chunks`, `par_chunks_mut`, `par_iter`, `par_iter_mut` on slices;
//! - `zip`, `enumerate`, `skip`, `take`, `map` on what they return;
//! - `for_each` and an index-ordered `collect::<Vec<_>>()` to run a chain;
//! - [`current_num_threads`], and
//!   `ThreadPoolBuilder::new().num_threads(n).build()?.install(|| ..)` to
//!   set the width for a scope.
//!
//! Every iterator is *indexed*: it knows its length and produces the item
//! at any index on its own (`producers.rs`). One item is one part of work.
//!
//! # Pool lifecycle
//! There is one pool per process (`pool.rs`). Its default width is
//! `RAYON_NUM_THREADS` if that is a positive integer, else
//! `std::thread::available_parallelism`, read once at first use. No thread
//! exists until a region wider than one lane opens; then workers are
//! started up to that region's width less one (the calling thread is the
//! remaining lane) and live for the rest of the process. Idle workers poll
//! for a few tens of microseconds, so the back-to-back regions of one
//! short PIC step do not pay a futex wake each, then park. `install` does
//! not build a second pool: it sets the width regions opened by the
//! current thread may use — narrower than the default (thread-per-rank
//! runners give each rank its share) or wider (a test's 4-thread run on a
//! 2-core host), the shared worker set growing on demand.
//!
//! # Schedule, and why results cannot depend on it
//! A region of `n` items is `n` parts. The caller lists it, then it and
//! the workers that take one of its `width − 1` seats each claim the next
//! unclaimed index with one atomic add until none are left; the caller
//! returns when all parts have finished and re-raises the first panic, if
//! any. A region with at most one part, a width of 1, or opened from
//! inside a part runs as a plain loop on the calling thread without
//! touching the pool: width 1 is not a second code path, it is the same
//! one with nobody to share with. Which thread runs which part is decided
//! by timing, and nothing observable is: part `i` receives exactly item
//! `i` — a disjoint `&mut` chunk or element — and `collect` writes slot
//! `i` from part `i`. How the work is *partitioned* (pipelines, sort
//! chunks, z-slabs) is fixed by the callers, never by this crate, which
//! is the workspace's determinism contract: fixed partition ⇒ identical
//! bits at any worker count.

mod pool;
mod producers;

pub use pool::current_num_threads;

pub mod prelude {
    //! Mirrors `rayon::prelude`: glob-import to get the `par_*` methods
    //! and the adapter/driver methods of what they return.
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

pub mod slice {
    //! Mirrors `rayon::slice`.
    pub use crate::producers::{Chunks, ChunksMut, Iter, IterMut, ParallelSlice, ParallelSliceMut};
}

pub mod iter {
    //! Mirrors `rayon::iter`.
    pub use crate::producers::{
        Enumerate, FromParallelIterator, IndexedParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, Map, ParallelIterator, Skip, Take, Zip,
    };
}

/// Mirrors `rayon::ThreadPoolBuilder` (`new`, `num_threads`, `build`).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Width of the pool to build; 0 (the default) means the process
    /// default, as upstream.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Never fails here (no thread is started until a region needs one);
    /// the `Result` is upstream's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            width: self.num_threads,
        })
    }
}

/// Mirrors `rayon::ThreadPool` (`install`): a width, applied for the
/// length of a closure to the regions the calling thread opens.
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// Run `op` with [`current_num_threads`] equal to this pool's width.
    /// A thread `op` spawns does not inherit the width.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        pool::with_width(self.width, op)
    }
}

/// Mirrors `rayon::ThreadPoolBuildError`; never constructed by this crate.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the thread pool could not be built")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, pool, ThreadPoolBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn at_width<R: Send>(n: usize, op: impl FnOnce() -> R + Send) -> R {
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
            .install(op)
    }

    const WIDTHS: [usize; 4] = [1, 2, 4, 7];

    /// The callers' chains, against the same chains on `std` iterators.
    #[test]
    fn adapter_chains_equal_the_std_chains() {
        for width in WIDTHS {
            for len in [0usize, 1, 2, 5, 6, 64, 65] {
                for chunk in [1usize, 2, 3, 64, 100] {
                    let src: Vec<u32> = (0..len as u32).map(|x| x * 7 + 1).collect();
                    let other: Vec<u32> = (0..(len + 3) as u32).collect();

                    // par_chunks_mut ⨯ par_chunks, unequal lengths, enumerate.
                    let (mut got, mut want) = (src.clone(), src.clone());
                    at_width(width, || {
                        got.par_chunks_mut(chunk)
                            .zip(other.par_chunks(chunk + 1))
                            .enumerate()
                            .for_each(|(i, (d, s))| {
                                d.iter_mut().for_each(|x| *x += s[0] + i as u32)
                            })
                    });
                    want.chunks_mut(chunk)
                        .zip(other.chunks(chunk + 1))
                        .enumerate()
                        .for_each(|(i, (d, s))| d.iter_mut().for_each(|x| *x += s[0] + i as u32));
                    assert_eq!(got, want, "zip: width {width} len {len} chunk {chunk}");

                    // Three-way zip with enumerate().skip(1).take(n) at and
                    // past the bounds (the field solver's slab walk).
                    for take in [0usize, 1, len / chunk, len] {
                        let mut got = [src.clone(), src.clone(), src.clone()];
                        let mut want = got.clone();
                        let [a, b, c] = &mut got;
                        at_width(width, || {
                            a.par_chunks_mut(chunk)
                                .zip(b.par_chunks_mut(chunk))
                                .zip(c.par_chunks_mut(chunk))
                                .enumerate()
                                .skip(1)
                                .take(take)
                                .for_each(|(k, ((a, b), c))| {
                                    a[0] = k as u32;
                                    b[0] += 1;
                                    c[0] += a.len() as u32;
                                })
                        });
                        let [a, b, c] = &mut want;
                        a.chunks_mut(chunk)
                            .zip(b.chunks_mut(chunk))
                            .zip(c.chunks_mut(chunk))
                            .enumerate()
                            .skip(1)
                            .take(take)
                            .for_each(|(k, ((a, b), c))| {
                                a[0] = k as u32;
                                b[0] += 1;
                                c[0] += a.len() as u32;
                            });
                        assert_eq!(got, want, "skip/take {take}: width {width} len {len}");
                    }

                    // par_chunks_mut ⨯ par_iter_mut → enumerate → map →
                    // collect (the AoS push), and par_iter_mut alone (AoSoA).
                    let (mut got, mut want) = (src.clone(), src.clone());
                    let (mut acc_got, mut acc_want) = (vec![0u64; 4], vec![0u64; 4]);
                    let out_got: Vec<(usize, u32)> = at_width(width, || {
                        got.par_chunks_mut(chunk)
                            .zip(acc_got.par_iter_mut())
                            .enumerate()
                            .map(|(p, (c, acc))| {
                                *acc += c.len() as u64;
                                c[0] ^= 1;
                                (p, c[0])
                            })
                            .collect()
                    });
                    let out_want: Vec<(usize, u32)> = want
                        .chunks_mut(chunk)
                        .zip(acc_want.iter_mut())
                        .enumerate()
                        .map(|(p, (c, acc))| {
                            *acc += c.len() as u64;
                            c[0] ^= 1;
                            (p, c[0])
                        })
                        .collect();
                    assert_eq!((got, acc_got, out_got), (want, acc_want, out_want));
                }

                let src: Vec<u64> = (0..len as u64).collect();
                let doubled: Vec<u64> = at_width(width, || src.par_iter().map(|x| x * 2).collect());
                assert_eq!(doubled, src.iter().map(|x| x * 2).collect::<Vec<_>>());
                let mut bumped = src.clone();
                at_width(width, || {
                    bumped
                        .par_iter_mut()
                        .enumerate()
                        .for_each(|(i, x)| *x += i as u64)
                });
                assert_eq!(bumped, src.iter().map(|x| x * 2).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn collect_moves_owned_items_in_index_order() {
        let src: Vec<u32> = (0..100).collect();
        let got: Vec<String> =
            at_width(4, || src.par_iter().map(|x| format!("item {x}")).collect());
        let want: Vec<String> = src.iter().map(|x| format!("item {x}")).collect();
        assert_eq!(got, want);
    }

    /// Two parts that each wait for the other: passes only if they run on
    /// two threads at once.
    #[test]
    fn a_wide_region_really_runs_on_several_threads() {
        let barrier = Barrier::new(2);
        let mut ids = [None, None];
        at_width(2, || {
            ids.par_iter_mut().for_each(|id| {
                barrier.wait();
                *id = Some(std::thread::current().id());
            })
        });
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn ten_thousand_tiny_regions_back_to_back() {
        let mut v = vec![0u32; 8];
        at_width(2, || {
            for _ in 0..10_000 {
                v.par_iter_mut().for_each(|x| *x += 1);
            }
        });
        assert_eq!(v, [10_000; 8]);
    }

    /// Four outside threads open regions at the same moment, repeatedly,
    /// at different widths.
    #[test]
    fn concurrent_callers_do_not_mix_their_regions() {
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let start = &start;
                s.spawn(move || {
                    at_width(1 + t as usize, || {
                        for round in 0..200u64 {
                            start.wait();
                            let mut v = vec![0u64; 33];
                            v.par_chunks_mut(4).enumerate().for_each(|(i, c)| {
                                c.iter_mut().for_each(|x| *x = t * 1000 + i as u64)
                            });
                            let sums: Vec<u64> = v.par_chunks(4).map(|c| c.iter().sum()).collect();
                            let want: Vec<u64> = (0..9)
                                .map(|i| (t * 1000 + i) * if i == 8 { 1 } else { 4 })
                                .collect();
                            assert_eq!(sums, want, "thread {t} round {round}");
                        }
                    })
                });
            }
        });
    }

    #[test]
    fn a_panic_in_one_part_reaches_the_caller_and_the_pool_survives() {
        for width in [1usize, 2, 4] {
            let ran = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(|| {
                at_width(width, || {
                    [0u32; 16].par_iter().enumerate().for_each(|(i, _)| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        if i == 5 {
                            panic!("part five");
                        }
                    })
                })
            });
            let payload = caught.expect_err("the panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"part five"));
            if width > 1 {
                // Published regions drain before the panic is re-raised.
                assert_eq!(ran.load(Ordering::Relaxed), 16);
            }
            let mut v = vec![1u32; 16];
            at_width(width, || v.par_iter_mut().for_each(|x| *x += 1));
            assert_eq!(v, [2; 16]);
        }
    }

    #[test]
    fn a_nested_region_runs_inline_on_the_thread_of_its_part() {
        let published = at_width(4, || {
            let before = pool::PUBLISHED.get();
            let mut outer = vec![Vec::new(); 6];
            outer.par_iter_mut().for_each(|slot| {
                let here = std::thread::current().id();
                let inner: Vec<bool> = [0u8; 8]
                    .par_iter()
                    .map(|_| std::thread::current().id() == here)
                    .collect();
                *slot = inner;
            });
            assert!(outer.iter().all(|inner| inner == &[true; 8]));
            pool::PUBLISHED.get() - before
        });
        assert_eq!(published, 1, "only the outer region goes to the pool");
    }

    #[test]
    fn width_one_and_single_part_regions_never_touch_the_pool() {
        let before = pool::PUBLISHED.get();
        let me = std::thread::current().id();
        at_width(1, || {
            assert_eq!(current_num_threads(), 1);
            let mut v = [0u8; 64];
            v.par_chunks_mut(4)
                .for_each(|c| assert_eq!((c.len(), std::thread::current().id()), (4, me)));
        });
        at_width(4, || {
            let mut v = [0u8; 64];
            v.par_chunks_mut(64).for_each(|c| c[0] = 1);
            v.par_chunks_mut(64).skip(1).for_each(|c| c[0] = 2);
        });
        assert_eq!(pool::PUBLISHED.get(), before);
    }

    #[test]
    fn install_scopes_nest_and_restore_even_across_a_panic() {
        let outside = current_num_threads();
        at_width(3, || {
            assert_eq!(current_num_threads(), 3);
            at_width(1, || assert_eq!(current_num_threads(), 1));
            assert_eq!(current_num_threads(), 3);
            at_width(0, || assert_eq!(current_num_threads(), outside));
            let _ = std::panic::catch_unwind(|| at_width(5, || panic!("inside")));
            assert_eq!(current_num_threads(), 3);
            // A spawned thread starts from the process default.
            let spawned = std::thread::scope(|s| s.spawn(current_num_threads).join().unwrap());
            assert_eq!(spawned, outside);
        });
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    #[should_panic(expected = "chunk_size must not be zero")]
    fn zero_chunk_size_is_refused() {
        let _ = [1u8, 2].par_chunks(0);
    }
}
