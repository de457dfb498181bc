//! Worker-thread introspection and scoping.
//!
//! Every phase of the step loop fans work out over Rayon's pool. This
//! module is the one place the rest of the workspace asks "how many
//! threads run my regions" and "run this with that many", so the sort's
//! partitioning, the run banners and the bench records all name the pool
//! that actually executed the run.

/// Number of threads the parallel phases opened by the current thread run
/// on: the width of the innermost enclosing [`with_worker_threads`] scope
/// (thread-per-rank runners give each rank its share this way), else the
/// pool's default — `RAYON_NUM_THREADS` if set to a positive integer, else
/// the hardware parallelism.
pub fn worker_threads() -> usize {
    rayon::current_num_threads()
}

/// Run `f` with [`worker_threads`] equal to `threads` (at least 1) for the
/// parallel phases `f` opens on the calling thread. Fixed pipelines give
/// identical bits at any width, so this only ever changes speed.
pub fn with_worker_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("building a pool fails only if the OS refuses its threads")
        .install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_set_and_restore_the_reported_width() {
        let outside = worker_threads();
        assert!(outside >= 1);
        with_worker_threads(3, || {
            assert_eq!(worker_threads(), 3);
            with_worker_threads(0, || assert_eq!(worker_threads(), 1));
            assert_eq!(worker_threads(), 3);
        });
        assert_eq!(worker_threads(), outside);
    }
}
