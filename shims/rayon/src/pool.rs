//! The executor: one process-global, persistent set of worker threads and
//! the protocol by which a *region* (the parts `0..n` of one `for_each` or
//! `collect`) is shared between its calling thread and those workers.
//!
//! A region is published as a [`Job`]; every participating thread claims
//! the next unclaimed part index with one `fetch_add` until none are left.
//! Which thread runs which part is therefore timing-dependent, and results
//! cannot depend on it: a part only ever touches the item at its own index
//! (see `producers.rs`), and `collect` writes slot `i` from part `i`.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long an idle worker — or a caller whose own parts ran out first —
/// polls before it parks. Long enough that the back-to-back regions of one
/// sub-millisecond PIC step find the workers awake (no futex wake per
/// region), short enough that a thread with nothing to do gives its core
/// back to whoever else wants it (other ranks, libtest threads) almost at
/// once.
const SPIN: Duration = Duration::from_micros(50);

thread_local! {
    /// Width set for this thread by an enclosing `ThreadPool::install`
    /// (0: none, the process default applies).
    static WIDTH: Cell<usize> = const { Cell::new(0) };
    /// True while this thread is running a part of some region; a region
    /// opened from inside a part runs inline.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

#[cfg(test)]
thread_local! {
    /// Regions this thread has published to the pool (not run inline).
    pub(crate) static PUBLISHED: Cell<usize> = const { Cell::new(0) };
}

/// The process default width: `RAYON_NUM_THREADS` if it is a positive
/// integer, else the hardware parallelism, else 1. Read once.
fn default_width() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Number of threads a region opened by the current thread may run on:
/// the width of the innermost enclosing [`crate::ThreadPool::install`],
/// else the process default (`RAYON_NUM_THREADS`, else the hardware
/// parallelism).
pub fn current_num_threads() -> usize {
    match WIDTH.get() {
        0 => default_width(),
        n => n,
    }
}

/// Run `op` with this thread's width set to `width` (0: the default).
pub(crate) fn with_width<R>(width: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.set(self.0);
        }
    }
    let _restore = Restore(WIDTH.replace(width));
    op()
}

/// One published region.
struct Job {
    /// The region body with its lifetime erased. Dereferenced only for a
    /// claimed index below `n_parts`; [`run`] does not return before every
    /// such call has finished, so the borrow is live whenever it is used.
    body: *const (dyn Fn(usize) + Sync),
    n_parts: usize,
    /// Next unclaimed part index (may run past `n_parts`).
    next: AtomicUsize,
    /// Parts finished. The `Release` increment after each part pairs with
    /// the caller's `Acquire` load in [`Job::wait`], which is what makes
    /// everything the parts wrote visible to the caller.
    done: AtomicUsize,
    /// First panic payload caught in a part.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    caller: Thread,
}

// SAFETY: `body` points at a `Sync` closure, so calling it from several
// threads at once is allowed, and it is only dereferenced while the
// caller's borrow is live (see the field). Every other field is `Send +
// Sync` by itself.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run parts until none are left.
    fn work(&self, is_caller: bool) {
        IN_REGION.set(true);
        loop {
            // Relaxed: the index publishes nothing; the job itself reached
            // this thread through the pool mutex.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_parts {
                break;
            }
            // SAFETY: `i < n_parts` was claimed exactly once (fetch_add),
            // and `run` is still waiting for it, so the closure is alive.
            let body = unsafe { &*self.body };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(i))) {
                self.panic
                    .lock()
                    .expect("no code that can panic runs under this lock")
                    .get_or_insert(payload);
            }
            let finished = self.done.fetch_add(1, Ordering::Release) + 1;
            if finished == self.n_parts && !is_caller {
                self.caller.unpark();
            }
        }
        IN_REGION.set(false);
    }

    /// Block the caller until every part has finished.
    fn wait(&self) {
        let finished = || self.done.load(Ordering::Acquire) == self.n_parts;
        if spin_until(finished) {
            return;
        }
        // The helper that finishes the last part unparks us after its
        // increment, so a wake between the check and `park` is not lost.
        while !finished() {
            thread::park();
        }
    }
}

/// Poll `cond` for up to [`SPIN`]; true if it came true.
fn spin_until(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + SPIN;
    loop {
        for _ in 0..64 {
            if cond() {
                return true;
            }
            std::hint::spin_loop();
        }
        if Instant::now() >= deadline {
            return cond();
        }
    }
}

/// A region on the pool's list.
struct Listed {
    job: Arc<Job>,
    /// Helper seats left: the region's width, less the caller and the
    /// workers that have joined.
    seats: usize,
}

struct State {
    /// Regions that may still have unclaimed parts.
    jobs: Vec<Listed>,
    /// Workers blocked on `Pool::wake`.
    sleepers: usize,
    /// Workers spawned so far; grows to the widest region seen, less one.
    workers: usize,
}

struct Pool {
    state: Mutex<State>,
    wake: Condvar,
    /// Bumped on every publish, under `state`; idle workers poll it
    /// without the lock while they spin.
    epoch: AtomicU64,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        jobs: Vec::new(),
        sleepers: 0,
        workers: 0,
    }),
    wake: Condvar::new(),
    epoch: AtomicU64::new(0),
};

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no code that can panic runs under the pool lock")
    }

    /// List `job`, start any workers its width still lacks, and wake as
    /// many sleepers as it has seats.
    fn publish(&'static self, job: &Arc<Job>, helpers: usize) {
        let wake = {
            let mut st = self.lock();
            while st.workers < helpers {
                let name = format!("rayon-shim-{}", st.workers);
                // Workers live as long as the process and are never
                // joined: between regions they hold nothing of a caller's.
                // If the OS refuses a thread the region still completes,
                // on the threads there are.
                if thread::Builder::new()
                    .name(name)
                    .spawn(move || self.worker_main())
                    .is_err()
                {
                    break;
                }
                st.workers += 1;
            }
            st.jobs.push(Listed {
                job: Arc::clone(job),
                seats: helpers,
            });
            // Release pairs with the spinning workers' Acquire load.
            self.epoch.fetch_add(1, Ordering::Release);
            st.sleepers.min(helpers)
        };
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    /// Unlist `job` once all its parts are claimed.
    fn retire(&self, job: &Arc<Job>) {
        let mut st = self.lock();
        if let Some(at) = st.jobs.iter().position(|l| Arc::ptr_eq(&l.job, job)) {
            st.jobs.swap_remove(at);
        }
    }

    fn worker_main(&self) {
        loop {
            let (job, seen) = {
                let mut st = self.lock();
                let job = st
                    .jobs
                    .iter_mut()
                    .find(|l| l.seats > 0 && l.job.next.load(Ordering::Relaxed) < l.job.n_parts)
                    .map(|l| {
                        l.seats -= 1;
                        Arc::clone(&l.job)
                    });
                (job, self.epoch.load(Ordering::Relaxed))
            };
            if let Some(job) = job {
                job.work(false);
                continue;
            }
            if spin_until(|| self.epoch.load(Ordering::Acquire) != seen) {
                continue;
            }
            // `epoch` only changes under the lock, so checking it under
            // the lock before each wait cannot miss a publish.
            let mut st = self.lock();
            st.sleepers += 1;
            while self.epoch.load(Ordering::Relaxed) == seen {
                st = self
                    .wake
                    .wait(st)
                    .expect("no code that can panic runs under the pool lock");
            }
            st.sleepers -= 1;
        }
    }
}

/// Run `body(i)` exactly once for every `i` in `0..n_parts` and return
/// when all have finished. With a width of 1, at most one part, or from
/// inside another region, that is a plain loop on the calling thread;
/// otherwise the caller and up to `width − 1` workers share the parts. A
/// panic in any part is re-raised here after the region has drained.
pub(crate) fn run(n_parts: usize, body: &(dyn Fn(usize) + Sync)) {
    let width = current_num_threads().min(n_parts);
    if width <= 1 || IN_REGION.get() {
        (0..n_parts).for_each(body);
        return;
    }
    #[cfg(test)]
    PUBLISHED.set(PUBLISHED.get() + 1);
    let job = Arc::new(Job {
        // SAFETY (lifetime erasure): same fat pointer, `'static` in name
        // only; see the field's comment for why no use outlives `body`.
        body: unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(body)
        },
        n_parts,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: thread::current(),
    });
    POOL.publish(&job, width - 1);
    job.work(true);
    POOL.retire(&job);
    job.wait();
    let payload = job
        .panic
        .lock()
        .expect("no code that can panic runs under this lock")
        .take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}
