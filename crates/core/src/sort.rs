//! Voxel-order particle sorting.
//!
//! VPIC counting-sorts each species by voxel index every few dozen steps so
//! the gather of interpolator data and the scatter into accumulators walk
//! memory almost sequentially — the paper credits this for keeping the
//! Cell SPE pipelines fed. The sort is O(N) and stable.
//!
//! The sort runs in three phases, the histogram and scatter fanned out over
//! Rayon workers (VPIC's `sortp`): each worker histograms one contiguous
//! chunk of the particle list into a private per-voxel count array, a
//! serial prefix-sum over `(voxel, worker)` pairs turns the counts into
//! write offsets, and each worker scatters its chunk into its reserved
//! output slots. Same-voxel particles land in `(worker, within-chunk)`
//! order, i.e. original order — the output permutation is exactly the
//! stable serial counting sort, bitwise independent of the worker count.

use crate::particle::Particle;
use crate::threads::worker_threads;
use rayon::prelude::*;

/// Minimum particles per sort worker; below this the fan-out overhead
/// outweighs the work and fewer (or one) workers are used. Shared with the
/// AoSoA sort so both layouts pick identical worker counts.
pub(crate) const MIN_SORT_CHUNK: usize = 16 * 1024;

/// Raw output cursor for the scatter phase: the scratch buffer, shared by
/// all sort workers, each of which writes only the slots the prefix-sum
/// reserved for it.
#[derive(Clone, Copy)]
struct ScatterPtr {
    base: *mut Particle,
    len: usize,
}
// SAFETY: the pointer is only written through [`ScatterPtr::write`], whose
// contract gives every slot to exactly one worker, and the buffer (a
// `&mut Vec` held by the sort for the whole scatter region, which the
// region's caller does not leave before every worker has finished)
// outlives all of them. `Particle` is plain `Copy` data, so a write on
// another thread drops nothing.
unsafe impl Send for ScatterPtr {}
unsafe impl Sync for ScatterPtr {}

impl ScatterPtr {
    /// # Safety
    /// `slot < len`, and no other thread reads or writes `slot` during the
    /// scatter region.
    #[inline]
    unsafe fn write(self, slot: usize, p: Particle) {
        debug_assert!(slot < self.len, "scatter slot {slot} of {}", self.len);
        unsafe { self.base.add(slot).write(p) };
    }
}

/// End of the slot range the exclusive prefix-sum reserved for the pair
/// `(worker w, voxel v)`: the start of the next pair in `(voxel, worker)`
/// order, `n` after the last. `starts` is a copy of the prefix-sum table
/// taken before the scatter advances it. Debug builds of both sorts check
/// every scatter write against this, which is what pins "no two workers
/// share a slot" when the workers really run at once.
pub(crate) fn reserved_end(
    starts: &[u32],
    n_voxels: usize,
    workers: usize,
    n: usize,
    w: usize,
    v: usize,
) -> usize {
    if w + 1 < workers {
        starts[(w + 1) * n_voxels + v] as usize
    } else if v + 1 < n_voxels {
        starts[v + 1] as usize
    } else {
        n
    }
}

/// Stable counting sort of `particles` by voxel index. `n_voxels` is the
/// array size of the grid (ghosts included); `scratch` is reused capacity.
/// Allocates a fresh histogram buffer; hot callers should hold one and use
/// [`sort_by_voxel_with`].
pub fn sort_by_voxel(particles: &mut Vec<Particle>, n_voxels: usize, scratch: &mut Vec<Particle>) {
    let mut counts = Vec::new();
    sort_by_voxel_with(particles, n_voxels, scratch, &mut counts);
}

/// [`sort_by_voxel`] with a caller-held histogram buffer, so steady-state
/// sorting allocates nothing (both `scratch` and `counts` retain their
/// capacity between calls).
pub fn sort_by_voxel_with(
    particles: &mut Vec<Particle>,
    n_voxels: usize,
    scratch: &mut Vec<Particle>,
    counts: &mut Vec<u32>,
) {
    let n = particles.len();
    let workers = worker_threads().min(n.div_ceil(MIN_SORT_CHUNK)).max(1);
    sort_with_workers(particles, n_voxels, scratch, counts, workers);
}

/// Worker-count-explicit body of the sort (tests call this directly to
/// exercise the multi-chunk path regardless of the host's thread count).
pub(crate) fn sort_with_workers(
    particles: &mut Vec<Particle>,
    n_voxels: usize,
    scratch: &mut Vec<Particle>,
    counts: &mut Vec<u32>,
    workers: usize,
) {
    let n = particles.len();
    if n <= 1 {
        return;
    }
    let workers = workers.clamp(1, n);
    let chunk = n.div_ceil(workers);

    // Phase 1: per-worker histograms (worker w owns counts[w*n_voxels..]).
    counts.clear();
    counts.resize(workers * n_voxels, 0);
    counts
        .par_chunks_mut(n_voxels)
        .zip(particles.par_chunks(chunk))
        .for_each(|(hist, ps)| {
            for p in ps {
                hist[p.i as usize] += 1;
            }
        });

    // Phase 2: exclusive prefix-sum in (voxel, worker) order — worker w's
    // slots for voxel v start after every lower voxel and after workers
    // < w for the same voxel (this is what makes the sort stable).
    let mut running = 0u32;
    for v in 0..n_voxels {
        for w in 0..workers {
            let c = &mut counts[w * n_voxels + v];
            let t = *c;
            *c = running;
            running += t;
        }
    }

    // Phase 3: scatter. Worker w writes exactly the slots the prefix-sum
    // reserved for its (w, v) pairs — together all of `[0, n)`, so
    // whatever an earlier sort left in `scratch` is overwritten and only
    // a grown tail needs initializing.
    scratch.resize(n, Particle::default());
    let out = ScatterPtr {
        base: scratch.as_mut_ptr(),
        len: n,
    };
    let starts = if cfg!(debug_assertions) {
        counts.clone()
    } else {
        Vec::new()
    };
    let starts = &starts[..];
    counts
        .par_chunks_mut(n_voxels)
        .zip(particles.par_chunks(chunk))
        .enumerate()
        .for_each(move |(w, (offsets, ps))| {
            for p in ps {
                let v = p.i as usize;
                let slot = &mut offsets[v];
                debug_assert!(
                    (*slot as usize) < reserved_end(starts, n_voxels, workers, n, w, v),
                    "worker {w} overran its slots for voxel {v}"
                );
                // SAFETY: `*slot` walks the half-open range reserved for
                // this (worker, voxel) pair by the exclusive prefix-sum.
                // Those ranges partition [0, n): worker `w` advances only
                // its own row of `counts` and advances it once per
                // particle of its own chunk — as often as its histogram
                // counted — so it stays inside its ranges, no other
                // worker's range overlaps them, and every index is in
                // bounds of `scratch`. `particles` is only read.
                unsafe { out.write(*slot as usize, *p) };
                *slot += 1;
            }
        });
    std::mem::swap(particles, scratch);
}

/// Fraction of particles whose successor lives in the same or the next
/// voxel — a locality metric used by the sorting ablation (E8).
pub fn locality_fraction(particles: &[Particle]) -> f64 {
    if particles.len() < 2 {
        return 1.0;
    }
    let near = particles
        .windows(2)
        .filter(|w| {
            let (a, b) = (w[0].i as i64, w[1].i as i64);
            (b - a).abs() <= 1
        })
        .count();
    near as f64 / (particles.len() - 1) as f64
}

/// Plain textbook stable counting sort, used as the reference
/// permutation for the parallel AoS and AoSoA sorts.
#[cfg(test)]
pub(crate) fn reference_sort(particles: &[Particle], n_voxels: usize) -> Vec<Particle> {
    let mut counts = vec![0u32; n_voxels + 1];
    for p in particles {
        counts[p.i as usize + 1] += 1;
    }
    for v in 0..n_voxels {
        counts[v + 1] += counts[v];
    }
    let mut out = vec![Particle::default(); particles.len()];
    for p in particles {
        let slot = &mut counts[p.i as usize];
        out[*slot as usize] = *p;
        *slot += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn sorts_by_voxel_and_is_stable() {
        let mut rng = Rng::seeded(3);
        let mut parts: Vec<Particle> = (0..1000)
            .map(|n| Particle {
                i: rng.index(50) as u32,
                w: n as f32,
                ..Default::default()
            })
            .collect();
        let reference = parts.clone();
        let mut scratch = Vec::new();
        sort_by_voxel(&mut parts, 50, &mut scratch);
        assert!(parts.windows(2).all(|w| w[0].i <= w[1].i));
        // Stability: same-voxel particles keep their original (w) order.
        for w in parts.windows(2) {
            if w[0].i == w[1].i {
                assert!(w[0].w < w[1].w);
            }
        }
        // Same multiset.
        let mut a: Vec<u32> = reference.iter().map(|p| p.w as u32).collect();
        let mut b: Vec<u32> = parts.iter().map(|p| p.w as u32).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single_are_noops() {
        let mut scratch = Vec::new();
        let mut none: Vec<Particle> = vec![];
        sort_by_voxel(&mut none, 10, &mut scratch);
        assert!(none.is_empty());
        let mut one = vec![Particle {
            i: 7,
            ..Default::default()
        }];
        sort_by_voxel(&mut one, 10, &mut scratch);
        assert_eq!(one[0].i, 7);
    }

    #[test]
    fn any_worker_count_matches_reference_permutation() {
        let mut rng = Rng::seeded(21);
        let nv = 300;
        let parts: Vec<Particle> = (0..10_000)
            .map(|n| Particle {
                i: rng.index(nv) as u32,
                w: n as f32, // unique tag → permutation comparable exactly
                ux: rng.normal() as f32,
                ..Default::default()
            })
            .collect();
        let want = reference_sort(&parts, nv);
        // Sort workers (the partition) × real threads (who runs the parts).
        for threads in [1usize, 2, 4] {
            for workers in [1usize, 2, 3, 5, 8, 16] {
                let mut got = parts.clone();
                let (mut scratch, mut counts) = (Vec::new(), Vec::new());
                crate::threads::with_worker_threads(threads, || {
                    sort_with_workers(&mut got, nv, &mut scratch, &mut counts, workers)
                });
                assert_eq!(got, want, "workers = {workers}, threads = {threads}");
            }
        }
    }

    #[test]
    fn stale_scratch_never_leaks_into_a_shorter_or_longer_sort() {
        // The scratch keeps the previous sort's input; a shrinking and
        // then a growing population must each land on the reference
        // permutation of their own particles only.
        let mut rng = Rng::seeded(33);
        let nv = 40;
        let (mut scratch, mut counts) = (Vec::new(), Vec::new());
        for (round, n) in [3000usize, 17, 3011].into_iter().enumerate() {
            let parts: Vec<Particle> = (0..n)
                .map(|k| Particle {
                    i: rng.index(nv) as u32,
                    w: (10_000 * round + k) as f32, // unique across rounds
                    ..Default::default()
                })
                .collect();
            let mut got = parts.clone();
            sort_with_workers(&mut got, nv, &mut scratch, &mut counts, 3);
            assert_eq!(got, reference_sort(&parts, nv), "round {round}");
        }
    }

    #[test]
    fn persistent_buffers_are_reused() {
        let mut rng = Rng::seeded(5);
        let mk = |rng: &mut Rng| -> Vec<Particle> {
            (0..2000)
                .map(|_| Particle {
                    i: rng.index(64) as u32,
                    ..Default::default()
                })
                .collect()
        };
        let (mut scratch, mut counts) = (Vec::new(), Vec::new());
        let mut a = mk(&mut rng);
        sort_by_voxel_with(&mut a, 64, &mut scratch, &mut counts);
        let (sc, cc) = (scratch.capacity(), counts.capacity());
        assert!(sc >= 2000 && cc >= 64);
        let mut b = mk(&mut rng);
        sort_by_voxel_with(&mut b, 64, &mut scratch, &mut counts);
        // Same-size follow-up sorts must not grow either buffer.
        assert_eq!(scratch.capacity(), sc);
        assert_eq!(counts.capacity(), cc);
        assert!(b.windows(2).all(|w| w[0].i <= w[1].i));
    }

    #[test]
    fn locality_improves_after_sort() {
        let mut rng = Rng::seeded(11);
        let mut parts: Vec<Particle> = (0..5000)
            .map(|_| Particle {
                i: rng.index(1000) as u32,
                ..Default::default()
            })
            .collect();
        let before = locality_fraction(&parts);
        let mut scratch = Vec::new();
        sort_by_voxel(&mut parts, 1000, &mut scratch);
        let after = locality_fraction(&parts);
        assert!(after > 0.9, "after = {after}");
        assert!(after > before);
    }
}
