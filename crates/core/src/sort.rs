//! Voxel-order particle sorting: the serial reference permutation the
//! production sort ([`crate::aosoa::sort_aosoa_with`]) is tested against,
//! and the locality metric of the sorting ablation (E8).
//!
//! VPIC counting-sorts each species by voxel index every few dozen steps so
//! the gather of interpolator data and the scatter into accumulators walk
//! memory almost sequentially — the paper credits this for keeping the
//! Cell SPE pipelines fed. The sort is O(N) and stable. The production
//! sort fans its histogram and its in-place pass out over workers and
//! must land on exactly the permutation of [`reference_sort`], the
//! textbook serial counting sort over a plain particle vector, at any
//! worker count.

use crate::particle::Particle;

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

/// Plain textbook stable counting sort of `particles` by voxel index, the
/// one reference permutation of the voxel sort. `n_voxels` is the array
/// size of the grid (ghosts included).
pub fn reference_sort(particles: &[Particle], n_voxels: usize) -> Vec<Particle> {
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
        let parts: Vec<Particle> = (0..1000)
            .map(|n| Particle {
                i: rng.index(50) as u32,
                w: n as f32,
                ..Default::default()
            })
            .collect();
        let sorted = reference_sort(&parts, 50);
        assert!(sorted.windows(2).all(|w| w[0].i <= w[1].i));
        // Stability: same-voxel particles keep their original (w) order.
        for w in sorted.windows(2) {
            if w[0].i == w[1].i {
                assert!(w[0].w < w[1].w);
            }
        }
        // Same multiset.
        let mut a: Vec<u32> = parts.iter().map(|p| p.w as u32).collect();
        let mut b: Vec<u32> = sorted.iter().map(|p| p.w as u32).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
