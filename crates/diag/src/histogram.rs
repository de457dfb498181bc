//! Velocity/momentum distribution diagnostics — the instrument behind the
//! paper's particle-trapping claim: trapped electrons show up as a
//! flattened plateau / hot tail near the plasma-wave phase velocity.

use vpic_core::species::Species;

/// A fixed-bin weighted 1D histogram.
#[derive(Clone, Debug)]
pub struct Histogram {
    pub lo: f64,
    pub hi: f64,
    pub counts: Vec<f64>,
    pub underflow: f64,
    pub overflow: f64,
}

impl Histogram {
    /// `bins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            hi,
            counts: vec![0.0; bins],
            underflow: 0.0,
            overflow: 0.0,
        }
    }

    /// Add weight `w` at `x`.
    pub fn add(&mut self, x: f64, w: f64) {
        if x < self.lo {
            self.underflow += w;
        } else if x >= self.hi {
            self.overflow += w;
        } else {
            let n = self.counts.len();
            let bin = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.counts[bin.min(n - 1)] += w;
        }
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Center of bin `i`.
    pub fn center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width()
    }

    /// Total in-range weight.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Weight in `[a, b)` (approximated at bin granularity).
    pub fn weight_in(&self, a: f64, b: f64) -> f64 {
        (0..self.counts.len())
            .filter(|&i| {
                let c = self.center(i);
                c >= a && c < b
            })
            .map(|i| self.counts[i])
            .sum()
    }
}

/// Momentum-component histogram of a species (`axis`: 0 = ux, 1 = uy,
/// 2 = uz), weighted by particle weight.
pub fn momentum_histogram(sp: &Species, axis: usize, lo: f64, hi: f64, bins: usize) -> Histogram {
    let mut h = Histogram::new(lo, hi, bins);
    for p in sp.iter() {
        h.add(p.momentum(axis) as f64, p.w as f64);
    }
    h
}

/// A simple trapping metric: the fraction of species weight with
/// `u_axis > threshold` — the hot tail pulled out of the bulk by a
/// trapping plasma wave. Compare before/after saturation.
pub fn tail_fraction(sp: &Species, axis: usize, threshold: f64) -> f64 {
    let mut tail = 0.0f64;
    let mut total = 0.0f64;
    for p in sp.iter() {
        total += p.w as f64;
        if p.momentum(axis) as f64 > threshold {
            tail += p.w as f64;
        }
    }
    if total > 0.0 {
        tail / total
    } else {
        0.0
    }
}

/// Weighted RMS spread of a momentum component.
pub fn momentum_spread(sp: &Species, axis: usize) -> f64 {
    let mut s = 0.0f64;
    let mut s2 = 0.0f64;
    let mut w = 0.0f64;
    for p in sp.iter() {
        let u = p.momentum(axis) as f64;
        s += p.w as f64 * u;
        s2 += p.w as f64 * u * u;
        w += p.w as f64;
    }
    if w == 0.0 {
        return 0.0;
    }
    let mean = s / w;
    (s2 / w - mean * mean).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpic_core::particle::Particle;

    #[test]
    fn binning_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.0, 1.0);
        h.add(9.999, 2.0);
        h.add(-0.1, 3.0);
        h.add(10.0, 4.0);
        assert_eq!(h.counts[0], 1.0);
        assert_eq!(h.counts[9], 2.0);
        assert_eq!(h.underflow, 3.0);
        assert_eq!(h.overflow, 4.0);
        assert_eq!(h.total(), 3.0);
        assert!((h.center(0) - 0.5).abs() < 1e-12);
        assert!((h.width() - 1.0).abs() < 1e-12);
    }

    fn beam(u: f32, n: usize) -> Species {
        let mut sp = Species::new("e", -1.0, 1.0);
        for _ in 0..n {
            sp.push(Particle {
                ux: u,
                w: 2.0,
                ..Default::default()
            });
        }
        sp
    }

    #[test]
    fn momentum_histogram_peaks_at_beam() {
        let sp = beam(0.5, 100);
        let h = momentum_histogram(&sp, 0, -1.0, 1.0, 20);
        let peak = h
            .counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((h.center(peak) - 0.5).abs() < 0.1);
        assert_eq!(h.total(), 200.0);
    }

    #[test]
    fn tail_fraction_and_spread() {
        let mut sp = beam(0.0, 90);
        for _ in 0..10 {
            sp.push(Particle {
                ux: 1.0,
                w: 2.0,
                ..Default::default()
            });
        }
        assert!((tail_fraction(&sp, 0, 0.5) - 0.1).abs() < 1e-12);
        let spread = momentum_spread(&sp, 0);
        // Mean 0.1, var = 0.1·(1−0.1)·1² = 0.09.
        assert!((spread - 0.3).abs() < 1e-9, "spread {spread}");
    }
}
