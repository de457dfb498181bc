//! Particle loading: spatial profiles and (drifting) Maxwellian momenta.
//!
//! Loads fixed-weight macroparticles: the expected particle count per cell
//! is proportional to the local density, so weights stay uniform (VPIC's
//! convention, which keeps the push free of per-particle weight surprises
//! and makes trapping diagnostics unbiased).

use crate::aosoa::{LaneSink, LANES};
use crate::grid::Grid;
use crate::particle::Particle;
use crate::rng::{box_muller, Rng};
use crate::species::Species;
use std::cell::Cell;
use std::ops::Range;

/// Thermal spread and drift for a loader, in normalized momentum `p/(mc)`.
///
/// For a non-relativistic temperature `T`, `uth = sqrt(kT/(m c²))`.
#[derive(Clone, Copy, Debug)]
pub struct Momentum {
    /// Per-axis thermal momentum spread.
    pub uth: [f32; 3],
    /// Drift momentum added to every particle.
    pub drift: [f32; 3],
}

impl Momentum {
    /// Isotropic thermal spread, no drift.
    pub fn thermal(uth: f32) -> Self {
        Momentum {
            uth: [uth; 3],
            drift: [0.0; 3],
        }
    }

    /// Isotropic thermal spread with an x-drift.
    pub fn drifting_x(uth: f32, ud: f32) -> Self {
        Momentum {
            uth: [uth; 3],
            drift: [ud, 0.0, 0.0],
        }
    }
}

/// Load a uniform density `n0` with `ppc` macroparticles per cell.
/// Every macroparticle gets weight `n0·dV/ppc`.
pub fn load_uniform(sp: &mut Species, g: &Grid, rng: &mut Rng, n0: f32, ppc: usize, mom: Momentum) {
    load_profile(sp, g, rng, ppc, mom, n0, |_, _, _| 1.0);
}

/// Load macroparticles with density `n_ref·profile(x,y,z)` (profile in
/// `[0,1]`), using `ppc` particles per cell where `profile = 1`. Weights
/// are uniform (`n_ref·dV/ppc`); cell counts follow the profile with
/// stochastic rounding so the expected charge matches exactly.
///
/// Two phases per chunk of [`LOAD_CHUNK`] particles. The *draw* consumes
/// `rng` serially, in exactly [`load_profile_serial`]'s order: each cell's
/// rounding uniform, then per particle its three position uniforms and
/// the Box–Muller uniform pairs its three normals need (a normal left
/// over from a pair, or cached in `rng` on entry, is used first). The
/// *transform* — `-1 + 2u` offsets, `√(−2 ln u1)·(cos, sin)(2π u2)` once
/// per pair, and the AoSoA stores — runs over the pool through the block
/// writer `AosoaStore::extend_par`, whose first part draws the next chunk
/// meanwhile. Every particle is a pure function of its own draws, so the
/// store's bytes (padding lanes included) and `rng`'s end state (its
/// cached normal included) equal the serial loader's at any worker count.
pub fn load_profile(
    sp: &mut Species,
    g: &Grid,
    rng: &mut Rng,
    ppc: usize,
    mom: Momentum,
    n_ref: f32,
    profile: impl Fn(f32, f32, f32) -> f32 + Sync,
) {
    assert!(ppc > 0);
    let w = n_ref * g.dv() / ppc as f32;
    let store = sp.store_mut();
    // The first chunk also tops up a partial tail block, so every later
    // chunk starts on a block boundary.
    let top = (LANES - store.len() % LANES) % LANES;
    let spare = rng.take_spare_normal();
    let mut draw = Draw {
        g,
        rng,
        profile: &profile,
        ppc,
        cell: 0,
        voxel: 0,
        left: 0,
        spare,
    };
    let [mut cur, mut next] = DRAWS.take().unwrap_or_default();
    draw.chunk(&mut cur, top + LOAD_CHUNK);
    while !cur.voxel.is_empty() {
        let more = !draw.exhausted();
        store.extend_par(
            cur.voxel.len(),
            |range, sink| cur.emit(range, sink, &mom, w),
            || {
                if more {
                    draw.chunk(&mut next, LOAD_CHUNK)
                } else {
                    next.voxel.clear()
                }
            },
        );
        std::mem::swap(&mut cur, &mut next);
    }
    draw.rng.set_spare_normal(draw.spare);
    DRAWS.set(Some([cur, next]));
}

/// Particles per chunk of [`load_profile`]'s draw. At 52 B of draws a
/// particle a chunk is ≈ 0.1 MB and two are live at once, so the chunk
/// the pool transforms was drawn into cache, and what a thread keeps in
/// [`DRAWS`] stays small (a 2.1 M-particle load is 1 024 regions).
pub const LOAD_CHUNK: usize = 1 << 11;

thread_local! {
    /// The two chunk buffers of this thread's last load, kept for its
    /// next one (≤ 0.22 MB a thread): fresh pages cost a fault each, and a
    /// load of 12 K particles took 118 of them, ≈ 13 % of its time at one
    /// thread.
    static DRAWS: Cell<Option<[Draws; 2]>> = const { Cell::new(None) };
}

/// One chunk of the loader's random stream, as drawn.
#[derive(Default)]
struct Draws {
    /// A normal cached before the chunk's first pair (`Rng`'s spare, or
    /// the second half of the previous chunk's last pair): normal 0.
    lead: Option<f64>,
    /// Per particle: its voxel and its three position uniforms.
    voxel: Vec<u32>,
    pos: Vec<[f64; 3]>,
    /// Box–Muller uniform pairs in draw order: pair `p` gives the
    /// `2p`-th and `2p + 1`-th normal after `lead`, and particle `q` takes
    /// the chunk's normals `3q..3q + 3`.
    pairs: Vec<[f64; 2]>,
}

impl Draws {
    /// Transform and store particles `range` of the chunk.
    fn emit(&self, range: Range<usize>, sink: &mut LaneSink<'_>, mom: &Momentum, w: f32) {
        let mut normals = Normals {
            d: self,
            m: 3 * range.start,
            pair: usize::MAX,
            zs: (0.0, 0.0),
        };
        // `Rng::uniform_in(-1.0, 1.0)`'s expression.
        let offset = |u: f64| (-1.0 + 2.0 * u) as f32;
        for q in range {
            let [x, y, z] = self.pos[q];
            let ux = mom.drift[0] + mom.uth[0] * normals.next() as f32;
            let uy = mom.drift[1] + mom.uth[1] * normals.next() as f32;
            let uz = mom.drift[2] + mom.uth[2] * normals.next() as f32;
            sink.put(Particle {
                dx: offset(x),
                dy: offset(y),
                dz: offset(z),
                i: self.voxel[q],
                ux,
                uy,
                uz,
                w,
            });
        }
    }
}

/// A chunk's normals from normal `m` on; each pair is transformed once
/// per walk (a walk that starts on a pair's second half redoes it).
struct Normals<'a> {
    d: &'a Draws,
    m: usize,
    /// The pair whose two normals `zs` holds.
    pair: usize,
    zs: (f64, f64),
}

impl Normals<'_> {
    #[inline]
    fn next(&mut self) -> f64 {
        let m = self.m;
        self.m += 1;
        let j = match self.d.lead {
            Some(z) if m == 0 => return z,
            Some(_) => m - 1,
            None => m,
        };
        if j / 2 != self.pair {
            self.pair = j / 2;
            self.zs = box_muller(self.d.pairs[self.pair]);
        }
        if j % 2 == 0 {
            self.zs.0
        } else {
            self.zs.1
        }
    }
}

/// The serial draw: a cursor over the grid's cells and the `Rng`.
struct Draw<'a, F> {
    g: &'a Grid,
    rng: &'a mut Rng,
    profile: &'a F,
    ppc: usize,
    /// Next cell to enter, counting x fastest (`load_profile_serial`'s
    /// loop order).
    cell: usize,
    /// The current cell's voxel and the particles it still has to draw.
    voxel: u32,
    left: usize,
    /// A normal drawn but not yet used.
    spare: Option<f64>,
}

impl<F: Fn(f32, f32, f32) -> f32> Draw<'_, F> {
    fn exhausted(&self) -> bool {
        self.left == 0 && self.cell == self.g.nx * self.g.ny * self.g.nz
    }

    /// Draw the next `target` particles (fewer at the end of the grid)
    /// into `d`, consuming the `Rng` exactly as [`load_profile_serial`].
    fn chunk(&mut self, d: &mut Draws, target: usize) {
        d.voxel.clear();
        d.pos.clear();
        d.pairs.clear();
        d.voxel.reserve(target);
        d.pos.reserve(target);
        d.pairs.reserve(3 * target / 2 + 1);
        d.lead = self.spare.take();
        let mut cached = d.lead.is_some();
        let (nx, ny, n_cells) = (self.g.nx, self.g.ny, self.g.nx * self.g.ny * self.g.nz);
        while d.voxel.len() < target {
            if self.left == 0 {
                if self.cell == n_cells {
                    break;
                }
                let c = self.cell;
                self.cell += 1;
                let (i, j, k) = (c % nx + 1, c / nx % ny + 1, c / (nx * ny) + 1);
                // Profile sampled at the cell center.
                let xc = self.g.particle_x(i, 0.0);
                let yc = self.g.particle_y(j, 0.0);
                let zc = self.g.particle_z(k, 0.0);
                let p = (self.profile)(xc, yc, zc).clamp(0.0, 1.0);
                let expect = self.ppc as f64 * p as f64;
                let mut count = expect.floor() as usize;
                if self.rng.uniform() < expect - count as f64 {
                    count += 1;
                }
                self.voxel = self.g.voxel(i, j, k) as u32;
                self.left = count;
                continue;
            }
            self.left -= 1;
            d.voxel.push(self.voxel);
            let x = self.rng.uniform();
            let y = self.rng.uniform();
            let z = self.rng.uniform();
            d.pos.push([x, y, z]);
            for _ in 0..3 {
                if cached {
                    cached = false;
                } else {
                    d.pairs.push(self.rng.normal_pair_uniforms());
                    cached = true;
                }
            }
        }
        self.spare = match (cached, d.pairs.last()) {
            (false, _) => None,
            (true, Some(&u)) => Some(box_muller(u).1),
            // No normal was used: the lead is still the cached one.
            (true, None) => d.lead,
        };
    }
}

/// Serial reference for [`load_profile`]: one particle at a time through
/// [`Species::push`], each normal from [`Rng::normal`].
pub fn load_profile_serial(
    sp: &mut Species,
    g: &Grid,
    rng: &mut Rng,
    ppc: usize,
    mom: Momentum,
    n_ref: f32,
    profile: impl Fn(f32, f32, f32) -> f32,
) {
    assert!(ppc > 0);
    let w = n_ref * g.dv() / ppc as f32;
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                // Profile sampled at the cell center.
                let xc = g.particle_x(i, 0.0);
                let yc = g.particle_y(j, 0.0);
                let zc = g.particle_z(k, 0.0);
                let p = profile(xc, yc, zc).clamp(0.0, 1.0);
                let expect = ppc as f64 * p as f64;
                let mut count = expect.floor() as usize;
                if rng.uniform() < expect - count as f64 {
                    count += 1;
                }
                let v = g.voxel(i, j, k) as u32;
                for _ in 0..count {
                    sp.push(Particle {
                        dx: rng.uniform_in(-1.0, 1.0) as f32,
                        dy: rng.uniform_in(-1.0, 1.0) as f32,
                        dz: rng.uniform_in(-1.0, 1.0) as f32,
                        i: v,
                        ux: mom.drift[0] + mom.uth[0] * rng.normal() as f32,
                        uy: mom.drift[1] + mom.uth[1] * rng.normal() as f32,
                        uz: mom.drift[2] + mom.uth[2] * rng.normal() as f32,
                        w,
                    });
                }
            }
        }
    }
}

/// Load two counter-streaming beams along x (the classic two-stream
/// instability setup): each beam has density `n0/2`, drift `±ud` and
/// thermal spread `uth`.
pub fn load_two_stream(
    sp: &mut Species,
    g: &Grid,
    rng: &mut Rng,
    n0: f32,
    ppc: usize,
    ud: f32,
    uth: f32,
) {
    assert!(ppc.is_multiple_of(2), "two-stream loader wants an even ppc");
    load_uniform(sp, g, rng, 0.5 * n0, ppc / 2, Momentum::drifting_x(uth, ud));
    load_uniform(
        sp,
        g,
        rng,
        0.5 * n0,
        ppc / 2,
        Momentum::drifting_x(uth, -ud),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_load_counts_and_weight() {
        let g = Grid::periodic((4, 4, 4), (0.5, 0.5, 0.5), 0.1);
        let mut sp = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(1);
        load_uniform(&mut sp, &g, &mut rng, 1.0, 32, Momentum::thermal(0.05));
        assert_eq!(sp.len(), 64 * 32);
        // Total physical particles = n0 · V.
        let v_tot = 64.0 * 0.125;
        assert!((sp.total_weight() - v_tot).abs() / v_tot < 1e-6);
        // All offsets in range, all voxels live.
        for p in sp.iter() {
            assert!(p.dx.abs() <= 1.0 && p.dy.abs() <= 1.0 && p.dz.abs() <= 1.0);
            assert!(g.is_live(p.i as usize));
        }
    }

    #[test]
    fn thermal_spread_matches_request() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let mut sp = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(2);
        let uth = 0.1f64;
        load_uniform(
            &mut sp,
            &g,
            &mut rng,
            1.0,
            500,
            Momentum::thermal(uth as f32),
        );
        let n = sp.len() as f64;
        let var: f64 = sp.iter().map(|p| (p.ux as f64).powi(2)).sum::<f64>() / n;
        assert!(
            (var.sqrt() - uth).abs() / uth < 0.02,
            "std = {}",
            var.sqrt()
        );
        let mean: f64 = sp.iter().map(|p| p.uy as f64).sum::<f64>() / n;
        assert!(mean.abs() < 0.01 * uth.max(0.01));
    }

    #[test]
    fn profile_load_follows_density() {
        let g = Grid::periodic((10, 2, 2), (1.0, 1.0, 1.0), 0.1);
        let mut sp = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(3);
        // Step profile: zero in the left half, one in the right half.
        load_profile(
            &mut sp,
            &g,
            &mut rng,
            100,
            Momentum::thermal(0.0),
            1.0,
            |x, _, _| {
                if x > 5.0 {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let left = sp
            .iter()
            .filter(|p| {
                let (i, _, _) = g.voxel_coords(p.i as usize);
                i <= 5
            })
            .count();
        assert_eq!(left, 0);
        let right = sp.len();
        // 5·2·2 = 20 cells at full density → 2000 expected.
        assert!((right as f64 - 2000.0).abs() < 200.0, "right = {right}");
    }

    #[test]
    fn two_stream_has_zero_net_drift() {
        let g = Grid::periodic((8, 2, 2), (1.0, 1.0, 1.0), 0.1);
        let mut sp = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(4);
        load_two_stream(&mut sp, &g, &mut rng, 1.0, 64, 0.2, 0.01);
        assert_eq!(sp.len(), 8 * 2 * 2 * 64);
        let v = sp.mean_velocity();
        assert!(v[0].abs() < 0.01, "net drift {v:?}");
        // Bimodal: essentially no particle near ux = 0.
        let near_zero = sp.iter().filter(|p| p.ux.abs() < 0.05).count() as f64 / sp.len() as f64;
        assert!(near_zero < 0.01);
    }
}
