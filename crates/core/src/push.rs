//! The particle inner loop: relativistic Boris push, streak-midpoint
//! current deposition, and `move_p` cell-crossing segmentation.
//!
//! This is the code whose rate the SC'08 paper reports as 0.488 Pflop/s on
//! Roadrunner; see `roadrunner-model::flops` for the per-particle flop
//! accounting used to convert our measured particle-advance rates into the
//! same figure of merit.

use crate::accumulator::AccumulatorArray;
use crate::aosoa::{advance_p_aosoa_pipelined_with, AosoaStore};
use crate::cadence::PushTally;
use crate::grid::{decode_migrate, Grid, NEIGHBOR_ABSORB, NEIGHBOR_REFLECT};
use crate::interpolator::InterpolatorArray;
use crate::particle::{Mover, Particle};

/// Where a particle ended up after `move_p` exhausted its displacement or
/// hit a domain boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveOutcome {
    /// Displacement fully used; particle is inside a live voxel.
    Done,
    /// Particle hit an absorbing boundary; caller must delete it.
    Absorbed,
    /// Particle left the local domain through `face` with displacement
    /// remaining in the mover; caller must migrate it.
    Exit { face: usize },
}

/// A particle that needs cross-domain handling: its index, the exit face,
/// and the unfinished mover (remaining half-displacement).
#[derive(Clone, Copy, Debug)]
pub struct Exile {
    pub idx: u32,
    pub face: usize,
    pub mover: Mover,
}

/// Species-level constants needed by the push, bundled so the kernel
/// signature stays small.
#[derive(Clone, Copy, Debug)]
pub struct PushCoefficients {
    /// `q·dt / (2·m·c)` — half-kick factor applied to `E`.
    pub qdt_2mc: f32,
    /// `c·dt/dx` etc — converts `v/c` into half-displacements in offsets.
    pub cdt_dx: f32,
    pub cdt_dy: f32,
    pub cdt_dz: f32,
    /// Species charge (multiplies the particle weight in deposition).
    pub qsp: f32,
}

impl PushCoefficients {
    /// Build from species charge/mass and the grid.
    pub fn new(q: f32, m: f32, g: &Grid) -> Self {
        PushCoefficients {
            qdt_2mc: q * g.dt / (2.0 * m * g.cvac),
            cdt_dx: g.cvac * g.dt / g.dx,
            cdt_dy: g.cvac * g.dt / g.dy,
            cdt_dz: g.cvac * g.dt / g.dz,
            qsp: q,
        }
    }
}

/// Upper bound on `move_p` boundary segments per step; a particle obeying
/// the CFL limit crosses at most one face per axis, so 16 is generous and
/// exists only to turn a (physically impossible) runaway into a clean stop.
const MAX_SEGMENTS: usize = 16;

/// Which body runs the inner loop. Both kernels are bit-identical by
/// contract (the `kernel_oracle` and `determinism` suites pin it), so the
/// choice is the oracle seam of the tests and benches, not a deck option.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PushKernel {
    /// Per-particle scalar arithmetic (`push_one`, the arithmetic of the
    /// serial reference [`advance_p_aos`]) — what whole-step oracles run.
    Scalar,
    /// 8-lane-wide gather → Boris push → masked write-back, one-face
    /// cell-crossers moved by a batched lane-wide mover and the rest by
    /// the scalar one (the production hot path).
    #[default]
    Lane,
}

impl PushKernel {
    /// Parse a kernel name as written in bench flags / artifacts.
    pub fn parse(s: &str) -> Option<PushKernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(PushKernel::Scalar),
            "lane" => Some(PushKernel::Lane),
            _ => None,
        }
    }

    /// Canonical lowercase name (inverse of [`Self::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            PushKernel::Scalar => "scalar",
            PushKernel::Lane => "lane",
        }
    }
}

impl std::fmt::Display for PushKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Advance every particle of one species by one time step, depositing
/// currents into per-pipeline accumulators. Returns the particles that
/// left the local domain (absorbed particles are deleted in place).
///
/// `accumulators` must contain at least one array; the particle sequence
/// is cut into `accumulators.len()` contiguous index blocks processed in
/// parallel, one pipeline (and private accumulator) per block — VPIC's
/// pipeline scheme. The index partition and per-pipeline deposit order
/// are those of the serial reference [`advance_p_aos`], so the two are
/// bit-identical for any fixed pipeline count.
pub fn advance_p(
    store: &mut AosoaStore,
    coeffs: PushCoefficients,
    interp: &InterpolatorArray,
    accumulators: &mut [AccumulatorArray],
    g: &Grid,
) -> Vec<Exile> {
    advance_p_tallied(
        store,
        coeffs,
        interp,
        accumulators,
        g,
        PushKernel::default(),
    )
    .0
}

/// [`advance_p`] with an explicit kernel choice ([`PushKernel::Scalar`]
/// forces every lane through `push_one`) that also returns the
/// coherence telemetry of the step: per-pipeline [`PushTally`]s summed in
/// pipeline order (plain integer adds, so the totals are identical at any
/// worker count). The tally feeds the sort-cadence controller.
pub fn advance_p_tallied(
    store: &mut AosoaStore,
    coeffs: PushCoefficients,
    interp: &InterpolatorArray,
    accumulators: &mut [AccumulatorArray],
    g: &Grid,
    kernel: PushKernel,
) -> (Vec<Exile>, PushTally) {
    advance_p_aosoa_pipelined_with(store, coeffs, interp, accumulators, g, kernel)
}

/// The serial reference of [`advance_p_tallied`]: `push_one` over a
/// plain particle vector, cut into the same pipelines and run one
/// pipeline after another. The pipelines are independent (each deposits
/// into its own accumulator) and their results are concatenated in
/// pipeline order, so running them in turn gives the bits of running them
/// at once. Only the tests, the kernel benches, E8's layout ablation and
/// E9 run it.
pub fn advance_p_aos(
    particles: &mut Vec<Particle>,
    coeffs: PushCoefficients,
    interp: &InterpolatorArray,
    accumulators: &mut [AccumulatorArray],
    g: &Grid,
) -> (Vec<Exile>, PushTally) {
    let n_pipes = accumulators.len();
    assert!(n_pipes >= 1);
    let n = particles.len();
    let block = n.div_ceil(n_pipes).max(1);

    let mut absorbed: Vec<u32> = Vec::new();
    let mut exiles: Vec<Exile> = Vec::new();
    let mut tally = PushTally::default();
    for (pipe, (chunk, acc)) in particles.chunks_mut(block).zip(accumulators).enumerate() {
        let base = (pipe * block) as u32;
        let (a, e, t) = advance_block(chunk, base, coeffs, interp, acc, g);
        absorbed.extend(a);
        exiles.extend(e);
        tally.absorb(&t);
    }
    let len = particles.len();
    retarget_and_delete(len, absorbed, &mut exiles, |i| {
        particles.swap_remove(i);
    });
    (exiles, tally)
}

/// Absorbed-particle deletion: swap-remove every index in `absorbed` (via
/// the caller's `swap_remove`, which must mirror `Vec::swap_remove` on a
/// sequence initially `len` long) and retarget exiles whose particle was
/// moved by a swap. An index map built once keeps this O(absorbed +
/// exiles) instead of rescanning the exile list per removal. The AoSoA
/// push and its serial reference both run this exact algorithm, so their
/// post-deletion particle order is identical.
pub(crate) fn retarget_and_delete(
    len: usize,
    mut absorbed: Vec<u32>,
    exiles: &mut [Exile],
    mut swap_remove: impl FnMut(usize),
) {
    if absorbed.is_empty() {
        return;
    }
    // A particle exits the domain at most once, so indices map to at most
    // one exile each.
    let mut exile_of: std::collections::HashMap<u32, usize> =
        exiles.iter().enumerate().map(|(n, e)| (e.idx, n)).collect();
    // Descending order keeps pending indices valid across swap_removes.
    absorbed.sort_unstable_by(|a, b| b.cmp(a));
    let mut cur = len;
    for idx in absorbed {
        let last = (cur - 1) as u32;
        swap_remove(idx as usize);
        cur -= 1;
        // If an exile pointed at the swapped-in particle, retarget it.
        if idx != last {
            if let Some(n) = exile_of.remove(&last) {
                exiles[n].idx = idx;
                exiles[n].mover.idx = idx;
                exile_of.insert(idx, n);
            }
        }
    }
}

/// What happened to one particle in [`push_one`].
pub(crate) enum PushedFate {
    /// Still resident in the local domain. `crossed` is true when the
    /// particle entered `move_p` (left its voxel this step) — the signal
    /// the sort-cadence controller counts, identical across the oracle
    /// and both kernels because all branch on the same in-bounds test.
    Stayed { crossed: bool },
    /// Hit an absorbing boundary; caller must delete it. (Necessarily a
    /// crosser: absorption happens on a face.)
    Absorbed,
    /// Left the local domain; caller must migrate it. (Also a crosser.)
    Exiled(Exile),
}

/// Push a single particle (global index `idx`): Boris kick/rotate,
/// displacement, current deposition, and cell-crossing handling. This is
/// the one copy of the scalar per-particle arithmetic — the serial
/// reference [`advance_p_aos`] loops it over chunks and the AoSoA push
/// calls it for lanes of blocks straddling a pipeline boundary (and for
/// every lane under [`PushKernel::Scalar`]), which is what keeps the two
/// bit-identical.
#[inline(always)]
pub(crate) fn push_one(
    p: &mut Particle,
    idx: u32,
    c: PushCoefficients,
    interp: &InterpolatorArray,
    acc: &mut AccumulatorArray,
    g: &Grid,
) -> PushedFate {
    const ONE: f32 = 1.0;
    const ONE_THIRD: f32 = 1.0 / 3.0;
    const TWO_FIFTEENTHS: f32 = 2.0 / 15.0;
    let f = &interp.data[p.i as usize];
    let (dx, dy, dz) = (p.dx, p.dy, p.dz);

    // Interpolate E (premultiplied by the half-kick factor) and cB.
    let hax = c.qdt_2mc * ((f.ex + dy * f.dexdy) + dz * (f.dexdz + dy * f.d2exdydz));
    let hay = c.qdt_2mc * ((f.ey + dz * f.deydz) + dx * (f.deydx + dz * f.d2eydzdx));
    let haz = c.qdt_2mc * ((f.ez + dx * f.dezdx) + dy * (f.dezdy + dx * f.d2ezdxdy));
    let cbx = f.cbx + dx * f.dcbxdx;
    let cby = f.cby + dy * f.dcbydy;
    let cbz = f.cbz + dz * f.dcbzdz;

    // Half E acceleration.
    let mut ux = p.ux + hax;
    let mut uy = p.uy + hay;
    let mut uz = p.uz + haz;

    // Boris rotation with the VPIC tan(θ/2)/θ correction polynomial.
    let v0 = c.qdt_2mc / (ONE + (ux * ux + (uy * uy + uz * uz))).sqrt();
    let v1 = cbx * cbx + (cby * cby + cbz * cbz);
    let v2 = (v0 * v0) * v1;
    let v3 = v0 * (ONE + v2 * (ONE_THIRD + v2 * TWO_FIFTEENTHS));
    let mut v4 = v3 / (ONE + v1 * (v3 * v3));
    v4 += v4;
    let w0 = ux + v3 * (uy * cbz - uz * cby);
    let w1 = uy + v3 * (uz * cbx - ux * cbz);
    let w2 = uz + v3 * (ux * cby - uy * cbx);
    ux += v4 * (w1 * cbz - w2 * cby);
    uy += v4 * (w2 * cbx - w0 * cbz);
    uz += v4 * (w0 * cby - w1 * cbx);

    // Second half E acceleration; store momentum.
    ux += hax;
    uy += hay;
    uz += haz;
    p.ux = ux;
    p.uy = uy;
    p.uz = uz;

    // Half displacement in voxel-offset units: h = (v/c)·(c·dt/Δ).
    let rg = ONE / (ONE + (ux * ux + (uy * uy + uz * uz))).sqrt();
    let hx = ux * rg * c.cdt_dx;
    let hy = uy * rg * c.cdt_dy;
    let hz = uz * rg * c.cdt_dz;

    let mx = dx + hx; // streak midpoint (if in bounds)
    let my = dy + hy;
    let mz = dz + hz;
    let nx = mx + hx; // new position
    let ny = my + hy;
    let nz = mz + hz;

    if nx.abs() <= ONE && ny.abs() <= ONE && nz.abs() <= ONE {
        // Common case: no cell crossing.
        p.dx = nx;
        p.dy = ny;
        p.dz = nz;
        acc.deposit(p.i as usize, c.qsp * p.w, (mx, my, mz), (hx, hy, hz));
        PushedFate::Stayed { crossed: false }
    } else {
        let mut pm = Mover {
            dispx: hx,
            dispy: hy,
            dispz: hz,
            idx,
        };
        match move_p_local(p, &mut pm, acc, g, c.qsp) {
            MoveOutcome::Done => PushedFate::Stayed { crossed: true },
            MoveOutcome::Absorbed => PushedFate::Absorbed,
            MoveOutcome::Exit { face } => PushedFate::Exiled(Exile {
                idx,
                face,
                mover: pm,
            }),
        }
    }
}

/// Push one contiguous block of particles (one pipeline).
fn advance_block(
    chunk: &mut [Particle],
    base_idx: u32,
    c: PushCoefficients,
    interp: &InterpolatorArray,
    acc: &mut AccumulatorArray,
    g: &Grid,
) -> (Vec<u32>, Vec<Exile>, PushTally) {
    let mut absorbed = Vec::new();
    let mut exiles = Vec::new();
    let mut tally = PushTally {
        pushed: chunk.len() as u64,
        ..Default::default()
    };
    for (local, p) in chunk.iter_mut().enumerate() {
        let idx = base_idx + local as u32;
        match push_one(p, idx, c, interp, acc, g) {
            PushedFate::Stayed { crossed: false } => {}
            PushedFate::Stayed { crossed: true } => tally.crossers += 1,
            PushedFate::Absorbed => {
                tally.crossers += 1;
                absorbed.push(idx);
            }
            PushedFate::Exiled(e) => {
                tally.crossers += 1;
                exiles.push(e);
            }
        }
    }
    (absorbed, exiles, tally)
}

/// Finish the move of one particle that crosses voxel boundaries,
/// depositing the charge-conserving current of every sub-segment.
/// This is VPIC's `move_p`, operating on a single particle in place.
pub fn move_p_local(
    p: &mut Particle,
    pm: &mut Mover,
    acc: &mut AccumulatorArray,
    g: &Grid,
    qsp: f32,
) -> MoveOutcome {
    let q = qsp * p.w;
    for _ in 0..MAX_SEGMENTS {
        let s_mid = [p.dx, p.dy, p.dz];
        let s_disp = [pm.dispx, pm.dispy, pm.dispz];
        let dir = [
            if s_disp[0] > 0.0 { 1.0f32 } else { -1.0 },
            if s_disp[1] > 0.0 { 1.0 } else { -1.0 },
            if s_disp[2] > 0.0 { 1.0 } else { -1.0 },
        ];

        // Twice the fraction of the remaining displacement needed to reach
        // the first face along each axis (s_disp is a half-displacement).
        let mut t = [0.0f32; 3];
        for a in 0..3 {
            t[a] = if s_disp[a] == 0.0 {
                3.4e38
            } else {
                (dir[a] - s_mid[a]) / s_disp[a]
            };
        }

        // The streak ends at the nearest face, or (axis 3) at the natural
        // end of the move.
        let mut frac = 2.0f32;
        let mut axis = 3usize;
        for (a, &ta) in t.iter().enumerate() {
            if ta < frac {
                frac = ta;
                axis = a;
            }
        }
        frac *= 0.5;

        // Half-displacement and midpoint of this sub-segment.
        let seg = [s_disp[0] * frac, s_disp[1] * frac, s_disp[2] * frac];
        let mid = [s_mid[0] + seg[0], s_mid[1] + seg[1], s_mid[2] + seg[2]];

        acc.deposit(
            p.i as usize,
            q,
            (mid[0], mid[1], mid[2]),
            (seg[0], seg[1], seg[2]),
        );

        // Consume the segment.
        pm.dispx -= seg[0];
        pm.dispy -= seg[1];
        pm.dispz -= seg[2];
        p.dx += seg[0] + seg[0];
        p.dy += seg[1] + seg[1];
        p.dz += seg[2] + seg[2];

        if axis == 3 {
            return MoveOutcome::Done;
        }

        // Put the particle exactly on the face to avoid roundoff drift.
        let d = dir[axis];
        p.set_offset(axis, d);
        let face = axis + if d > 0.0 { 3 } else { 0 };
        let neighbor = g.neighbor(p.i as usize, face);

        if neighbor == NEIGHBOR_REFLECT {
            pm.set_disp(axis, -pm.disp(axis));
            p.set_momentum(axis, -p.momentum(axis));
            continue;
        }
        if neighbor == NEIGHBOR_ABSORB {
            return MoveOutcome::Absorbed;
        }
        if let Some(face) = decode_migrate(neighbor) {
            return MoveOutcome::Exit { face };
        }
        debug_assert!(neighbor >= 0, "invalid neighbor {neighbor}");
        p.i = neighbor as u32;
        p.set_offset(axis, -d); // enter the neighbor from the opposite face
    }
    // Unreachable for CFL-respecting moves; stop the particle where it is.
    debug_assert!(false, "move_p segment limit hit");
    MoveOutcome::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldArray;
    use crate::field_solver::{bcs_of, sync_b, sync_e};
    use crate::grid::ParticleBc;

    fn uniform_e_setup(ex: f32, g: &Grid) -> InterpolatorArray {
        let mut f = FieldArray::new(g);
        for v in f.ex.iter_mut() {
            *v = ex;
        }
        sync_e(&mut f, g, bcs_of(g));
        sync_b(&mut f, g, bcs_of(g));
        let mut ia = InterpolatorArray::new(g);
        ia.load(&f, g);
        ia
    }

    #[test]
    fn uniform_e_accelerates_unit_charge() {
        let g = Grid::periodic((8, 8, 8), (1.0, 1.0, 1.0), 0.01);
        let ia = uniform_e_setup(2.0, &g);
        let mut acc = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(1.0, 1.0, &g);
        let mut parts = vec![Particle {
            i: g.voxel(4, 4, 4) as u32,
            w: 1.0,
            ..Default::default()
        }];
        let (exiles, _) = advance_p_aos(&mut parts, c, &ia, &mut acc, &g);
        assert!(exiles.is_empty());
        // du = qE dt (non-relativistic limit): 2.0 * 0.01.
        assert!((parts[0].ux - 0.02).abs() < 1e-6, "ux = {}", parts[0].ux);
        assert_eq!(parts[0].uy, 0.0);
        assert_eq!(parts[0].uz, 0.0);
        // Moved by ~ half a kick's worth (starts from rest): dx_off ≈ u·dt/dx·2... just sign/plausibility:
        assert!(parts[0].dx > 0.0 && parts[0].dx < 0.05);
    }

    #[test]
    fn magnetic_field_rotates_without_energy_change() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.05);
        let mut f = FieldArray::new(&g);
        for v in f.cbz.iter_mut() {
            *v = 3.0;
        }
        sync_b(&mut f, &g, bcs_of(&g));
        let mut ia = InterpolatorArray::new(&g);
        ia.load(&f, &g);
        let mut acc = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(-1.0, 1.0, &g);
        let u0 = 0.1f32;
        let mut parts = vec![Particle {
            i: g.voxel(2, 2, 2) as u32,
            ux: u0,
            w: 1.0,
            ..Default::default()
        }];
        let gamma_before = parts[0].gamma();
        for _ in 0..100 {
            // Keep the particle from drifting out: re-center each step.
            parts[0].dx = 0.0;
            parts[0].dy = 0.0;
            parts[0].dz = 0.0;
            parts[0].i = g.voxel(2, 2, 2) as u32;
            advance_p_aos(&mut parts, c, &ia, &mut acc, &g);
        }
        let gamma_after = parts[0].gamma();
        assert!(
            (gamma_after - gamma_before).abs() < 1e-6,
            "B field changed energy: {gamma_before} -> {gamma_after}"
        );
        // It must actually rotate.
        let u_perp = (parts[0].ux.powi(2) + parts[0].uy.powi(2)).sqrt();
        assert!((u_perp - u0).abs() < 1e-5);
        assert!(parts[0].uy.abs() > 1e-3, "no rotation: {:?}", parts[0]);
    }

    #[test]
    fn boris_gyrofrequency_matches_theory() {
        // A particle in a uniform Bz gyrates at ω_c = qB/(γm); with the
        // tan(θ/2) correction the *discrete* rotation angle per step is
        // exactly ω_c·dt to the polynomial's accuracy.
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.02);
        let b0 = 1.5f32;
        let mut f = FieldArray::new(&g);
        for v in f.cbz.iter_mut() {
            *v = b0;
        }
        sync_b(&mut f, &g, bcs_of(&g));
        let mut ia = InterpolatorArray::new(&g);
        ia.load(&f, &g);
        let mut acc = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(1.0, 1.0, &g);
        let u0 = 0.01f32; // non-relativistic
        let mut parts = vec![Particle {
            i: g.voxel(2, 2, 2) as u32,
            ux: u0,
            w: 1.0,
            ..Default::default()
        }];
        let n_steps = 50;
        for _ in 0..n_steps {
            parts[0].dx = 0.0;
            parts[0].dy = 0.0;
            parts[0].dz = 0.0;
            parts[0].i = g.voxel(2, 2, 2) as u32;
            advance_p_aos(&mut parts, c, &ia, &mut acc, &g);
        }
        let angle = (-parts[0].uy).atan2(parts[0].ux); // q>0 in Bz>0 rotates u clockwise
        let want = (b0 * g.dt * n_steps as f32) % (2.0 * std::f32::consts::PI);
        assert!((angle - want).abs() < 1e-3, "angle {angle} want {want}");
    }

    #[test]
    fn crossing_updates_voxel_index() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.25);
        let ia = InterpolatorArray::new(&g); // zero fields
        let mut acc = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(1.0, 1.0, &g);
        // Fast particle near the +x face: crosses into voxel (3,2,2).
        let mut parts = vec![Particle {
            i: g.voxel(2, 2, 2) as u32,
            dx: 0.9,
            ux: 2.0, // v ≈ 0.894c
            w: 1.0,
            ..Default::default()
        }];
        let (exiles, _) = advance_p_aos(&mut parts, c, &ia, &mut acc, &g);
        assert!(exiles.is_empty());
        assert_eq!(parts[0].i, g.voxel(3, 2, 2) as u32);
        assert!(parts[0].dx >= -1.0 && parts[0].dx <= 1.0);
    }

    #[test]
    fn periodic_wrap_across_domain() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.25);
        let ia = InterpolatorArray::new(&g);
        let mut acc = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(1.0, 1.0, &g);
        let mut parts = vec![Particle {
            i: g.voxel(4, 2, 2) as u32,
            dx: 0.95,
            ux: 3.0,
            w: 1.0,
            ..Default::default()
        }];
        advance_p_aos(&mut parts, c, &ia, &mut acc, &g);
        assert_eq!(parts[0].i, g.voxel(1, 2, 2) as u32);
    }

    #[test]
    fn reflecting_wall_flips_momentum() {
        let bc = [
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Reflect,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
        ];
        let g = Grid::new((4, 4, 4), (1.0, 1.0, 1.0), 0.25, bc);
        let ia = InterpolatorArray::new(&g);
        let mut acc = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(1.0, 1.0, &g);
        let mut parts = vec![Particle {
            i: g.voxel(4, 2, 2) as u32,
            dx: 0.95,
            ux: 3.0,
            w: 1.0,
            ..Default::default()
        }];
        advance_p_aos(&mut parts, c, &ia, &mut acc, &g);
        assert_eq!(parts[0].i, g.voxel(4, 2, 2) as u32);
        assert!(parts[0].ux < 0.0, "momentum not flipped: {:?}", parts[0]);
        assert!(parts[0].dx < 0.95);
    }

    #[test]
    fn absorbing_wall_removes_particle() {
        let bc = [
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Absorb,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
        ];
        let g = Grid::new((4, 4, 4), (1.0, 1.0, 1.0), 0.25, bc);
        let ia = InterpolatorArray::new(&g);
        let mut acc = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(1.0, 1.0, &g);
        let mut parts = vec![
            Particle {
                i: g.voxel(4, 2, 2) as u32,
                dx: 0.95,
                ux: 3.0,
                w: 1.0,
                ..Default::default()
            },
            Particle {
                i: g.voxel(2, 2, 2) as u32,
                w: 1.0,
                ..Default::default()
            },
        ];
        let (exiles, _) = advance_p_aos(&mut parts, c, &ia, &mut acc, &g);
        assert!(exiles.is_empty());
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].i, g.voxel(2, 2, 2) as u32);
    }

    #[test]
    fn migrate_boundary_reports_exile() {
        let bc = [
            ParticleBc::Migrate,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Migrate,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
        ];
        let g = Grid::new((4, 4, 4), (1.0, 1.0, 1.0), 0.25, bc);
        let ia = InterpolatorArray::new(&g);
        let mut acc = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(1.0, 1.0, &g);
        let mut parts = vec![Particle {
            i: g.voxel(4, 2, 2) as u32,
            dx: 0.95,
            ux: 3.0,
            w: 1.0,
            ..Default::default()
        }];
        let (exiles, _) = advance_p_aos(&mut parts, c, &ia, &mut acc, &g);
        assert_eq!(exiles.len(), 1);
        assert_eq!(exiles[0].face, crate::grid::FACE_HIGH_X);
        // Particle parked exactly on the face with remaining displacement.
        assert_eq!(parts[exiles[0].idx as usize].dx, 1.0);
        assert!(exiles[0].mover.dispx > 0.0);
    }

    #[test]
    fn one_and_four_pipelines_agree() {
        use crate::rng::Rng;
        let g = Grid::periodic((6, 6, 6), (1.0, 1.0, 1.0), 0.2);
        let ia = uniform_e_setup(0.5, &g);
        let mut rng = Rng::seeded(9);
        let mk = |rng: &mut Rng| {
            let i = g.voxel(1 + rng.index(6), 1 + rng.index(6), 1 + rng.index(6)) as u32;
            Particle {
                i,
                dx: rng.uniform_in(-0.99, 0.99) as f32,
                dy: rng.uniform_in(-0.99, 0.99) as f32,
                dz: rng.uniform_in(-0.99, 0.99) as f32,
                ux: rng.normal() as f32 * 0.5,
                uy: rng.normal() as f32 * 0.5,
                uz: rng.normal() as f32 * 0.5,
                w: 1.0,
            }
        };
        let parts: Vec<Particle> = (0..500).map(|_| mk(&mut rng)).collect();

        let mut one = parts.clone();
        let mut acc_1 = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(-1.0, 1.0, &g);
        advance_p_aos(&mut one, c, &ia, &mut acc_1, &g);

        let mut four = parts.clone();
        let mut accs: Vec<AccumulatorArray> = (0..4).map(|_| AccumulatorArray::new(&g)).collect();
        advance_p_aos(&mut four, c, &ia, &mut accs, &g);

        assert_eq!(one, four);
        // Reduced accumulators must match too.
        let mut total = AccumulatorArray::new(&g);
        for a in &accs {
            total.reduce_from(a);
        }
        for (x, y) in acc_1[0].data.iter().zip(total.data.iter()) {
            for n in 0..4 {
                assert!((x.jx[n] - y.jx[n]).abs() < 1e-4);
                assert!((x.jy[n] - y.jy[n]).abs() < 1e-4);
                assert!((x.jz[n] - y.jz[n]).abs() < 1e-4);
            }
        }
    }
}
