//! Explicit FDTD Maxwell solver on the Yee mesh, plus the ghost-plane
//! synchronization that implements field boundary conditions and the
//! Marder divergence-cleaning passes VPIC applies periodically.
//!
//! Update scheme per PIC step (see [`crate::sim`]):
//! `B` half step → particle advance (deposits `J`) → `B` half step →
//! `E` full step. Both `E` and `B` are then known at integer time levels
//! when the particle interpolation happens.
//!
//! All equations use VPIC's `cB` convention (`cbx = c·Bx`, …):
//!
//! ```text
//! ∂(cB)/∂t = −c ∇×E
//! ∂E/∂t    =  c ∇×(cB) − J/ε0
//! ```

use crate::deposit::deposit_rho;
use crate::field::FieldArray;
use crate::grid::Grid;
use crate::sim::{Halo, Isolated};
use crate::species::Species;
use rayon::prelude::*;

/// Field boundary condition on one domain face.
///
/// * `Periodic` identifies the `n+1` node plane with plane `1` (must be
///   set on *both* faces of an axis).
/// * `Pec` (perfect electric conductor) zeroes tangential `E` and normal
///   `B` on the wall plane. Combine with a [`Sponge`]
///   (see [`crate::sponge`]) to emulate an open boundary.
/// * `Exchange` leaves the face's ghost planes untouched; an external
///   layer (the `vpic-parallel` ghost exchange) fills them from the
///   adjacent domain after every field update.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FieldBc {
    Periodic,
    Pec,
    Exchange,
}

/// Per-face field boundary conditions (VPIC face order: −x,−y,−z,+x,+y,+z).
pub type FieldBcs = [FieldBc; 6];

/// Advance `cB` by `frac·dt` (call with `frac = 0.5` twice per step).
///
/// The Yee update is parallelized over z-slabs: slab `k` writes only its
/// own `cB` entries and reads `E` at `v`, `v+1`, `v+dj`, `v+dk` (shared,
/// immutable during the update), so slabs are independent and the result
/// is bitwise identical to [`advance_b_serial`] for any worker count. The
/// ghost sync stays serial: per component it moves a few planes, each
/// walked as the contiguous runs [`Grid::plane_runs`] describes — a z
/// plane is one `memcpy`, a y plane one per z-slab, and only an x plane
/// is element-strided — so it costs what its bytes cost, which on a thin
/// grid (where the ghost surface outweighs the volume) is what keeps it
/// below the update itself.
pub fn advance_b(f: &mut FieldArray, g: &Grid, frac: f32) {
    let (cdtx, cdty, cdtz) = (
        g.cvac * frac * g.dt / g.dx,
        g.cvac * frac * g.dt / g.dy,
        g.cvac * frac * g.dt / g.dz,
    );
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    let FieldArray {
        ref ex,
        ref ey,
        ref ez,
        ref mut cbx,
        ref mut cby,
        ref mut cbz,
        ..
    } = *f;
    // Slices and scalars go into the slab closure by value (see
    // `InterpolatorArray::load`): that is what lets the row loop vectorize.
    let (ex, ey, ez) = (&ex[..], &ey[..], &ez[..]);
    cbx.par_chunks_mut(dk)
        .zip(cby.par_chunks_mut(dk))
        .zip(cbz.par_chunks_mut(dk))
        .enumerate()
        .skip(1)
        .take(g.nz)
        .for_each(move |(k, ((bx, by), bz))| {
            for j in 1..=g.ny {
                let row = g.voxel(1, j, k);
                for v in row..row + g.nx {
                    let l = v - k * dk;
                    // cbx -= cΔt[(∂y ez) − (∂z ey)]
                    bx[l] -= cdty * (ez[v + dj] - ez[v]) - cdtz * (ey[v + dk] - ey[v]);
                    // cby -= cΔt[(∂z ex) − (∂x ez)]
                    by[l] -= cdtz * (ex[v + dk] - ex[v]) - cdtx * (ez[v + 1] - ez[v]);
                    // cbz -= cΔt[(∂x ey) − (∂y ex)]
                    bz[l] -= cdtx * (ey[v + 1] - ey[v]) - cdty * (ex[v + dj] - ex[v]);
                }
            }
        });
    sync_b(f, g, bcs_of(g));
}

/// Serial reference for [`advance_b`].
pub fn advance_b_serial(f: &mut FieldArray, g: &Grid, frac: f32) {
    let (cdtx, cdty, cdtz) = (
        g.cvac * frac * g.dt / g.dx,
        g.cvac * frac * g.dt / g.dy,
        g.cvac * frac * g.dt / g.dz,
    );
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            let row = g.voxel(1, j, k);
            for v in row..row + g.nx {
                f.cbx[v] -= cdty * (f.ez[v + dj] - f.ez[v]) - cdtz * (f.ey[v + dk] - f.ey[v]);
                f.cby[v] -= cdtz * (f.ex[v + dk] - f.ex[v]) - cdtx * (f.ez[v + 1] - f.ez[v]);
                f.cbz[v] -= cdtx * (f.ey[v + 1] - f.ey[v]) - cdty * (f.ex[v + dj] - f.ex[v]);
            }
        }
    }
    sync_b(f, g, bcs_of(g));
}

/// Advance `E` by a full `dt` using the currents in `f.jx/jy/jz`.
///
/// Parallelized over z-slabs like [`advance_b`]: slab `k` writes its own
/// `E` entries and reads `cB` at `v`, `v-1`, `v-dj`, `v-dk` plus `J` at
/// `v`, so slabs are independent and results match [`advance_e_serial`]
/// bitwise.
pub fn advance_e(f: &mut FieldArray, g: &Grid) {
    let (cdtx, cdty, cdtz) = (
        g.cvac * g.dt / g.dx,
        g.cvac * g.dt / g.dy,
        g.cvac * g.dt / g.dz,
    );
    let dt_eps = g.dt / g.eps0;
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    let FieldArray {
        ref mut ex,
        ref mut ey,
        ref mut ez,
        ref cbx,
        ref cby,
        ref cbz,
        ref jx,
        ref jy,
        ref jz,
        ..
    } = *f;
    // By value, as in `advance_b`.
    let (cbx, cby, cbz) = (&cbx[..], &cby[..], &cbz[..]);
    let (jx, jy, jz) = (&jx[..], &jy[..], &jz[..]);
    ex.par_chunks_mut(dk)
        .zip(ey.par_chunks_mut(dk))
        .zip(ez.par_chunks_mut(dk))
        .enumerate()
        .skip(1)
        .take(g.nz)
        .for_each(move |(k, ((exk, eyk), ezk))| {
            for j in 1..=g.ny {
                let row = g.voxel(1, j, k);
                for v in row..row + g.nx {
                    let l = v - k * dk;
                    exk[l] += cdty * (cbz[v] - cbz[v - dj])
                        - cdtz * (cby[v] - cby[v - dk])
                        - dt_eps * jx[v];
                    eyk[l] += cdtz * (cbx[v] - cbx[v - dk])
                        - cdtx * (cbz[v] - cbz[v - 1])
                        - dt_eps * jy[v];
                    ezk[l] += cdtx * (cby[v] - cby[v - 1])
                        - cdty * (cbx[v] - cbx[v - dj])
                        - dt_eps * jz[v];
                }
            }
        });
    sync_e(f, g, bcs_of(g));
}

/// Serial reference for [`advance_e`].
pub fn advance_e_serial(f: &mut FieldArray, g: &Grid) {
    let (cdtx, cdty, cdtz) = (
        g.cvac * g.dt / g.dx,
        g.cvac * g.dt / g.dy,
        g.cvac * g.dt / g.dz,
    );
    let dt_eps = g.dt / g.eps0;
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            let row = g.voxel(1, j, k);
            for v in row..row + g.nx {
                f.ex[v] += cdty * (f.cbz[v] - f.cbz[v - dj])
                    - cdtz * (f.cby[v] - f.cby[v - dk])
                    - dt_eps * f.jx[v];
                f.ey[v] += cdtz * (f.cbx[v] - f.cbx[v - dk])
                    - cdtx * (f.cbz[v] - f.cbz[v - 1])
                    - dt_eps * f.jy[v];
                f.ez[v] += cdtx * (f.cby[v] - f.cby[v - 1])
                    - cdty * (f.cbx[v] - f.cbx[v - dj])
                    - dt_eps * f.jz[v];
            }
        }
    }
    sync_e(f, g, bcs_of(g));
}

/// Derive the field BCs from the grid's particle BCs: periodic particle
/// faces get periodic fields, `Migrate` faces get `Exchange` (ghosts filled
/// by the distributed layer), everything else gets PEC walls (open
/// boundaries are built as PEC + sponge + antenna in `vpic-lpi`).
pub fn bcs_of(g: &Grid) -> FieldBcs {
    use crate::grid::ParticleBc;
    let bcs = g.bc.map(|b| match b {
        ParticleBc::Periodic => FieldBc::Periodic,
        ParticleBc::Migrate => FieldBc::Exchange,
        ParticleBc::Reflect | ParticleBc::Absorb => FieldBc::Pec,
    });
    for axis in 0..3 {
        let paired = (bcs[axis] == FieldBc::Periodic) == (bcs[axis + 3] == FieldBc::Periodic);
        assert!(
            paired,
            "periodic field BC must be set on both faces of axis {axis}"
        );
    }
    bcs
}

fn n_of(g: &Grid, axis: usize) -> usize {
    [g.nx, g.ny, g.nz][axis]
}

/// Copy the full (ghost-inclusive) plane `src` to plane `dst` along `axis`.
pub(crate) fn copy_plane(arr: &mut [f32], g: &Grid, axis: usize, src: usize, dst: usize) {
    let (s, d) = (g.plane_runs(axis, src), g.plane_runs(axis, dst));
    s.for_each_run(|s0, len| arr.copy_within(s0..s0 + len, s0 - s.first + d.first));
}

/// Add the full plane `src` into plane `dst` along `axis` (used to fold
/// ghost-deposited currents/charge back into live entries).
pub(crate) fn fold_plane(arr: &mut [f32], g: &Grid, axis: usize, src: usize, dst: usize) {
    let (s, d) = (g.plane_runs(axis, src), g.plane_runs(axis, dst));
    s.for_each_run(|s0, len| {
        let d0 = s0 - s.first + d.first;
        // Runs of two different planes never overlap, so one split puts
        // the source run and the destination run in different halves.
        let (lo, hi) = arr.split_at_mut(s0.max(d0));
        let (from, into) = if s0 < d0 {
            (&lo[s0..s0 + len], &mut hi[..len])
        } else {
            (&hi[..len], &mut lo[d0..d0 + len])
        };
        for (x, y) in into.iter_mut().zip(from) {
            *x += *y;
        }
    });
}

/// Zero the full plane `idx` along `axis`.
fn zero_plane(arr: &mut [f32], g: &Grid, axis: usize, idx: usize) {
    g.plane_runs(axis, idx)
        .for_each_run(|s0, len| arr[s0..s0 + len].fill(0.0));
}

/// Re-establish `E` ghost/boundary planes after an `E` update.
///
/// Each `E` component lives on edges along its own axis and node planes on
/// the two transverse axes; periodic axes mirror node plane `1` to `n+1`,
/// PEC faces zero tangential `E` on their wall plane, `Exchange` faces are
/// left for the distributed ghost exchange.
pub fn sync_e(f: &mut FieldArray, g: &Grid, bcs: FieldBcs) {
    for axis in 0..3 {
        let n = n_of(g, axis);
        // Components transverse to `axis` are node-registered along it.
        let comps: [&mut Vec<f32>; 2] = match axis {
            0 => [&mut f.ey, &mut f.ez],
            1 => [&mut f.ex, &mut f.ez],
            _ => [&mut f.ex, &mut f.ey],
        };
        let (lo, hi) = (bcs[axis], bcs[axis + 3]);
        for c in comps {
            if lo == FieldBc::Periodic {
                copy_plane(c, g, axis, 1, n + 1);
                copy_plane(c, g, axis, n, 0);
                continue;
            }
            if lo == FieldBc::Pec {
                zero_plane(c, g, axis, 1);
                zero_plane(c, g, axis, 0);
            }
            if hi == FieldBc::Pec {
                zero_plane(c, g, axis, n + 1);
            }
        }
        // The component along `axis` is cell-registered along it; the
        // solver never reads its own-axis ghosts, but the Gauss-law
        // divergence stencil reads plane 0 at the first node plane, so
        // mirror the periodic images (as `sync_j` does for `J`).
        let own: &mut Vec<f32> = match axis {
            0 => &mut f.ex,
            1 => &mut f.ey,
            _ => &mut f.ez,
        };
        if lo == FieldBc::Periodic {
            copy_plane(own, g, axis, n, 0);
            copy_plane(own, g, axis, 1, n + 1);
        }
    }
}

/// Re-establish `cB` ghost/boundary planes after a `B` update.
///
/// Each `cB` component is face-registered (node plane) along its own axis
/// and cell-registered along the transverse axes: along its own axis a
/// periodic BC mirrors plane `1 → n+1`, along transverse axes the ghost-low
/// plane `0` is filled from plane `n` and ghost-high `n+1` from plane `1`.
/// `Exchange` faces are left for the distributed ghost exchange.
pub fn sync_b(f: &mut FieldArray, g: &Grid, bcs: FieldBcs) {
    for axis in 0..3 {
        let n = n_of(g, axis);
        let (lo, hi) = (bcs[axis], bcs[axis + 3]);
        let own: &mut Vec<f32> = match axis {
            0 => &mut f.cbx,
            1 => &mut f.cby,
            _ => &mut f.cbz,
        };
        if lo == FieldBc::Periodic {
            copy_plane(own, g, axis, 1, n + 1);
            copy_plane(own, g, axis, n, 0);
        } else {
            // Normal B vanishes on a conducting wall.
            if lo == FieldBc::Pec {
                zero_plane(own, g, axis, 1);
                zero_plane(own, g, axis, 0);
            }
            if hi == FieldBc::Pec {
                zero_plane(own, g, axis, n + 1);
            }
        }
        let transverse: [&mut Vec<f32>; 2] = match axis {
            0 => [&mut f.cby, &mut f.cbz],
            1 => [&mut f.cbx, &mut f.cbz],
            _ => [&mut f.cbx, &mut f.cby],
        };
        for c in transverse {
            if lo == FieldBc::Periodic {
                copy_plane(c, g, axis, n, 0);
                copy_plane(c, g, axis, 1, n + 1);
                continue;
            }
            // Mirror so tangential B has zero normal derivative at the
            // wall (image currents); adequate for the sponge-backed
            // walls used by the LPI setups.
            if lo == FieldBc::Pec {
                copy_plane(c, g, axis, 1, 0);
            }
            if hi == FieldBc::Pec {
                copy_plane(c, g, axis, n, n + 1);
            }
        }
    }
}

/// Fold ghost-plane current deposits into live entries and mirror the
/// periodic images so `J` is single-valued on identified edges.
pub fn sync_j(f: &mut FieldArray, g: &Grid, bcs: FieldBcs) {
    for axis in 0..3 {
        let n = n_of(g, axis);
        // Components transverse to `axis` are node-registered along it and
        // receive deposits on plane n+1 that alias plane 1 when periodic.
        let comps: [&mut Vec<f32>; 2] = match axis {
            0 => [&mut f.jy, &mut f.jz],
            1 => [&mut f.jx, &mut f.jz],
            _ => [&mut f.jx, &mut f.jy],
        };
        if bcs[axis] == FieldBc::Periodic && bcs[axis + 3] == FieldBc::Periodic {
            for c in comps {
                fold_plane(c, g, axis, n + 1, 1);
                copy_plane(c, g, axis, 1, n + 1);
                copy_plane(c, g, axis, n, 0);
            }
        }
        // The component along `axis` is cell-registered along it; particles
        // never deposit into its ghost planes, but divergence diagnostics
        // read plane 0, so mirror it for periodic axes.
        let own: &mut Vec<f32> = match axis {
            0 => &mut f.jx,
            1 => &mut f.jy,
            _ => &mut f.jz,
        };
        if bcs[axis] == FieldBc::Periodic && bcs[axis + 3] == FieldBc::Periodic {
            copy_plane(own, g, axis, n, 0);
            copy_plane(own, g, axis, 1, n + 1);
        }
    }
}

/// Fold ghost-plane charge deposits (node-centered `rho`) into live nodes
/// and mirror the periodic images.
pub fn sync_rho(f: &mut FieldArray, g: &Grid, bcs: FieldBcs) {
    for axis in 0..3 {
        let n = n_of(g, axis);
        if bcs[axis] == FieldBc::Periodic && bcs[axis + 3] == FieldBc::Periodic {
            fold_plane(&mut f.rho, g, axis, n + 1, 1);
            copy_plane(&mut f.rho, g, axis, 1, n + 1);
            copy_plane(&mut f.rho, g, axis, n, 0);
        }
    }
}

/// Node-centered divergence error `∇·E − ρ/ε0`; nodes `1..=n` along each
/// axis (periodic images are implied). Returns the RMS over live nodes.
pub fn compute_div_e_err(f: &FieldArray, g: &Grid, err: &mut Vec<f32>) -> f64 {
    err.clear();
    err.resize(g.n_voxels(), 0.0);
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    let (rdx, rdy, rdz) = (1.0 / g.dx, 1.0 / g.dy, 1.0 / g.dz);
    let mut sum2 = 0.0f64;
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let v = g.voxel(i, j, k);
                let d = rdx * (f.ex[v] - f.ex[v - 1])
                    + rdy * (f.ey[v] - f.ey[v - dj])
                    + rdz * (f.ez[v] - f.ez[v - dk])
                    - f.rho[v] / g.eps0;
                err[v] = d;
                sum2 += (d as f64) * (d as f64);
            }
        }
    }
    (sum2 / g.n_live() as f64).sqrt()
}

/// Mirror the node-centered `∇·E` error field on locally periodic axes so
/// the `n+1` ghost planes (read by [`apply_marder_e`]'s forward gradient)
/// are valid. `Exchange` axes are filled by the [`Halo`] instead.
fn mirror_div_e_err(err: &mut [f32], g: &Grid, bcs: FieldBcs) {
    for (axis, &bc) in bcs.iter().enumerate().take(3) {
        if bc == FieldBc::Periodic {
            let n = n_of(g, axis);
            copy_plane(err, g, axis, 1, n + 1);
        }
    }
}

/// The Marder correction `E += κ ∇err` over live voxels, with κ chosen
/// for diffusive stability. Does *not* refresh ghost planes afterwards.
fn apply_marder_e(f: &mut FieldArray, g: &Grid, err: &[f32]) {
    let inv2 = 1.0 / (g.dx * g.dx) + 1.0 / (g.dy * g.dy) + 1.0 / (g.dz * g.dz);
    // Half the diffusive-stability limit: at the limit (0.5/inv2) the
    // Nyquist checkerboard mode has amplification factor −1 and never
    // decays; at half, it is killed in one pass and every other mode is
    // strictly damped.
    let kappa = 0.25 / inv2;
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let v = g.voxel(i, j, k);
                f.ex[v] += kappa * (err[v + 1] - err[v]) / g.dx;
                f.ey[v] += kappa * (err[v + dj] - err[v]) / g.dy;
                f.ez[v] += kappa * (err[v + dk] - err[v]) / g.dz;
            }
        }
    }
}

/// Deposit the charge density of every species into `f.rho` with valid
/// live entries everywhere: local deposit + periodic fold, then the halo's
/// ghost-plane fold into the owning neighbour.
pub fn refresh_rho<H: Halo>(
    f: &mut FieldArray,
    g: &Grid,
    species: &[Species],
    halo: &mut H,
) -> Result<(), H::Error> {
    f.clear_rho();
    for sp in species {
        deposit_rho(f, g, sp.iter(), sp.q);
    }
    sync_rho(f, g, bcs_of(g));
    halo.fold_rho(&mut f.rho, g)
}

/// One Marder pass: `E += κ ∇(∇·E − ρ/ε0)` with κ chosen for diffusive
/// stability. Requires `f.rho` to hold the current charge density (see
/// [`refresh_rho`]). The halo refreshes exactly the ghost planes the local
/// mirrors fill on periodic axes, so a decomposed pass is identical to the
/// single-domain one. Returns the pre-pass RMS error over this domain.
pub fn marder_pass_e<H: Halo>(
    f: &mut FieldArray,
    g: &Grid,
    scratch: &mut Vec<f32>,
    halo: &mut H,
) -> Result<f64, H::Error> {
    let bcs = bcs_of(g);
    halo.exchange_e_normal_low(f, g)?;
    let rms = compute_div_e_err(f, g, scratch);
    mirror_div_e_err(scratch, g, bcs);
    halo.exchange_scalar_high(scratch, g)?;
    apply_marder_e(f, g, scratch);
    sync_e(f, g, bcs);
    halo.exchange_e(f, g)?;
    Ok(rms)
}

/// [`marder_pass_e`] on a single domain.
pub fn clean_div_e(f: &mut FieldArray, g: &Grid, scratch: &mut Vec<f32>) -> f64 {
    let Ok(rms) = marder_pass_e(f, g, scratch, &mut Isolated);
    rms
}

/// Cell-centered `∇·B` (in `cB` units); returns the RMS over live cells.
/// FDTD preserves `∇·B = 0` to roundoff, so this is a structural check and
/// the repair pass below exists for parity with VPIC's `clean_div_b`.
pub fn compute_div_b_err(f: &FieldArray, g: &Grid, err: &mut Vec<f32>) -> f64 {
    err.clear();
    err.resize(g.n_voxels(), 0.0);
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    let mut sum2 = 0.0f64;
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let v = g.voxel(i, j, k);
                let d = (f.cbx[v + 1] - f.cbx[v]) / g.dx
                    + (f.cby[v + dj] - f.cby[v]) / g.dy
                    + (f.cbz[v + dk] - f.cbz[v]) / g.dz;
                err[v] = d;
                sum2 += (d as f64) * (d as f64);
            }
        }
    }
    (sum2 / g.n_live() as f64).sqrt()
}

/// Mirror the cell-centered `∇·B` error field on locally periodic axes so
/// the `0` ghost planes (read by [`apply_marder_b`]'s backward gradient)
/// are valid.
fn mirror_div_b_err(err: &mut [f32], g: &Grid, bcs: FieldBcs) {
    for (axis, &bc) in bcs.iter().enumerate().take(3) {
        if bc == FieldBc::Periodic {
            let n = n_of(g, axis);
            copy_plane(err, g, axis, n, 0);
        }
    }
}

/// The Marder correction on `B` over live voxels (cell-centered error,
/// gradient back to faces). Does not refresh ghost planes afterwards.
fn apply_marder_b(f: &mut FieldArray, g: &Grid, err: &[f32]) {
    let inv2 = 1.0 / (g.dx * g.dx) + 1.0 / (g.dy * g.dy) + 1.0 / (g.dz * g.dz);
    // Half the stability limit — see `apply_marder_e` on the Nyquist mode.
    let kappa = 0.25 / inv2;
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let v = g.voxel(i, j, k);
                f.cbx[v] += kappa * (err[v] - err[v - 1]) / g.dx;
                f.cby[v] += kappa * (err[v] - err[v - dj]) / g.dy;
                f.cbz[v] += kappa * (err[v] - err[v - dk]) / g.dz;
            }
        }
    }
}

/// One Marder pass on `B`: `cB −= κ ∇(∇·cB)` (cell-centered error,
/// gradient back to faces). Returns the pre-pass RMS error over this
/// domain.
pub fn marder_pass_b<H: Halo>(
    f: &mut FieldArray,
    g: &Grid,
    scratch: &mut Vec<f32>,
    halo: &mut H,
) -> Result<f64, H::Error> {
    let bcs = bcs_of(g);
    let rms = compute_div_b_err(f, g, scratch);
    mirror_div_b_err(scratch, g, bcs);
    halo.exchange_scalar_low(scratch, g)?;
    apply_marder_b(f, g, scratch);
    sync_b(f, g, bcs);
    halo.exchange_b(f, g)?;
    Ok(rms)
}

/// [`marder_pass_b`] on a single domain.
pub fn clean_div_b(f: &mut FieldArray, g: &Grid, scratch: &mut Vec<f32>) -> f64 {
    let Ok(rms) = marder_pass_b(f, g, scratch, &mut Isolated);
    rms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ParticleBc;
    use std::f64::consts::PI;

    /// The plane helpers walked one `g.voxel()` pair per element, with no
    /// use of [`Grid::plane_runs`], and the `sync_b` built on them: the
    /// reference the run-based helpers are compared against, bit for bit
    /// and (in the ignored gate below) for speed.
    mod per_element {
        use super::super::*;

        /// `f(s, d)` for every voxel pair of planes `src`/`dst` along
        /// `axis`, lower transverse axis fastest.
        fn for_each_pair(
            g: &Grid,
            axis: usize,
            src: usize,
            dst: usize,
            mut f: impl FnMut(usize, usize),
        ) {
            let (sx, sy, sz) = g.strides();
            let dims = [sx, sy, sz];
            let (a1, a2) = match axis {
                0 => (1, 2),
                1 => (0, 2),
                _ => (0, 1),
            };
            for c2 in 0..dims[a2] {
                for c1 in 0..dims[a1] {
                    let mut cs = [0usize; 3];
                    cs[a1] = c1;
                    cs[a2] = c2;
                    cs[axis] = src;
                    let s = g.voxel(cs[0], cs[1], cs[2]);
                    cs[axis] = dst;
                    let d = g.voxel(cs[0], cs[1], cs[2]);
                    f(s, d);
                }
            }
        }

        pub fn copy_plane(arr: &mut [f32], g: &Grid, axis: usize, src: usize, dst: usize) {
            for_each_pair(g, axis, src, dst, |s, d| arr[d] = arr[s]);
        }

        pub fn fold_plane(arr: &mut [f32], g: &Grid, axis: usize, src: usize, dst: usize) {
            for_each_pair(g, axis, src, dst, |s, d| arr[d] += arr[s]);
        }

        pub fn zero_plane(arr: &mut [f32], g: &Grid, axis: usize, idx: usize) {
            for_each_pair(g, axis, idx, idx, |s, _| arr[s] = 0.0);
        }

        /// [`super::super::sync_b`], statement for statement, on the
        /// per-element helpers above.
        pub fn sync_b(f: &mut FieldArray, g: &Grid, bcs: FieldBcs) {
            for axis in 0..3 {
                let n = n_of(g, axis);
                let (lo, hi) = (bcs[axis], bcs[axis + 3]);
                let own: &mut Vec<f32> = match axis {
                    0 => &mut f.cbx,
                    1 => &mut f.cby,
                    _ => &mut f.cbz,
                };
                if lo == FieldBc::Periodic {
                    copy_plane(own, g, axis, 1, n + 1);
                    copy_plane(own, g, axis, n, 0);
                } else {
                    if lo == FieldBc::Pec {
                        zero_plane(own, g, axis, 1);
                        zero_plane(own, g, axis, 0);
                    }
                    if hi == FieldBc::Pec {
                        zero_plane(own, g, axis, n + 1);
                    }
                }
                let transverse: [&mut Vec<f32>; 2] = match axis {
                    0 => [&mut f.cby, &mut f.cbz],
                    1 => [&mut f.cbx, &mut f.cbz],
                    _ => [&mut f.cbx, &mut f.cby],
                };
                for c in transverse {
                    if lo == FieldBc::Periodic {
                        copy_plane(c, g, axis, n, 0);
                        copy_plane(c, g, axis, 1, n + 1);
                        continue;
                    }
                    if lo == FieldBc::Pec {
                        copy_plane(c, g, axis, 1, 0);
                    }
                    if hi == FieldBc::Pec {
                        copy_plane(c, g, axis, n, n + 1);
                    }
                }
            }
        }
    }

    /// The shapes the plane tests run: the degenerate ones the LPI decks
    /// use (one cell along two axes), a small box with three different
    /// extents, and `halo-socket`'s slab.
    const SHAPES: [(usize, usize, usize); 5] =
        [(291, 1, 1), (1, 7, 1), (1, 1, 5), (4, 3, 2), (8, 64, 64)];

    /// Every voxel distinct and not exactly representable in thirds, so a
    /// transposed, shifted or overlapping run changes bits.
    fn distinct(g: &Grid) -> Vec<f32> {
        (0..g.n_voxels()).map(|v| (v + 1) as f32 / 3.0).collect()
    }

    fn bits(arr: &[f32]) -> Vec<u32> {
        arr.iter().map(|x| x.to_bits()).collect()
    }

    /// The SRS point grid's boundary set: walls in x, periodic in y and z.
    fn pec_x_grid(n: (usize, usize, usize)) -> Grid {
        use ParticleBc::{Absorb, Periodic};
        let dt = Grid::courant_dt(1.0, (0.25, 0.25, 0.25), 0.9);
        let bc = [Absorb, Periodic, Periodic, Absorb, Periodic, Periodic];
        Grid::new(n, (0.25, 0.25, 0.25), dt, bc)
    }

    #[test]
    fn plane_helpers_match_the_per_element_walk() {
        for shape in SHAPES {
            let g = Grid::periodic(shape, (1.0, 1.0, 1.0), 0.1);
            for axis in 0..3 {
                let n = n_of(&g, axis);
                // Every (src, dst) the syncs use.
                for (src, dst) in [(1, n + 1), (n, 0), (n + 1, 1), (1, 0), (n, n + 1)] {
                    let what = format!("{shape:?} axis {axis} {src}->{dst}");
                    let (mut got, mut want) = (distinct(&g), distinct(&g));
                    copy_plane(&mut got, &g, axis, src, dst);
                    per_element::copy_plane(&mut want, &g, axis, src, dst);
                    assert_ne!(
                        bits(&got),
                        bits(&distinct(&g)),
                        "copy moved nothing: {what}"
                    );
                    assert_eq!(bits(&got), bits(&want), "copy {what}");
                    // On top of the copy, so the fold sees what a sync's
                    // fold-then-mirror sequence leaves behind.
                    fold_plane(&mut got, &g, axis, src, dst);
                    per_element::fold_plane(&mut want, &g, axis, src, dst);
                    assert_eq!(bits(&got), bits(&want), "fold {what}");
                    zero_plane(&mut got, &g, axis, src);
                    per_element::zero_plane(&mut want, &g, axis, src);
                    assert_eq!(bits(&got), bits(&want), "zero {what}");
                }
            }
        }
    }

    #[test]
    fn sync_b_matches_the_per_element_sync() {
        for shape in SHAPES {
            for g in [
                Grid::periodic(shape, (1.0, 1.0, 1.0), 0.1),
                pec_x_grid(shape),
            ] {
                let mut got = FieldArray::new(&g);
                got.cbx = distinct(&g);
                got.cby = got.cbx.iter().map(|x| x + 0.25).collect();
                got.cbz = got.cbx.iter().map(|x| x + 0.75).collect();
                let mut want = got.clone();
                sync_b(&mut got, &g, bcs_of(&g));
                per_element::sync_b(&mut want, &g, bcs_of(&g));
                for (a, b) in [
                    (&got.cbx, &want.cbx),
                    (&got.cby, &want.cby),
                    (&got.cbz, &want.cbz),
                ] {
                    assert_eq!(bits(a), bits(b), "{shape:?} {:?}", g.bc);
                }
            }
        }
    }

    /// The quasi-1D SRS grid: the slab-parallel updates against their
    /// serial references where the array is almost all ghost.
    #[test]
    fn thin_grid_advance_matches_serial() {
        let g = pec_x_grid((291, 1, 1));
        let mut f = FieldArray::new(&g);
        let fill = |arr: &mut Vec<f32>, phase: f32| {
            for (v, x) in arr.iter_mut().enumerate() {
                *x = (0.37 * v as f32 + phase).sin();
            }
        };
        fill(&mut f.ex, 0.1);
        fill(&mut f.ey, 0.2);
        fill(&mut f.ez, 0.3);
        fill(&mut f.cbx, 0.4);
        fill(&mut f.cby, 0.5);
        fill(&mut f.cbz, 0.6);
        fill(&mut f.jx, 0.7);
        fill(&mut f.jy, 0.8);
        fill(&mut f.jz, 0.9);
        let mut want = f.clone();
        let start = bits(&f.cby);
        for _ in 0..3 {
            advance_b(&mut f, &g, 0.5);
            advance_e(&mut f, &g);
            advance_b(&mut f, &g, 0.5);
            advance_b_serial(&mut want, &g, 0.5);
            advance_e_serial(&mut want, &g);
            advance_b_serial(&mut want, &g, 0.5);
        }
        assert_ne!(bits(&f.cby), start, "the update moved nothing");
        for (name, a, b) in [
            ("ex", &f.ex, &want.ex),
            ("ey", &f.ey, &want.ey),
            ("ez", &f.ez, &want.ez),
            ("cbx", &f.cbx, &want.cbx),
            ("cby", &f.cby, &want.cby),
            ("cbz", &f.cbz, &want.cbz),
        ] {
            assert_eq!(bits(a), bits(b), "{name}");
        }
    }

    /// Relative speed gate (`scripts/ci.sh kernel`): both syncs timed in
    /// one process on the SRS point grid so host drift cancels. The
    /// run-based sync measures ≈ 30× the per-element one; 4× keeps the
    /// quasi-1D cost from coming back unnoticed.
    #[test]
    #[ignore = "timing gate; run in release via scripts/ci.sh kernel"]
    fn run_based_sync_b_is_at_least_4x_the_per_element_walk() {
        use std::time::Instant;
        let g = pec_x_grid((291, 1, 1));
        let bcs = bcs_of(&g);
        let mut f = FieldArray::new(&g);
        f.cbx = distinct(&g);
        f.cby = distinct(&g);
        f.cbz = distinct(&g);
        let mut time = |sync: fn(&mut FieldArray, &Grid, FieldBcs)| {
            // Best of five batches: a preempted batch cannot fail the gate.
            (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..2000 {
                        sync(std::hint::black_box(&mut f), &g, bcs);
                    }
                    t0.elapsed().as_secs_f64() / 2000.0
                })
                .fold(f64::INFINITY, f64::min)
        };
        let reference = time(per_element::sync_b);
        let runs = time(sync_b);
        println!(
            "sync_b 291x1x1: per-element {:.2} us, run-based {:.2} us ({:.1}x)",
            reference * 1e6,
            runs * 1e6,
            reference / runs
        );
        assert!(
            reference >= 4.0 * runs,
            "run-based sync_b is only {:.1}x the per-element walk",
            reference / runs
        );
    }

    fn plane_wave_grid(n: usize) -> Grid {
        let dx = 1.0 / n as f32;
        let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.5);
        Grid::periodic((n, 1, 1), (dx, dx, dx), dt)
    }

    /// A uniform `E` on a periodic box is divergence-free; the stencil at
    /// the first node plane reads the own-axis component's ghost plane 0,
    /// which `sync_e` must mirror from plane `n`.
    #[test]
    fn uniform_e_has_zero_divergence_after_sync() {
        let g = Grid::periodic((8, 4, 4), (0.5, 0.5, 0.5), 0.1);
        let mut f = FieldArray::new(&g);
        for k in 1..=g.nz {
            for j in 1..=g.ny {
                for i in 1..=g.nx {
                    let v = g.voxel(i, j, k);
                    f.ex[v] = 1.0;
                    f.ey[v] = 2.0;
                    f.ez[v] = 3.0;
                }
            }
        }
        sync_e(&mut f, &g, bcs_of(&g));
        let mut scratch = Vec::new();
        let rms = compute_div_e_err(&f, &g, &mut scratch);
        assert!(rms < 1e-12, "uniform field has divergence rms {rms}");
    }

    /// Launch an x-propagating plane wave (Ey, cBz) and check it advects at
    /// (numerical) light speed with stable amplitude.
    #[test]
    fn vacuum_plane_wave_propagates() {
        let n = 64;
        let g = plane_wave_grid(n);
        let mut f = FieldArray::new(&g);
        let kx = 2.0 * PI; // one wavelength across the unit box
        for i in 1..=n {
            let x_node = (i - 1) as f64 * g.dx as f64;
            let x_edge = x_node + 0.5 * g.dx as f64;
            for j in 0..g.strides().1 {
                for k in 0..g.strides().2 {
                    let v = g.voxel(i, j, k);
                    f.ey[v] = (kx * x_node).sin() as f32;
                    // cBz staggered by dx/2 in space and dt/2 in time.
                    f.cbz[v] = (kx * (x_edge + 0.5 * g.dt as f64)).sin() as f32;
                }
            }
        }
        sync_e(&mut f, &g, bcs_of(&g));
        sync_b(&mut f, &g, bcs_of(&g));
        let e0 = f.energy_e(&g) + f.energy_b(&g);
        // One full crossing of the box takes 1/c = 1 time unit.
        let steps = (1.0 / g.dt as f64).round() as usize;
        for _ in 0..steps {
            advance_b(&mut f, &g, 0.5);
            advance_b(&mut f, &g, 0.5);
            advance_e(&mut f, &g);
        }
        let e1 = f.energy_e(&g) + f.energy_b(&g);
        assert!((e1 - e0).abs() / e0 < 1e-3, "energy drift: {e0} -> {e1}");
        // Wave should be close to its initial phase (small numerical
        // dispersion at 64 cells/wavelength).
        let v = g.voxel(9, 1, 1);
        let want = (kx * 8.0 * g.dx as f64).sin() as f32;
        assert!(
            (f.ey[v] - want).abs() < 0.05,
            "got {} want {}",
            f.ey[v],
            want
        );
    }

    #[test]
    fn div_b_stays_zero() {
        let n = 16;
        let dx = 0.3;
        let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.9);
        let g = Grid::periodic((n, n, n), (dx, dx, dx), dt);
        let mut f = FieldArray::new(&g);
        // Random-ish but smooth E seed.
        for k in 1..=n {
            for j in 1..=n {
                for i in 1..=n {
                    let v = g.voxel(i, j, k);
                    let (a, b, c) = (i as f32, j as f32, k as f32);
                    f.ex[v] = (0.3 * a + 0.11 * b).sin();
                    f.ey[v] = (0.2 * b - 0.07 * c).cos();
                    f.ez[v] = (0.15 * c + 0.05 * a).sin();
                }
            }
        }
        sync_e(&mut f, &g, bcs_of(&g));
        let mut scratch = Vec::new();
        for _ in 0..20 {
            advance_b(&mut f, &g, 0.5);
            advance_b(&mut f, &g, 0.5);
            advance_e(&mut f, &g);
        }
        let rms = compute_div_b_err(&f, &g, &mut scratch);
        assert!(rms < 1e-5, "div B rms = {rms}");
    }

    #[test]
    fn marder_pass_reduces_div_e_error() {
        let n = 16;
        let g = Grid::periodic((n, n, n), (0.5, 0.5, 0.5), 0.1);
        let mut f = FieldArray::new(&g);
        // Seed a divergence error: rho = 0 but E has nonzero divergence.
        for k in 1..=n {
            for j in 1..=n {
                for i in 1..=n {
                    let v = g.voxel(i, j, k);
                    f.ex[v] = ((i as f32) * 0.7).sin();
                }
            }
        }
        sync_e(&mut f, &g, bcs_of(&g));
        let mut scratch = Vec::new();
        let before = compute_div_e_err(&f, &g, &mut scratch);
        let mut last = before;
        for _ in 0..50 {
            clean_div_e(&mut f, &g, &mut scratch);
        }
        let after = compute_div_e_err(&f, &g, &mut scratch);
        assert!(after < 0.2 * before, "marder: {before} -> {after}");
        last = last.max(after);
        assert!(last.is_finite());
    }

    #[test]
    fn pec_walls_zero_tangential_e() {
        use crate::grid::ParticleBc;
        let g = Grid::new(
            (8, 4, 4),
            (0.5, 0.5, 0.5),
            0.1,
            [
                ParticleBc::Reflect,
                ParticleBc::Periodic,
                ParticleBc::Periodic,
                ParticleBc::Reflect,
                ParticleBc::Periodic,
                ParticleBc::Periodic,
            ],
        );
        assert_eq!(
            bcs_of(&g),
            [
                FieldBc::Pec,
                FieldBc::Periodic,
                FieldBc::Periodic,
                FieldBc::Pec,
                FieldBc::Periodic,
                FieldBc::Periodic,
            ]
        );
        let mut f = FieldArray::new(&g);
        for v in 0..g.n_voxels() {
            f.ey[v] = 1.0;
            f.ez[v] = 1.0;
        }
        sync_e(&mut f, &g, bcs_of(&g));
        for j in 1..=g.ny {
            for k in 1..=g.nz {
                assert_eq!(f.ey[g.voxel(1, j, k)], 0.0);
                assert_eq!(f.ez[g.voxel(1, j, k)], 0.0);
                assert_eq!(f.ey[g.voxel(g.nx + 1, j, k)], 0.0);
                assert_eq!(f.ez[g.voxel(g.nx + 1, j, k)], 0.0);
            }
        }
    }

    #[test]
    fn sync_j_folds_periodic_images() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let mut f = FieldArray::new(&g);
        // Deposit onto the aliased high plane and check it folds into plane 1.
        let v_hi = g.voxel(2, g.ny + 1, 2);
        let v_lo = g.voxel(2, 1, 2);
        f.jx[v_hi] = 2.0;
        f.jx[v_lo] = 1.0;
        sync_j(&mut f, &g, bcs_of(&g));
        assert_eq!(f.jx[v_lo], 3.0);
        assert_eq!(f.jx[v_hi], 3.0); // mirrored image
    }
}
