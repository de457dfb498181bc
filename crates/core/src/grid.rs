//! Grid geometry, voxel indexing and particle boundary topology.
//!
//! The domain is a regular brick of `nx × ny × nz` cells ("voxels" in VPIC
//! terminology) surrounded by a one-voxel ghost ring, so each field/voxel
//! array has `(nx+2)(ny+2)(nz+2)` entries and live voxels have indices
//! `1..=nx` along each axis. Particles store the index of the voxel that
//! contains them plus a cell-relative offset in `[-1, 1]³` (one voxel spans
//! two offset units per axis), exactly as in VPIC: this keeps positions
//! accurate in single precision regardless of the global domain size.
//!
//! The boundary topology is not stored: [`Grid::neighbor`] is `v ± stride`
//! wherever a one-byte-per-voxel edge mask says the voxel is interior to
//! that face, and reads `bc[face]` only on the domain's faces (a periodic
//! face wraps along its row, the others return a sentinel). A crossing
//! particle therefore touches one byte of grid state, not a 48-byte table
//! row, and a `bc` changed after construction needs no rebuild.

/// Particle boundary condition attached to one face of the domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParticleBc {
    /// Particle wraps around to the opposite side of the local domain.
    Periodic,
    /// Particle specularly reflects (normal momentum flips).
    Reflect,
    /// Particle is removed from the simulation.
    Absorb,
    /// Particle is handed to the owner of the adjacent domain
    /// (used by `vpic-parallel`; single-domain runs treat it like `Absorb`
    /// plus a report so misconfigurations are loud).
    Migrate,
}

/// Face indices follow VPIC's convention: `0,1,2` are the low `-x,-y,-z`
/// faces and `3,4,5` the high `+x,+y,+z` faces (`face = axis + 3·(dir>0)`).
pub const FACE_LOW_X: usize = 0;
pub const FACE_LOW_Y: usize = 1;
pub const FACE_LOW_Z: usize = 2;
pub const FACE_HIGH_X: usize = 3;
pub const FACE_HIGH_Y: usize = 4;
pub const FACE_HIGH_Z: usize = 5;

/// Sentinel neighbor ids [`Grid::neighbor`] returns in place of a voxel.
pub const NEIGHBOR_REFLECT: i64 = -1;
pub const NEIGHBOR_ABSORB: i64 = -2;

/// Encode "leaves the local domain through `face`" as a sentinel neighbor.
#[inline]
pub fn neighbor_migrate(face: usize) -> i64 {
    -(16 + face as i64)
}

/// Decode a migrate sentinel back into the exit face, if it is one.
#[inline]
pub fn decode_migrate(neighbor: i64) -> Option<usize> {
    if (-21..=-16).contains(&neighbor) {
        Some((-neighbor - 16) as usize)
    } else {
        None
    }
}

/// One ghost-inclusive plane as contiguous runs (see [`Grid::plane_runs`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlaneRuns {
    /// Index of the first entry of run 0.
    pub first: usize,
    /// Entries per run.
    pub run_len: usize,
    /// Distance between the starts of consecutive runs.
    pub run_stride: usize,
    /// Number of runs.
    pub n_runs: usize,
}

impl PlaneRuns {
    /// Entries in the plane.
    #[inline]
    pub fn points(&self) -> usize {
        self.run_len * self.n_runs
    }

    /// Call `f(start, len)` for every run, in order. The unit-run case (an
    /// x plane) gets its own copy of the loop so that, with `f` inlined,
    /// `len` is the constant 1 there and a slice copy of `len` entries
    /// compiles to one load and one store, not a `memcpy` call per entry.
    #[inline(always)]
    pub fn for_each_run(&self, mut f: impl FnMut(usize, usize)) {
        let starts = (0..self.n_runs).map(|r| self.first + r * self.run_stride);
        if self.run_len == 1 {
            starts.for_each(|s| f(s, 1));
        } else {
            starts.for_each(|s| f(s, self.run_len));
        }
    }
}

/// Regular Yee grid with ghost ring and particle-boundary topology.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Live cells along x/y/z (ghosts excluded).
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Cell sizes.
    pub dx: f32,
    pub dy: f32,
    pub dz: f32,
    /// Time step.
    pub dt: f32,
    /// Speed of light (normalized units default to 1).
    pub cvac: f32,
    /// Vacuum permittivity (normalized units default to 1).
    pub eps0: f32,
    /// Coordinates of the low corner of the live region.
    pub x0: f32,
    pub y0: f32,
    pub z0: f32,
    /// Array strides including ghosts: `sx = nx + 2`, etc.
    sx: usize,
    sy: usize,
    sz: usize,
    /// Per-face particle boundary conditions. [`Grid::neighbor`] reads
    /// them at every edge crossing, so a change takes effect at once.
    pub bc: [ParticleBc; 6],
    /// One byte per voxel: bit `face` is set when the live voxel lies on
    /// domain face `face`, [`EDGE_GHOST`] when the voxel is a ghost. It
    /// is all [`Grid::neighbor`] needs besides `v ± stride` — geometry
    /// only, so nothing depends on `bc` and nothing is ever rebuilt.
    edge: Vec<u8>,
}

/// [`Grid::edge`] bit of a ghost voxel (bits 0–5 are the faces).
const EDGE_GHOST: u8 = 1 << 6;

impl Grid {
    /// Build a grid with the given live cell counts, cell sizes, time step
    /// and per-face particle boundary conditions.
    pub fn new(
        (nx, ny, nz): (usize, usize, usize),
        (dx, dy, dz): (f32, f32, f32),
        dt: f32,
        bc: [ParticleBc; 6],
    ) -> Self {
        assert!(
            nx >= 1 && ny >= 1 && nz >= 1,
            "grid needs at least one cell per axis"
        );
        assert!(dx > 0.0 && dy > 0.0 && dz > 0.0 && dt > 0.0);
        let (sx, sy, sz) = (nx + 2, ny + 2, nz + 2);
        let mut edge = vec![EDGE_GHOST; sx * sy * sz];
        for k in 1..=nz {
            for j in 1..=ny {
                for i in 1..=nx {
                    let (c, n) = ([i, j, k], [nx, ny, nz]);
                    let mut bits = 0;
                    for axis in 0..3 {
                        bits |= u8::from(c[axis] == 1) << axis;
                        bits |= u8::from(c[axis] == n[axis]) << (axis + 3);
                    }
                    edge[i + sx * (j + sy * k)] = bits;
                }
            }
        }
        Grid {
            nx,
            ny,
            nz,
            dx,
            dy,
            dz,
            dt,
            cvac: 1.0,
            eps0: 1.0,
            x0: 0.0,
            y0: 0.0,
            z0: 0.0,
            sx,
            sy,
            sz,
            bc,
            edge,
        }
    }

    /// Convenience constructor: fully periodic box.
    pub fn periodic(
        (nx, ny, nz): (usize, usize, usize),
        (dx, dy, dz): (f32, f32, f32),
        dt: f32,
    ) -> Self {
        Self::new((nx, ny, nz), (dx, dy, dz), dt, [ParticleBc::Periodic; 6])
    }

    /// The largest stable time step for the vacuum FDTD solver times `frac`
    /// (`frac < 1`; VPIC-style runs typically use ~0.95–0.99 of Courant).
    pub fn courant_dt(cvac: f32, (dx, dy, dz): (f32, f32, f32), frac: f32) -> f32 {
        let inv = 1.0 / (dx * dx) + 1.0 / (dy * dy) + 1.0 / (dz * dz);
        frac / (cvac * inv.sqrt())
    }

    /// Number of array entries per field component, ghosts included.
    #[inline]
    pub fn n_voxels(&self) -> usize {
        self.sx * self.sy * self.sz
    }

    /// Number of live (non-ghost) cells.
    #[inline]
    pub fn n_live(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Strides (including ghosts) along each axis.
    #[inline]
    pub fn strides(&self) -> (usize, usize, usize) {
        (self.sx, self.sy, self.sz)
    }

    /// Linear voxel index from (i, j, k) including ghosts (`0..=n+1`).
    #[inline]
    pub fn voxel(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.sx && j < self.sy && k < self.sz);
        i + self.sx * (j + self.sy * k)
    }

    /// The full (ghost-inclusive) plane `idx` normal to `axis` as
    /// contiguous runs of the voxel array: `n_runs` runs of `run_len`
    /// entries, run `r` starting at `first + r * run_stride`. A z plane is
    /// one run of `sx·sy`, a y plane `sz` runs of `sx`, an x plane `sy·sz`
    /// runs of one entry. Walking the runs in order visits the plane with
    /// the lower transverse axis fastest — the order every plane copy,
    /// fold and halo message in the workspace uses.
    #[inline]
    pub fn plane_runs(&self, axis: usize, idx: usize) -> PlaneRuns {
        let (sx, sy, sz) = (self.sx, self.sy, self.sz);
        debug_assert!(axis < 3 && idx < [sx, sy, sz][axis]);
        match axis {
            0 => PlaneRuns {
                first: idx,
                run_len: 1,
                run_stride: sx,
                n_runs: sy * sz,
            },
            1 => PlaneRuns {
                first: idx * sx,
                run_len: sx,
                run_stride: sx * sy,
                n_runs: sz,
            },
            _ => PlaneRuns {
                first: idx * sx * sy,
                run_len: sx * sy,
                run_stride: sx * sy,
                n_runs: 1,
            },
        }
    }

    /// Inverse of [`Grid::voxel`].
    #[inline]
    pub fn voxel_coords(&self, v: usize) -> (usize, usize, usize) {
        let i = v % self.sx;
        let j = (v / self.sx) % self.sy;
        let k = v / (self.sx * self.sy);
        (i, j, k)
    }

    /// Whether a voxel index refers to a live (non-ghost) cell.
    #[inline]
    pub fn is_live(&self, v: usize) -> bool {
        let (i, j, k) = self.voxel_coords(v);
        (1..=self.nx).contains(&i) && (1..=self.ny).contains(&j) && (1..=self.nz).contains(&k)
    }

    /// Neighbor id for leaving live voxel `v` through `face` (see the
    /// sentinels [`NEIGHBOR_REFLECT`], [`NEIGHBOR_ABSORB`], [`neighbor_migrate`]).
    ///
    /// Away from the domain edge that is `v ± stride`; the edge mask says
    /// when it is not, and only then is `bc[face]` consulted: a periodic
    /// face wraps to the far side of the same row (`v ∓ (n−1)·stride`),
    /// the others return their sentinel. Ghost voxels hold no particles
    /// and absorb through every face.
    #[inline]
    pub fn neighbor(&self, v: usize, face: usize) -> i64 {
        debug_assert!(face < 6);
        let (axis, high) = (face % 3, face >= 3);
        let stride = [1, self.sx, self.sx * self.sy][axis];
        let edge = self.edge[v];
        if edge & (EDGE_GHOST | 1 << face) == 0 {
            return (if high { v + stride } else { v - stride }) as i64;
        }
        if edge & EDGE_GHOST != 0 {
            return NEIGHBOR_ABSORB;
        }
        match self.bc[face] {
            ParticleBc::Periodic => {
                let span = ([self.nx, self.ny, self.nz][axis] - 1) * stride;
                (if high { v - span } else { v + span }) as i64
            }
            ParticleBc::Reflect => NEIGHBOR_REFLECT,
            ParticleBc::Absorb => NEIGHBOR_ABSORB,
            ParticleBc::Migrate => neighbor_migrate(face),
        }
    }

    /// Global x coordinate of a particle at offset `ox ∈ [-1,1]` within
    /// voxel x-index `i` (live indices start at 1).
    #[inline]
    pub fn particle_x(&self, i: usize, ox: f32) -> f32 {
        self.x0 + ((i as f32 - 1.0) + 0.5 * (ox + 1.0)) * self.dx
    }

    /// Global y coordinate (see [`Grid::particle_x`]).
    #[inline]
    pub fn particle_y(&self, j: usize, oy: f32) -> f32 {
        self.y0 + ((j as f32 - 1.0) + 0.5 * (oy + 1.0)) * self.dy
    }

    /// Global z coordinate (see [`Grid::particle_x`]).
    #[inline]
    pub fn particle_z(&self, k: usize, oz: f32) -> f32 {
        self.z0 + ((k as f32 - 1.0) + 0.5 * (oz + 1.0)) * self.dz
    }

    /// Physical extents of the live region.
    #[inline]
    pub fn extent(&self) -> (f32, f32, f32) {
        (
            self.nx as f32 * self.dx,
            self.ny as f32 * self.dy,
            self.nz as f32 * self.dz,
        )
    }

    /// Volume of one cell.
    #[inline]
    pub fn dv(&self) -> f32 {
        self.dx * self.dy * self.dz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::periodic((4, 3, 2), (1.0, 1.0, 1.0), 0.1)
    }

    #[test]
    fn voxel_roundtrip() {
        let g = grid();
        for v in 0..g.n_voxels() {
            let (i, j, k) = g.voxel_coords(v);
            assert_eq!(g.voxel(i, j, k), v);
        }
    }

    #[test]
    fn plane_runs_walk_the_plane_in_voxel_order() {
        for shape in [(291, 1, 1), (1, 7, 1), (1, 1, 5), (4, 3, 2)] {
            let g = Grid::periodic(shape, (1.0, 1.0, 1.0), 0.1);
            let (sx, sy, sz) = g.strides();
            for (axis, n) in [sx, sy, sz].into_iter().enumerate() {
                for idx in 0..n {
                    let runs = g.plane_runs(axis, idx);
                    let mut got = Vec::new();
                    runs.for_each_run(|s, len| got.extend(s..s + len));
                    // Ascending voxel index is "lower transverse axis
                    // fastest", whichever axis the plane is normal to.
                    let want: Vec<usize> = (0..g.n_voxels())
                        .filter(|&v| {
                            let (i, j, k) = g.voxel_coords(v);
                            [i, j, k][axis] == idx
                        })
                        .collect();
                    assert_eq!(got, want, "{shape:?} axis {axis} plane {idx}");
                    assert_eq!(runs.points(), want.len());
                }
            }
        }
    }

    #[test]
    fn live_count() {
        let g = grid();
        let live = (0..g.n_voxels()).filter(|&v| g.is_live(v)).count();
        assert_eq!(live, 4 * 3 * 2);
        assert_eq!(g.n_live(), 24);
    }

    #[test]
    fn periodic_neighbors_wrap() {
        let g = grid();
        let v = g.voxel(1, 2, 1);
        assert_eq!(g.neighbor(v, FACE_LOW_X), g.voxel(4, 2, 1) as i64);
        let v = g.voxel(4, 2, 1);
        assert_eq!(g.neighbor(v, FACE_HIGH_X), g.voxel(1, 2, 1) as i64);
        let v = g.voxel(2, 3, 2);
        assert_eq!(g.neighbor(v, FACE_HIGH_Y), g.voxel(2, 1, 2) as i64);
        assert_eq!(g.neighbor(v, FACE_HIGH_Z), g.voxel(2, 3, 1) as i64);
    }

    #[test]
    fn interior_neighbors_step_by_one() {
        let g = grid();
        let v = g.voxel(2, 2, 1);
        assert_eq!(g.neighbor(v, FACE_HIGH_X), g.voxel(3, 2, 1) as i64);
        assert_eq!(g.neighbor(v, FACE_LOW_Y), g.voxel(2, 1, 1) as i64);
    }

    #[test]
    fn reflect_absorb_migrate_sentinels() {
        let bc = [
            ParticleBc::Reflect,
            ParticleBc::Absorb,
            ParticleBc::Migrate,
            ParticleBc::Reflect,
            ParticleBc::Absorb,
            ParticleBc::Migrate,
        ];
        let g = Grid::new((2, 2, 2), (1.0, 1.0, 1.0), 0.1, bc);
        let v = g.voxel(1, 1, 1);
        assert_eq!(g.neighbor(v, FACE_LOW_X), NEIGHBOR_REFLECT);
        assert_eq!(g.neighbor(v, FACE_LOW_Y), NEIGHBOR_ABSORB);
        assert_eq!(g.neighbor(v, FACE_LOW_Z), neighbor_migrate(FACE_LOW_Z));
        assert_eq!(decode_migrate(g.neighbor(v, FACE_LOW_Z)), Some(FACE_LOW_Z));
        assert_eq!(decode_migrate(NEIGHBOR_REFLECT), None);
    }

    /// The per-voxel neighbor table `Grid` used to store (`6 × i64` per
    /// voxel, rebuilt by hand after a `bc` change), kept as the oracle
    /// for the arithmetic walk: `table[6*v + face]`.
    fn neighbor_table(g: &Grid) -> Vec<i64> {
        let mut table = vec![NEIGHBOR_ABSORB; 6 * g.n_voxels()];
        let lims = [g.nx, g.ny, g.nz];
        for k in 1..=g.nz {
            for j in 1..=g.ny {
                for i in 1..=g.nx {
                    let v = g.voxel(i, j, k);
                    let coords = [i, j, k];
                    for axis in 0..3 {
                        for (face, at_edge, inward, wrapped) in [
                            (axis, coords[axis] == 1, coords[axis] - 1, lims[axis]),
                            (axis + 3, coords[axis] == lims[axis], coords[axis] + 1, 1),
                        ] {
                            let mut c = coords;
                            c[axis] = if at_edge { wrapped } else { inward };
                            table[6 * v + face] = match g.bc[face] {
                                _ if !at_edge => g.voxel(c[0], c[1], c[2]) as i64,
                                ParticleBc::Periodic => g.voxel(c[0], c[1], c[2]) as i64,
                                ParticleBc::Reflect => NEIGHBOR_REFLECT,
                                ParticleBc::Absorb => NEIGHBOR_ABSORB,
                                ParticleBc::Migrate => neighbor_migrate(face),
                            };
                        }
                    }
                }
            }
        }
        table
    }

    #[test]
    fn neighbor_walk_matches_the_table() {
        const BCS: [ParticleBc; 4] = [
            ParticleBc::Periodic,
            ParticleBc::Reflect,
            ParticleBc::Absorb,
            ParticleBc::Migrate,
        ];
        for shape in [
            (1, 1, 1),
            (1, 1, 5),
            (291, 1, 1),
            (2, 2, 2),
            (4, 3, 2),
            (8, 64, 64),
        ] {
            let mut g = Grid::periodic(shape, (1.0, 1.0, 1.0), 0.1);
            // Every face takes each of the four conditions once; `bc` is
            // changed on the built grid, with nothing to rebuild.
            for shift in 0..BCS.len() {
                g.bc = std::array::from_fn(|face| BCS[(face + shift) % BCS.len()]);
                let table = neighbor_table(&g);
                for v in 0..g.n_voxels() {
                    for face in 0..6 {
                        assert_eq!(
                            g.neighbor(v, face),
                            table[6 * v + face],
                            "{shape:?} bc {:?} voxel {v} face {face}",
                            g.bc
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn courant_dt_is_stable_bound() {
        let dt = Grid::courant_dt(1.0, (1.0, 1.0, 1.0), 1.0);
        assert!((dt - 1.0 / 3f32.sqrt()).abs() < 1e-6);
    }
}
