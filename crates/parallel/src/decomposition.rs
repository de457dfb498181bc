//! Uniform 3D domain decomposition of a global grid onto a Cartesian rank
//! topology.

use nanompi::CartTopology;
use vpic_core::grid::{Grid, ParticleBc};

/// Description of a distributed run's global problem.
#[derive(Clone, Debug)]
pub struct DomainSpec {
    /// Global cell counts.
    pub global_cells: (usize, usize, usize),
    /// Cell sizes.
    pub cell: (f32, f32, f32),
    /// Time step.
    pub dt: f32,
    /// Rank brick.
    pub topo: CartTopology,
    /// Boundary conditions at the *global* domain edges (per face; an axis
    /// marked periodic must be periodic on both faces and in `topo`).
    pub global_bc: [ParticleBc; 6],
    /// Global low-corner coordinates.
    pub origin: (f32, f32, f32),
}

impl DomainSpec {
    /// Fully periodic global box decomposed over `n` ranks.
    pub fn periodic(
        global_cells: (usize, usize, usize),
        cell: (f32, f32, f32),
        dt: f32,
        n: usize,
    ) -> Self {
        DomainSpec {
            global_cells,
            cell,
            dt,
            topo: CartTopology::balanced(n, [true, true, true]),
            global_bc: [ParticleBc::Periodic; 6],
            origin: (0.0, 0.0, 0.0),
        }
    }

    /// Validate divisibility and periodicity consistency.
    pub fn validate(&self) {
        let g = [
            self.global_cells.0,
            self.global_cells.1,
            self.global_cells.2,
        ];
        for (axis, &cells) in g.iter().enumerate() {
            assert!(
                cells.is_multiple_of(self.topo.dims[axis]),
                "global cells {} not divisible by topology dim {} on axis {axis}",
                cells,
                self.topo.dims[axis]
            );
            let lo = self.global_bc[axis] == ParticleBc::Periodic;
            let hi = self.global_bc[axis + 3] == ParticleBc::Periodic;
            assert_eq!(lo, hi, "periodic global BC must pair on axis {axis}");
            assert_eq!(
                lo, self.topo.periodic[axis],
                "topology periodicity must match global BC on axis {axis}"
            );
            assert!(
                self.global_bc[axis] != ParticleBc::Migrate
                    && self.global_bc[axis + 3] != ParticleBc::Migrate,
                "Migrate is not a global BC"
            );
        }
    }

    /// Local cell counts (same for every rank).
    pub fn local_cells(&self) -> (usize, usize, usize) {
        (
            self.global_cells.0 / self.topo.dims[0],
            self.global_cells.1 / self.topo.dims[1],
            self.global_cells.2 / self.topo.dims[2],
        )
    }

    /// The face neighbors of `rank` (None at non-periodic global edges).
    pub fn neighbors(&self, rank: usize) -> [Option<usize>; 6] {
        let mut out = [None; 6];
        for axis in 0..3 {
            if self.topo.dims[axis] > 1 {
                out[axis] = self.topo.neighbor(rank, axis, -1);
                out[axis + 3] = self.topo.neighbor(rank, axis, 1);
            }
        }
        out
    }

    /// Build the local grid for `rank`.
    pub fn local_grid(&self, rank: usize) -> Grid {
        self.validate();
        let (lx, ly, lz) = self.local_cells();
        let coords = self.topo.coords_of(rank);
        let mut bc = [ParticleBc::Periodic; 6];
        for (axis, &coord) in coords.iter().enumerate() {
            let dims = self.topo.dims[axis];
            for (face, at_edge) in [(axis, coord == 0), (axis + 3, coord + 1 == dims)] {
                bc[face] = if dims == 1 || (at_edge && !self.topo.periodic[axis]) {
                    self.global_bc[face]
                } else {
                    ParticleBc::Migrate
                };
            }
        }
        let mut g = Grid::new((lx, ly, lz), self.cell, self.dt, bc);
        g.x0 = self.origin.0 + coords[0] as f32 * lx as f32 * self.cell.0;
        g.y0 = self.origin.1 + coords[1] as f32 * ly as f32 * self.cell.1;
        g.z0 = self.origin.2 + coords[2] as f32 * lz as f32 * self.cell.2;
        g
    }
}

/// Cheap structural fingerprint of a [`DomainSpec`] (FNV over its
/// fields), which ties a socket world's bootstrap handshake to one run.
pub fn spec_fingerprint(spec: &DomainSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(spec.global_cells.0 as u64);
    mix(spec.global_cells.1 as u64);
    mix(spec.global_cells.2 as u64);
    mix(spec.cell.0.to_bits() as u64);
    mix(spec.cell.1.to_bits() as u64);
    mix(spec.cell.2.to_bits() as u64);
    mix(spec.dt.to_bits() as u64);
    for d in spec.topo.dims {
        mix(d as u64);
    }
    for p in spec.topo.periodic {
        mix(p as u64);
    }
    for bc in spec.global_bc {
        mix(bc as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_specs() {
        let spec = || DomainSpec::periodic((8, 4, 4), (0.25, 0.25, 0.25), 0.1, 2);
        let a = spec_fingerprint(&spec());
        let mut s2 = spec();
        s2.dt = 0.11;
        assert_ne!(a, spec_fingerprint(&s2));
        let mut s3 = spec();
        s3.global_cells.0 = 16;
        assert_ne!(a, spec_fingerprint(&s3));
        assert_eq!(a, spec_fingerprint(&spec()));
    }

    #[test]
    fn periodic_spec_builds_consistent_grids() {
        let spec = DomainSpec::periodic((8, 4, 4), (0.5, 0.5, 0.5), 0.1, 4);
        spec.validate();
        let n = spec.topo.n_ranks();
        assert_eq!(n, 4);
        for rank in 0..n {
            let g = spec.local_grid(rank);
            let (lx, ly, lz) = spec.local_cells();
            assert_eq!((g.nx, g.ny, g.nz), (lx, ly, lz));
        }
    }

    #[test]
    fn decomposed_axis_gets_migrate_faces() {
        let spec = DomainSpec::periodic((8, 4, 4), (0.5, 0.5, 0.5), 0.1, 2);
        assert_eq!(spec.topo.dims, [2, 1, 1]);
        let g = spec.local_grid(0);
        assert_eq!(g.bc[0], ParticleBc::Migrate);
        assert_eq!(g.bc[3], ParticleBc::Migrate);
        assert_eq!(g.bc[1], ParticleBc::Periodic);
        let nb = spec.neighbors(0);
        assert_eq!(nb[0], Some(1));
        assert_eq!(nb[3], Some(1));
        assert_eq!(nb[1], None);
    }

    #[test]
    fn origins_tile_the_global_box() {
        let spec = DomainSpec::periodic((8, 4, 4), (0.5, 1.0, 1.0), 0.1, 2);
        let g0 = spec.local_grid(0);
        let g1 = spec.local_grid(1);
        assert_eq!(g0.x0, 0.0);
        assert_eq!(g1.x0, 4.0 * 0.5);
        assert_eq!(g0.y0, g1.y0);
    }

    #[test]
    fn non_periodic_edges_keep_global_bc() {
        let mut spec = DomainSpec::periodic((8, 4, 4), (0.5, 0.5, 0.5), 0.1, 2);
        spec.topo = CartTopology::new([2, 1, 1], [false, true, true]);
        spec.global_bc[0] = ParticleBc::Reflect;
        spec.global_bc[3] = ParticleBc::Absorb;
        spec.validate();
        let g0 = spec.local_grid(0);
        assert_eq!(g0.bc[0], ParticleBc::Reflect);
        assert_eq!(g0.bc[3], ParticleBc::Migrate);
        let g1 = spec.local_grid(1);
        assert_eq!(g1.bc[0], ParticleBc::Migrate);
        assert_eq!(g1.bc[3], ParticleBc::Absorb);
        assert_eq!(spec.neighbors(0)[0], None);
        assert_eq!(spec.neighbors(1)[3], None);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_grid_panics() {
        let spec = DomainSpec::periodic((9, 4, 4), (0.5, 0.5, 0.5), 0.1, 2);
        spec.validate();
    }
}
