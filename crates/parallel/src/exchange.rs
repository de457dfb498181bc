//! Ghost-plane field exchange between adjacent domains.
//!
//! The core field solver leaves `Exchange` faces untouched; after every
//! update this module fills them from the neighboring rank, replicating
//! exactly the planes the periodic sync would have copied locally:
//!
//! * after an `E` update: each component node-registered along an exchanged
//!   axis needs its `n+1` plane from the `+axis` neighbor's plane 1;
//! * after a `B` update: the axis-normal `cB` component needs its `n+1`
//!   plane from the `+axis` neighbor's plane 1, and the transverse
//!   components need their ghost plane 0 from the `−axis` neighbor's
//!   plane `n`;
//! * after current deposition: deposits on plane `n+1` belong to the
//!   `+axis` neighbor's plane 1 and are folded (added) there.
//!
//! Planes are sent ghost-inclusive and axes processed in x→y→z order, so
//! edge/corner ghosts become correct exactly as in the sequential
//! periodic-copy argument.
//!
//! ## Message schedule
//!
//! Every component bound for one neighbor on one axis travels in **one**
//! message (the planes concatenated in component order), and every send
//! of an axis is posted before its first receive, so an exchange costs
//! bytes, not round trips. Per decomposed axis and rank:
//!
//! | call          | to `−axis` neighbor     | to `+axis` neighbor        |
//! |---------------|-------------------------|----------------------------|
//! | `fold_j`      | —                       | 2 transverse `J`, plane `n+1` |
//! | `exchange_b`  | normal `cB`, plane 1    | 2 transverse `cB`, plane `n` |
//! | `exchange_e`  | 2 transverse `E`, plane 1 | —                        |
//!
//! A step calls `fold_j` once, `exchange_b` twice and `exchange_e` once:
//! 6 messages carrying 10 planes. The receive of axis `a` completes before
//! axis `a+1` gathers, which is what carries corner values across.

use nanompi::{Comm, CommError};
use vpic_core::field::FieldArray;
use vpic_core::grid::Grid;

// One tag per phase and direction; the axis is added to it.
const TAG_E: u64 = 0xE000;
const TAG_B_OWN: u64 = 0xB000;
const TAG_B_T: u64 = 0xB100;
const TAG_J: u64 = 0xA000;
const TAG_S_FOLD: u64 = 0x5000;
const TAG_S_HIGH: u64 = 0x5100;
const TAG_S_LOW: u64 = 0x5200;
const TAG_E_NORM: u64 = 0x5300;

/// Append the full (ghost-inclusive) plane `idx` along `axis` to `out`,
/// run by run ([`Grid::plane_runs`]): that order is the wire order.
pub fn append_plane(out: &mut Vec<f32>, arr: &[f32], g: &Grid, axis: usize, idx: usize) {
    let runs = g.plane_runs(axis, idx);
    // Sized first, then filled through a slice: a `push` per entry would
    // chain every x-plane store through the vector's length field.
    let mut at = out.len();
    out.resize(at + runs.points(), 0.0);
    runs.for_each_run(|s, len| {
        out[at..at + len].copy_from_slice(&arr[s..s + len]);
        at += len;
    });
}

/// Read the full (ghost-inclusive) plane `idx` along `axis`.
pub fn read_plane(arr: &[f32], g: &Grid, axis: usize, idx: usize) -> Vec<f32> {
    let mut out = Vec::new();
    append_plane(&mut out, arr, g, axis, idx);
    out
}

/// Overwrite plane `idx` along `axis` with `data`.
pub fn write_plane(arr: &mut [f32], g: &Grid, axis: usize, idx: usize, data: &[f32]) {
    let runs = g.plane_runs(axis, idx);
    assert_eq!(data.len(), runs.points(), "plane size mismatch");
    let mut at = 0;
    runs.for_each_run(|s, len| {
        arr[s..s + len].copy_from_slice(&data[at..at + len]);
        at += len;
    });
}

/// Add `data` into plane `idx` along `axis`.
pub fn add_plane(arr: &mut [f32], g: &Grid, axis: usize, idx: usize, data: &[f32]) {
    let runs = g.plane_runs(axis, idx);
    assert_eq!(data.len(), runs.points(), "plane size mismatch");
    let mut at = 0;
    runs.for_each_run(|s, len| {
        for (x, y) in arr[s..s + len].iter_mut().zip(&data[at..at + len]) {
            *x += *y;
        }
        at += len;
    });
}

fn n_of(g: &Grid, axis: usize) -> usize {
    [g.nx, g.ny, g.nz][axis]
}

/// Which plane of a component goes which way along an axis.
#[derive(Clone, Copy)]
enum Flow {
    /// Plane 1 to the `−axis` neighbor; the `+axis` neighbor's lands on my
    /// high ghost plane `n+1`.
    FillHigh,
    /// Plane `n` to the `+axis` neighbor; the `−axis` neighbor's lands on
    /// my low ghost plane 0.
    FillLow,
    /// Ghost plane `n+1` to the `+axis` neighbor; the `−axis` neighbor's
    /// is *added* into my plane 1.
    FoldHigh,
}

/// The components that share one message along an axis.
struct Transfer<'a, 'f> {
    tag: u64,
    flow: Flow,
    comps: &'a mut [&'f mut [f32]],
}

/// Ghost exchanger bound to a rank's face neighbors (`None` = no neighbor:
/// either a physical wall or an undecomposed axis).
#[derive(Clone, Copy, Debug)]
pub struct GhostExchanger {
    pub neighbors: [Option<usize>; 6],
}

impl GhostExchanger {
    /// Run one axis of an exchange: one message per transfer, every send
    /// posted before the first receive (nothing a rank sends on an axis
    /// depends on what it receives on that axis, so waiting in between
    /// only serialized the two ranks' round trips). A received message
    /// whose length is not `components × plane` is [`CommError::Corrupt`].
    fn axis_pass(
        &self,
        comm: &mut Comm,
        g: &Grid,
        axis: usize,
        transfers: &mut [Transfer<'_, '_>],
    ) -> Result<(), CommError> {
        let n = n_of(g, axis);
        let plane = g.plane_runs(axis, 0).points();
        let (lo, hi) = (self.neighbors[axis], self.neighbors[axis + 3]);
        for t in transfers.iter() {
            let (to, src) = match t.flow {
                Flow::FillHigh => (lo, 1),
                Flow::FillLow => (hi, n),
                Flow::FoldHigh => (hi, n + 1),
            };
            if let Some(nb) = to {
                let mut msg = Vec::with_capacity(t.comps.len() * plane);
                for c in t.comps.iter() {
                    append_plane(&mut msg, c, g, axis, src);
                }
                comm.send_vec(nb, t.tag + axis as u64, msg)?;
            }
        }
        for t in transfers.iter_mut() {
            let (from, dst) = match t.flow {
                Flow::FillHigh => (hi, n + 1),
                Flow::FillLow => (lo, 0),
                Flow::FoldHigh => (lo, 1),
            };
            if let Some(nb) = from {
                let tag = t.tag + axis as u64;
                let msg: Vec<f32> = comm.recv(nb, tag)?;
                if msg.len() != t.comps.len() * plane {
                    return Err(CommError::Corrupt { from: nb, tag });
                }
                for (c, data) in t.comps.iter_mut().zip(msg.chunks_exact(plane)) {
                    match t.flow {
                        Flow::FoldHigh => add_plane(c, g, axis, dst, data),
                        Flow::FillHigh | Flow::FillLow => write_plane(c, g, axis, dst, data),
                    }
                }
            }
        }
        Ok(())
    }

    /// [`axis_pass`](Self::axis_pass) over x→y→z for a single array.
    fn scalar_pass(
        &self,
        comm: &mut Comm,
        arr: &mut [f32],
        g: &Grid,
        tag: u64,
        flow: Flow,
    ) -> Result<(), CommError> {
        for axis in 0..3 {
            let comps = &mut [&mut *arr];
            self.axis_pass(comm, g, axis, &mut [Transfer { tag, flow, comps }])?;
        }
        Ok(())
    }

    /// Fill `E` ghost planes from neighbors (call after every `advance_e`
    /// and after manual field initialization).
    pub fn exchange_e(
        &self,
        comm: &mut Comm,
        f: &mut FieldArray,
        g: &Grid,
    ) -> Result<(), CommError> {
        for axis in 0..3 {
            let comps: &mut [&mut [f32]; 2] = &mut match axis {
                0 => [&mut f.ey, &mut f.ez],
                1 => [&mut f.ex, &mut f.ez],
                _ => [&mut f.ex, &mut f.ey],
            };
            let across = Transfer {
                tag: TAG_E,
                flow: Flow::FillHigh,
                comps,
            };
            self.axis_pass(comm, g, axis, &mut [across])?;
        }
        Ok(())
    }

    /// Fill `cB` ghost planes from neighbors (call after every `advance_b`
    /// and after manual field initialization).
    pub fn exchange_b(
        &self,
        comm: &mut Comm,
        f: &mut FieldArray,
        g: &Grid,
    ) -> Result<(), CommError> {
        for axis in 0..3 {
            let (own, across): (&mut [f32], &mut [&mut [f32]; 2]) = match axis {
                0 => (&mut f.cbx, &mut [&mut f.cby, &mut f.cbz]),
                1 => (&mut f.cby, &mut [&mut f.cbx, &mut f.cbz]),
                _ => (&mut f.cbz, &mut [&mut f.cbx, &mut f.cby]),
            };
            // Axis-normal component: my n+1 plane is the +neighbor's 1.
            let normal = Transfer {
                tag: TAG_B_OWN,
                flow: Flow::FillHigh,
                comps: &mut [own],
            };
            // Transverse components: my ghost 0 is the −neighbor's n.
            let across = Transfer {
                tag: TAG_B_T,
                flow: Flow::FillLow,
                comps: across,
            };
            self.axis_pass(comm, g, axis, &mut [normal, across])?;
        }
        Ok(())
    }

    /// Fold ghost-plane deposits of a node-centered scalar (e.g. `rho`)
    /// into the owning neighbor: plane `n+1` adds into the `+axis`
    /// neighbor's plane 1. Node-centered deposits never land in plane 0,
    /// so this single fold per axis suffices (same argument as `fold_j`).
    /// Call after a local `sync_rho`.
    pub fn fold_scalar(&self, comm: &mut Comm, arr: &mut [f32], g: &Grid) -> Result<(), CommError> {
        self.scalar_pass(comm, arr, g, TAG_S_FOLD, Flow::FoldHigh)
    }

    /// Fill a scalar's high ghost plane: my `n+1` is the `+axis` neighbor's
    /// plane 1 (read by the forward gradient in `apply_marder_e`).
    pub fn exchange_scalar_high(
        &self,
        comm: &mut Comm,
        arr: &mut [f32],
        g: &Grid,
    ) -> Result<(), CommError> {
        self.scalar_pass(comm, arr, g, TAG_S_HIGH, Flow::FillHigh)
    }

    /// Fill a scalar's low ghost plane: my `0` is the `−axis` neighbor's
    /// plane `n` (read by the backward gradient in `apply_marder_b`).
    pub fn exchange_scalar_low(
        &self,
        comm: &mut Comm,
        arr: &mut [f32],
        g: &Grid,
    ) -> Result<(), CommError> {
        self.scalar_pass(comm, arr, g, TAG_S_LOW, Flow::FillLow)
    }

    /// Fill the axis-normal `E` component's low ghost plane (`ex` plane 0
    /// along x, …) from the `−axis` neighbor's plane `n`. The solver never
    /// reads these, but the Gauss-law divergence stencil at the first node
    /// plane does — mirroring what `sync_e` copies on locally periodic
    /// axes.
    pub fn exchange_e_normal_low(
        &self,
        comm: &mut Comm,
        f: &mut FieldArray,
        g: &Grid,
    ) -> Result<(), CommError> {
        for axis in 0..3 {
            let own: &mut [f32] = match axis {
                0 => &mut f.ex,
                1 => &mut f.ey,
                _ => &mut f.ez,
            };
            let normal = Transfer {
                tag: TAG_E_NORM,
                flow: Flow::FillLow,
                comps: &mut [own],
            };
            self.axis_pass(comm, g, axis, &mut [normal])?;
        }
        Ok(())
    }

    /// Fold ghost-deposited currents into the owning neighbor (call after
    /// `unload` + local `sync_j`).
    pub fn fold_j(&self, comm: &mut Comm, f: &mut FieldArray, g: &Grid) -> Result<(), CommError> {
        for axis in 0..3 {
            let comps: &mut [&mut [f32]; 2] = &mut match axis {
                0 => [&mut f.jy, &mut f.jz],
                1 => [&mut f.jx, &mut f.jz],
                _ => [&mut f.jx, &mut f.jy],
            };
            let across = Transfer {
                tag: TAG_J,
                flow: Flow::FoldHigh,
                comps,
            };
            self.axis_pass(comm, g, axis, &mut [across])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpic_core::grid::ParticleBc;

    /// A rank's slab of an x-split box: exchanged along x, periodic in y
    /// and z.
    fn x_split_grid() -> Grid {
        Grid::new(
            (4, 2, 2),
            (1.0, 1.0, 1.0),
            0.1,
            [
                ParticleBc::Migrate,
                ParticleBc::Periodic,
                ParticleBc::Periodic,
                ParticleBc::Migrate,
                ParticleBc::Periodic,
                ParticleBc::Periodic,
            ],
        )
    }

    /// The exchanger of a rank of a wrapped two-rank x-split.
    fn x_split_pair(comm: &Comm) -> GhostExchanger {
        let other = Some(1 - comm.rank());
        GhostExchanger {
            neighbors: [other, None, None, other, None, None],
        }
    }

    /// Run `f` as an `n`-rank world over in-process channels and again
    /// over Unix sockets; the per-rank results must agree.
    fn on_both_transports<R, F>(n: usize, name: &str, f: F) -> Vec<R>
    where
        R: Send + PartialEq + std::fmt::Debug,
        F: Fn(&mut Comm) -> R + Send + Sync,
    {
        let (local, _) = nanompi::run_expect(n, &f);
        let dir = std::env::temp_dir().join(format!("vpic_exchange_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (socket, _) =
            nanompi::run_socket_world(n, nanompi::SocketAddrSpec::unix(&dir), None, &f);
        let _ = std::fs::remove_dir_all(&dir);
        let socket: Vec<R> = socket.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(local, socket, "transports disagree");
        local
    }

    /// The exchange as it was before coalescing — one message per field
    /// component, each answered before the next is sent — kept as the
    /// reference the coalesced exchanger must reproduce bit for bit.
    mod per_component {
        use super::super::*;

        const TAG: u64 = 0x7E57_0000;

        fn pass(
            ex: &GhostExchanger,
            comm: &mut Comm,
            g: &Grid,
            axis: usize,
            tag: u64,
            flow: Flow,
            c: &mut [f32],
        ) {
            let n = n_of(g, axis);
            let (lo, hi) = (ex.neighbors[axis], ex.neighbors[axis + 3]);
            let (to, src, from, dst) = match flow {
                Flow::FillHigh => (lo, 1, hi, n + 1),
                Flow::FillLow => (hi, n, lo, 0),
                Flow::FoldHigh => (hi, n + 1, lo, 1),
            };
            if let Some(nb) = to {
                comm.send_vec(nb, tag, read_plane(c, g, axis, src)).unwrap();
            }
            if let Some(nb) = from {
                let plane: Vec<f32> = comm.recv(nb, tag).unwrap();
                match flow {
                    Flow::FoldHigh => add_plane(c, g, axis, dst, &plane),
                    _ => write_plane(c, g, axis, dst, &plane),
                }
            }
        }

        pub fn exchange_e(ex: &GhostExchanger, comm: &mut Comm, f: &mut FieldArray, g: &Grid) {
            for axis in 0..3 {
                let comps: [&mut Vec<f32>; 2] = match axis {
                    0 => [&mut f.ey, &mut f.ez],
                    1 => [&mut f.ex, &mut f.ez],
                    _ => [&mut f.ex, &mut f.ey],
                };
                for (ci, c) in comps.into_iter().enumerate() {
                    let tag = TAG + 0x100 + (axis * 4 + ci) as u64;
                    pass(ex, comm, g, axis, tag, Flow::FillHigh, c);
                }
            }
        }

        pub fn exchange_b(ex: &GhostExchanger, comm: &mut Comm, f: &mut FieldArray, g: &Grid) {
            for axis in 0..3 {
                let own: &mut Vec<f32> = match axis {
                    0 => &mut f.cbx,
                    1 => &mut f.cby,
                    _ => &mut f.cbz,
                };
                let tag = TAG + 0x200 + axis as u64;
                pass(ex, comm, g, axis, tag, Flow::FillHigh, own);
                let comps: [&mut Vec<f32>; 2] = match axis {
                    0 => [&mut f.cby, &mut f.cbz],
                    1 => [&mut f.cbx, &mut f.cbz],
                    _ => [&mut f.cbx, &mut f.cby],
                };
                for (ci, c) in comps.into_iter().enumerate() {
                    let tag = TAG + 0x300 + (axis * 4 + ci) as u64;
                    pass(ex, comm, g, axis, tag, Flow::FillLow, c);
                }
            }
        }

        pub fn fold_j(ex: &GhostExchanger, comm: &mut Comm, f: &mut FieldArray, g: &Grid) {
            for axis in 0..3 {
                let comps: [&mut Vec<f32>; 2] = match axis {
                    0 => [&mut f.jy, &mut f.jz],
                    1 => [&mut f.jx, &mut f.jz],
                    _ => [&mut f.jx, &mut f.jy],
                };
                for (ci, c) in comps.into_iter().enumerate() {
                    let tag = TAG + 0x400 + (axis * 4 + ci) as u64;
                    pass(ex, comm, g, axis, tag, Flow::FoldHigh, c);
                }
            }
        }
    }

    #[test]
    fn coalesced_exchange_matches_per_component_on_a_2x2x2_world() {
        // Eight ranks, every axis decomposed and wrapped (so each rank's
        // −axis and +axis neighbor is the same rank, and the two
        // directions of `exchange_b` meet on one link). Every voxel of
        // every component, ghosts, edges and corners included, must carry
        // the bits the per-component exchange leaves there.
        use nanompi::CartTopology;
        let topo = CartTopology::new([2, 2, 2], [true, true, true]);
        let g = Grid::new((3, 4, 2), (1.0, 1.0, 1.0), 0.1, [ParticleBc::Migrate; 6]);
        let bits = |f: &FieldArray| -> Vec<u32> {
            [
                &f.ex, &f.ey, &f.ez, &f.cbx, &f.cby, &f.cbz, &f.jx, &f.jy, &f.jz,
            ]
            .into_iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect()
        };
        let results = on_both_transports(8, "2x2x2", |comm| {
            let rank = comm.rank();
            let mut neighbors = [None; 6];
            for axis in 0..3 {
                neighbors[axis] = topo.neighbor(rank, axis, -1);
                neighbors[axis + 3] = topo.neighbor(rank, axis, 1);
            }
            let ex = GhostExchanger { neighbors };
            // Distinct, order-sensitive values everywhere: thirds are not
            // exactly representable, so a fold added in another order or
            // a plane landed in another slot changes bits.
            let mut f = FieldArray::new(&g);
            let fill = |arr: &mut Vec<f32>, comp: usize| {
                for (v, x) in arr.iter_mut().enumerate() {
                    *x = (1 + v + 1000 * comp + 100_000 * rank) as f32 / 3.0;
                }
            };
            fill(&mut f.ex, 0);
            fill(&mut f.ey, 1);
            fill(&mut f.ez, 2);
            fill(&mut f.cbx, 3);
            fill(&mut f.cby, 4);
            fill(&mut f.cbz, 5);
            fill(&mut f.jx, 6);
            fill(&mut f.jy, 7);
            fill(&mut f.jz, 8);
            let mut want = f.clone();
            let start = bits(&f);

            ex.fold_j(comm, &mut f, &g).unwrap();
            ex.exchange_b(comm, &mut f, &g).unwrap();
            ex.exchange_e(comm, &mut f, &g).unwrap();
            per_component::fold_j(&ex, comm, &mut want, &g);
            per_component::exchange_b(&ex, comm, &mut want, &g);
            per_component::exchange_e(&ex, comm, &mut want, &g);

            assert_ne!(bits(&f), start, "the exchange moved nothing");
            assert_eq!(bits(&f), bits(&want), "rank {rank}");
            bits(&f)
        });
        assert_eq!(results.len(), 8);
    }

    #[test]
    fn wrong_length_plane_message_is_corrupt_not_a_panic() {
        // A well-framed, correctly typed message of the wrong length on a
        // halo tag (a peer built against another grid, say) must come back
        // as a typed error from the exchange, not trip an assert inside it.
        let g = x_split_grid();
        let two_planes = 2 * g.plane_runs(0, 0).points();
        for len in [two_planes - 1, two_planes + 1, 0] {
            let flags = on_both_transports(2, &format!("badlen{len}"), |comm| {
                let mut f = FieldArray::new(&g);
                if comm.rank() == 0 {
                    // Stand in for exchange_e's x-axis send, mis-sized.
                    comm.send_vec(1, TAG_E, vec![0.0f32; len]).unwrap();
                    let _: Vec<f32> = comm.recv(1, TAG_E).unwrap();
                    true
                } else {
                    matches!(
                        x_split_pair(comm).exchange_e(comm, &mut f, &g),
                        Err(CommError::Corrupt {
                            from: 0,
                            tag: TAG_E
                        })
                    )
                }
            });
            assert_eq!(flags, vec![true, true], "length {len}");
        }
    }

    /// The voxel index of every point of plane `idx` along `axis`, found
    /// one voxel at a time. Ascending index is the wire order (lower
    /// transverse axis fastest) the run-based pack and unpack must keep.
    fn plane_voxels(g: &Grid, axis: usize, idx: usize) -> Vec<usize> {
        (0..g.n_voxels())
            .filter(|&v| {
                let (i, j, k) = g.voxel_coords(v);
                [i, j, k][axis] == idx
            })
            .collect()
    }

    #[test]
    fn plane_pack_and_unpack_match_the_per_element_walk() {
        let bits = |arr: &[f32]| -> Vec<u32> { arr.iter().map(|x| x.to_bits()).collect() };
        for shape in [(291, 1, 1), (1, 7, 1), (1, 1, 5), (4, 3, 2), (8, 64, 64)] {
            let g = Grid::periodic(shape, (1.0, 1.0, 1.0), 0.1);
            // Distinct everywhere and inexact in thirds, so a transposed
            // or shifted run changes bits.
            let arr: Vec<f32> = (0..g.n_voxels()).map(|v| (v + 1) as f32 / 3.0).collect();
            for axis in 0..3 {
                let n = n_of(&g, axis);
                // Every (src, dst) an exchange or a sync uses.
                for (src, dst) in [(1, n + 1), (n, 0), (n + 1, 1), (1, 0), (n, n + 1)] {
                    let what = format!("{shape:?} axis {axis} {src}->{dst}");
                    let (from, to) = (plane_voxels(&g, axis, src), plane_voxels(&g, axis, dst));
                    let plane = read_plane(&arr, &g, axis, src);
                    let want: Vec<f32> = from.iter().map(|&v| arr[v]).collect();
                    assert_eq!(bits(&plane), bits(&want), "read {what}");
                    // `append` lands behind what the message already holds.
                    let mut msg = vec![-1.0f32];
                    append_plane(&mut msg, &arr, &g, axis, src);
                    assert_eq!(bits(&msg[1..]), bits(&want), "append {what}");
                    assert_eq!(msg[0], -1.0);

                    let (mut got, mut want) = (arr.clone(), arr.clone());
                    write_plane(&mut got, &g, axis, dst, &plane);
                    for (&v, &x) in to.iter().zip(&plane) {
                        want[v] = x;
                    }
                    assert_ne!(bits(&got), bits(&arr), "write moved nothing: {what}");
                    assert_eq!(bits(&got), bits(&want), "write {what}");
                    add_plane(&mut got, &g, axis, dst, &plane);
                    for (&v, &x) in to.iter().zip(&plane) {
                        want[v] += x;
                    }
                    assert_eq!(bits(&got), bits(&want), "add {what}");
                }
            }
        }
    }

    #[test]
    fn plane_roundtrip_and_add() {
        let g = Grid::periodic((4, 3, 2), (1.0, 1.0, 1.0), 0.1);
        let mut arr = vec![0.0f32; g.n_voxels()];
        for (v, x) in arr.iter_mut().enumerate() {
            *x = v as f32;
        }
        for axis in 0..3 {
            let plane = read_plane(&arr, &g, axis, 1);
            let mut copy = arr.clone();
            write_plane(&mut copy, &g, axis, 0, &plane);
            let back = read_plane(&copy, &g, axis, 0);
            assert_eq!(back, plane);
            add_plane(&mut copy, &g, axis, 0, &plane);
            let doubled = read_plane(&copy, &g, axis, 0);
            for (d, p) in doubled.iter().zip(plane.iter()) {
                assert_eq!(*d, 2.0 * *p);
            }
        }
    }

    #[test]
    fn exchange_matches_periodic_copy() {
        // Two ranks along x, fully wrapped: the exchange must place
        // exactly the planes a single periodic domain would copy.
        use nanompi::run_expect;
        let (results, _) = run_expect(2, |comm| {
            let g = Grid::new(
                (4, 2, 2),
                (1.0, 1.0, 1.0),
                0.1,
                [
                    vpic_core::grid::ParticleBc::Migrate,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Migrate,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Periodic,
                ],
            );
            let mut f = FieldArray::new(&g);
            // Distinct values: rank r writes r+10+i at plane i for ey.
            for i in 1..=g.nx {
                for k in 0..g.strides().2 {
                    for j in 0..g.strides().1 {
                        f.ey[g.voxel(i, j, k)] = (comm.rank() * 100 + 10 + i) as f32;
                        f.cbx[g.voxel(i, j, k)] = (comm.rank() * 100 + 50 + i) as f32;
                        f.cby[g.voxel(i, j, k)] = (comm.rank() * 100 + 70 + i) as f32;
                    }
                }
            }
            let other = 1 - comm.rank();
            let ex = GhostExchanger {
                neighbors: [Some(other), None, None, Some(other), None, None],
            };
            ex.exchange_e(comm, &mut f, &g).unwrap();
            ex.exchange_b(comm, &mut f, &g).unwrap();
            let v_hi = g.voxel(g.nx + 1, 1, 1);
            let v_lo = g.voxel(0, 1, 1);
            (f.ey[v_hi], f.cbx[v_hi], f.cby[v_lo])
        });
        // Rank 0's n+1 ey plane = rank 1's plane 1 = 111; rank 1's = 011.
        assert_eq!(results[0].0, 111.0);
        assert_eq!(results[1].0, 11.0);
        // cbx n+1 = neighbor's plane 1 (+50).
        assert_eq!(results[0].1, 151.0);
        assert_eq!(results[1].1, 51.0);
        // cby ghost 0 = −neighbor's plane n (= 70 + 4).
        assert_eq!(results[0].2, 174.0);
        assert_eq!(results[1].2, 74.0);
    }

    #[test]
    fn duplicated_messages_do_not_perturb_exchange() {
        // The transport's per-(peer, tag) sequence dedup must absorb a
        // duplicated plane message: the exchange lands exactly the values
        // of a fault-free run, and the stray copy never satisfies a later
        // receive. Each rank sends one message per round: the plan hits a
        // first-round message, a middle one, and rank 0's very last (whose
        // copy may find rank 1 already gone).
        use nanompi::{run_with_faults, FaultPlan};
        let plan = FaultPlan::new(9)
            .duplicate_message(0, 1)
            .duplicate_message(1, 2)
            .duplicate_message(0, 3);
        let (results, _) = run_with_faults(2, Some(plan), |comm| {
            let g = x_split_grid();
            let mut f = FieldArray::new(&g);
            let ex = x_split_pair(comm);
            // Three rounds with the planes changing in between: a
            // duplicate mistaken for a later round's plane would land the
            // earlier round's values.
            for round in 0..3 {
                for i in 1..=g.nx {
                    for k in 0..g.strides().2 {
                        for j in 0..g.strides().1 {
                            f.ey[g.voxel(i, j, k)] =
                                (round * 1000 + comm.rank() * 100 + 10 + i) as f32;
                        }
                    }
                }
                ex.exchange_e(comm, &mut f, &g).unwrap();
            }
            f.ey[g.voxel(g.nx + 1, 1, 1)]
        });
        let vals: Vec<f32> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, vec![2111.0, 2011.0]);
    }

    #[test]
    fn corrupted_plane_surfaces_typed_error_not_garbage() {
        // A corrupted payload must come back as CommError::Corrupt on the
        // receiving rank — never as silently-accepted garbage ghost data,
        // and never as a hang on either side.
        use nanompi::{run_with_faults, CommError, FaultPlan};
        use std::time::Duration;
        let plan = FaultPlan::new(9).corrupt_message(0, 1);
        let (results, _) = run_with_faults(2, Some(plan), |comm| {
            comm.set_op_timeout(Duration::from_millis(250));
            let g = Grid::new(
                (4, 2, 2),
                (1.0, 1.0, 1.0),
                0.1,
                [
                    vpic_core::grid::ParticleBc::Migrate,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Migrate,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Periodic,
                ],
            );
            let mut f = FieldArray::new(&g);
            let other = 1 - comm.rank();
            let ex = GhostExchanger {
                neighbors: [Some(other), None, None, Some(other), None, None],
            };
            match ex.exchange_e(comm, &mut f, &g) {
                Ok(()) => false,
                Err(CommError::Corrupt { from, .. }) => {
                    assert_eq!(from, 0, "corruption was injected on rank 0's send");
                    true
                }
                // The peer bailing first can leave this rank timing out —
                // typed and bounded, which is all we require of it.
                Err(_) => false,
            }
        });
        let flags: Vec<bool> = results.into_iter().map(|r| r.unwrap()).collect();
        assert!(
            flags.iter().any(|&c| c),
            "no rank observed CommError::Corrupt: {flags:?}"
        );
    }

    #[test]
    fn scalar_exchanges_match_periodic_copies() {
        // Two ranks along x, wrapped: fold_scalar must land ghost deposits
        // exactly where a periodic sync_rho fold would, and the low/high
        // scalar exchanges must place the planes the serial mirrors copy.
        use nanompi::run_expect;
        let (results, _) = run_expect(2, |comm| {
            let g = Grid::new(
                (4, 2, 2),
                (1.0, 1.0, 1.0),
                0.1,
                [
                    vpic_core::grid::ParticleBc::Migrate,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Migrate,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Periodic,
                ],
            );
            let mut rho = vec![0.0f32; g.n_voxels()];
            let mut err = vec![0.0f32; g.n_voxels()];
            for k in 0..g.strides().2 {
                for j in 0..g.strides().1 {
                    rho[g.voxel(g.nx + 1, j, k)] = 0.5; // ghost deposit
                    rho[g.voxel(1, j, k)] = 2.0; // own plane-1 deposit
                    for i in 1..=g.nx {
                        err[g.voxel(i, j, k)] = (comm.rank() * 100 + 10 + i) as f32;
                    }
                }
            }
            let other = 1 - comm.rank();
            let ex = GhostExchanger {
                neighbors: [Some(other), None, None, Some(other), None, None],
            };
            ex.fold_scalar(comm, &mut rho, &g).unwrap();
            ex.exchange_scalar_high(comm, &mut err, &g).unwrap();
            ex.exchange_scalar_low(comm, &mut err, &g).unwrap();
            (
                rho[g.voxel(1, 1, 1)],
                err[g.voxel(g.nx + 1, 1, 1)],
                err[g.voxel(0, 1, 1)],
            )
        });
        // Folded: own 2.0 + neighbor's ghost 0.5.
        assert_eq!(results[0].0, 2.5);
        assert_eq!(results[1].0, 2.5);
        // High ghost = +neighbor's plane 1; low ghost = −neighbor's plane n.
        assert_eq!(results[0].1, 111.0);
        assert_eq!(results[1].1, 11.0);
        assert_eq!(results[0].2, 114.0);
        assert_eq!(results[1].2, 14.0);
    }

    #[test]
    fn fold_j_adds_shared_plane_deposits() {
        use nanompi::run_expect;
        let (results, _) = run_expect(2, |comm| {
            let g = Grid::new(
                (4, 2, 2),
                (1.0, 1.0, 1.0),
                0.1,
                [
                    vpic_core::grid::ParticleBc::Migrate,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Migrate,
                    vpic_core::grid::ParticleBc::Periodic,
                    vpic_core::grid::ParticleBc::Periodic,
                ],
            );
            let mut f = FieldArray::new(&g);
            // Both ranks deposit 1.0 on their shared-plane jy entries.
            for k in 0..g.strides().2 {
                for j in 0..g.strides().1 {
                    f.jy[g.voxel(g.nx + 1, j, k)] = 1.0; // ghost: belongs to +x nb
                    f.jy[g.voxel(1, j, k)] = 2.0; // own plane-1 deposit
                }
            }
            let other = 1 - comm.rank();
            let ex = GhostExchanger {
                neighbors: [Some(other), None, None, Some(other), None, None],
            };
            ex.fold_j(comm, &mut f, &g).unwrap();
            f.jy[g.voxel(1, 1, 1)]
        });
        assert_eq!(results, vec![3.0, 3.0]);
    }
}
