//! Cross-domain particle migration (VPIC's `boundary_p`).
//!
//! A particle that leaves its domain mid-move arrives here with its
//! unfinished [`Mover`] (remaining half-displacement). The sender rewrites
//! the particle's voxel into the receiver's coordinate frame (all local
//! grids share the same dims), ships it, and the receiver *continues the
//! same move* with `move_p_local`, depositing the remaining current
//! segments locally — so charge conservation holds exactly across domain
//! boundaries. Multi-hop moves (corner crossings) are handled by repeated
//! rounds terminated with a global reduction.

use nanompi::{Comm, CommError, Wire, WireReader};
use vpic_core::accumulator::AccumulatorArray;
use vpic_core::grid::Grid;
use vpic_core::particle::{Mover, Particle};
use vpic_core::push::{move_p_local, Exile, MoveOutcome};
use vpic_core::species::Species;

const TAG_MIGRATE: u64 = 0x9000;

/// A particle in flight between domains.
#[derive(Clone, Copy, Debug)]
pub struct Migrant {
    pub p: Particle,
    pub m: Mover,
}

/// 32-bit words of a [`Migrant`] on the wire.
const MIGRANT_WORDS: usize = 12;
const MIGRANT_BYTES: usize = 4 * MIGRANT_WORDS;

impl Migrant {
    /// The wire layout: every field as its 32-bit pattern, in struct
    /// order (particle, then mover).
    fn to_words(self) -> [u32; MIGRANT_WORDS] {
        let Migrant { p, m } = self;
        [
            p.dx.to_bits(),
            p.dy.to_bits(),
            p.dz.to_bits(),
            p.i,
            p.ux.to_bits(),
            p.uy.to_bits(),
            p.uz.to_bits(),
            p.w.to_bits(),
            m.dispx.to_bits(),
            m.dispy.to_bits(),
            m.dispz.to_bits(),
            m.idx,
        ]
    }

    /// Write the record into `dst` (`MIGRANT_BYTES` long).
    fn put_bytes(self, dst: &mut [u8]) {
        for (d, w) in dst.chunks_exact_mut(4).zip(self.to_words()) {
            d.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Inverse of [`put_bytes`](Self::put_bytes).
    fn from_bytes(src: &[u8]) -> Self {
        let w =
            |k: usize| u32::from_le_bytes(src[4 * k..4 * k + 4].try_into().expect("4-byte word"));
        let f = |k: usize| f32::from_bits(w(k));
        Migrant {
            p: Particle {
                dx: f(0),
                dy: f(1),
                dz: f(2),
                i: w(3),
                ux: f(4),
                uy: f(5),
                uz: f(6),
                w: f(7),
            },
            m: Mover {
                dispx: f(8),
                dispy: f(9),
                dispz: f(10),
                idx: w(11),
            },
        }
    }
}

// Bit-exact wire layout so a migration over the socket transport lands on
// the same particle bits as the in-process transport. Floats travel as
// bit-patterns (see `nanompi::Wire`). A batch is fixed-width records back
// to back, so the slice hooks run one pass over a pre-sized buffer.
impl Wire for Migrant {
    fn wire_put(&self, out: &mut Vec<u8>) {
        Self::wire_put_slice(std::slice::from_ref(self), out);
    }
    fn wire_get(r: &mut WireReader<'_>) -> Option<Self> {
        r.take(MIGRANT_BYTES).map(Migrant::from_bytes)
    }
    fn wire_put_slice(items: &[Self], out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + items.len() * MIGRANT_BYTES, 0);
        for (dst, m) in out[start..].chunks_exact_mut(MIGRANT_BYTES).zip(items) {
            m.put_bytes(dst);
        }
    }
    fn wire_get_vec(r: &mut WireReader<'_>, len: usize) -> Option<Vec<Self>> {
        let bytes = r.take(len.checked_mul(MIGRANT_BYTES)?)?;
        Some(
            bytes
                .chunks_exact(MIGRANT_BYTES)
                .map(Migrant::from_bytes)
                .collect(),
        )
    }
}

/// Rewrite a boundary particle from the sender's frame (sitting exactly on
/// exit face `face`) into the receiver's frame (entering through the
/// opposite face). Assumes identical local grid dims on both sides.
pub fn transform_to_receiver(p: &mut Particle, face: usize, g: &Grid) {
    let axis = face % 3;
    let (i, j, k) = g.voxel_coords(p.i as usize);
    let mut c = [i, j, k];
    let n = [g.nx, g.ny, g.nz][axis];
    if face >= 3 {
        c[axis] = 1;
        p.set_offset(axis, -1.0);
    } else {
        c[axis] = n;
        p.set_offset(axis, 1.0);
    }
    p.i = g.voxel(c[0], c[1], c[2]) as u32;
}

/// Ship this species' exiles, receive inbound migrants, continue their
/// moves (depositing into `acc`), and iterate until no rank has traffic.
/// Returns the number of particles this rank sent (all rounds).
///
/// `tag_base` must differ per species within one step.
#[allow(clippy::too_many_arguments)]
pub fn migrate_species(
    comm: &mut Comm,
    neighbors: &[Option<usize>; 6],
    g: &Grid,
    qsp: f32,
    sp: &mut Species,
    acc: &mut AccumulatorArray,
    exiles: Vec<Exile>,
    tag_base: u64,
) -> Result<u64, CommError> {
    // Build initial outgoing sets and delete the shipped particles.
    let mut outgoing: [Vec<Migrant>; 6] = Default::default();
    for ex in &exiles {
        let mut p = sp.get(ex.idx as usize);
        transform_to_receiver(&mut p, ex.face, g);
        debug_assert!(neighbors[ex.face].is_some(), "exile through a wall face");
        outgoing[ex.face].push(Migrant { p, m: ex.mover });
    }
    sp.remove_exiles(&exiles);

    let mut sent_total = 0u64;
    loop {
        let pending: u64 = outgoing.iter().map(|v| v.len() as u64).sum();
        if comm.allreduce_sum_u64(pending)? == 0 {
            break;
        }
        sent_total += pending;
        // Send (empty vectors too, so receives always match).
        for face in 0..6 {
            if let Some(nb) = neighbors[face] {
                let batch = std::mem::take(&mut outgoing[face]);
                comm.send_vec(nb, TAG_MIGRATE + tag_base * 8 + face as u64, batch)?;
            }
        }
        // Receive from every neighbor face; a migrant arriving through my
        // face f was sent through the sender's opposite face.
        for (face, nb) in neighbors.iter().enumerate() {
            if let Some(nb) = *nb {
                let sender_face = (face + 3) % 6;
                let batch: Vec<Migrant> =
                    comm.recv(nb, TAG_MIGRATE + tag_base * 8 + sender_face as u64)?;
                for mut mig in batch {
                    let mut pm = mig.m;
                    match move_p_local(&mut mig.p, &mut pm, acc, g, qsp) {
                        MoveOutcome::Done => sp.push(mig.p),
                        MoveOutcome::Absorbed => {}
                        MoveOutcome::Exit { face: out_face } => {
                            transform_to_receiver(&mut mig.p, out_face, g);
                            outgoing[out_face].push(Migrant { p: mig.p, m: pm });
                        }
                    }
                }
            }
        }
    }
    Ok(sent_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpic_core::grid::ParticleBc;

    fn migrate_grid() -> Grid {
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

    #[test]
    fn migrant_wire_round_trip_is_bit_exact() {
        let m = Migrant {
            p: Particle {
                dx: -0.25,
                dy: f32::from_bits(0x7fc0_0001), // NaN payload survives
                dz: -0.0,
                i: 42,
                ux: 1.0e-38,
                uy: -3.5,
                uz: 0.125,
                w: 2.0,
            },
            m: Mover {
                dispx: 0.5,
                dispy: -0.5,
                dispz: 0.0,
                idx: 7,
            },
        };
        let mut buf = Vec::new();
        m.wire_put(&mut buf);
        let mut r = WireReader::new(&buf);
        let got = Migrant::wire_get(&mut r).unwrap();
        assert!(r.done());
        assert_eq!(got.p.dx.to_bits(), m.p.dx.to_bits());
        assert_eq!(got.p.dy.to_bits(), m.p.dy.to_bits());
        assert_eq!(got.p.dz.to_bits(), m.p.dz.to_bits());
        assert_eq!(got.p.i, m.p.i);
        assert_eq!(got.p.ux.to_bits(), m.p.ux.to_bits());
        assert_eq!(got.p.w.to_bits(), m.p.w.to_bits());
        assert_eq!(got.m.dispx.to_bits(), m.m.dispx.to_bits());
        assert_eq!(got.m.idx, m.m.idx);
        // Truncated payloads refuse to decode.
        assert!(Migrant::wire_get(&mut WireReader::new(&buf[..buf.len() - 1])).is_none());
    }

    #[test]
    fn migrant_batch_hooks_match_the_per_record_layout() {
        // A `Vec<Migrant>` message is the length prefix plus the records
        // back to back, each field in struct order; the batch decodes bit
        // for bit, and a truncated or over-long length prefix
        // refuses to decode.
        let batch: Vec<Migrant> = (0..5u32)
            .map(|k| {
                let f = |j: u32| f32::from_bits(0x7fc0_0000 ^ (k * 977 + j * 131_071));
                Migrant {
                    p: Particle {
                        dx: f(0),
                        dy: -0.0,
                        dz: f(2),
                        i: k * 7,
                        ux: f(4),
                        uy: f(5),
                        uz: f(6),
                        w: f(7),
                    },
                    m: Mover {
                        dispx: f(8),
                        dispy: f(9),
                        dispz: f(10),
                        idx: u32::MAX - k,
                    },
                }
            })
            .collect();
        // The layout, spelled out field by field as it has always been.
        let mut per_field = (batch.len() as u64).to_le_bytes().to_vec();
        for Migrant { p, m } in &batch {
            for v in [p.dx, p.dy, p.dz] {
                v.wire_put(&mut per_field);
            }
            p.i.wire_put(&mut per_field);
            for v in [p.ux, p.uy, p.uz, p.w, m.dispx, m.dispy, m.dispz] {
                v.wire_put(&mut per_field);
            }
            m.idx.wire_put(&mut per_field);
        }
        let mut bulk = Vec::new();
        batch.wire_put(&mut bulk);
        assert_eq!(bulk, per_field);
        assert_eq!(bulk.len(), 8 + batch.len() * std::mem::size_of::<Migrant>());

        let mut r = WireReader::new(&bulk);
        let back = Vec::<Migrant>::wire_get(&mut r).unwrap();
        assert!(r.done());
        let words = |v: &[Migrant]| v.iter().map(|m| m.to_words()).collect::<Vec<_>>();
        assert_eq!(words(&back), words(&batch));

        for cut in 0..bulk.len() {
            assert!(Vec::<Migrant>::wire_get(&mut WireReader::new(&bulk[..cut])).is_none());
        }
        let mut hostile = bulk.clone();
        hostile[..8].copy_from_slice(&(batch.len() as u64 + 1).to_le_bytes());
        assert!(Vec::<Migrant>::wire_get(&mut WireReader::new(&hostile)).is_none());
        hostile[..8].copy_from_slice(&(u64::MAX / 48).to_le_bytes());
        assert!(Vec::<Migrant>::wire_get(&mut WireReader::new(&hostile)).is_none());
    }

    #[test]
    fn transform_flips_face_coordinates() {
        let g = migrate_grid();
        let mut p = Particle {
            i: g.voxel(4, 1, 2) as u32,
            dx: 1.0,
            dy: 0.3,
            ..Default::default()
        };
        transform_to_receiver(&mut p, 3, &g); // exits +x
        assert_eq!(p.i, g.voxel(1, 1, 2) as u32);
        assert_eq!(p.dx, -1.0);
        assert_eq!(p.dy, 0.3);

        let mut p = Particle {
            i: g.voxel(1, 2, 1) as u32,
            dx: -1.0,
            ..Default::default()
        };
        transform_to_receiver(&mut p, 0, &g); // exits −x
        assert_eq!(p.i, g.voxel(4, 2, 1) as u32);
        assert_eq!(p.dx, 1.0);
    }

    #[test]
    fn two_rank_roundtrip_conserves_particles() {
        use nanompi::run_expect;
        let (results, _) = run_expect(2, |comm| {
            let g = migrate_grid();
            let other = 1 - comm.rank();
            let neighbors = [Some(other), None, None, Some(other), None, None];
            let mut sp = Species::new("e", -1.0, 1.0);
            let mut acc = AccumulatorArray::new(&g);
            // Rank 0 owns one particle that must hop to rank 1.
            let exiles = if comm.rank() == 0 {
                sp.push(Particle {
                    i: g.voxel(4, 1, 1) as u32,
                    dx: 1.0,
                    ux: 1.0,
                    w: 1.0,
                    ..Default::default()
                });
                vec![Exile {
                    idx: 0,
                    face: 3,
                    mover: Mover {
                        dispx: 0.2,
                        dispy: 0.0,
                        dispz: 0.0,
                        idx: 0,
                    },
                }]
            } else {
                Vec::new()
            };
            let sent =
                migrate_species(comm, &neighbors, &g, -1.0, &mut sp, &mut acc, exiles, 0).unwrap();
            (sp.len(), sent)
        });
        assert_eq!(results[0], (0, 1));
        assert_eq!(results[1].0, 1);
        assert_eq!(results[1].1, 0);
    }

    #[test]
    fn multi_hop_migration_terminates() {
        use nanompi::run_expect;
        // 4 ranks in a periodic x-ring; a very fast particle with a huge
        // remaining displacement hops through several domains in one step.
        use nanompi::CartTopology;
        let topo = CartTopology::new([4, 1, 1], [true, false, false]);
        let (results, _) = run_expect(4, |comm| {
            let g = migrate_grid();
            let neighbors = [
                topo.neighbor(comm.rank(), 0, -1),
                None,
                None,
                topo.neighbor(comm.rank(), 0, 1),
                None,
                None,
            ];
            let mut sp = Species::new("e", -1.0, 1.0);
            let mut acc = AccumulatorArray::new(&g);
            let exiles = if comm.rank() == 0 {
                sp.push(Particle {
                    i: g.voxel(4, 1, 1) as u32,
                    dx: 1.0,
                    ux: 10.0,
                    w: 1.0,
                    ..Default::default()
                });
                // Remaining half-displacement of 3.0 offset units = 6 full
                // offsets = 3 cells: it should stop 3 cells into rank 1's
                // 4-cell domain (still needing a rank-1→1 hop only).
                vec![Exile {
                    idx: 0,
                    face: 3,
                    mover: Mover {
                        dispx: 3.0,
                        dispy: 0.0,
                        dispz: 0.0,
                        idx: 0,
                    },
                }]
            } else {
                Vec::new()
            };
            migrate_species(comm, &neighbors, &g, -1.0, &mut sp, &mut acc, exiles, 0).unwrap();
            sp.len()
        });
        // Exactly one rank holds the particle afterwards: 3 cells past the
        // rank-0/1 boundary lands inside rank 1's 4-cell domain.
        assert_eq!(results.iter().sum::<usize>(), 1);
        assert_eq!(results[1], 1);
    }
}
