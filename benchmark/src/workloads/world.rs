//! Multi-rank worlds shared by `halo-socket` and `campaign-local`: how a
//! world is launched on a transport, the short plain run used for exact
//! traffic counts and cross-transport fingerprints, and the traced world
//! in which every rank steps a plain and a traced copy side by side.

use crate::drivers::{traced_dist_step, StepCounts};
use crate::layers;
use crate::report::{fingerprint, Checks, Metrics, Report, TempDir};
use crate::stats::median;
use crate::trace::{busy_s, Span, Tracer};
use std::time::{Duration, Instant};
use vpic::core::sentinel::count_nonfinite_fields;
use vpic::core::{FieldArray, Grid};
use vpic::nanompi::{self, Comm, CommError, SocketAddrSpec, TrafficReport, TransportKind};
use vpic::parallel::{dump_rank_bytes, load_rank, DistributedSim};

/// A per-rank current drive (a laser antenna, or nothing).
pub type Drive = Box<dyn Fn(&mut FieldArray, &Grid, u64)>;

pub fn no_drive(_rank: usize) -> Drive {
    Box::new(|_, _, _| {})
}

/// How to stand a world up: the same recipe serves every run of it.
pub struct WorldSpec<'a> {
    pub transport: TransportKind,
    pub ranks: usize,
    pub build: &'a (dyn Fn(usize) -> DistributedSim + Sync),
    pub drive: &'a (dyn Fn(usize) -> Drive + Sync),
}

pub fn comm_err(e: CommError) -> String {
    format!("comm: {e}")
}

/// Run `f` on every rank of a fresh world. Socket worlds rendezvous in a
/// scratch directory of their own, removed when the world ends. Any rank
/// failing or panicking fails the launch.
pub fn launch<R: Send>(
    transport: TransportKind,
    ranks: usize,
    f: impl Fn(&mut Comm) -> Result<R, String> + Send + Sync,
) -> Result<(Vec<R>, TrafficReport), String> {
    let (results, traffic) = match transport {
        TransportKind::Local => nanompi::run(ranks, f),
        TransportKind::Socket => {
            let dir = TempDir::new("sock").map_err(|e| format!("scratch: {e}"))?;
            nanompi::run_socket_world(ranks, SocketAddrSpec::unix(dir.path()), None, f)
        }
    };
    let mut out = Vec::with_capacity(ranks);
    for r in results {
        out.push(r.map_err(|p| p.to_string())??);
    }
    Ok((out, traffic))
}

/// Rank 0 keeps the clock; this shares its verdict with everyone.
pub fn rank0_says(comm: &mut Comm, mine: bool) -> Result<bool, String> {
    let vote = (comm.rank() == 0 && mine) as u64;
    Ok(comm.allreduce_sum_u64(vote).map_err(comm_err)? > 0)
}

pub fn rank_fingerprint(sim: &DistributedSim) -> Result<u64, String> {
    dump_rank_bytes(sim, false)
        .map(|b| fingerprint(&b))
        .map_err(|e| format!("rank dump: {e}"))
}

/// Restore a rank from its own dump and dump it again: same bytes?
pub fn rank_roundtrip(sim: &DistributedSim, bytes: &[u8]) -> Result<bool, String> {
    let pipelines = sim.accumulators.n_pipelines();
    let back = load_rank(sim.spec.clone(), sim.rank, pipelines, &mut &bytes[..])
        .map_err(|e| format!("rank restore: {e}"))?;
    Ok(dump_rank_bytes(&back, false).map_err(|e| format!("rank re-dump: {e}"))? == bytes)
}

/// What a short plain run of a world hands back.
pub struct ShortRun {
    /// Per-rank state fingerprints after the last step.
    pub fingerprints: Vec<u64>,
    /// Exact message and byte counts of the stepping (collectives are
    /// not counted by the substrate).
    pub traffic: TrafficReport,
    /// Median wall time of one step on rank 0.
    pub step_s: f64,
}

/// Build the world and take `steps` of the program's own step.
pub fn short_run(spec: &WorldSpec, steps: u64) -> Result<ShortRun, String> {
    let (ranks, traffic) = launch(spec.transport, spec.ranks, |comm| {
        let mut sim = (spec.build)(comm.rank());
        let drive = (spec.drive)(comm.rank());
        comm.barrier().map_err(comm_err)?;
        let mut step_s = Vec::with_capacity(steps as usize);
        for _ in 0..steps {
            let t = Instant::now();
            sim.step_with(comm, |f, g, s| drive(f, g, s))
                .map_err(comm_err)?;
            step_s.push(t.elapsed().as_secs_f64());
        }
        Ok((rank_fingerprint(&sim)?, median(&step_s)))
    })?;
    Ok(ShortRun {
        step_s: ranks[0].1,
        fingerprints: ranks.into_iter().map(|r| r.0).collect(),
        traffic,
    })
}

/// `nanompi.{msgs,bytes}_per_step` and the heaviest tag's byte share,
/// from a short plain run's exact counts.
pub fn traffic_metrics(m: &mut Metrics, run: &ShortRun, steps: u64) {
    let t = &run.traffic;
    m.set(
        "nanompi.msgs_per_step",
        t.total_messages as f64 / steps as f64,
    );
    m.set(
        "nanompi.bytes_per_step",
        t.total_bytes as f64 / steps as f64,
    );
    let top = t.top_tags(1).first().map_or(0, |t| t.bytes);
    m.set(
        "nanompi.top_tag_bytes_share",
        top as f64 / t.total_bytes.max(1) as f64,
    );
}

const TAG_PING: u64 = 0xBE00;
const TAG_HALO: u64 = 0xBE01;

/// Micro-rounds on the world's own communicator, before any stepping:
/// small-message round trip, halo-sized message throughput, allreduce.
/// Ranks 0 and 1 bounce; rank 0 reports `(pingpong µs p50, halo MB/s,
/// allreduce µs p50)`.
fn micro_rounds(comm: &mut Comm, halo_floats: usize) -> Result<(f64, f64, f64), String> {
    let rank = comm.rank();
    let bounce = |comm: &mut Comm, tag: u64, floats: usize, rounds: usize| {
        let mut us = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            if rank == 0 {
                comm.send_vec(1, tag, vec![0f32; floats])?;
                let _: Vec<f32> = comm.recv(1, tag)?;
            } else if rank == 1 {
                let msg: Vec<f32> = comm.recv(0, tag)?;
                comm.send_vec(0, tag, msg)?;
            }
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok::<f64, CommError>(median(&us))
    };
    let (ping, halo) = if comm.size() >= 2 {
        let ping = bounce(comm, TAG_PING, 1, 200).map_err(comm_err)?;
        let halo_us = bounce(comm, TAG_HALO, halo_floats, 50).map_err(comm_err)?;
        // Two messages of `halo_floats` f32 per round trip.
        (ping, 2.0 * 4.0 * halo_floats as f64 / halo_us)
    } else {
        (0.0, 0.0)
    };
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        comm.allreduce_sum(1.0).map_err(comm_err)?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok((ping, halo, median(&us)))
}

/// One rank's share of a traced world.
struct TracedRank {
    spans: Vec<Span>,
    counts: StepCounts,
    /// Per-step wall times of the plain and the traced copy (rank 0's
    /// clock; the ranks move in lockstep).
    plain_s: Vec<f64>,
    traced_s: Vec<f64>,
    same_state: bool,
    roundtrip: bool,
    micro: (f64, f64, f64),
    dump_s: f64,
    dump_bytes: usize,
    compress_ratio: f64,
    sentinel_ms: f64,
    particles: (usize, usize),
    nonfinite: u64,
    energy: (f64, f64),
    rounds: usize,
}

/// What [`traced_world`] leaves for the workload to finish the report.
pub struct TracedWorld {
    pub spans: Vec<Vec<Span>>,
    /// Mean wall time of one plain step.
    pub plain_step_s: f64,
}

/// `particles-conserved` and `fields-finite` over a world, from each
/// rank's `((particles loaded, particles at end), non-finite field values)`.
/// Returns the particles loaded.
pub fn conservation_checks(
    c: &mut Checks,
    ranks: impl Iterator<Item = ((usize, usize), u64)>,
) -> usize {
    let ((n0, n1), bad) = ranks.fold(((0, 0), 0), |((a0, a1), b), ((n0, n1), bad)| {
        ((a0 + n0, a1 + n1), b + bad)
    });
    c.record(
        "particles-conserved",
        n0 == n1,
        format!("{n0} loaded, {n1} at end, all ranks"),
    );
    c.record(
        "fields-finite",
        bad == 0,
        format!("{bad} non-finite field values"),
    );
    n0
}

pub fn global_energy(sim: &DistributedSim, comm: &mut Comm) -> Result<f64, String> {
    let (fe, fb, ke) = sim.global_energies(comm).map_err(comm_err)?;
    Ok(fe + fb + ke.iter().sum::<f64>())
}

/// The traced run of a multi-rank world. Every rank builds the world's
/// state twice and alternates, step by step, the program's own step on
/// one copy with the benchmark's traced driver on the other, for
/// `budget`; then compares the two states, times a rank dump and a
/// health sample, and hands everything back. Fills the `core.*`,
/// `nanompi.*` micro, `parallel.*` and `trace.*` metrics and records the
/// checks that follow from them.
pub fn traced_world(
    spec: &WorldSpec,
    steps_per_round: u64,
    budget: Duration,
    conserves_energy: bool,
    report: &mut Report,
) -> Result<TracedWorld, String> {
    let epoch = Instant::now();
    let (mut ranks, _traffic) = launch(spec.transport, spec.ranks, |comm| {
        let rank = comm.rank();
        let mut plain = (spec.build)(rank);
        let mut traced = (spec.build)(rank);
        let drive = (spec.drive)(rank);
        let (_, sy, sz) = traced.grid.strides();
        let micro = micro_rounds(comm, 3 * sy * sz)?;
        let n0 = traced.n_particles();
        let e0 = global_energy(&traced, comm)?;

        let mut tr = Tracer::new(epoch, rank);
        let mut counts = StepCounts::default();
        let mut pair = |comm: &mut Comm,
                        tr: &mut Tracer,
                        counts: &mut StepCounts,
                        times: Option<(&mut Vec<f64>, &mut Vec<f64>)>|
         -> Result<(), String> {
            let t = Instant::now();
            plain
                .step_with(comm, |f, g, s| drive(f, g, s))
                .map_err(comm_err)?;
            let p = t.elapsed().as_secs_f64();
            let t = Instant::now();
            traced_dist_step(&mut traced, comm, tr, counts, |f, g, s| drive(f, g, s))
                .map_err(comm_err)?;
            if let Some((ps, ts)) = times {
                ps.push(p);
                ts.push(t.elapsed().as_secs_f64());
            }
            Ok(())
        };
        let start = Instant::now();
        for _ in 0..steps_per_round {
            pair(comm, &mut tr, &mut counts, None)?; // warm-up round
        }
        tr.spans.clear();
        counts = StepCounts::default();

        let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
        let mut rounds = 0;
        loop {
            let t = Instant::now();
            for _ in 0..steps_per_round {
                pair(
                    comm,
                    &mut tr,
                    &mut counts,
                    Some((&mut plain_s, &mut traced_s)),
                )?;
            }
            rounds += 1;
            // Another round only if one more of this length still fits.
            let more = rounds < super::MIN_ROUNDS || start.elapsed() + t.elapsed() <= budget;
            if !rank0_says(comm, more)? {
                break;
            }
        }

        let same_state = rank_fingerprint(&plain)? == rank_fingerprint(&traced)?;
        drop(plain);
        let e1 = global_energy(&traced, comm)?;

        // One compressed rank dump as the campaign driver writes it.
        comm.barrier().map_err(comm_err)?;
        let t = Instant::now();
        let dump = dump_rank_bytes(&traced, true).map_err(|e| format!("rank dump: {e}"))?;
        let dump_s = t.elapsed().as_secs_f64();
        let raw = dump_rank_bytes(&traced, false).map_err(|e| format!("rank dump: {e}"))?;
        Ok(TracedRank {
            same_state,
            roundtrip: rank_roundtrip(&traced, &raw)?,
            micro,
            dump_s,
            dump_bytes: dump.len(),
            compress_ratio: layers::compress_ratio(&traced.fields, &traced.species),
            sentinel_ms: layers::sentinel_check_ms(
                &traced.fields,
                &traced.grid,
                &traced.species,
                &traced.accumulators,
                traced.step_count,
            ),
            particles: (n0, traced.n_particles()),
            nonfinite: count_nonfinite_fields(&traced.fields),
            energy: (e0, e1),
            spans: std::mem::take(&mut tr.spans),
            counts,
            plain_s,
            traced_s,
            rounds,
        })
    })?;

    let n = ranks.len() as f64;
    let mut counts = StepCounts::default();
    for r in &ranks {
        counts.particle_steps += r.counts.particle_steps;
        counts.voxel_steps += r.counts.voxel_steps;
        counts.sorts += r.counts.sorts;
        counts.migrated += r.counts.migrated;
        counts.tally.absorb(&r.counts.tally);
    }
    counts.steps = ranks[0].counts.steps;
    let spans: Vec<Vec<Span>> = ranks
        .iter_mut()
        .map(|r| std::mem::take(&mut r.spans))
        .collect();
    let mean = |name: &str| layers::mean_busy_s(&spans, name);

    let m = &mut report.metrics;
    layers::core_phases(m, &spans, &counts);
    layers::model_projection(m, &mut report.notes, spec.ranks);
    let (step_s, exchange_s, migrate_s, wait_s) = (
        mean("step"),
        mean("parallel.exchange"),
        mean("parallel.migrate"),
        mean("parallel.wait"),
    );
    m.set("parallel.exchange.busy_s", exchange_s);
    m.set("parallel.migrate.busy_s", migrate_s);
    m.set(
        "parallel.migrated_per_step",
        counts.migrated as f64 / counts.steps as f64,
    );
    // Waiting ahead of a transfer is communication cost too: in the
    // program's own step it happens inside the exchange's receive.
    m.set(
        "parallel.comm_fraction",
        (exchange_s + migrate_s + wait_s) / step_s,
    );
    m.set("parallel.wait_share", wait_s / step_s);
    let push: Vec<f64> = spans.iter().map(|s| busy_s(s, "core.push")).collect();
    m.set(
        "parallel.push_imbalance",
        push.iter().cloned().fold(0.0, f64::max) / (push.iter().sum::<f64>() / n),
    );
    m.set(
        "parallel.dcheckpoint.dump_s",
        ranks.iter().map(|r| r.dump_s).fold(0.0, f64::max),
    );
    m.set(
        "parallel.dcheckpoint.bytes_per_rank",
        ranks.iter().map(|r| r.dump_bytes).sum::<usize>() as f64 / n,
    );
    m.set("core.checkpoint.compress_ratio", ranks[0].compress_ratio);
    m.set(
        "core.sentinel.check_ms",
        ranks.iter().map(|r| r.sentinel_ms).fold(0.0, f64::max),
    );
    let (ping, halo, allreduce) = ranks[0].micro;
    m.set("nanompi.pingpong_us_p50", ping);
    m.set("nanompi.halo_msg_mb_per_s", halo);
    m.set("nanompi.allreduce_us_p50", allreduce);
    let overhead = layers::paired_overhead(&ranks[0].plain_s, &ranks[0].traced_s);
    layers::trace_checks(report, overhead);

    let c = &mut report.checks;
    c.record(
        "traced-equals-plain",
        ranks.iter().all(|r| r.same_state),
        format!(
            "per-rank state fingerprints after {} steps",
            counts.steps + steps_per_round
        ),
    );
    c.record(
        "checkpoint-roundtrip",
        ranks.iter().all(|r| r.roundtrip),
        "every rank's dump restored and re-dumped",
    );
    conservation_checks(c, ranks.iter().map(|r| (r.particles, r.nonfinite)));
    if conserves_energy {
        let (e0, e1) = ranks[0].energy;
        super::energy_drift_check(c, e0, e1, counts.steps + steps_per_round, ", global");
    }
    report.rounds = ranks[0].rounds;
    report.attempted = counts.steps + steps_per_round;
    let plain_step_s = ranks[0].plain_s.iter().sum::<f64>() / ranks[0].plain_s.len() as f64;
    Ok(TracedWorld {
        spans,
        plain_step_s,
    })
}
