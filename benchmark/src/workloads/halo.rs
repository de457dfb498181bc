//! `halo-socket`: two ranks as threads over CRC-framed Unix sockets,
//! each owning a thin 8×64×64 slab of a periodic box, so every step
//! moves 64×64 ghost planes and a steady stream of migrants through the
//! wire path. Bare `DistributedSim::step`, no campaign driver.

use super::world::{
    comm_err, conservation_checks, global_energy, launch, no_drive, rank0_says, rank_fingerprint,
    rank_roundtrip, short_run, traced_world, traffic_metrics, WorldSpec,
};
use super::{energy_drift_check, setup_samples, Args};
use crate::hostspeed::{set_time_metrics, HostSpeed, WallTimes};
use crate::report::{peak_rss_mb, Metrics, Report, TempDir};
use crate::stats::{median, typical_round};
use crate::trace::write_trace;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vpic::core::cadence::SortPolicy;
use vpic::core::sentinel::count_nonfinite_fields;
use vpic::core::{Grid, Layout, Momentum, ParticleBc, PushKernel, Species};
use vpic::nanompi::{CartTopology, TransportKind};
use vpic::parallel::{
    dump_rank_bytes, load_rank_from_path, save_rank_to_path, DistributedSim, DomainSpec,
};

const GLOBAL_CELLS: (usize, usize, usize) = (16, 64, 64);
const DX: f32 = 0.25;
const PPC: usize = 2;
const VTH: f32 = 0.1;
const STEPS_PER_ROUND: u64 = 50;
const QUOTA_STEPS: u64 = 2000;

/// The periodic box cut along x into `ranks` slabs (`balanced` would
/// pick x too, but the thin-slab shape is the point, so it is explicit).
fn domain(ranks: usize) -> DomainSpec {
    DomainSpec {
        global_cells: GLOBAL_CELLS,
        cell: (DX, DX, DX),
        dt: Grid::courant_dt(1.0, (DX, DX, DX), 0.9),
        topo: CartTopology::new([ranks, 1, 1], [true, true, true]),
        global_bc: [ParticleBc::Periodic; 6],
        origin: (0.0, 0.0, 0.0),
    }
}

fn build_rank(spec: &DomainSpec, rank: usize, seed: u64) -> DistributedSim {
    let mut sim = DistributedSim::new(spec.clone(), rank, 1);
    sim.set_layout(Layout::Aosoa);
    sim.set_kernel(PushKernel::Lane);
    let si =
        sim.add_species(Species::new("electron", -1.0, 1.0).with_sort_policy(SortPolicy::Auto));
    sim.load_uniform(si, seed, 1.0, PPC, Momentum::thermal(VTH));
    sim
}

pub fn run(args: &Args) -> Result<Report, String> {
    let spec = domain(2);
    let build = |rank: usize| build_rank(&spec, rank, args.seed);
    let world = WorldSpec {
        transport: TransportKind::Socket,
        ranks: 2,
        build: &build,
        drive: &no_drive,
    };
    let mut report = if args.trace {
        traced(&world, args)?
    } else {
        end_to_end(&world, args)?
    };
    report.notes.push(format!(
        "halo-socket: {GLOBAL_CELLS:?} cells over 2 ranks, ppc {PPC}, vth {VTH}, round = {STEPS_PER_ROUND} steps, quota = {QUOTA_STEPS} steps"
    ));
    Ok(report)
}

/// One rank's view of the end-to-end world.
struct RankRun {
    setup_s: f64,
    rounds: Vec<f64>,
    /// Rank 0's reference passes, one after every round.
    host: Option<HostSpeed>,
    finalise_s: f64,
    /// `VmHWM` of the process once every rank's closing dump is written.
    rss_mb: f64,
    after_warmup: u64,
    roundtrip: bool,
    particles: (usize, usize),
    nonfinite: u64,
    energy: (f64, f64),
    steps: u64,
}

fn end_to_end(world: &WorldSpec, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(Metrics::end_to_end());
    let dumps = TempDir::new("halo").map_err(|e| format!("scratch: {e}"))?;
    let budget = Duration::from_secs_f64(args.seconds);
    let host = Mutex::new(Some(HostSpeed::new(world.ranks)));
    let launched = Instant::now();
    let (ranks, _) = launch(world.transport, world.ranks, |comm| {
        let mut sim = (world.build)(comm.rank());
        comm.barrier().map_err(comm_err)?;
        let setup_s = launched.elapsed().as_secs_f64();
        let mut host = match comm.rank() {
            0 => host.lock().expect("host lock").take(),
            _ => None,
        };
        let n0 = sim.n_particles();
        let e0 = global_energy(&sim, comm)?;

        let start = Instant::now();
        for _ in 0..STEPS_PER_ROUND {
            sim.step(comm).map_err(comm_err)?; // warm-up round, untimed
        }
        let after_warmup = rank_fingerprint(&sim)?;

        let mut rounds = Vec::new();
        loop {
            comm.barrier().map_err(comm_err)?;
            let t = Instant::now();
            for _ in 0..STEPS_PER_ROUND {
                sim.step(comm).map_err(comm_err)?;
            }
            comm.barrier().map_err(comm_err)?;
            rounds.push(t.elapsed().as_secs_f64());
            // The other rank waits in the vote below meanwhile.
            if let Some(host) = host.as_mut() {
                host.sample_after(rounds[rounds.len() - 1]);
            }
            let more = rounds.len() < super::MIN_ROUNDS
                || start.elapsed().as_secs_f64() + rounds[rounds.len() - 1] <= budget.as_secs_f64();
            if !rank0_says(comm, more)? {
                break;
            }
        }

        // Finalise: every rank's closing dump, then its read-back check.
        // Memory is read between the two: the second copy of the state
        // is the benchmark's, not the program's.
        comm.barrier().map_err(comm_err)?;
        let t = Instant::now();
        let path = dumps.path().join(format!("final_r{}.vpic", sim.rank));
        save_rank_to_path(&sim, &path).map_err(|e| format!("final dump: {e}"))?;
        comm.barrier().map_err(comm_err)?;
        let rss_mb = peak_rss_mb();
        let back = load_rank_from_path(sim.spec.clone(), sim.rank, 1, &path)
            .map_err(|e| format!("read back: {e}"))?;
        let raw = dump_rank_bytes(&sim, false).map_err(|e| format!("rank dump: {e}"))?;
        let same = dump_rank_bytes(&back, false).map_err(|e| format!("rank dump: {e}"))? == raw;
        comm.barrier().map_err(comm_err)?;
        let finalise_s = t.elapsed().as_secs_f64();

        Ok(RankRun {
            setup_s,
            rounds,
            host,
            finalise_s,
            rss_mb,
            after_warmup,
            roundtrip: same && rank_roundtrip(&sim, &raw)?,
            particles: (n0, sim.n_particles()),
            nonfinite: count_nonfinite_fields(&sim.fields),
            energy: (e0, global_energy(&sim, comm)?),
            steps: sim.step_count,
        })
    })?;
    // Set-up = socket bootstrap + per-rank build, until every rank is
    // ready to step: the real world's, and throwaway worlds' after it.
    let setup = setup_samples(ranks[0].setup_s, || {
        let t = Instant::now();
        launch(world.transport, world.ranks, |comm| {
            let sim = (world.build)(comm.rank());
            comm.barrier().map_err(comm_err)?;
            Ok(sim.n_particles())
        })?;
        Ok(t.elapsed().as_secs_f64())
    })?;

    // The same world over in-process channels must land on the same bits.
    let local = short_run(
        &WorldSpec {
            transport: TransportKind::Local,
            ..*world
        },
        STEPS_PER_ROUND,
    )?;
    let socket: Vec<u64> = ranks.iter().map(|r| r.after_warmup).collect();
    let c = &mut report.checks;
    c.record(
        "local-equals-socket",
        local.fingerprints == socket,
        format!("per-rank fingerprints after {STEPS_PER_ROUND} steps on both transports"),
    );
    c.record(
        "checkpoint-roundtrip",
        ranks.iter().all(|r| r.roundtrip),
        "every rank's final dump read back and re-dumped",
    );
    let n0 = conservation_checks(c, ranks.iter().map(|r| (r.particles, r.nonfinite)));
    let (e0, e1) = ranks[0].energy;
    energy_drift_check(c, e0, e1, ranks[0].steps, ", global");

    report.notes.push(format!("set-up times (s): {setup:.4?}"));
    report
        .notes
        .push(format!("round times (s): {:.3?}", ranks[0].rounds));
    let wall = WallTimes {
        work_per_round: (n0 as u64 * STEPS_PER_ROUND) as f64,
        round_s: typical_round(&ranks[0].rounds),
        quota_rounds: QUOTA_STEPS as f64 / STEPS_PER_ROUND as f64,
        setup_s: median(&setup),
        finalise_s: ranks[0].finalise_s,
    };
    let host = ranks[0].host.as_ref().expect("rank 0 keeps the host clock");
    set_time_metrics(&mut report, host, &wall);
    report.metrics.set("peak_rss_mb", ranks[0].rss_mb);
    report.rounds = ranks[0].rounds.len();
    report.attempted = ranks[0].steps;
    Ok(report)
}

fn traced(world: &WorldSpec, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(Metrics::per_layer());

    // Exact traffic and the cross-transport fingerprints from short
    // plain runs; the 1-rank run of the same box gives the speed-up.
    const SHORT_STEPS: u64 = 100;
    let socket = short_run(world, SHORT_STEPS)?;
    let local = short_run(
        &WorldSpec {
            transport: TransportKind::Local,
            ..*world
        },
        SHORT_STEPS,
    )?;
    let one_spec = domain(1);
    let one_build = |rank: usize| build_rank(&one_spec, rank, args.seed);
    let one = short_run(
        &WorldSpec {
            ranks: 1,
            build: &one_build,
            ..*world
        },
        SHORT_STEPS,
    )?;
    traffic_metrics(&mut report.metrics, &socket, SHORT_STEPS);
    report
        .metrics
        .set("parallel.speedup_2r_vs_1r", one.step_s / socket.step_s);
    report.checks.record(
        "local-equals-socket",
        local.fingerprints == socket.fingerprints,
        format!("per-rank fingerprints after {SHORT_STEPS} steps on both transports"),
    );

    let budget = Duration::from_secs_f64(args.seconds * 0.7);
    let world_out = traced_world(world, STEPS_PER_ROUND, budget, true, &mut report)?;
    write_trace(&world_out.spans)?;
    Ok(report)
}
