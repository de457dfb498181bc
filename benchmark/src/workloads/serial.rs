//! `uniform-push` and `slab-field`: one serial [`Simulation`] stepped in
//! rounds of fixed work. Same code path, opposite regimes: a box full of
//! particles (the push carries the step) against a mostly empty one (the
//! grid walk does).

use super::{energy_drift_check, setup_samples, timed_rounds, Args};
use crate::drivers::{traced_serial_step, StepCounts};
use crate::hostspeed::{set_time_metrics, HostSpeed, WallTimes};
use crate::layers;
use crate::report::{peak_rss_mb, HashWriter, Metrics, Report, TempDir};
use crate::stats::{median, typical_round};
use crate::trace::{write_trace, Tracer};
use std::time::{Duration, Instant};
use vpic::core::cadence::SortPolicy;
use vpic::core::checkpoint;
use vpic::core::maxwellian::load_profile;
use vpic::core::sentinel::count_nonfinite_fields;
use vpic::core::{Grid, Layout, Momentum, PushKernel, Rng, Simulation, Species};

pub struct SerialCase {
    pub name: &'static str,
    pub cells: (usize, usize, usize),
    /// Plasma fills cells `[lo, hi)` of x at full density (0 outside).
    pub plasma_x: (usize, usize),
    pub ppc: usize,
    pub vth: f32,
    pub steps_per_round: u64,
    /// Steps a user of this workload is taken to want (`time_to_solution_s`).
    pub quota_steps: u64,
}

pub const UNIFORM_PUSH: SerialCase = SerialCase {
    name: "uniform-push",
    cells: (64, 64, 64),
    plasma_x: (0, 64),
    ppc: 8,
    vth: 0.05,
    steps_per_round: 8,
    quota_steps: 200,
};

pub const SLAB_FIELD: SerialCase = SerialCase {
    name: "slab-field",
    cells: (160, 48, 48),
    plasma_x: (64, 96),
    ppc: 2,
    vth: 0.05,
    steps_per_round: 25,
    quota_steps: 500,
};

const DX: f32 = 0.25;
const PIPELINES: usize = 2;

impl SerialCase {
    /// Grid, electrons loaded from `seed`, production variant pinned
    /// (AoSoA store, lane kernel, auto sort cadence). `E = B = 0` with
    /// an implicit neutralising background satisfies Gauss's law, so no
    /// initial field solve is needed.
    pub fn build(&self, seed: u64) -> Simulation {
        let dt = Grid::courant_dt(1.0, (DX, DX, DX), 0.9);
        let grid = Grid::periodic(self.cells, (DX, DX, DX), dt);
        let mut sim = Simulation::new(grid, PIPELINES);
        sim.set_layout(Layout::Aosoa);
        sim.set_kernel(PushKernel::Lane);
        let mut e = Species::new("electron", -1.0, 1.0).with_sort_policy(SortPolicy::Auto);
        let mut rng = Rng::seeded(seed);
        let (lo, hi) = (self.plasma_x.0 as f32 * DX, self.plasma_x.1 as f32 * DX);
        load_profile(
            &mut e,
            &sim.grid,
            &mut rng,
            self.ppc,
            Momentum::thermal(self.vth),
            1.0,
            |x, _, _| if x >= lo && x < hi { 1.0 } else { 0.0 },
        );
        sim.add_species(e);
        sim
    }

    fn note(&self, sim: &Simulation) -> String {
        format!(
            "{}: {:?} cells, {} particles, {} pipelines, round = {} steps, quota = {} steps",
            self.name,
            self.cells,
            sim.n_particles(),
            PIPELINES,
            self.steps_per_round,
            self.quota_steps
        )
    }
}

fn state_fingerprint(sim: &Simulation) -> Result<u64, String> {
    let mut h = HashWriter::default();
    checkpoint::save(sim, &mut h).map_err(|e| format!("fingerprint dump: {e}"))?;
    Ok(h.0)
}

/// The checks every step-loop run ends with.
fn physics_checks(report: &mut Report, sim: &Simulation, n0: usize, e0: f64) {
    let n = sim.n_particles();
    report.checks.record(
        "particles-conserved",
        n == n0 && sim.lost_particles == 0,
        format!("{n0} loaded, {n} at end, {} lost", sim.lost_particles),
    );
    let bad = count_nonfinite_fields(&sim.fields);
    report.checks.record(
        "fields-finite",
        bad == 0,
        format!("{bad} non-finite field values"),
    );
    let e1 = sim.energies().total();
    energy_drift_check(&mut report.checks, e0, e1, sim.step_count, "");
}

pub fn run(case: &SerialCase, args: &Args) -> Result<Report, String> {
    if args.trace {
        traced(case, args)
    } else {
        end_to_end(case, args)
    }
}

fn end_to_end(case: &SerialCase, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(Metrics::end_to_end());
    let mut host = HostSpeed::new(1);

    let t = Instant::now();
    let mut sim = case.build(args.seed);
    let first_setup_s = t.elapsed().as_secs_f64();
    report.notes.push(case.note(&sim));
    let (n0, e0) = (sim.n_particles(), sim.energies().total());

    let started = Instant::now();
    for _ in 0..case.steps_per_round {
        sim.step(); // warm-up round, untimed
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let rounds = timed_rounds(started, budget, Some(&mut host), || {
        for _ in 0..case.steps_per_round {
            sim.step();
        }
        Ok(())
    })?;

    // Finalise: the closing dump a user keeps, then its read-back check.
    // Memory is read between the two: the second copy of the state is
    // the benchmark's, not the program's.
    let dir = TempDir::new(case.name).map_err(|e| format!("scratch: {e}"))?;
    let t = Instant::now();
    let path = dir.path().join("final.vpic");
    checkpoint::save_to_path(&sim, &path).map_err(|e| format!("final dump: {e}"))?;
    let dump_s = t.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();
    let t = Instant::now();
    let back =
        checkpoint::load_from_path(&path, PIPELINES).map_err(|e| format!("read back: {e}"))?;
    let same = state_fingerprint(&back)? == state_fingerprint(&sim)?;
    let finalise_s = dump_s + t.elapsed().as_secs_f64();
    drop(back);
    report.checks.record(
        "checkpoint-roundtrip",
        same,
        "final dump read back and re-dumped",
    );
    physics_checks(&mut report, &sim, n0, e0);
    report.attempted = sim.step_count;
    drop(sim); // one simulation resident at a time

    let setup = setup_samples(first_setup_s, || {
        let t = Instant::now();
        std::hint::black_box(case.build(args.seed));
        Ok(t.elapsed().as_secs_f64())
    })?;

    report.notes.push(format!("set-up times (s): {setup:.4?}"));
    report.notes.push(format!("round times (s): {rounds:.3?}"));
    let wall = WallTimes {
        work_per_round: (n0 as u64 * case.steps_per_round) as f64,
        round_s: typical_round(&rounds),
        quota_rounds: case.quota_steps as f64 / case.steps_per_round as f64,
        setup_s: median(&setup),
        finalise_s,
    };
    set_time_metrics(&mut report, &host, &wall);
    report.metrics.set("peak_rss_mb", rss_mb);
    report.rounds = rounds.len();
    Ok(report)
}

fn traced(case: &SerialCase, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(Metrics::per_layer());
    let mut plain = case.build(args.seed);
    let mut traced = case.build(args.seed);
    report.notes.push(case.note(&plain));
    let (n0, e0) = (traced.n_particles(), traced.energies().total());

    let started = Instant::now();
    let mut tr = Tracer::new(started, 0);
    let mut counts = StepCounts::default();
    for _ in 0..case.steps_per_round {
        plain.step();
        traced_serial_step(&mut traced, &mut tr, &mut counts, |_, _, _| {});
    }
    // Warm-up spans and counts are not part of the measurement.
    tr.spans.clear();
    counts = StepCounts::default();

    // Plain and traced steps alternate, so each pair sees the same host
    // and the same step of the sort cadence.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds * 0.8);
    let rounds = timed_rounds(started, budget, None, || {
        for _ in 0..case.steps_per_round {
            let t = Instant::now();
            plain.step();
            plain_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            traced_serial_step(&mut traced, &mut tr, &mut counts, |_, _, _| {});
            traced_s.push(t.elapsed().as_secs_f64());
        }
        Ok(())
    })?;

    let same = state_fingerprint(&plain)? == state_fingerprint(&traced)?;
    report.checks.record(
        "traced-equals-plain",
        same,
        format!("state fingerprints after {} steps", traced.step_count),
    );
    drop(plain);

    let m = &mut report.metrics;
    let spans = [std::mem::take(&mut tr.spans)];
    layers::core_phases(m, &spans, &counts);
    layers::model_projection(m, &mut report.notes, 1);
    let overhead = layers::paired_overhead(&plain_s, &traced_s);
    m.set(
        "core.sentinel.check_ms",
        layers::sentinel_check_ms(
            &traced.fields,
            &traced.grid,
            &traced.species,
            &traced.accumulators,
            traced.step_count,
        ),
    );
    let roundtrip = layers::serial_checkpoint(m, &traced)?;
    report.checks.record(
        "checkpoint-roundtrip",
        roundtrip,
        "v2 dump restored and re-dumped",
    );
    layers::trace_checks(&mut report, overhead);
    physics_checks(&mut report, &traced, n0, e0);

    write_trace(&spans)?;
    report.rounds = rounds.len();
    report.attempted = traced.step_count;
    Ok(report)
}
