//! `srs-sweep`: a generated `kind = lpi` + `[sweep]` deck — four laser
//! strengths across the trapping threshold — through the WAL-backed
//! sweep service (`SweepRunner`): leased jobs, per-job LPI campaigns
//! with checkpoints and sentinel, diagnostics on the async pipeline,
//! exactly-once aggregation into the reflectivity curve. A round is one
//! whole sweep in a fresh directory; the product is the curve.

use super::decks::{self, sweep_deck, SWEEP_STEPS};
use super::{timed_rounds, Args};
use crate::drivers::{traced_lpi_step, StepCounts};
use crate::hostspeed::{set_time_metrics, HostSpeed, WallTimes};
use crate::layers;
use crate::report::{fingerprint, newest_file, peak_rss_mb, HashWriter, Metrics, Report, TempDir};
use crate::stats::{median, typical_round};
use crate::trace::{busy_s, write_trace, Tracer};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vpic::core::checkpoint;
use vpic::deck::{BuiltRun, SweepSetup};
use vpic::diag::{DiagEngine, DiagMode};
use vpic::lpi::sweep::{
    parse_curve_reflectivities, SweepEnd, SweepProgress, SweepRunner, WAL_NAME,
};
use vpic::lpi::{run_lpi_campaign, LpiCampaignConfig, LpiCampaignEnd, LpiParams, LpiRun};

fn parse_and_build(text: &str) -> Result<SweepSetup, String> {
    match decks::parse_and_build(text)? {
        BuiltRun::Sweep(setup) => Ok(*setup),
        _ => Err("the generated deck did not build a sweep".into()),
    }
}

struct Round {
    setup_s: f64,
    run_s: f64,
    finalise_s: f64,
    /// Seconds from each job's `Started` to its `Done`.
    job_s: Vec<f64>,
    particle_steps: u64,
    /// Fingerprint of the curve's `Done` payloads, in job order.
    curve: u64,
    reflectivities: Vec<f64>,
    jobs: usize,
    done: usize,
    failures: u64,
    attempts: u64,
    /// The curve file reads back to the aggregated points, and job 0's
    /// newest checkpoint restores and re-dumps to its own bytes.
    disk_matches: bool,
    wal_bytes: u64,
}

/// One sweep from deck text to the verified curve file.
fn one_sweep(text: &str) -> Result<Round, String> {
    let dir = TempDir::new("sweep").map_err(|e| format!("scratch: {e}"))?;

    let t = Instant::now();
    let setup = parse_and_build(text)?;
    let setup_s = t.elapsed().as_secs_f64();

    let cfg = setup.config(dir.path());
    let sweep_dir = cfg.sweep_dir.clone();
    let pipelines = cfg.base.pipelines;
    let t = Instant::now();
    let started: Mutex<Vec<(u64, Instant)>> = Mutex::new(Vec::new());
    let job_s: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let out = SweepRunner::new(setup.grid.clone(), cfg)
        .run_with_progress(&|ev| match ev {
            SweepProgress::Started { job, .. } => {
                started
                    .lock()
                    .expect("started lock")
                    .push((*job, Instant::now()));
            }
            SweepProgress::Done { job, .. } => {
                let began = started.lock().expect("started lock");
                if let Some((_, at)) = began.iter().rev().find(|(j, _)| j == job) {
                    job_s
                        .lock()
                        .expect("job lock")
                        .push(at.elapsed().as_secs_f64());
                }
            }
            _ => {}
        })
        .map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    if out.end != SweepEnd::Completed {
        return Err("the sweep did not settle".into());
    }
    let curve = out.curve.ok_or("a settled sweep has a curve")?;
    let results: Vec<_> = curve.points.iter().filter_map(|p| p.result).collect();

    // Finalise: read the curve file back; restore job 0's newest dump.
    let t = Instant::now();
    let path = out.curve_path.ok_or("a settled sweep has a curve file")?;
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let on_disk: Vec<f64> = parse_curve_reflectivities(&json)
        .iter()
        .map(|p| p.1)
        .collect();
    let reflectivities: Vec<f64> = results.iter().map(|r| r.reflectivity).collect();
    let ckpt = newest_file(&sweep_dir.join("job_000000"), "", ".vpic")?;
    let back =
        checkpoint::load_from_path(&ckpt, pipelines).map_err(|e| format!("read back: {e}"))?;
    let mut again = HashWriter::default();
    checkpoint::save(&back, &mut again).map_err(|e| format!("re-dump: {e}"))?;
    let file = std::fs::read(&ckpt).map_err(|e| format!("{}: {e}", ckpt.display()))?;
    let disk_matches = on_disk == reflectivities && again.0 == fingerprint(&file);
    let finalise_s = t.elapsed().as_secs_f64();

    let mut payloads = Vec::new();
    for r in &results {
        payloads.write_all(&r.encode()).expect("vec write");
    }
    let particle_steps = curve
        .points
        .iter()
        .filter_map(|p| Some(out.steps_by_job.get(&p.point.job_id)? * p.result?.n_particles))
        .sum();
    let wal_bytes = std::fs::metadata(sweep_dir.join(WAL_NAME)).map_or(0, |m| m.len());
    Ok(Round {
        setup_s,
        run_s,
        finalise_s,
        job_s: job_s.into_inner().expect("job lock"),
        particle_steps,
        curve: fingerprint(&payloads),
        reflectivities,
        jobs: curve.points.len(),
        done: out.stats.done,
        failures: out.stats.total_failures,
        attempts: out.attempts_launched,
        disk_matches,
        wal_bytes,
    })
}

fn sweep_checks(report: &mut Report, rounds: &[Round]) {
    let c = &mut report.checks;
    let (jobs, done): (usize, usize) = rounds
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.jobs, a.1 + r.done));
    let failures: u64 = rounds.iter().map(|r| r.failures).sum();
    c.record(
        "campaign-completed",
        done == jobs && failures == 0,
        format!("{done}/{jobs} jobs done, {failures} failed attempts"),
    );
    c.record(
        "curve-repeats",
        rounds.iter().all(|r| r.curve == rounds[0].curve),
        format!(
            "curve fingerprint {:016x} over {} sweeps",
            rounds[0].curve,
            rounds.len()
        ),
    );
    let r = &rounds[0].reflectivities;
    c.record(
        "reflectivity-in-range",
        r.len() == rounds[0].jobs && r.iter().all(|&r| r.is_finite() && r > 0.0 && r < 1.0),
        format!("R(a0) = {r:.3?}"),
    );
    c.record(
        "checkpoint-roundtrip",
        rounds.iter().all(|r| r.disk_matches),
        "curve file reads back; job 0's newest dump restores to its own bytes",
    );
    report.attempted = rounds.iter().map(|r| r.attempts).sum();
    report.failed = failures;
    report.rounds = rounds.len();
}

pub fn run(args: &Args) -> Result<Report, String> {
    let text = sweep_deck(args.seed);
    let mut report = if args.trace {
        traced(&text, args)?
    } else {
        end_to_end(&text, args)?
    };
    report.notes.push(format!(
        "srs-sweep: 4 points in a0, {SWEEP_STEPS} steps each, diag = async, round = quota = one curve"
    ));
    Ok(report)
}

fn end_to_end(text: &str, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(Metrics::end_to_end());
    let mut host = HostSpeed::new(1);
    let started = Instant::now();
    one_sweep(text)?; // warm-up round, untimed
    let mut rounds = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    timed_rounds(started, budget, Some(&mut host), || {
        rounds.push(one_sweep(text)?);
        Ok(())
    })?;
    sweep_checks(&mut report, &rounds);

    let column = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let run_times = column(|r| r.run_s);
    report
        .notes
        .push(format!("round times (s): {run_times:.3?}"));
    // Set-up is a millisecond of deck parsing: every round's, and
    // throwaway repeats up to 25 samples for a median that holds still.
    let mut setup = column(|r| r.setup_s);
    while setup.len() < 25 {
        let t = Instant::now();
        std::hint::black_box(parse_and_build(text)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let wall = WallTimes {
        work_per_round: rounds[0].particle_steps as f64,
        round_s: typical_round(&run_times),
        quota_rounds: 1.0,
        setup_s: median(&setup),
        finalise_s: median(&column(|r| r.finalise_s)),
    };
    set_time_metrics(&mut report, &host, &wall);
    report.metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Everything observable about an LPI run's end state.
fn lpi_fingerprint(run: &LpiRun) -> Result<u64, String> {
    let mut h = HashWriter::default();
    checkpoint::save(&run.sim, &mut h).map_err(|e| format!("fingerprint dump: {e}"))?;
    let (incident, reflected, samples) = run.probe.raw_state();
    let mut tail = Vec::new();
    for v in [incident, reflected] {
        tail.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    tail.extend_from_slice(&samples.to_le_bytes());
    for v in &run.backscatter_series.samples {
        tail.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    h.write_all(&tail).expect("hashing cannot fail");
    Ok(h.0)
}

fn traced(text: &str, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(Metrics::per_layer());

    let t = Instant::now();
    let setup = parse_and_build(text)?;
    report
        .metrics
        .set("deck.parse_build_ms", t.elapsed().as_secs_f64() * 1e3);

    // Whole sweeps: job time, scheduler share, WAL size.
    let started = Instant::now();
    one_sweep(text)?;
    let mut rounds = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds * 0.3);
    timed_rounds(started, budget, None, || {
        rounds.push(one_sweep(text)?);
        Ok(())
    })?;
    sweep_checks(&mut report, &rounds);
    let sweep_s = median(&rounds.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let job_s: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.job_s.iter().copied())
        .collect();
    let in_jobs = median(
        &rounds
            .iter()
            .map(|r| r.job_s.iter().sum())
            .collect::<Vec<f64>>(),
    );
    let m = &mut report.metrics;
    m.set("lpi.sweep.job_s_p50", median(&job_s));
    m.set("lpi.sweep.scheduler_share", (sweep_s - in_jobs) / sweep_s);
    m.set(
        "lpi.sweep.points_per_hour",
        rounds[0].jobs as f64 / sweep_s * 3600.0,
    );
    m.set("lpi.sweep.wal_bytes", rounds[0].wal_bytes as f64);

    // One point of the sweep (a0 = 0.06, past the threshold), three
    // copies stepped side by side: the program's step with diagnostics
    // as the deck has them, the traced driver with the same, and the
    // program's step with diagnostics off.
    let base = setup.config(Path::new(".")).base;
    let params: LpiParams = setup.grid.point(2).ok_or("grid point 2")?.params(&base);
    let dirs = [TempDir::new("lpi-plain"), TempDir::new("lpi-traced")]
        .map(|d| d.map_err(|e| format!("scratch: {e}")));
    let [plain_dir, traced_dir] = dirs;
    let (plain_dir, traced_dir) = (plain_dir?, traced_dir?);
    let t = Instant::now();
    let mut plain = LpiRun::new(params);
    let build_s = t.elapsed().as_secs_f64();
    m.set("lpi.build_s", build_s);
    plain.diag_set_out_dir(plain_dir.path().to_path_buf());
    let mut traced = LpiRun::new(params);
    traced.diag_set_out_dir(traced_dir.path().to_path_buf());
    let mut off_params = params;
    off_params.diag.mode = DiagMode::Off;
    let mut off = LpiRun::new(off_params);

    let mut tr = Tracer::new(Instant::now(), 0);
    let mut counts = StepCounts::default();
    let mut kept = Vec::new();
    let (mut plain_s, mut traced_s, mut off_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SWEEP_STEPS {
        let t = Instant::now();
        plain.step();
        plain_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        traced_lpi_step(&mut traced, &mut tr, &mut counts, &mut kept);
        traced_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        off.step();
        off_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    plain.diag_finish();
    let bare_s = build_s + plain_s.iter().sum::<f64>() + t.elapsed().as_secs_f64();
    let (_, stats) = traced.diag_finish();
    let same = lpi_fingerprint(&plain)? == lpi_fingerprint(&traced)?;
    report.checks.record(
        "traced-equals-plain",
        same,
        format!("sim, probe and series fingerprints after {SWEEP_STEPS} steps"),
    );

    let spans = [std::mem::take(&mut tr.spans)];
    layers::core_phases(m, &spans, &counts);
    layers::model_projection(m, &mut report.notes, 1);
    let lpi_ms: Vec<f64> = spans[0]
        .iter()
        .filter(|s| s.name == "lpi.step")
        .map(|s| s.seconds() * 1e3)
        .collect();
    m.set("lpi.step.ms_p50", median(&lpi_ms));
    let overhead = layers::paired_overhead(&plain_s, &traced_s);

    // diag: pipeline counters, publish cost, and what diagnostics cost
    // the step loop once the probe is measuring.
    m.set("diag.publish.busy_s", busy_s(&spans[0], "diag.publish"));
    m.set("diag.published", stats.published as f64);
    m.set("diag.dropped", stats.dropped as f64);
    m.set("diag.max_queue_depth", stats.max_depth as f64);
    m.set("diag.stall_s", stats.stall_seconds);
    let measuring = traced.measure_after as usize;
    m.set(
        "diag.overhead_share",
        layers::paired_overhead(&off_s[measuring..], &plain_s[measuring..]),
    );
    let mut engine = DiagEngine::new(traced.sim.grid.dt as f64, &params.diag);
    let ingest_us: Vec<f64> = kept
        .iter()
        .map(|snap| {
            let t = Instant::now();
            engine.ingest(snap);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.set("diag.engine.ingest_us_p50", median(&ingest_us));

    // The same point under the campaign driver, against the bare run.
    let camp_dir = TempDir::new("lpi-camp").map_err(|e| format!("scratch: {e}"))?;
    let mut ccfg = LpiCampaignConfig::new(SWEEP_STEPS, setup.checkpoint_interval, camp_dir.path());
    if let Some(s) = setup.sentinel {
        ccfg.sentinel = s.sentinel;
    }
    let t = Instant::now();
    let outcome = run_lpi_campaign(params, &ccfg).map_err(|e| e.to_string())?;
    let campaign_s = t.elapsed().as_secs_f64();
    if !matches!(outcome.end, LpiCampaignEnd::Completed) || !outcome.recoveries.is_empty() {
        return Err("the single-point LPI campaign did not complete clean".into());
    }
    m.set("lpi.campaign.overhead_share", 1.0 - bare_s / campaign_s);

    m.set(
        "core.sentinel.check_ms",
        layers::sentinel_check_ms(
            &traced.sim.fields,
            &traced.sim.grid,
            &traced.sim.species,
            &traced.sim.accumulators,
            traced.sim.step_count,
        ),
    );
    m.set(
        "core.journal.append_us_p50",
        layers::journal_append_us_p50()?,
    );
    layers::serial_checkpoint(m, &traced.sim)?;
    layers::trace_checks(&mut report, overhead);

    write_trace(&spans)?;
    Ok(report)
}
