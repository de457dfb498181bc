//! `campaign-local`: a generated campaign deck taken the way `vpic-run`
//! takes one — `Deck::parse` → `build` → a 2-rank world over in-process
//! channels under the rollback driver (`run_campaign_with` with the
//! deck's laser drive: fixed-cadence v3 dumps, sentinel allreduce,
//! sponge), journaled as one job through `sweepjob::JobJournal`. A round
//! is one whole campaign in a fresh directory.

use super::decks::{self, campaign_deck, CAMPAIGN_RANKS, CAMPAIGN_STEPS};
use super::world::{short_run, traced_world, traffic_metrics, Drive, WorldSpec};
use super::{timed_rounds, Args};
use crate::hostspeed::{set_time_metrics, HostSpeed, WallTimes};
use crate::layers;
use crate::report::{fingerprint, newest_file, peak_rss_mb, Metrics, Report, TempDir};
use crate::stats::{median, typical_round};
use crate::trace::write_trace;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vpic::core::queue::RetryPolicy;
use vpic::core::sentinel::count_nonfinite_fields;
use vpic::deck::{BuiltRun, CampaignSetup};
use vpic::nanompi::{self, TransportKind};
use vpic::parallel::campaign::{run_campaign_with, CampaignError};
use vpic::parallel::sweepjob::{JobJournal, JobVerdict};
use vpic::parallel::{dump_rank_bytes, load_rank_from_path, DistributedSim};

/// Rounds of the traced run's plain-campaign part (after one warm-up).
const TRACE_CAMPAIGNS: usize = 2;

fn parse_and_build(text: &str) -> Result<CampaignSetup, String> {
    match decks::parse_and_build(text)? {
        BuiltRun::Campaign(setup) => Ok(*setup),
        _ => Err("the generated deck did not build a campaign".into()),
    }
}

/// What the ranks leave behind at the end of one campaign.
#[derive(Default)]
struct EndState {
    /// Per-rank fingerprints of the final state (uncompressed dump).
    fingerprints: Vec<u64>,
    particles: usize,
    nonfinite: u64,
}

struct Round {
    setup_s: f64,
    run_s: f64,
    finalise_s: f64,
    end: EndState,
    /// Particles loaded at set-up, all ranks.
    loaded: usize,
    steps_run: u64,
    completed: bool,
    recoveries: u64,
    /// The closing fingerprint file reads back, and the newest checkpoint
    /// generation on disk restores and re-dumps to the file's own bytes.
    disk_matches: bool,
}

/// One campaign from deck text to verified closing artefacts.
fn one_campaign(text: &str) -> Result<Round, String> {
    let dir = TempDir::new("camp").map_err(|e| format!("scratch: {e}"))?;

    // Set-up: parse the deck, build the run description, load every
    // rank's particles.
    let t = Instant::now();
    let setup = parse_and_build(text)?;
    let sims: Vec<Option<DistributedSim>> = (0..setup.ranks)
        .map(|r| Some(setup.build_rank(r)))
        .collect();
    let setup_s = t.elapsed().as_secs_f64();
    let loaded: usize = sims.iter().flatten().map(DistributedSim::n_particles).sum();

    // The campaign, as one journaled job.
    let cfg = setup.config(dir.path());
    let sims = Mutex::new(sims);
    let end = Mutex::new(EndState::default());
    let t = Instant::now();
    let mut journal = JobJournal::open(&dir.path().join("jobs.wal")).map_err(|e| e.to_string())?;
    journal
        .define(0, fingerprint(text.as_bytes()))
        .map_err(|e| e.to_string())?;
    let verdict = journal
        .run_campaign_job(0, 0, 60_000, &RetryPolicy::default(), || {
            let (results, _) = nanompi::run(setup.ranks, |comm| {
                let rank = comm.rank();
                let sim = sims.lock().expect("sims lock")[rank]
                    .take()
                    .expect("each rank takes its sim once");
                let (sim, outcome) = run_campaign_with(comm, sim, &cfg, setup.drive_for(rank))?;
                let bytes = dump_rank_bytes(&sim, false).map_err(CampaignError::Checkpoint)?;
                let fps = comm
                    .allgather(fingerprint(&bytes))
                    .map_err(CampaignError::Comm)?;
                let n = sim.global_particles(comm).map_err(CampaignError::Comm)?;
                let bad = comm
                    .allreduce_sum_u64(count_nonfinite_fields(&sim.fields))
                    .map_err(CampaignError::Comm)?;
                if rank == 0 {
                    *end.lock().expect("end lock") = EndState {
                        fingerprints: fps,
                        particles: n as usize,
                        nonfinite: bad,
                    };
                }
                Ok::<_, CampaignError>(outcome)
            });
            let mut first = None;
            for (rank, r) in results.into_iter().enumerate() {
                let outcome = r.map_err(|p| CampaignError::Launch(p.to_string()))??;
                if rank == 0 {
                    first = Some(outcome);
                }
            }
            Ok(first.expect("world has a rank 0"))
        })
        .map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    let end = end.into_inner().expect("end lock");

    // Finalise: the closing fingerprint file vpic-run writes, and the
    // newest checkpoint generation read back from disk on every rank.
    let t = Instant::now();
    let fp_path = dir.path().join("state_fingerprint.txt");
    let line = format!("{:016x}\n", fingerprint(&fold(&end.fingerprints)));
    std::fs::write(&fp_path, &line).map_err(|e| format!("fingerprint file: {e}"))?;
    let mut disk_matches =
        std::fs::read_to_string(&fp_path).map_err(|e| format!("fingerprint file: {e}"))? == line;
    for rank in 0..setup.ranks {
        let path = newest_file(&cfg.checkpoint_dir, "ckpt_", &format!("_r{rank:04}.vpic"))?;
        let back = load_rank_from_path(setup.spec.clone(), rank, setup.pipelines, &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let again = dump_rank_bytes(&back, cfg.compress).map_err(|e| format!("rank dump: {e}"))?;
        let on_disk = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        disk_matches &= again == on_disk;
    }
    let finalise_s = t.elapsed().as_secs_f64();

    let (completed, steps_run, recoveries) = match verdict {
        JobVerdict::Done(r) => (true, r.steps_run, r.recoveries),
        _ => (false, 0, 0),
    };
    Ok(Round {
        setup_s,
        run_s,
        finalise_s,
        completed,
        end,
        loaded,
        steps_run,
        recoveries,
        disk_matches,
    })
}

fn fold(fingerprints: &[u64]) -> Vec<u8> {
    fingerprints.iter().flat_map(|f| f.to_le_bytes()).collect()
}

/// `campaign-completed` over the campaigns of a run, and the attempt
/// counts (one attempt = one campaign).
fn completion_check(report: &mut Report, rounds: &[Round]) {
    let total = CAMPAIGN_STEPS * rounds.len() as u64;
    let steps: u64 = rounds.iter().map(|r| r.steps_run).sum();
    let recoveries: u64 = rounds.iter().map(|r| r.recoveries).sum();
    report.checks.record(
        "campaign-completed",
        rounds.iter().all(|r| r.completed) && steps == total && recoveries == 0,
        format!(
            "{} campaigns, {steps}/{total} steps, {recoveries} recoveries",
            rounds.len()
        ),
    );
    report.attempted = rounds.len() as u64;
    report.failed = rounds.iter().filter(|r| !r.completed).count() as u64;
}

pub fn run(args: &Args) -> Result<Report, String> {
    let text = campaign_deck(args.seed);
    let mut report = if args.trace {
        traced(&text, args)?
    } else {
        end_to_end(&text, args)?
    };
    report.notes.push(format!(
        "campaign-local: 64x16x16 cells over {CAMPAIGN_RANKS} ranks, ppc 16, {CAMPAIGN_STEPS} steps, round = quota = one campaign"
    ));
    Ok(report)
}

fn end_to_end(text: &str, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(Metrics::end_to_end());
    let mut host = HostSpeed::new(CAMPAIGN_RANKS);
    let started = Instant::now();
    one_campaign(text)?; // warm-up round, untimed
    let mut rounds = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    timed_rounds(started, budget, Some(&mut host), || {
        rounds.push(one_campaign(text)?);
        Ok(())
    })?;
    completion_check(&mut report, &rounds);
    let c = &mut report.checks;
    c.record(
        "checkpoint-roundtrip",
        rounds.iter().all(|r| r.disk_matches),
        "newest generation on disk restores and re-dumps to its own bytes, every rank",
    );
    c.record(
        "particles-conserved",
        rounds.iter().all(|r| r.end.particles == r.loaded),
        format!(
            "{} particles at both ends of every campaign",
            rounds[0].loaded
        ),
    );
    let bad: u64 = rounds.iter().map(|r| r.end.nonfinite).sum();
    c.record(
        "fields-finite",
        bad == 0,
        format!("{bad} non-finite field values"),
    );

    let column = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let run_times = column(|r| r.run_s);
    report
        .notes
        .push(format!("round times (s): {run_times:.3?}"));
    let wall = WallTimes {
        work_per_round: (rounds[0].end.particles as u64 * CAMPAIGN_STEPS) as f64,
        round_s: typical_round(&run_times),
        quota_rounds: 1.0,
        setup_s: median(&column(|r| r.setup_s)),
        finalise_s: median(&column(|r| r.finalise_s)),
    };
    set_time_metrics(&mut report, &host, &wall);
    report.metrics.set("peak_rss_mb", peak_rss_mb());
    report.rounds = rounds.len();
    Ok(report)
}

fn traced(text: &str, args: &Args) -> Result<Report, String> {
    let mut report = Report::new(Metrics::per_layer());

    let t = Instant::now();
    let setup = parse_and_build(text)?;
    report
        .metrics
        .set("deck.parse_build_ms", t.elapsed().as_secs_f64() * 1e3);

    // Whole campaigns first: what the driver costs over bare stepping.
    one_campaign(text)?;
    let rounds = (0..TRACE_CAMPAIGNS)
        .map(|_| one_campaign(text))
        .collect::<Result<Vec<_>, _>>()?;
    let campaign_s = median(&rounds.iter().map(|r| r.run_s).collect::<Vec<_>>());

    // Then the same world stepped bare, plain beside traced.
    let build_rank = |rank: usize| setup.build_rank(rank);
    let drive = |rank: usize| -> Drive { Box::new(setup.drive_for(rank)) };
    let world = WorldSpec {
        transport: TransportKind::Local,
        ranks: setup.ranks,
        build: &build_rank,
        drive: &drive,
    };
    const SHORT_STEPS: u64 = 50;
    let short = short_run(&world, SHORT_STEPS)?;
    traffic_metrics(&mut report.metrics, &short, SHORT_STEPS);
    let budget = Duration::from_secs_f64(args.seconds * 0.4);
    let out = traced_world(&world, SHORT_STEPS, budget, false, &mut report)?;
    let traced_steps = report.attempted;

    let m = &mut report.metrics;
    m.set(
        "parallel.campaign.overhead_share",
        1.0 - CAMPAIGN_STEPS as f64 * out.plain_step_s / campaign_s,
    );
    m.set(
        "core.journal.append_us_p50",
        layers::journal_append_us_p50()?,
    );
    completion_check(&mut report, &rounds);
    report.notes.push(format!(
        "traced part: {traced_steps} bare steps beside {} whole campaigns",
        rounds.len()
    ));

    write_trace(&out.spans)?;
    Ok(report)
}
