//! `vpic-run`: execute a simulation described by an input deck and write
//! diagnostics as TSV.
//!
//! ```sh
//! cargo run --release --bin vpic-run -- decks/two_stream.deck out/
//! ```
//!
//! For `kind = plasma` decks this writes `energies.tsv` and a final field
//! line-out `fields.tsv` into the output directory; for `kind = lpi` it
//! additionally reports the measured reflectivity and the backscatter
//! spectrum (`spectrum.tsv`). Decks with a `[campaign]` section run the
//! fault-tolerant multi-rank campaign runtime instead: checkpoints land in
//! `<output-dir>/checkpoints` (unless `campaign.dir` overrides it), the
//! per-rank recovery logs next to them, and a per-rank summary is written
//! to `campaign.tsv`. `kind = lpi` decks with a `[sweep]` section run the
//! crash-proof reflectivity-sweep service: per-job progress is narrated
//! as jobs start/finish/retry, and the aggregated curve lands in
//! `<output-dir>/sweep/reflectivity_curve.json` (re-running the same
//! deck resumes a killed sweep from its write-ahead log).
//!
//! Campaign decks can run over real sockets instead of in-process
//! channels: set `transport = socket` in the deck (or pass
//! `--transport socket`) for a thread-per-rank world over Unix-domain
//! sockets, or launch one OS process per rank with
//! `vpic-run deck out --rank N --world M [--socket-dir D]` — each process
//! binds `D/rankN.sock` and the world assembles via the bootstrap
//! handshake. A process respawned after a crash passes `--rejoin` to
//! adopt the dead rank's seat and roll the world back to the newest
//! common checkpoint.

use nanompi::{SocketAddrSpec, SocketBoot, TransportKind};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vpic::core::checkpoint::state_hash;
use vpic::core::crc32::fingerprint32;
use vpic::deck::{build, BuiltRun, Deck};
use vpic::diag::{write_field_line_x, write_series, EnergyLogger};
use vpic::parallel::campaign::{
    run_campaign_from, CampaignEnd, CampaignOutcome, CheckpointPolicy, DrivenSim, Start,
};
use vpic::parallel::{dump_rank_bytes, spec_fingerprint};

const USAGE: &str = "usage: vpic-run <deck-file> [output-dir] \
     [--transport local|socket] [--rank N --world M] [--socket-dir D] [--rejoin]";

/// Command-line options beyond the deck/output positionals. `rank`/`world`
/// select single-process-per-rank socket mode; `transport` overrides the
/// deck's `transport` global.
#[derive(Default)]
struct Cli {
    transport: Option<TransportKind>,
    rank: Option<usize>,
    world: Option<usize>,
    socket_dir: Option<PathBuf>,
    rejoin: bool,
}

fn parse_args(args: &[String]) -> Result<(String, String, Cli), String> {
    let mut cli = Cli::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(|v| v.to_string())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--transport" => {
                let v = value("--transport")?;
                cli.transport = Some(
                    TransportKind::parse(&v)
                        .ok_or_else(|| format!("--transport must be local or socket, got {v}"))?,
                );
            }
            "--rank" => {
                let v = value("--rank")?;
                cli.rank = Some(v.parse().map_err(|_| format!("bad --rank {v}"))?);
            }
            "--world" => {
                let v = value("--world")?;
                cli.world = Some(v.parse().map_err(|_| format!("bad --world {v}"))?);
            }
            "--socket-dir" => cli.socket_dir = Some(PathBuf::from(value("--socket-dir")?)),
            "--rejoin" => cli.rejoin = true,
            _ if a.starts_with("--") => return Err(format!("unknown option {a}")),
            _ => positional.push(a.to_string()),
        }
    }
    if cli.rank.is_some() != cli.world.is_some() {
        return Err("--rank and --world go together".to_string());
    }
    if cli.rejoin && cli.rank.is_none() {
        return Err("--rejoin only makes sense with --rank/--world".to_string());
    }
    match positional.as_slice() {
        [d] => Ok((d.clone(), ".".to_string(), cli)),
        [d, o] => Ok((d.clone(), o.clone(), cli)),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (deck_path, out_dir, cli) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&deck_path, &out_dir, &cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vpic-run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(deck_path: &str, out_dir: &str, cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let text = fs::read_to_string(deck_path)?;
    let deck = Deck::parse(&text)?;
    fs::create_dir_all(out_dir)?;
    let steps = deck.steps();
    let energy_interval = deck
        .section("output")
        .and_then(|kv| kv.get("energy_interval"))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(10)
        .max(1);

    let built = build(&deck)?;
    if cli.rank.is_some() && !matches!(built, BuiltRun::Campaign(_)) {
        return Err("--rank/--world only apply to decks with a [campaign] section".into());
    }

    match built {
        BuiltRun::Plasma(mut sim) => {
            println!(
                "plasma run: {} cells, {} particles, {} steps, {} pipelines, {} rayon threads",
                sim.grid.n_live(),
                sim.n_particles(),
                steps,
                sim.accumulators.n_pipelines(),
                vpic::core::worker_threads()
            );
            let names: Vec<String> = sim.species.iter().map(|s| s.name.clone()).collect();
            let mut elog = EnergyLogger::new(
                fs::File::create(Path::new(out_dir).join("energies.tsv"))?,
                names,
            );
            for s in 0..steps {
                if s % energy_interval == 0 {
                    elog.log_sim(&sim)?;
                }
                sim.step();
            }
            elog.log_sim(&sim)?;
            let mut f = fs::File::create(Path::new(out_dir).join("fields.tsv"))?;
            write_field_line_x(&sim.fields, &sim.grid, &mut f)?;
            let e = sim.energies();
            println!(
                "done: total energy {:.6e}, lost particles {}",
                e.total(),
                sim.lost_particles
            );
            print_throughput(&sim.timings, sim.accumulators.n_pipelines());
            print_coherence(&sim.species);
        }
        BuiltRun::Lpi(mut run) => {
            println!(
                "LPI run: a0 = {}, n/ncr = {}, {} particles, {} steps, {} pipelines, {} rayon threads, {} diag",
                run.params.a0,
                run.params.n_over_ncr,
                run.sim.n_particles(),
                steps,
                run.sim.accumulators.n_pipelines(),
                vpic::core::worker_threads(),
                run.params.diag.mode.as_str()
            );
            // `progress.json` lands next to the TSVs, written at the end.
            run.diag_set_out_dir(PathBuf::from(out_dir));
            let names: Vec<String> = run.sim.species.iter().map(|s| s.name.clone()).collect();
            let mut elog = EnergyLogger::new(
                fs::File::create(Path::new(out_dir).join("energies.tsv"))?,
                names,
            );
            for s in 0..steps {
                if s % energy_interval == 0 {
                    elog.log_sim(&run.sim)?;
                }
                run.step();
            }
            elog.log_sim(&run.sim)?;
            let mut f = fs::File::create(Path::new(out_dir).join("fields.tsv"))?;
            write_field_line_x(&run.sim.fields, &run.sim.grid, &mut f)?;
            let spec = run.backscatter_spectrum();
            let xs: Vec<f64> = spec.iter().map(|(w, _)| *w).collect();
            let ys: Vec<f64> = spec.iter().map(|(_, p)| *p).collect();
            let mut f = fs::File::create(Path::new(out_dir).join("spectrum.tsv"))?;
            write_series("backscatter_power", &xs, &ys, &mut f)?;
            // Close the diagnostics engine (a no-op when diag = off)
            // and fold its counters into the closing summary.
            let (_engine, dstats) = run.diag_finish();
            println!(
                "done: reflectivity {:.3e} over {} probe samples",
                run.reflectivity(),
                run.probe.samples()
            );
            print_diag_stats(run.params.diag.mode, &dstats);
            print_throughput(&run.sim.timings, run.sim.accumulators.n_pipelines());
            print_coherence(&run.sim.species);
        }
        BuiltRun::Campaign(setup) => run_campaign_deck(*setup, out_dir, cli)?,
        BuiltRun::LpiCampaign(setup) => run_lpi_campaign_deck(*setup, out_dir)?,
        BuiltRun::Sweep(setup) => run_sweep_deck(*setup, out_dir)?,
    }
    Ok(())
}

fn run_lpi_campaign_deck(
    setup: vpic::deck::LpiCampaignSetup,
    out_dir: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    use vpic::lpi::run_lpi_campaign;

    let cfg = setup.config(Path::new(out_dir));
    println!(
        "LPI campaign: a0 = {}, n/ncr = {}, {} steps, checkpoint every {} steps into {}, \
         sentinel every {} steps",
        setup.params.a0,
        setup.params.n_over_ncr,
        cfg.steps,
        setup.checkpoint_interval,
        cfg.checkpoint_dir.display(),
        cfg.sentinel.health_interval
    );
    if let Some(plan) = &cfg.fault_plan {
        println!(
            "fault injection: {} rule(s), seed {}",
            plan.rules.len(),
            plan.seed
        );
    }
    if let Some(plan) = &cfg.corruption {
        println!(
            "corruption injection: {} event(s), seed {}",
            plan.events.len(),
            plan.seed
        );
    }
    let out = run_lpi_campaign(setup.params, &cfg)?;
    print_diag_stats(setup.params.diag.mode, &out.diag);
    for h in &out.heals {
        println!(
            "heal at step {}: {} burst of {} pass(es), rms {:.3e} -> {:.3e}{}",
            h.step,
            h.kind.as_str(),
            h.passes,
            h.rms_before,
            h.rms_after,
            if h.healed { "" } else { " (not healed)" }
        );
    }
    for r in &out.recoveries {
        println!(
            "recovery at step {}: {} -> restored step {}",
            r.at_step, r.cause, r.restored_step
        );
    }
    match &out.end {
        CampaignEnd::Completed => println!(
            "completed: {} steps, {} recovery(ies), reflectivity {:.3e}, \
             {} particles, state fingerprint {:08x}, state hash {:08x}",
            out.steps_run,
            out.recoveries.len(),
            out.reflectivity,
            out.n_particles,
            out.state_fingerprint,
            out.state_hash
        ),
        CampaignEnd::Degraded {
            at_step,
            partial_dump,
            flight_recorder,
        } => println!(
            "degraded at step {at_step}: partial dump {}, flight recorder {}",
            partial_dump.display(),
            flight_recorder.display()
        ),
        CampaignEnd::Halted { at_step } => println!(
            "halted by checkpoint hook at step {at_step}: resumable from {}",
            cfg.checkpoint_dir.display()
        ),
    }
    Ok(())
}

fn run_sweep_deck(
    setup: vpic::deck::SweepSetup,
    out_dir: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    use vpic::lpi::sweep::{SweepEnd, SweepProgress, SweepRunner};

    let cfg = setup.config(Path::new(out_dir));
    let grid = setup.grid.clone();
    println!(
        "reflectivity sweep: {} point(s) ({} a0 x {} n/ncr x {} vth), {} steps each, \
         checkpoint/heartbeat every {} steps, <= {} attempt(s)/job, WAL in {}",
        grid.len(),
        grid.a0.len(),
        grid.n_over_ncr.len(),
        grid.vth.len(),
        cfg.steps,
        cfg.checkpoint_interval,
        cfg.retry.max_attempts,
        cfg.sweep_dir.join(vpic::lpi::sweep::WAL_NAME).display()
    );
    let runner = SweepRunner::new(grid, cfg);
    let out = runner.run_with_progress(&|ev| match ev {
        SweepProgress::Started {
            job,
            attempt,
            a0,
            n_over_ncr,
            vth,
        } => println!("job {job} attempt {attempt}: a0 = {a0}, n/ncr = {n_over_ncr}, vth = {vth}"),
        SweepProgress::Done {
            job,
            attempt,
            reflectivity,
            done,
            total,
        } => println!(
            "job {job} done (attempt {attempt}): reflectivity {reflectivity:.3e} [{done}/{total}]"
        ),
        SweepProgress::Failed {
            job,
            attempt,
            cause,
        } => {
            println!("job {job} attempt {attempt} failed: {cause}; retried after the pending jobs")
        }
        SweepProgress::Quarantined { job, cause } => {
            println!("job {job} quarantined: {cause}")
        }
    })?;
    if out.replay.records > 0 {
        println!(
            "resumed: replayed {} WAL record(s){}, released {} orphaned job(s)",
            out.replay.records,
            if out.replay.torn_tail {
                " (salvaged a torn tail)"
            } else {
                ""
            },
            out.orphans_released.len()
        );
    }
    match out.end {
        SweepEnd::Completed => {
            let s = &out.stats;
            println!(
                "sweep settled: {} done, {} quarantined, {} failed attempt(s) retried; \
                 curve in {}",
                s.done,
                s.quarantined,
                s.total_failures,
                out.curve_path
                    .as_deref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_default()
            );
        }
        SweepEnd::Killed => println!("sweep killed by fault plan; re-run the same deck to resume"),
    }
    Ok(())
}

/// Diagnostics-sink counters for the closing summary: how many snapshots
/// the step loop published and the engine consumed, as opposed to what
/// the diagnostics measured. Silent when diag = off.
fn print_diag_stats(mode: vpic::diag::DiagMode, s: &vpic::diag::DiagStats) {
    if mode == vpic::diag::DiagMode::Off {
        return;
    }
    println!(
        "diag [{}]: {} snapshot(s) published, {} consumed",
        mode.as_str(),
        s.published,
        s.consumed
    );
}

/// Measured whole-step rate next to the parallel configuration that
/// produced it, so run logs double as performance records.
fn print_throughput(t: &vpic::core::StepTimings, pipelines: usize) {
    if t.total() > 0.0 && t.particle_steps > 0 {
        println!(
            "throughput: {:.3e} particles/s over {} steps ({:.1}% inner loop, {} pipelines, {} rayon threads, push on {} lanes)",
            t.particle_steps as f64 / t.total(),
            t.steps,
            100.0 * t.inner_loop_fraction(),
            pipelines,
            vpic::core::worker_threads(),
            pipelines.min(vpic::core::worker_threads())
        );
    }
}

/// Per-species sort-cadence and lane-coherence summary, so run logs show
/// what the cadence controller actually did (realized interval, sorts
/// performed vs skipped, spill pressure on the lane kernel).
fn print_coherence(species: &[vpic::core::Species]) {
    for sp in species {
        let c = sp.coherence();
        println!(
            "sort cadence [{}]: {} (realized interval {}), {} sorts, {} skipped, \
             crosser rate {:.4}, lane spill rate {:.4}, mixed blocks {:.4}",
            sp.name,
            sp.sort_policy,
            sp.cadence().interval,
            c.sorts,
            c.skipped_sorts,
            c.crosser_rate(),
            c.spill_rate(),
            c.mixed_block_fraction()
        );
    }
}

/// Per-rank campaign result carried out of the worker closure: the
/// outcome plus, on completion, the post-run global reductions
/// `(particles, total energy, world state fingerprint, world state hash)`.
type RankStats = Option<(u64, f64, u32, u32)>;
/// One seat's result as the launch entry points hand it back: the rank
/// may have panicked, failed with a campaign error, or finished.
type RankResult = Result<Result<(CampaignOutcome, RankStats), String>, nanompi::RankPanic>;

/// Fold allgathered per-rank dump fingerprints or state hashes (rank
/// order) into one world value. Identical on every transport, so a socket
/// run can be diffed against a local run with a single number.
fn world_fingerprint(fps: &[u32]) -> u32 {
    let mut bytes = Vec::with_capacity(fps.len() * 4);
    for fp in fps {
        bytes.extend_from_slice(&fp.to_le_bytes());
    }
    fingerprint32(&bytes)
}

fn run_campaign_deck(
    setup: vpic::deck::CampaignSetup,
    out_dir: &str,
    cli: &Cli,
) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = setup.config(Path::new(out_dir));
    fs::create_dir_all(&cfg.checkpoint_dir)?;
    let cadence = match cfg.checkpoint {
        CheckpointPolicy::Fixed(n) => format!("every {n} steps"),
        CheckpointPolicy::Auto {
            mtbi,
            min_interval,
            max_interval,
        } => format!(
            "auto (Young/Daly, MTBI {:.0}s, {min_interval}..={max_interval} steps)",
            mtbi.as_secs_f64()
        ),
    };
    println!(
        "campaign run: {} ranks, {} steps, checkpoint {} into {}{}",
        setup.ranks,
        cfg.steps,
        cadence,
        cfg.checkpoint_dir.display(),
        if cfg.compress { ", compressed" } else { "" }
    );
    if let Some(bps) = cfg.write_throttle_bps {
        println!(
            "checkpoint writes throttled to {:.1} MB/s",
            bps as f64 / 1e6
        );
    }
    if let Some(plan) = &setup.fault_plan {
        println!(
            "fault injection: {} rule(s), seed {}",
            plan.rules.len(),
            plan.seed
        );
    }

    let transport = cli.transport.unwrap_or(setup.transport);
    let sock_dir = cli
        .socket_dir
        .clone()
        .unwrap_or_else(|| Path::new(out_dir).join("sock"));

    let plan = setup.fault_plan.clone();
    let ranks = setup.ranks;
    let cfg_ref = &cfg;
    let setup_ref = &setup;
    let rejoin = cli.rejoin;
    let out_path = Path::new(out_dir);
    let worker = move |comm: &mut nanompi::Comm| {
        let rank = comm.rank();
        let sim = setup_ref.build_rank(rank);
        let drive = setup_ref.drive_for(rank);
        let start = if rejoin { Start::Rejoin } else { Start::Fresh };
        let (DrivenSim { sim, .. }, outcome) =
            run_campaign_from(comm, DrivenSim { sim, drive }, cfg_ref, start, &|_| true)
                .map_err(|e| e.to_string())?;
        // Degrade decisions are rendezvous-synchronized, so every rank
        // agrees on whether these trailing collectives run.
        let stats: RankStats = match outcome.end {
            CampaignEnd::Completed => {
                let dump = dump_rank_bytes(&sim, false).map_err(|e| e.to_string())?;
                let (fps, hashes): (Vec<u32>, Vec<u32>) = comm
                    .allgather((fingerprint32(&dump), state_hash(&sim.fields, &sim.species)))
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .unzip();
                let (world_fp, world_hash) = (world_fingerprint(&fps), world_fingerprint(&hashes));
                if rank == 0 {
                    for (name, v) in [
                        ("state_fingerprint.txt", world_fp),
                        ("state_hash.txt", world_hash),
                    ] {
                        fs::write(out_path.join(name), format!("{v:08x}\n"))
                            .map_err(|e| e.to_string())?;
                    }
                }
                let n = sim.global_particles(comm).map_err(|e| e.to_string())?;
                let (fe, fb, ke) = sim.global_energies(comm).map_err(|e| e.to_string())?;
                Some((n, fe + fb + ke.iter().sum::<f64>(), world_fp, world_hash))
            }
            CampaignEnd::Degraded { .. } | CampaignEnd::Halted { .. } => None,
        };
        Ok::<_, String>((outcome, stats))
    };

    if let (Some(rank), Some(world)) = (cli.rank, cli.world) {
        // One OS process per rank: this process is exactly one seat of a
        // socket world; its peers were launched (or respawned) separately.
        if rank >= world {
            return Err(format!("--rank {rank} out of range for --world {world}").into());
        }
        fs::create_dir_all(&sock_dir)?;
        let mut boot = SocketBoot::new(SocketAddrSpec::unix(&sock_dir), rank, world);
        // Tie the handshake to the deck, so two different runs pointed at
        // the same socket directory fail loudly instead of exchanging
        // garbage.
        boot.world_fp = spec_fingerprint(&setup.spec) ^ setup.seed;
        println!(
            "socket rank {rank}/{world} on {}{}",
            sock_dir.display(),
            if rejoin { " (rejoining)" } else { "" }
        );
        let (res, traffic) = nanompi::run_socket(&boot, plan, worker)?;
        let summary_path = Path::new(out_dir).join(format!("campaign_r{rank:04}.tsv"));
        let results = vec![Ok(res)];
        return report_world(&summary_path, &results, &traffic, Some(rank));
    }

    let (results, traffic) = match transport {
        TransportKind::Local => nanompi::run_with_faults(ranks, plan, worker),
        TransportKind::Socket => {
            fs::create_dir_all(&sock_dir)?;
            println!("socket world: {ranks} ranks on {}", sock_dir.display());
            nanompi::run_socket_world(ranks, SocketAddrSpec::unix(&sock_dir), plan, worker)
        }
    };
    report_world(
        &Path::new(out_dir).join("campaign.tsv"),
        &results,
        &traffic,
        None,
    )
}

/// Print the per-rank results and the traffic summary, writing the TSV
/// summary alongside. `only_rank` relabels rows in single-process mode,
/// where index 0 of `results` is really that rank's seat.
fn report_world(
    summary_path: &Path,
    results: &[RankResult],
    traffic: &nanompi::TrafficReport,
    only_rank: Option<usize>,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut summary = fs::File::create(summary_path)?;
    writeln!(
        summary,
        "rank\tend\tsteps_run\trecoveries\theals\tinterval\tpeak_imbalance"
    )?;
    let mut failures = 0usize;
    let mut printed_stats = false;
    for (i, res) in results.iter().enumerate() {
        let rank = only_rank.unwrap_or(i);
        let line = match res {
            Err(p) => {
                failures += 1;
                format!("rank {rank}: PANICKED: {}", p.message)
            }
            Ok(Err(e)) => {
                failures += 1;
                format!("rank {rank}: FAILED: {e}")
            }
            Ok(Ok((outcome, stats))) => {
                report_outcome(&mut summary, outcome)?;
                if let (Some((n, e, fp, hash)), false) = (stats, printed_stats) {
                    println!(
                        "final state: {n} particles, total energy {e:.6e}, \
                         state fingerprint {fp:08x}, state hash {hash:08x}"
                    );
                    printed_stats = true;
                }
                format!(
                    "rank {rank}: {} after {} steps, {} recovery(ies)",
                    match &outcome.end {
                        CampaignEnd::Completed => "completed".to_string(),
                        CampaignEnd::Degraded { at_step, .. } =>
                            format!("degraded at step {at_step}"),
                        CampaignEnd::Halted { at_step } => format!("halted at step {at_step}"),
                    },
                    outcome.steps_run,
                    outcome.recoveries.len()
                )
            }
        };
        println!("{line}");
    }
    println!(
        "traffic: {} messages, {} bytes total",
        traffic.total_messages, traffic.total_bytes
    );
    for t in traffic.top_tags(3) {
        println!(
            "  tag {:#x}: {} message(s), {} bytes",
            t.tag, t.messages, t.bytes
        );
    }
    if failures > 0 {
        return Err(format!("{failures} rank(s) failed unrecoverably").into());
    }
    Ok(())
}

fn report_outcome(summary: &mut fs::File, outcome: &CampaignOutcome) -> std::io::Result<()> {
    let end = match &outcome.end {
        CampaignEnd::Completed => "completed".to_string(),
        CampaignEnd::Degraded {
            at_step,
            partial_dump,
            flight_recorder,
        } => {
            println!(
                "  rank {} flight recorder: {}",
                outcome.rank,
                flight_recorder.display()
            );
            format!("degraded@{at_step}:{}", partial_dump.display())
        }
        CampaignEnd::Halted { at_step } => format!("halted@{at_step}"),
    };
    writeln!(
        summary,
        "{}\t{}\t{}\t{}\t{}\t{}\t{:.3}",
        outcome.rank,
        end,
        outcome.steps_run,
        outcome.recoveries.len(),
        outcome.heals.len(),
        outcome.effective_interval,
        outcome.peak_imbalance
    )?;
    for ev in &outcome.heals {
        println!(
            "  rank {} heal at step {}: {} burst of {} pass(es), rms {:.3e} -> {:.3e}{}",
            outcome.rank,
            ev.step,
            ev.kind.as_str(),
            ev.passes,
            ev.rms_before,
            ev.rms_after,
            if ev.healed { "" } else { " (not healed)" }
        );
    }
    for ev in &outcome.recoveries {
        println!(
            "  rank {} recovery #{} at step {}: {} -> restored step {}{}",
            outcome.rank,
            ev.attempt,
            ev.at_step,
            ev.cause,
            ev.restored_step,
            if ev.rejoined { " (rejoined)" } else { "" }
        );
    }
    Ok(())
}
