//! Seeded fault-soak for the campaign runtime, plus the compressed-dump
//! acceptance check on the shipped campaign deck.
//!
//! The soak (`#[ignore]`d; run it in release with
//! `cargo test --release -- --ignored`) generates 32 random fault plans
//! from fixed seeds — kills, random drops, delays, duplicates and payload
//! corruptions — and throws each at a 4-rank campaign. Every run must
//! terminate within its deadline and either complete bit-identically to
//! the fault-free reference (pipelines = 1) or degrade gracefully to a
//! partial dump. No hangs, no panics, no unrecoverable errors.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use vpic::core::{Momentum, Species};
use vpic::parallel::campaign::{run_campaign, CampaignConfig, CampaignEnd, CampaignOutcome};
use vpic::parallel::dcheckpoint::{dump_rank_bytes, load_rank};
use vpic::parallel::{DistributedSim, DomainSpec};

const RANKS: usize = 4;
const STEPS: u64 = 10;
const SOAK_PLANS: u64 = 32;
const PLAN_DEADLINE: Duration = Duration::from_secs(60);

fn spec() -> DomainSpec {
    DomainSpec::periodic((8, 4, 4), (0.25, 0.25, 0.25), 0.1, RANKS)
}

fn build_sim(rank: usize) -> DistributedSim {
    let mut sim = DistributedSim::new(spec(), rank, 1);
    let si = sim.add_species(Species::new("e", -1.0, 1.0));
    sim.load_uniform(si, 7, 1.0, 8, Momentum::thermal(0.08));
    sim
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpic_soak_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn soak_config(dir: &std::path::Path) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(STEPS, 3, dir)
        .with_op_timeout(Duration::from_millis(150))
        .with_max_recoveries(5);
    cfg.sentinel.health_interval = 2;
    cfg
}

/// Per-rank final state for exact comparison.
type Snapshot = (u64, Vec<vpic::core::Particle>, Vec<f32>, Vec<f32>);

fn snapshot(sim: &DistributedSim) -> Snapshot {
    (
        sim.step_count,
        sim.species[0].to_particles(),
        sim.fields.ex.clone(),
        sim.fields.ey.clone(),
    )
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A reproducible random mix of every fault kind the plan supports.
fn random_plan(seed: u64) -> nanompi::FaultPlan {
    let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
    let mut plan = nanompi::FaultPlan::new(seed);
    // Up to two kills at random (rank, step).
    for _ in 0..=(splitmix64(&mut s) % 2) {
        let rank = (splitmix64(&mut s) % RANKS as u64) as usize;
        let step = 1 + splitmix64(&mut s) % (STEPS - 1);
        plan = plan.kill(rank, step);
    }
    // Random drops on one rank, p <= 0.05.
    if splitmix64(&mut s).is_multiple_of(2) {
        let rank = (splitmix64(&mut s) % RANKS as u64) as usize;
        let p = (splitmix64(&mut s) % 50) as f64 / 1000.0;
        plan = plan.drop_messages(rank, p);
    }
    // Random delays on one rank, p <= 0.1, <= 15 ms (under the 150 ms op
    // timeout, so delays slow the world down without faulting it).
    if splitmix64(&mut s).is_multiple_of(2) {
        let rank = (splitmix64(&mut s) % RANKS as u64) as usize;
        let p = (splitmix64(&mut s) % 100) as f64 / 1000.0;
        let by = Duration::from_millis(1 + splitmix64(&mut s) % 15);
        plan = plan.delay_messages(rank, p, by);
    }
    // A duplicated and a corrupted message somewhere in the first few
    // hundred sends.
    if splitmix64(&mut s).is_multiple_of(2) {
        let rank = (splitmix64(&mut s) % RANKS as u64) as usize;
        plan = plan.duplicate_message(rank, 1 + splitmix64(&mut s) % 300);
    }
    if splitmix64(&mut s).is_multiple_of(2) {
        let rank = (splitmix64(&mut s) % RANKS as u64) as usize;
        plan = plan.corrupt_message(rank, 1 + splitmix64(&mut s) % 300);
    }
    plan
}

/// The fault-free reference state every completed soak run must match.
fn reference() -> Vec<Snapshot> {
    let dir = temp_dir("reference");
    let (results, _) = nanompi::run_expect(RANKS, {
        let dir = dir.clone();
        move |comm| {
            let cfg = soak_config(&dir);
            let (sim, outcome) = run_campaign(comm, build_sim(comm.rank()), &cfg).unwrap();
            assert!(matches!(outcome.end, CampaignEnd::Completed));
            snapshot(&sim)
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    results
}

#[test]
#[ignore = "fault soak: minutes of wall time; run with cargo test --release -- --ignored"]
fn seeded_fault_soak_recovers_or_degrades_gracefully() {
    let clean = reference();
    let mut completed = 0usize;
    let mut degraded = 0usize;
    for seed in 0..SOAK_PLANS {
        let plan = random_plan(seed);
        let dir = temp_dir(&format!("plan{seed}"));
        let t0 = Instant::now();
        let (results, _) = nanompi::run_with_faults(RANKS, Some(plan), {
            let dir = dir.clone();
            move |comm| {
                let cfg = soak_config(&dir);
                let (sim, outcome) = run_campaign(comm, build_sim(comm.rank()), &cfg)
                    .map_err(|e| format!("unrecoverable: {e}"))?;
                Ok::<_, String>((outcome, snapshot(&sim)))
            }
        });
        let elapsed = t0.elapsed();
        assert!(
            elapsed < PLAN_DEADLINE,
            "plan {seed} blew its deadline: {elapsed:?}"
        );

        let mut outcomes: Vec<(CampaignOutcome, Snapshot)> = Vec::new();
        for (rank, res) in results.into_iter().enumerate() {
            let res =
                res.unwrap_or_else(|p| panic!("plan {seed}: rank {rank} panicked: {}", p.message));
            let ok = res.unwrap_or_else(|e| panic!("plan {seed}: rank {rank} failed hard: {e}"));
            outcomes.push(ok);
        }
        let all_completed = outcomes
            .iter()
            .all(|(o, _)| matches!(o.end, CampaignEnd::Completed));
        if all_completed {
            completed += 1;
            for (rank, (_, snap)) in outcomes.iter().enumerate() {
                assert_eq!(
                    snap, &clean[rank],
                    "plan {seed}: rank {rank} completed but diverged \
                     from the fault-free reference"
                );
            }
        } else {
            degraded += 1;
            for (rank, (o, _)) in outcomes.iter().enumerate() {
                if let CampaignEnd::Degraded { partial_dump, .. } = &o.end {
                    assert!(
                        partial_dump.exists(),
                        "plan {seed}: rank {rank} degraded without a \
                         partial dump at {partial_dump:?}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("soak: {completed} plans completed bit-identically, {degraded} degraded gracefully");
    assert!(
        completed > 0,
        "soak never completed a single campaign — recovery is not working"
    );
}

/// Acceptance: compressed checkpoints on the shipped campaign deck
/// round-trip bit-exactly and are measurably smaller than uncompressed.
#[test]
fn campaign_deck_compressed_dumps_roundtrip_and_shrink() {
    let text = std::fs::read_to_string("decks/campaign_recovery.deck").unwrap();
    let deck = vpic::deck::Deck::parse(&text).unwrap();
    let vpic::deck::BuiltRun::Campaign(setup) = vpic::deck::build(&deck).unwrap() else {
        panic!("campaign_recovery.deck did not build a campaign")
    };
    let setup = *setup;
    let ranks = setup.ranks;
    let (results, _) = nanompi::run_expect(ranks, move |comm| {
        let mut sim = setup.build_rank(comm.rank());
        // A few steps of real dynamics so dumps carry non-trivial state.
        for _ in 0..4 {
            sim.step(comm).unwrap();
        }
        let raw = dump_rank_bytes(&sim, false).unwrap();
        let packed = dump_rank_bytes(&sim, true).unwrap();
        let restored = load_rank(sim.spec.clone(), comm.rank(), 1, &mut packed.as_slice()).unwrap();
        assert_eq!(restored.step_count, sim.step_count);
        assert_eq!(restored.species[0].store(), sim.species[0].store());
        assert_eq!(restored.fields.ex, sim.fields.ex);
        assert_eq!(restored.fields.ey, sim.fields.ey);
        assert_eq!(restored.fields.cbz, sim.fields.cbz);
        (raw.len(), packed.len())
    });
    for (rank, (raw, packed)) in results.into_iter().enumerate() {
        assert!(
            packed < raw,
            "rank {rank}: compressed dump ({packed} B) not smaller than raw ({raw} B)"
        );
        println!(
            "rank {rank}: dump {raw} B raw -> {packed} B compressed ({:.1}%)",
            100.0 * packed as f64 / raw as f64
        );
    }
}
