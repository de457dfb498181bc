//! End-to-end rollback-recovery: a campaign that loses a rank mid-flight
//! must recover from checkpoints automatically and end in *exactly* the
//! state of an uninterrupted run — and a campaign whose recovery budget is
//! exhausted must degrade gracefully instead of aborting the process.

use std::path::PathBuf;
use std::time::Duration;
use vpic_core::maxwellian::Momentum;
use vpic_core::species::Species;
use vpic_parallel::campaign::{run_campaign, CampaignConfig, CampaignEnd};
use vpic_parallel::decomposition::DomainSpec;
use vpic_parallel::dsim::DistributedSim;

const RANKS: usize = 4;
const STEPS: u64 = 12;

fn spec() -> DomainSpec {
    DomainSpec::periodic((8, 4, 4), (0.25, 0.25, 0.25), 0.1, RANKS)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpic_test_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_sim(rank: usize) -> DistributedSim {
    // One pipeline per rank: current reduction order is deterministic, so
    // replay after rollback is bit-exact.
    let mut sim = DistributedSim::new(spec(), rank, 1);
    let si = sim.add_species(Species::new("e", -1.0, 1.0));
    sim.load_uniform(si, 7, 1.0, 8, Momentum::thermal(0.08));
    sim
}

/// Final state snapshot for exact comparison across runs.
type Snapshot = (u64, Vec<vpic_core::Particle>, Vec<f32>, Vec<f32>);

fn campaign_snapshot(
    comm: &mut nanompi::Comm,
    dir: &std::path::Path,
) -> (Snapshot, vpic_parallel::campaign::CampaignOutcome) {
    let cfg = CampaignConfig::new(STEPS, 4, dir)
        .with_op_timeout(Duration::from_millis(500))
        .with_health_interval(2);
    let (sim, outcome) = run_campaign(comm, build_sim(comm.rank()), &cfg).unwrap();
    let snap = (
        sim.step_count,
        sim.species[0].to_particles(),
        sim.fields.ex.clone(),
        sim.fields.ey.clone(),
    );
    (snap, outcome)
}

#[test]
fn killed_rank_recovers_and_matches_uninterrupted_run() {
    let clean_dir = temp_dir("recovery_clean");
    let fault_dir = temp_dir("recovery_fault");

    // Reference: no faults.
    let (clean, _) = nanompi::run(RANKS, |comm| {
        let (snap, outcome) = campaign_snapshot(comm, &clean_dir.join(format!("_{}", 0)));
        assert!(matches!(outcome.end, CampaignEnd::Completed));
        assert!(outcome.recoveries.is_empty());
        snap
    });

    // Same campaign, but rank 2 is killed at step 6 (checkpoints at 0, 4,
    // 8: the world must roll back to step 4 and replay).
    let plan = nanompi::FaultPlan::new(1).kill(2, 6);
    let (faulted, _) = nanompi::run_with_faults(RANKS, Some(plan), |comm| {
        let (snap, outcome) = campaign_snapshot(comm, &fault_dir.join(format!("_{}", 0)));
        assert!(
            matches!(outcome.end, CampaignEnd::Completed),
            "campaign did not complete"
        );
        assert!(
            !outcome.recoveries.is_empty(),
            "rank {} recorded no recovery, but the world lost a rank",
            comm.rank()
        );
        let ev = &outcome.recoveries[0];
        assert!(ev.restored_step <= ev.at_step);
        snap
    });

    for rank in 0..RANKS {
        let a = clean[rank].as_ref().expect("clean rank ok");
        let b = faulted[rank].as_ref().expect("faulted rank ok");
        assert_eq!(a.0, STEPS, "clean run did not finish");
        assert_eq!(b.0, STEPS, "faulted run did not finish");
        assert_eq!(
            a.1, b.1,
            "rank {rank}: particles differ after recovery (not bit-identical)"
        );
        assert_eq!(a.2, b.2, "rank {rank}: ex fields differ after recovery");
        assert_eq!(a.3, b.3, "rank {rank}: ey fields differ after recovery");
    }

    // Recovery was logged on disk.
    let log = fault_dir.join("_0").join("recovery_r0002.log");
    let contents = std::fs::read_to_string(&log).expect("recovery log written");
    assert!(
        contents.contains("restored_step="),
        "log has no restore record: {contents}"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
}

#[test]
fn exhausted_recovery_budget_degrades_gracefully() {
    let dir = temp_dir("recovery_degrade");
    // Three kills, budget of two: the third fault must end the campaign
    // with a partial dump on every rank, not a panic or a hang.
    let plan = nanompi::FaultPlan::new(1).kill(1, 3).kill(1, 5).kill(1, 7);
    let (results, _) = nanompi::run_with_faults(2, Some(plan), |comm| {
        let mut sim = DistributedSim::new(
            DomainSpec::periodic((4, 4, 4), (0.25, 0.25, 0.25), 0.1, 2),
            comm.rank(),
            1,
        );
        let si = sim.add_species(Species::new("e", -1.0, 1.0));
        sim.load_uniform(si, 3, 1.0, 8, Momentum::thermal(0.08));
        let cfg = CampaignConfig::new(20, 2, &dir)
            .with_op_timeout(Duration::from_millis(300))
            .with_max_recoveries(2);
        let (_, outcome) = run_campaign(comm, sim, &cfg).unwrap();
        outcome
    });
    for r in &results {
        let outcome = r.as_ref().expect("rank completed without panic");
        match &outcome.end {
            CampaignEnd::Degraded { partial_dump, .. } => {
                assert!(
                    partial_dump.exists(),
                    "partial dump missing: {partial_dump:?}"
                );
            }
            CampaignEnd::Completed => panic!("campaign completed despite exhausted budget"),
        }
        assert_eq!(outcome.recoveries.len(), 2, "wrong recovery count");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
