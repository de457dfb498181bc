//! Distributed integration tests for the numerical-integrity sentinel:
//!
//! * a seeded Gauss-law violation is detected at the next health gate and
//!   repaired in place by an escalating Marder burst (no rollback);
//! * a seeded transient blow-up is detected within one `health_interval`,
//!   rolled back, and the campaign completes bit-identically with the
//!   fault-free run;
//! * with the recovery budget exhausted the campaign degrades gracefully
//!   to a partial dump plus a parseable flight-recorder JSON;
//! * the verdict is deterministic — identical on every rank and across
//!   worker counts (one shared reduction);
//! * deck `[sentinel]` knobs (cleaning cadence + thresholds) survive
//!   deck → `SimConfig` → rank dump → restore unchanged, and the
//!   cleaning cadence survives the serial dump.

use std::path::PathBuf;
use vpic::core::sentinel::{
    AnomalyKind, CorruptionEvent, CorruptionMode, CorruptionPlan, SentinelConfig, SimConfig,
};
use vpic::core::{Momentum, Species};
use vpic::parallel::campaign::{run_campaign, CampaignConfig, CampaignEnd, CampaignOutcome};
use vpic::parallel::dcheckpoint::{dump_rank_bytes, load_rank};
use vpic::parallel::{DistributedSim, DomainSpec};

const RANKS: usize = 4;
const STEPS: u64 = 10;

fn spec(ranks: usize) -> DomainSpec {
    DomainSpec::periodic((8, 4, 4), (0.25, 0.25, 0.25), 0.1, ranks)
}

/// A thermal electron plasma on the neutralizing background (Gauss
/// monitoring stays off — rho is electrons-only).
fn build_electrons(ranks: usize, rank: usize) -> DistributedSim {
    let mut sim = DistributedSim::new(spec(ranks), rank, 1);
    let si = sim.add_species(Species::new("e", -1.0, 1.0));
    sim.load_uniform(si, 7, 1.0, 8, Momentum::thermal(0.08));
    sim
}

/// A fully explicit charge-neutral plasma: electrons and an equal-mass
/// positive species loaded from the same stream land on identical
/// positions, so `rho` is exactly zero node-by-node and the Gauss
/// monitor sees pure numerical residual.
fn build_neutral(rank: usize) -> DistributedSim {
    let mut sim = DistributedSim::new(spec(RANKS), rank, 1);
    let e = sim.add_species(Species::new("e", -1.0, 1.0));
    sim.load_uniform(e, 7, 1.0, 8, Momentum::thermal(0.05));
    let p = sim.add_species(Species::new("p", 1.0, 1.0));
    sim.load_uniform(p, 7, 1.0, 8, Momentum::thermal(0.05));
    sim
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpic_sentinel_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Per-rank final state for exact comparison.
type Snapshot = (u64, Vec<vpic::core::Particle>, Vec<f32>, Vec<f32>);

fn snapshot(sim: &DistributedSim) -> Snapshot {
    (
        sim.step_count,
        sim.species[0].to_particles(),
        sim.fields.ex.clone(),
        sim.fields.cbz.clone(),
    )
}

/// A lone E spike violates Gauss's law; the sentinel must catch it at the
/// step-0 gate and heal it with escalating Marder bursts — no rollback,
/// and every rank records the identical heal ledger.
#[test]
fn seeded_divergence_is_healed_in_place() {
    let dir = temp_dir("heal");
    let cfg = CampaignConfig::new(STEPS, 3, &dir).with_sentinel(SentinelConfig {
        health_interval: 1,
        max_div_e_rms: 0.05,
        marder_passes: 16,
        max_marder_bursts: 8,
        ..Default::default()
    });
    let (results, _) = nanompi::run_expect(RANKS, {
        let cfg = cfg.clone();
        move |comm| {
            let mut sim = build_neutral(comm.rank());
            if comm.rank() == 0 {
                let v = sim.grid.voxel(1, 2, 2);
                sim.fields.ex[v] += 2.0;
            }
            let (_, outcome) = run_campaign(comm, sim, &cfg).unwrap();
            outcome
        }
    });
    let ledgers: Vec<String> = results
        .iter()
        .map(|o| {
            assert!(matches!(o.end, CampaignEnd::Completed), "{:?}", o.end);
            assert!(o.recoveries.is_empty(), "healing must not roll back");
            assert!(!o.heals.is_empty(), "no Marder burst ran");
            assert_eq!(o.heals[0].kind, AnomalyKind::GaussLawResidual);
            assert_eq!(o.heals[0].step, 0, "missed the first health gate");
            let last = o.heals.last().unwrap();
            assert!(last.healed, "ladder never settled: {:?}", o.heals);
            assert!(
                last.rms_after < o.heals[0].rms_before,
                "burst did not reduce the residual: {:?}",
                o.heals
            );
            // An unhealed burst is followed by one of twice the passes.
            for w in o.heals.windows(2).filter(|w| !w[0].healed) {
                assert_eq!(w[1].passes, 2 * w[0].passes, "{:?}", o.heals);
            }
            format!("{:?}", o.heals)
        })
        .collect();
    for l in &ledgers[1..] {
        assert_eq!(l, &ledgers[0], "ranks disagree on the heal ledger");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn blowup_cfg(dir: &std::path::Path) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(STEPS, 3, dir).with_max_recoveries(3);
    cfg.sentinel.health_interval = 2;
    cfg
}

/// Transient huge-value upset at step 5 (between health gates): detected
/// at the step-6 gate — within one `health_interval` — rolled back to the
/// certified-clean step-3 generation and replayed to a bit-identical end
/// state (the corruption is one-shot, modeling an SEU).
#[test]
fn blowup_rolls_back_and_completes_bit_identically() {
    let clean_dir = temp_dir("blowup_ref");
    let (clean, _) = nanompi::run_expect(RANKS, {
        let cfg = blowup_cfg(&clean_dir);
        move |comm| {
            let (sim, outcome) =
                run_campaign(comm, build_electrons(RANKS, comm.rank()), &cfg).unwrap();
            assert!(matches!(outcome.end, CampaignEnd::Completed));
            snapshot(&sim)
        }
    });
    let _ = std::fs::remove_dir_all(&clean_dir);

    let dir = temp_dir("blowup");
    let cfg =
        blowup_cfg(&dir).with_corruption(CorruptionPlan::new(99).with_event(CorruptionEvent {
            step: 5,
            rank: Some(0),
            mode: CorruptionMode::Huge,
            count: 4,
        }));
    let (results, _) = nanompi::run_expect(RANKS, {
        let cfg = cfg.clone();
        move |comm| {
            let (sim, outcome) =
                run_campaign(comm, build_electrons(RANKS, comm.rank()), &cfg).unwrap();
            (outcome, snapshot(&sim))
        }
    });
    let causes: Vec<&String> = results
        .iter()
        .map(|(o, _)| {
            assert!(matches!(o.end, CampaignEnd::Completed), "{:?}", o.end);
            assert_eq!(o.recoveries.len(), 1, "{:?}", o.recoveries);
            let r = &o.recoveries[0];
            assert_eq!(r.at_step, 6, "detection missed the next health gate");
            assert_eq!(r.restored_step, 3, "rolled back past the clean generation");
            assert!(r.cause.contains("health"), "unexpected cause: {}", r.cause);
            &r.cause
        })
        .collect();
    for c in &causes[1..] {
        assert_eq!(*c, causes[0], "ranks disagree on the verdict");
    }
    for (rank, (_, snap)) in results.iter().enumerate() {
        assert_eq!(
            snap, &clean[rank],
            "rank {rank} completed but diverged from the fault-free reference"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// With a zero recovery budget an unrepairable anomaly must end in
/// graceful degradation: a partial dump next to a flight-recorder JSON
/// whose last sample carries the verdict.
#[test]
fn exhausted_budget_degrades_with_flight_recorder() {
    let dir = temp_dir("degrade");
    let cfg = CampaignConfig::new(STEPS, 3, &dir)
        .with_max_recoveries(0)
        .with_corruption(CorruptionPlan::new(5).with_event(CorruptionEvent {
            step: 2,
            rank: Some(0),
            mode: CorruptionMode::Nan,
            count: 4,
        }));
    let (results, _) = nanompi::run_expect(RANKS, {
        let cfg = cfg.clone();
        move |comm| {
            let (_, outcome) =
                run_campaign(comm, build_electrons(RANKS, comm.rank()), &cfg).unwrap();
            outcome
        }
    });
    for o in &results {
        let CampaignEnd::Degraded {
            at_step,
            partial_dump,
            flight_recorder,
        } = &o.end
        else {
            panic!("rank {}: expected degradation, got {:?}", o.rank, o.end)
        };
        assert_eq!(*at_step, 2, "NaN upset missed at the injection step");
        assert!(
            o.heals.is_empty(),
            "non-finite fields are not Marder-healed"
        );
        assert!(partial_dump.exists(), "no partial dump at {partial_dump:?}");
        let json = std::fs::read_to_string(flight_recorder)
            .unwrap_or_else(|e| panic!("rank {}: unreadable flight recorder: {e}", o.rank));
        assert!(json.contains("\"samples\""), "{json}");
        assert!(json.contains("\"nonfinite_fields\""), "{json}");
        assert!(
            json.contains("\"verdict\":{\"kind\":\"nonfinite_fields\""),
            "no verdict in the flight recorder: {json}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The verdict must be bit-identical on every rank *and* across worker
/// counts: the sample is one shared sum, and a NaN count is exact in
/// floating point no matter how the domain is decomposed.
#[test]
fn verdict_is_identical_across_ranks_and_worker_counts() {
    let mut causes: Vec<String> = Vec::new();
    for ranks in [1usize, 2, 4] {
        let dir = temp_dir(&format!("det{ranks}"));
        let cfg = CampaignConfig::new(STEPS, 2, &dir)
            .with_max_recoveries(3)
            .with_corruption(CorruptionPlan::new(7).with_event(CorruptionEvent {
                step: 4,
                rank: Some(0),
                mode: CorruptionMode::Nan,
                count: 1,
            }));
        let (results, _) = nanompi::run_expect(ranks, {
            let cfg = cfg.clone();
            move |comm| {
                let (_, outcome) =
                    run_campaign(comm, build_electrons(ranks, comm.rank()), &cfg).unwrap();
                outcome
            }
        });
        for o in &results {
            let o: &CampaignOutcome = o;
            assert!(matches!(o.end, CampaignEnd::Completed), "{:?}", o.end);
            assert_eq!(o.recoveries.len(), 1);
            causes.push(o.recoveries[0].cause.clone());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    for c in &causes[1..] {
        assert_eq!(
            c, &causes[0],
            "verdict differs across ranks/worker counts: {causes:?}"
        );
    }
}

/// `[sentinel]` deck knobs — the Marder cleaning cadence and every
/// sentinel threshold — survive deck → `SimConfig` → rank dump →
/// restore, and the cleaning cadence survives the serial dump (the
/// serial driver runs no sentinel of its own).
#[test]
fn sentinel_config_roundtrips_deck_to_checkpoint() {
    let text = "kind = plasma\nsteps = 4\nseed = 2\n\n[grid]\ncells = 8 4 4\ndx = 0.25\n\n\
         [species.electron]\ncharge = -1\nmass = 1\ndensity = 1\nppc = 4\nvth = 0.05\n\n\
         [campaign]\nranks = 2\ncheckpoint_interval = 2\n\n\
         [sentinel]\nhealth_interval = 5\nclean_div_e_interval = 6\nclean_div_b_interval = 9\n\
         max_energy_growth = 12.5\nmax_div_e_rms = 0.02\nmax_div_b_rms = 0.03\n\
         max_momentum = 40\nmax_particle_drift = 0.25\nmarder_passes = 8\n\
         max_marder_bursts = 5\nrecorder_len = 16\n";
    let deck = vpic::deck::Deck::parse(text).unwrap();
    let vpic::deck::BuiltRun::Campaign(setup) = vpic::deck::build(&deck).unwrap() else {
        panic!("expected a campaign deck")
    };
    let expected = SimConfig {
        clean_div_e_interval: 6,
        clean_div_b_interval: 9,
        sentinel: SentinelConfig {
            health_interval: 5,
            max_energy_growth: 12.5,
            max_div_e_rms: 0.02f32 as f64,
            max_div_b_rms: 0.03f32 as f64,
            max_momentum: 40.0,
            max_particle_drift: 0.25,
            marder_passes: 8,
            max_marder_bursts: 5,
            recorder_len: 16,
        },
    };
    assert_eq!(setup.sentinel, Some(expected));

    // Rank dump round-trip, compressed.
    let (results, _) = nanompi::run_expect(setup.ranks, {
        let setup = (*setup).clone();
        move |comm| {
            let mut sim = setup.build_rank(comm.rank());
            assert_eq!(sim.config, expected, "deck config not applied to the rank");
            for _ in 0..2 {
                sim.step(comm).unwrap();
            }
            let bytes = dump_rank_bytes(&sim, true).unwrap();
            let restored =
                load_rank(sim.spec.clone(), comm.rank(), 1, &mut bytes.as_slice()).unwrap();
            restored.config
        }
    });
    for restored in results {
        assert_eq!(restored, expected, "rank dump dropped the config");
    }

    // Serial dump round-trip of the cleaning cadence.
    let dx = 0.25f32;
    let dt = vpic::core::Grid::courant_dt(1.0, (dx, dx, dx), 0.7);
    let g = vpic::core::Grid::periodic((4, 4, 4), (dx, dx, dx), dt);
    let mut sim = vpic::core::Simulation::new(g, 1);
    sim.clean_div_e_interval = expected.clean_div_e_interval;
    sim.clean_div_b_interval = expected.clean_div_b_interval;
    let mut bytes = Vec::new();
    vpic::core::checkpoint::save(&sim, &mut bytes).unwrap();
    let restored = vpic::core::checkpoint::load(&mut bytes.as_slice(), 1).unwrap();
    assert_eq!(
        (restored.clean_div_e_interval, restored.clean_div_b_interval),
        (6, 9),
        "serial dump dropped the cleaning cadence"
    );
}
