//! Seeded fault-soak for the one-rank LPI (SRS backscatter) campaign,
//! mirroring `tests/campaign_soak.rs` — closes the ROADMAP item "fault
//! injection in the LPI pipeline's long SRS runs".
//!
//! The soak (`#[ignore]`d; run it in release with
//! `cargo test --release -- --ignored`) generates random fault plans from
//! fixed seeds — rank kills plus transient NaN/huge-value field upsets —
//! and throws each at a laser-driven campaign. Every run must terminate
//! within its deadline and either complete bit-identically to the
//! fault-free reference (same `state_fingerprint`, energy and reflectivity bits)
//! or degrade gracefully to a partial dump plus a flight recorder.
//!
//! The non-ignored test runs a shrunk version of the shipped
//! `decks/srs_backscatter.deck` — same deck plumbing, same fault kinds,
//! minutes shorter — and demands bit-identical completion.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vpic::core::sentinel::{CorruptionEvent, CorruptionMode, CorruptionPlan};
use vpic::lpi::{run_lpi_campaign, LpiCampaignConfig, LpiCampaignEnd, LpiParams};

const STEPS: u64 = 100;
const SOAK_PLANS: u64 = 16;
const PLAN_DEADLINE: Duration = Duration::from_secs(120);

fn small_params() -> LpiParams {
    LpiParams {
        flat: 4.0,
        ppc: 4,
        a0: 0.01,
        sponge_cells: 12,
        ..Default::default()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpic_srs_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn soak_cfg(dir: &Path) -> LpiCampaignConfig {
    let mut cfg = LpiCampaignConfig::new(STEPS, 25, dir);
    // The laser pumps energy into the box for the whole run, so the
    // ledger needs headroom; NaN/bounds monitors stay armed tight.
    cfg.sentinel.health_interval = 10;
    cfg.sentinel.max_energy_growth = 100.0;
    cfg.max_recoveries = 4;
    cfg
}

/// Bit-exact end-state digest: dump fingerprint plus the energy/reflectivity and
/// particle count of the final state.
type Digest = (u32, u64, u64, u64);

fn digest(out: &vpic::lpi::LpiCampaignOutcome) -> Digest {
    (
        out.state_fingerprint,
        out.energy.to_bits(),
        out.reflectivity.to_bits(),
        out.n_particles,
    )
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A reproducible random mix of the two fault kinds the LPI campaign
/// supports: a rank kill and/or a seeded one-shot field upset.
fn random_faults(seed: u64, cfg: &mut LpiCampaignConfig) {
    let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(1);
    let kill = splitmix64(&mut s).is_multiple_of(2);
    if kill {
        let step = 10 + splitmix64(&mut s) % (STEPS - 20);
        cfg.fault_plan = Some(nanompi::FaultPlan::new(seed).kill(0, step));
    }
    if !kill || splitmix64(&mut s).is_multiple_of(2) {
        let mode = if splitmix64(&mut s).is_multiple_of(2) {
            CorruptionMode::Nan
        } else {
            CorruptionMode::Huge
        };
        cfg.corruption = Some(CorruptionPlan::new(seed).with_event(CorruptionEvent {
            step: 10 + splitmix64(&mut s) % (STEPS - 20),
            rank: Some(0),
            mode,
            count: 1 + (splitmix64(&mut s) % 8) as usize,
        }));
    }
}

#[test]
#[ignore = "fault soak: minutes of wall time; run with cargo test --release -- --ignored"]
fn seeded_srs_fault_soak_recovers_or_degrades_gracefully() {
    let ref_dir = temp_dir("reference");
    let clean = run_lpi_campaign(small_params(), &soak_cfg(&ref_dir)).unwrap();
    assert!(matches!(clean.end, LpiCampaignEnd::Completed));
    let clean_digest = digest(&clean);
    let _ = std::fs::remove_dir_all(&ref_dir);

    let mut completed = 0usize;
    let mut degraded = 0usize;
    for seed in 0..SOAK_PLANS {
        let dir = temp_dir(&format!("plan{seed}"));
        let mut cfg = soak_cfg(&dir);
        random_faults(seed, &mut cfg);
        let t0 = Instant::now();
        let out = run_lpi_campaign(small_params(), &cfg)
            .unwrap_or_else(|e| panic!("plan {seed} failed hard: {e:?}"));
        let elapsed = t0.elapsed();
        assert!(
            elapsed < PLAN_DEADLINE,
            "plan {seed} blew its deadline: {elapsed:?}"
        );
        match &out.end {
            LpiCampaignEnd::Completed => {
                completed += 1;
                assert!(
                    !out.recoveries.is_empty(),
                    "plan {seed} completed without exercising recovery"
                );
                assert_eq!(
                    digest(&out),
                    clean_digest,
                    "plan {seed} completed but diverged from the fault-free \
                     reference (recoveries: {:?})",
                    out.recoveries
                );
            }
            LpiCampaignEnd::Degraded {
                partial_dump,
                flight_recorder,
                ..
            } => {
                degraded += 1;
                assert!(
                    partial_dump.exists(),
                    "plan {seed} degraded without a partial dump"
                );
                let json = std::fs::read_to_string(flight_recorder)
                    .unwrap_or_else(|e| panic!("plan {seed}: unreadable flight recorder: {e}"));
                assert!(json.contains("\"samples\""), "plan {seed}: {json}");
            }
            LpiCampaignEnd::Halted { at_step } => {
                panic!("plan {seed} halted at step {at_step} without a checkpoint hook")
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("srs soak: {completed} plans completed bit-identically, {degraded} degraded");
    assert!(
        completed > 0,
        "soak never completed a single campaign — recovery is not working"
    );
}

/// Heal/rollback recovery is layout-independent: the same seeded NaN
/// upset, thrown at one campaign running AoS storage and one pinned to
/// `layout = aosoa`, must trigger the same sentinel verdict and rollback
/// in both, and both must finish with identical state fingerprint, energy and
/// reflectivity bits — checkpoints are canonical AoS bytes, so recovery
/// cannot tell the layouts apart.
#[test]
fn aosoa_campaign_recovers_bit_identically_to_aos() {
    let faulted_cfg = |dir: &Path| {
        let mut cfg = soak_cfg(dir);
        cfg.corruption = Some(CorruptionPlan::new(7).with_event(CorruptionEvent {
            step: 30,
            rank: Some(0),
            mode: CorruptionMode::Nan,
            count: 4,
        }));
        cfg
    };
    let mut digests = Vec::new();
    for layout in [vpic::core::Layout::Aos, vpic::core::Layout::Aosoa] {
        let dir = temp_dir(&format!("layout_{layout}"));
        let params = LpiParams {
            layout,
            ..small_params()
        };
        let out = run_lpi_campaign(params, &faulted_cfg(&dir)).unwrap();
        assert!(
            matches!(out.end, LpiCampaignEnd::Completed),
            "{layout}: {:?}",
            out.end
        );
        assert!(
            !out.recoveries.is_empty(),
            "{layout}: NaN upset never exercised recovery"
        );
        digests.push(digest(&out));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        digests[0], digests[1],
        "heal/rollback recovery diverged between AoS and AoSoA"
    );
}

/// Layout × pipelines matrix on the shrunk SRS deck: at every pipeline
/// count the production AoSoA store (lane kernel) must retrace the AoS
/// oracle bit for bit through a *fault-injected* campaign — the seeded
/// NaN upset trips the sentinel, the campaign rolls back to the last
/// checkpoint and replays, and the replayed trajectory still lands on the
/// oracle's exact digest. This pins the kernel contract through the
/// recovery path, not just the clean step loop. The matrix runs under the
/// `auto` sort cadence, so the adaptive controller's decisions are covered
/// by the same rollback-replay bit-identity contract.
#[test]
fn srs_layout_matrix_recovers_bit_identically_at_every_pipeline_count() {
    let steps = 60u64;
    let cfg_for = |dir: &Path| {
        let mut cfg = LpiCampaignConfig::new(steps, 20, dir);
        cfg.sentinel.health_interval = 10;
        cfg.sentinel.max_energy_growth = 100.0;
        cfg.max_recoveries = 4;
        cfg.corruption = Some(CorruptionPlan::new(11).with_event(CorruptionEvent {
            step: 30,
            rank: Some(0),
            mode: CorruptionMode::Nan,
            count: 4,
        }));
        cfg
    };
    for pipelines in [1usize, 2, 4, 8] {
        let mut digests = Vec::new();
        for layout in [vpic::core::Layout::Aos, vpic::core::Layout::Aosoa] {
            let dir = temp_dir(&format!("lmatrix_{pipelines}_{layout}"));
            let params = LpiParams {
                layout,
                pipelines,
                sort: vpic::core::SortPolicy::Auto,
                ..small_params()
            };
            let out = run_lpi_campaign(params, &cfg_for(&dir)).unwrap();
            assert!(
                matches!(out.end, LpiCampaignEnd::Completed),
                "{layout} @{pipelines} pipes: {:?}",
                out.end
            );
            assert!(
                !out.recoveries.is_empty(),
                "{layout} @{pipelines} pipes: NaN upset never exercised rollback"
            );
            digests.push(digest(&out));
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(
            digests[0], digests[1],
            "AoSoA diverged from the AoS oracle at {pipelines} pipelines"
        );
    }
}

/// Acceptance: the shipped SRS deck builds a fault-injected campaign, and
/// a shrunk version of it (same plumbing, shorter run, earlier faults)
/// detects the seeded kill *and* the seeded NaN upset, recovers from
/// both, and finishes bit-identically with the fault-free run.
#[test]
fn shrunk_srs_deck_campaign_recovers_bit_identically() {
    let text = std::fs::read_to_string("decks/srs_backscatter.deck").unwrap();
    let deck = vpic::deck::Deck::parse(&text).unwrap();
    let vpic::deck::BuiltRun::LpiCampaign(setup) = vpic::deck::build(&deck).unwrap() else {
        panic!("srs_backscatter.deck must build an LPI campaign")
    };
    let mut setup = *setup;
    // Shrink to test scale: a smaller plasma, a 60-step run, and the
    // deck's kill/corruption retimed to land inside it.
    setup.params.flat = 4.0;
    setup.params.ppc = 4;
    setup.params.sponge_cells = 12;
    setup.steps = 60;
    setup.checkpoint_interval = 20;
    if let Some(s) = setup.sentinel.as_mut() {
        s.sentinel.health_interval = 10;
        s.sentinel.max_energy_growth = 100.0;
    }
    setup.fault_plan = Some(nanompi::FaultPlan::new(deck.seed()).kill(0, 45));
    setup.corruption = Some(
        CorruptionPlan::new(deck.seed()).with_event(CorruptionEvent {
            step: 25,
            rank: Some(0),
            mode: CorruptionMode::Nan,
            count: 4,
        }),
    );

    let dir = temp_dir("deck");
    let faulted = run_lpi_campaign(setup.params, &setup.config(&dir)).unwrap();
    assert!(
        matches!(faulted.end, LpiCampaignEnd::Completed),
        "{:?}",
        faulted.end
    );
    assert_eq!(
        faulted.recoveries.len(),
        2,
        "expected one NaN rollback and one kill recovery: {:?}",
        faulted.recoveries
    );
    assert!(
        faulted.recoveries[0].cause.contains("health"),
        "first fault should be the sentinel verdict: {:?}",
        faulted.recoveries
    );
    let _ = std::fs::remove_dir_all(&dir);

    let clean_dir = temp_dir("deck_clean");
    setup.fault_plan = None;
    setup.corruption = None;
    let clean = run_lpi_campaign(setup.params, &setup.config(&clean_dir)).unwrap();
    assert!(matches!(clean.end, LpiCampaignEnd::Completed));
    assert_eq!(
        digest(&faulted),
        digest(&clean),
        "faulted deck campaign diverged from the fault-free run"
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
}
