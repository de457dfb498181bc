//! Chaos soak for the crash-proof reflectivity-sweep service.
//!
//! The soak (`#[ignore]`d; run it in release with
//! `cargo test --release --test sweep_soak -- --ignored`) throws 16
//! seeded kill-the-orchestrator plans at a 3-point sweep: each plan
//! SIGKILLs the service either right after a journaled `Started` (before
//! the job's first step) or at a seeded checkpoint certification (right
//! after its `Progress` record is durable). A fresh incarnation then
//! replays the WAL and finishes the sweep. Every plan must produce a
//! `reflectivity_curve.json` **byte-identical** with the unkilled
//! reference sweep's, and the journal's step accounting must show that
//! no job's physics was ever re-run past its last certified
//! checkpoint.
//!
//! The service runs up to pool-width points at once, so the soak runs
//! every plan at one and at two worker threads.
//!
//! Shrunk non-ignored tests keep the same guarantees in tier-1 CI: a
//! concurrent sweep against the serial one, a single kill/resume cycle
//! at each width, and a poison job that lands in quarantine after
//! exactly `max_attempts` charged attempts, its retries started only
//! after every pending point, while the sweep completes over the
//! surviving points.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vpic::core::journal::Journal;
use vpic::core::queue::JobEvent;
use vpic::core::sentinel::{CorruptionEvent, CorruptionMode, CorruptionPlan};
use vpic::core::with_worker_threads;
use vpic::lpi::sweep::{
    SweepConfig, SweepEnd, SweepGrid, SweepKillPlan, SweepOutcome, SweepRunner, CURVE_NAME,
    WAL_NAME,
};
use vpic::lpi::LpiParams;

const STEPS: u64 = 40;
const INTERVAL: u64 = 10;
const SOAK_PLANS: u64 = 16;
const PLAN_DEADLINE: Duration = Duration::from_secs(120);
/// Safety net only; every plan needs exactly two incarnations.
const MAX_INCARNATIONS: usize = 8;

fn small_base() -> LpiParams {
    LpiParams {
        flat: 4.0,
        ppc: 4,
        a0: 0.01,
        sponge_cells: 12,
        ..Default::default()
    }
}

/// 3-point intensity scan; the other axes stay at the base point.
fn soak_grid() -> SweepGrid {
    let mut grid = SweepGrid::single(&small_base());
    grid.a0 = vec![0.01, 0.02, 0.03];
    grid
}

fn cfg(dir: &Path) -> SweepConfig {
    let mut cfg = SweepConfig::new(small_base(), STEPS, INTERVAL, dir);
    cfg.sentinel.health_interval = 10;
    cfg.sentinel.max_energy_growth = 100.0;
    cfg
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vpic_sweepsoak_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One incarnation on `width` worker threads, i.e. up to `width`
/// points at once.
fn run_at(width: usize, grid: &SweepGrid, c: SweepConfig) -> SweepOutcome {
    with_worker_threads(width, || SweepRunner::new(grid.clone(), c).run())
        .expect("sweep incarnation must not error")
}

/// Run incarnations until the sweep settles. Only the *first*
/// incarnation carries the kill plan: a resumed campaign re-certifies
/// its restored checkpoint before executing new physics, so re-arming
/// a small `after_certifications` every incarnation would kill the
/// service forever without it ever progressing — exactly like
/// rebooting a machine faster than it can recover.
fn run_until_settled(
    width: usize,
    grid: &SweepGrid,
    dir: &Path,
    first_kill: SweepKillPlan,
) -> Vec<SweepOutcome> {
    let mut outs = Vec::new();
    for incarnation in 0..MAX_INCARNATIONS {
        let mut c = cfg(dir);
        if incarnation == 0 {
            c.kill = first_kill.clone();
        }
        let out = run_at(width, grid, c);
        let settled = out.end == SweepEnd::Completed;
        outs.push(out);
        if settled {
            return outs;
        }
    }
    panic!("sweep did not settle within {MAX_INCARNATIONS} incarnations");
}

/// Fold per-incarnation step ledgers into one per-job total.
fn total_steps(outs: &[SweepOutcome]) -> BTreeMap<u64, u64> {
    let mut total = BTreeMap::new();
    for out in outs {
        for (&job, &steps) in &out.steps_by_job {
            *total.entry(job).or_insert(0) += steps;
        }
    }
    total
}

/// Replay the WAL and audit its step accounting: per job, certified
/// steps must be non-decreasing (a resumed job re-certifies its
/// restored step, then moves forward — physics re-run from before a
/// certified checkpoint would journal a *lower* step) and every
/// certification must predate the campaign's end. Returns the `Done`
/// payloads by job, after checking there is exactly one per job.
fn audit_journal(dir: &Path, jobs: u64) -> BTreeMap<u64, Vec<u8>> {
    let mut progress: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut done: Vec<(u64, Vec<u8>)> = Vec::new();
    let (_, report) = Journal::open(dir.join(WAL_NAME), |payload| {
        match JobEvent::decode(payload).expect("journaled event decodes") {
            JobEvent::Progress { id, certified_step } => {
                progress.entry(id).or_default().push(certified_step)
            }
            JobEvent::Done { id, result } => done.push((id, result)),
            _ => {}
        }
    })
    .expect("settled WAL replays");
    assert!(!report.torn_tail, "settled WAL must not be torn");
    let payloads: BTreeMap<u64, Vec<u8>> = done.iter().cloned().collect();
    assert_eq!(
        (done.len(), payloads.len()),
        (jobs as usize, jobs as usize),
        "exactly one Done per job"
    );
    for (job, certs) in &progress {
        assert!(
            certs.windows(2).all(|w| w[0] <= w[1]),
            "job {job}: certified steps went backwards: {certs:?}"
        );
        assert!(
            certs.iter().all(|&s| s < STEPS),
            "job {job}: certification past campaign end: {certs:?}"
        );
    }
    payloads
}

/// What every kill/resume cycle must show, whatever the width and
/// wherever the kill landed: a curve byte-identical with the unkilled
/// reference, exactly STEPS steps of physics per job summed over
/// incarnations (nothing re-run past the checkpoint a job resumed from,
/// nothing skipped), a clean journal, and no attempt charged for a kill.
fn assert_resumed_like_reference(outs: &[SweepOutcome], dir: &Path, ref_curve: &[u8], what: &str) {
    let last = outs.last().unwrap();
    let jobs = last.curve.as_ref().unwrap().points.len() as u64;
    let curve = std::fs::read(dir.join(CURVE_NAME)).expect("resumed curve");
    assert_eq!(
        curve, ref_curve,
        "{what}: curve differs from unfaulted reference"
    );
    let totals = total_steps(outs);
    for job in 0..jobs {
        assert_eq!(
            totals.get(&job),
            Some(&STEPS),
            "{what}: job {job} step ledger {totals:?}"
        );
    }
    audit_journal(dir, jobs);
    assert_eq!(last.stats.total_failures, 0, "{what}: charged a kill");
    for p in &last.curve.as_ref().unwrap().points {
        assert_eq!(p.attempts, 0, "{what}: job {} charged", p.point.job_id);
    }
}

#[test]
#[ignore = "chaos soak: run with cargo test --release --test sweep_soak -- --ignored"]
fn killed_orchestrator_soak_is_bit_identical() {
    let grid = soak_grid();
    let jobs = grid.len() as u64;
    let certs_per_job = STEPS / INTERVAL; // checkpoints at 0, 10, 20, 30
    let total_certs = jobs * certs_per_job;

    // Fault-free reference: one serial incarnation, start to finish.
    let ref_dir = temp_dir("ref");
    let reference = run_at(1, &grid, cfg(&ref_dir));
    assert_eq!(reference.end, SweepEnd::Completed);
    let ref_curve = std::fs::read(ref_dir.join(CURVE_NAME)).expect("reference curve");

    for width in [1usize, 2] {
        for seed in 0..SOAK_PLANS {
            let started = Instant::now();
            let roll = splitmix64(0xC0FF_EE00 ^ seed);
            // Three of four plans die at a seeded certification; the
            // rest die between `Started` and the first step of a seeded
            // job.
            let kill = if seed % 4 == 3 {
                SweepKillPlan {
                    before_job: Some(roll % jobs),
                    after_certifications: None,
                }
            } else {
                SweepKillPlan {
                    after_certifications: Some(1 + roll % total_certs),
                    before_job: None,
                }
            };
            let what = format!("width {width} plan {seed} ({kill:?})");

            let dir = temp_dir(&format!("w{width}plan{seed}"));
            let outs = run_until_settled(width, &grid, &dir, kill);
            assert_eq!(outs[0].end, SweepEnd::Killed, "{what} must actually fire");
            assert_eq!(outs.len(), 2, "{what}: one kill, one clean resume");
            assert_resumed_like_reference(&outs, &dir, &ref_curve, &what);
            assert!(
                started.elapsed() < PLAN_DEADLINE,
                "{what} exceeded {PLAN_DEADLINE:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// Two points at a time against one: a 3-point grid runs as a batch of
/// two and a tail of one, and lands on the serial sweep's bytes, results
/// and step ledger.
#[test]
fn concurrent_sweep_is_bit_identical_to_serial() {
    let grid = soak_grid();
    let jobs = grid.len() as u64;
    let runs: Vec<_> = [1usize, 2]
        .into_iter()
        .map(|width| {
            let dir = temp_dir(&format!("concurrent_w{width}"));
            let out = run_at(width, &grid, cfg(&dir));
            assert_eq!(out.end, SweepEnd::Completed, "width {width}");
            let curve = std::fs::read(dir.join(CURVE_NAME)).expect("curve");
            let done = audit_journal(&dir, jobs);
            let _ = std::fs::remove_dir_all(&dir);
            (curve, done, out.steps_by_job, out.attempts_launched)
        })
        .collect();
    let (serial, concurrent) = (&runs[0], &runs[1]);
    assert_eq!(concurrent.0, serial.0, "reflectivity_curve.json bytes");
    assert_eq!(concurrent.1, serial.1, "Done payloads");
    assert_eq!(concurrent.2, serial.2, "steps_by_job");
    assert_eq!(concurrent.3, serial.3, "attempts_launched");
    assert_eq!(serial.3, jobs);
}

/// Shrunk, non-ignored slice of the soak: one seeded kill mid-job on a
/// 2-point grid, then a clean resume — bit-identical curve and exact
/// step accounting, cheap enough for tier-1 CI. Serial on purpose: the
/// step arithmetic below follows one point after the other.
#[test]
fn killed_sweep_resumes_bit_identically() {
    let mut grid = soak_grid();
    grid.a0 = vec![0.01, 0.02];

    let ref_dir = temp_dir("mini_ref");
    let reference = run_at(1, &grid, cfg(&ref_dir));
    assert_eq!(reference.end, SweepEnd::Completed);
    let ref_curve = std::fs::read(ref_dir.join(CURVE_NAME)).expect("reference curve");

    // Certification 6 is job 1's step-10 checkpoint (job 0 certifies
    // 0/10/20/30, then job 1 certifies 0 and 10): the kill lands with
    // job 0 done and job 1 in flight, mid-physics.
    let dir = temp_dir("mini_kill");
    let kill = SweepKillPlan {
        after_certifications: Some(6),
        before_job: None,
    };
    let outs = run_until_settled(1, &grid, &dir, kill);
    assert_eq!(outs[0].end, SweepEnd::Killed);
    assert_eq!(outs.len(), 2);
    assert_eq!(
        outs[1].orphans_released,
        vec![1],
        "job 1 was left running by the kill"
    );

    let curve = std::fs::read(dir.join(CURVE_NAME)).expect("resumed curve");
    assert_eq!(curve, ref_curve, "curve differs from unfaulted reference");

    // Incarnation 1 ran job 0 fully and job 1 to its certified step 10;
    // incarnation 2 resumed job 1 there and ran only the remainder.
    assert_eq!(outs[0].steps_by_job.get(&0), Some(&STEPS));
    assert_eq!(outs[0].steps_by_job.get(&1), Some(&10));
    assert_eq!(outs[1].steps_by_job.get(&0), None);
    assert_eq!(outs[1].steps_by_job.get(&1), Some(&(STEPS - 10)));
    audit_journal(&dir, 2);

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same cycle with two points at a time. Which point certifies
/// when is up to the threads, so only order-free facts are asserted.
/// Both kills land in the first batch (two points, four checkpoints
/// each): at the 3rd certification both points are mid-run and halt at
/// their next checkpoint; the 8th is the batch's last, so the other
/// point has passed its last checkpoint and runs on to its end, and the
/// next incarnation must redo that tail from the step-30 checkpoint.
#[test]
fn killed_concurrent_sweep_resumes_bit_identically() {
    let grid = soak_grid();
    let ref_dir = temp_dir("conc_ref");
    let reference = run_at(1, &grid, cfg(&ref_dir));
    assert_eq!(reference.end, SweepEnd::Completed);
    let ref_curve = std::fs::read(ref_dir.join(CURVE_NAME)).expect("reference curve");

    for k in [3, 8] {
        let dir = temp_dir(&format!("conc_kill{k}"));
        let kill = SweepKillPlan {
            after_certifications: Some(k),
            before_job: None,
        };
        let outs = run_until_settled(2, &grid, &dir, kill);
        assert_eq!(outs[0].end, SweepEnd::Killed);
        assert_eq!(outs.len(), 2);
        assert_resumed_like_reference(&outs, &dir, &ref_curve, &format!("kill at {k}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

/// A poison job — its campaign degrades on every attempt — must land in
/// `Quarantined` after exactly `max_attempts` charged attempts, each
/// retry started only once no point is pending, with its flight recorder
/// on disk, while the sweep still completes and emits a curve over the
/// surviving points — one point at a time, and two at once.
#[test]
fn poison_job_quarantines_after_exactly_n_attempts() {
    poison_job_at(1);
    poison_job_at(2);
}

fn poison_job_at(width: usize) {
    let grid = soak_grid();

    let dir = temp_dir(&format!("poison_w{width}"));
    let mut c = cfg(&dir);
    c.retry.max_attempts = 3;
    // Retries are the sweep's job: no in-campaign recovery budget, so
    // the injected NaN degrades the attempt deterministically (injected
    // at step 15, caught by the step-20 health check before the step-20
    // checkpoint is written — every retry resumes at step 10 and walks
    // back into the fault).
    c.campaign_max_recoveries = 0;
    c.corruption_for = vec![(
        0,
        None, // every attempt: the job is poison, not flaky
        CorruptionPlan::new(7).with_event(CorruptionEvent {
            step: 15,
            rank: None,
            mode: CorruptionMode::Nan,
            count: 4,
        }),
    )];

    let out = run_at(width, &grid, c);
    assert_eq!(out.end, SweepEnd::Completed);
    assert_eq!(out.stats.done, 2);
    assert_eq!(out.stats.quarantined, 1);
    assert_eq!(out.stats.total_failures, 3, "exactly N charged attempts");
    assert_eq!(out.attempts_launched, 5);

    let curve = out.curve.expect("curve over surviving points");
    assert_eq!(curve.points[0].attempts, 3);
    assert!(curve.points[0].result.is_none());
    let cause = curve.points[0]
        .quarantined
        .as_ref()
        .expect("poison point is marked quarantined");
    assert!(cause.contains("flight recorder"), "cause: {cause}");
    for p in &curve.points[1..] {
        assert!(p.result.is_some(), "survivor kept its result");
        assert!(p.quarantined.is_none());
    }

    // The flight recorder the cause points at is actually on disk.
    assert!(
        dir.join("job_000000").join("flight_r0000.json").exists(),
        "quarantined job must leave its flight recorder behind"
    );

    // WAL audit: the poison job's retries start only after every other
    // job's first attempt has started; every attempt journals one
    // charged `Failed`; `Quarantined` is job 0's last record.
    let mut events = Vec::new();
    Journal::open(dir.join(WAL_NAME), |payload| {
        events.push(JobEvent::decode(payload).expect("journaled event decodes"));
    })
    .expect("settled WAL replays");
    let last_first_start = events
        .iter()
        .rposition(|ev| matches!(ev, JobEvent::Started { id, attempt: 1 } if *id != 0))
        .expect("the survivors started");
    let retries: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, ev)| matches!(ev, JobEvent::Started { id: 0, attempt } if *attempt > 1))
        .map(|(at, _)| at)
        .collect();
    assert_eq!(retries.len(), 2, "two retries of the poison job");
    assert!(
        retries.iter().all(|&at| at > last_first_start),
        "a retry started before a pending point: {events:?}"
    );
    let job0: Vec<&JobEvent> = events.iter().filter(|ev| ev.id() == 0).collect();
    let failed: Vec<u32> = job0
        .iter()
        .filter_map(|ev| match ev {
            JobEvent::Failed { attempt, .. } => Some(*attempt),
            _ => None,
        })
        .collect();
    assert_eq!(
        failed,
        vec![1, 2, 3],
        "every attempt journals one charged Failed record"
    );
    assert!(
        !job0.iter().any(|ev| matches!(ev, JobEvent::Done { .. })),
        "poison job must never journal Done"
    );
    assert!(
        matches!(job0.last(), Some(JobEvent::Quarantined { .. })),
        "Quarantined is the terminal record for the poison job"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
