//! The five workloads. Each has an end-to-end run (`--trace 0`: tracing
//! off, the program's own entry points, medians over timed rounds) and a
//! traced run (`--trace 1`: the benchmark's phase drivers, per-layer
//! metrics, `trace.jsonl`).

pub mod campaign;
pub mod decks;
pub mod halo;
pub mod serial;
pub mod sweep;
pub mod world;

use crate::hostspeed::HostSpeed;
use crate::report::{Checks, Report};
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Time budget of the measured part of the run.
    pub seconds: f64,
    pub trace: bool,
}

/// Every step-loop round count the issue asks for is a floor the host
/// must reach inside `run_seconds`; shorter smoke runs (`--seconds 2`)
/// still take two rounds, the least a median and a repeat check need.
pub const MIN_ROUNDS: usize = 2;

pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "uniform-push" => serial::run(&serial::UNIFORM_PUSH, args),
        "slab-field" => serial::run(&serial::SLAB_FIELD, args),
        "halo-socket" => halo::run(args),
        "campaign-local" => campaign::run(args),
        "srs-sweep" => sweep::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Run `round` for as long as another one fits in `budget` (and at least
/// [`MIN_ROUNDS`] times); returns each round's wall time in seconds. The
/// budget runs from `start`, taken before the untimed warm-up round, so
/// `--seconds` covers all the workload's stepping. An end-to-end run
/// passes its `host` clock, which samples the host after every round,
/// off the round's clock and inside the budget.
pub fn timed_rounds(
    start: Instant,
    budget: Duration,
    mut host: Option<&mut HostSpeed>,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut times: Vec<f64> = Vec::new();
    while times.len() < MIN_ROUNDS
        || start.elapsed().as_secs_f64() + times[times.len() - 1] <= budget.as_secs_f64()
    {
        let t = Instant::now();
        round()?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(host) = host.as_deref_mut() {
            host.sample_after(times[times.len() - 1]);
        }
    }
    Ok(times)
}

/// The set-up times a run's `setup_s` is the median of: the real set-up
/// (`first`) and throwaway repeats of it (`again` does one and returns
/// its seconds) for as long as a second and a half of them fit — at least
/// 3 samples, at most 25, so that a 20 ms socket bootstrap, whose
/// connect back-off is jittered, is a median of many. The repeats run
/// after the measured work and after memory has been read, so they can
/// disturb neither.
pub fn setup_samples(
    first: f64,
    mut again: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut samples = vec![first];
    while samples.len() < 3 || (samples.len() < 25 && samples.iter().sum::<f64>() + first <= 1.5) {
        samples.push(again()?);
    }
    Ok(samples)
}

/// Record `energy-drift`: |ΔE|/E may reach 5 % per 1000 steps (and 5 %
/// on shorter runs). The explicit scheme's grid heating is secular —
/// about 2 % per 1000 steps at `halo-socket`'s 2 particles per cell — so
/// the allowance grows with the steps a run fits in; a fixed one would
/// fail the program for getting faster.
pub fn energy_drift_check(checks: &mut Checks, e0: f64, e1: f64, steps: u64, scope: &str) {
    let drift = (e1 - e0).abs() / e0;
    let allowed = 0.05 * (steps as f64 / 1000.0).max(1.0);
    checks.record(
        "energy-drift",
        drift <= allowed,
        format!("|dE|/E = {drift:.2e} over {steps} steps{scope}, {allowed:.2e} allowed"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_counts_from_start_and_keeps_the_round_floor() {
        // A budget already spent still yields the floor of rounds.
        let mut n = 0;
        let times = timed_rounds(Instant::now(), Duration::ZERO, None, || {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!((times.len(), n), (MIN_ROUNDS, MIN_ROUNDS));
        assert!(timed_rounds(Instant::now(), Duration::ZERO, None, || Err("boom".into())).is_err());
    }

    #[test]
    fn setup_is_sampled_three_to_twenty_five_times() {
        let cheap = setup_samples(0.001, || Ok(0.002)).unwrap();
        assert_eq!((cheap.len(), cheap[0]), (25, 0.001));
        let dear = setup_samples(1.2, || Ok(1.0)).unwrap();
        assert_eq!(dear, vec![1.2, 1.0, 1.0]);
    }

    #[test]
    fn energy_allowance_grows_with_steps() {
        let mut c = Checks::default();
        energy_drift_check(&mut c, 1.0, 1.04, 200, "");
        energy_drift_check(&mut c, 1.0, 1.08, 2000, "");
        assert_eq!(c.first_failure(), None);
        energy_drift_check(&mut c, 1.0, 1.08, 1000, "");
        assert!(c.first_failure().unwrap().starts_with("energy-drift"));
    }
}
