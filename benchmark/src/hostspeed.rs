//! How fast the host is while the work runs, and the end-to-end times
//! stated in seconds of a quiet host.
//!
//! The reference host is a 2-core guest whose hardware threads share
//! their caches with other guests' threads. The same build's round time
//! moves by 25 % over half an hour with the neighbours' load, in every
//! workload at once, and no statistic over the rounds of one run can
//! take that out: the host is slow for longer than a run lasts. What
//! can take it out is a second clock that slows down with the host: a
//! fixed piece of the benchmark's own work, timed beside every round.
//!
//! The reference pass is a latency-bound random gather over a 1 MiB
//! table (four independent chains). Of the kernels tried beside
//! `uniform-push` and `srs-sweep` while the host drifted by 25 %, a
//! divide/sqrt loop moved by 2 %, a 16 MiB stream by 7 %, an FMA-port
//! loop by 7 % — and the gather by 29 %, run for run with the workloads
//! (round time ÷ median pass time stayed within 4–7 %). It is the
//! benchmark's code, not the program's, so no change to the program can
//! move it.
//!
//! A run's time-based end-to-end metrics are wall-clock measurements
//! times [`HostSpeed::factor`]: quiet-host seconds per wall second, the
//! nominal pass time over the run's median pass time. On a quiet host
//! the factor is 1 and the metrics are wall-clock. Every run prints the
//! factor and the uncorrected values beside the corrected ones.

use crate::report::Report;
use crate::stats::median;
use std::time::Instant;

/// Median pass time on the reference host when it is quiet.
pub const NOMINAL_PASS_S: f64 = 0.0220;

const TABLE_WORDS: usize = 1 << 18;
const GATHERS_PER_CHAIN: usize = 7_500_000;

pub struct HostSpeed {
    /// One table per busy thread of the workload.
    tables: Vec<Vec<u32>>,
    pass_s: Vec<f64>,
}

/// One reference pass over `table`; returns its seconds.
fn pass(table: &[u32]) -> f64 {
    let t = Instant::now();
    let mask = TABLE_WORDS as u32 - 1;
    let mut at = [1u32, 2, 3, 4];
    let mut sum = 0u32;
    for _ in 0..GATHERS_PER_CHAIN {
        for k in at.iter_mut() {
            let v = table[(*k & mask) as usize];
            sum = sum.wrapping_add(v);
            *k = k.wrapping_mul(1664525).wrapping_add(v);
        }
    }
    std::hint::black_box(sum);
    t.elapsed().as_secs_f64()
}

impl HostSpeed {
    /// A clock for a workload that keeps `busy_threads` threads busy:
    /// every sample runs that many passes side by side, because the
    /// guest's two processors slow each other down when both work (a
    /// pass takes 23 ms alone and 25–42 ms beside a second one, as the
    /// host places them) and a 2-rank round runs in that state. Builds
    /// the tables and takes one untimed sample to fault them in.
    pub fn new(busy_threads: usize) -> Self {
        let mut z = 12345u64;
        let table: Vec<u32> = (0..TABLE_WORDS)
            .map(|_| {
                z = z
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (z >> 33) as u32
            })
            .collect();
        let mut host = HostSpeed {
            tables: vec![table; busy_threads],
            pass_s: Vec::new(),
        };
        host.sample();
        host.pass_s.clear();
        host
    }

    /// One timed reference pass (about 22 ms) on every busy thread at
    /// once; the sample is their mean.
    pub fn sample(&mut self) {
        let (mine, others) = self.tables.split_first().expect("at least one busy thread");
        let total: f64 = std::thread::scope(|s| {
            let beside: Vec<_> = others.iter().map(|t| s.spawn(move || pass(t))).collect();
            pass(mine)
                + beside
                    .into_iter()
                    .map(|h| h.join().expect("reference pass"))
                    .sum::<f64>()
        });
        self.pass_s.push(total / self.tables.len() as f64);
    }

    /// The samples that follow a round of `round_s` seconds: as many as
    /// fit in 4 % of it, at least one, so that a run of few long rounds
    /// reads the host as often as a run of many short ones (some 35
    /// samples in 20 s; the median of 7 was noisier than no correction).
    pub fn sample_after(&mut self, round_s: f64) {
        for _ in 0..(0.04 * round_s / NOMINAL_PASS_S).ceil().max(1.0) as usize {
            self.sample();
        }
    }

    /// Quiet-host seconds per wall second over this run: below 1 while
    /// the host is slow. The median pass, not a low quantile: single
    /// passes are short enough to slip between a neighbour's bursts, and
    /// their fast tail tracked the workloads far worse than their middle.
    pub fn factor(&self) -> f64 {
        NOMINAL_PASS_S / median(&self.pass_s)
    }
}

/// What a run measured by the wall clock, before the host correction.
pub struct WallTimes {
    /// Particle-steps advanced in one round.
    pub work_per_round: f64,
    /// The run's typical round.
    pub round_s: f64,
    /// Rounds in the workload's quota.
    pub quota_rounds: f64,
    pub setup_s: f64,
    pub finalise_s: f64,
}

/// Set the three time-based end-to-end metrics from `wall`, in
/// quiet-host seconds, and note the uncorrected values beside them.
pub fn set_time_metrics(report: &mut Report, host: &HostSpeed, wall: &WallTimes) {
    let k = host.factor();
    let rate = wall.work_per_round / wall.round_s;
    let solution_s = wall.setup_s + wall.quota_rounds * wall.round_s + wall.finalise_s;
    report.notes.push(format!(
        "host: reference pass {:.3} ms (median of {}; {:.1} ms when quiet), so 1 wall second = {k:.4} quiet-host seconds",
        median(&host.pass_s) * 1e3,
        host.pass_s.len(),
        NOMINAL_PASS_S * 1e3,
    ));
    report.notes.push(format!(
        "by the wall clock: particle_steps_per_s = {rate:.6e}, time_to_solution_s = {solution_s:.4}, setup_s = {:.6}",
        wall.setup_s
    ));
    let m = &mut report.metrics;
    m.set("particle_steps_per_s", rate / k);
    m.set("time_to_solution_s", solution_s * k);
    m.set("setup_s", wall.setup_s * k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Metrics;

    #[test]
    fn a_slow_host_shrinks_times_and_raises_rates_by_the_same_factor() {
        let mut host = HostSpeed::new(2);
        assert!(host.pass_s.is_empty(), "the warm-up pass is not a sample");
        host.sample();
        assert!(host.pass_s[0] > 0.0);
        // A host twice as slow as the quiet one, whatever this one is.
        host.pass_s = vec![2.0 * NOMINAL_PASS_S; 3];
        assert_eq!(host.factor(), 0.5);

        let mut report = Report::new(Metrics::end_to_end());
        let wall = WallTimes {
            work_per_round: 1000.0,
            round_s: 2.0,
            quota_rounds: 10.0,
            setup_s: 1.0,
            finalise_s: 3.0,
        };
        set_time_metrics(&mut report, &host, &wall);
        let m = &report.metrics;
        assert_eq!(m.get("particle_steps_per_s"), 1000.0);
        assert_eq!(m.get("time_to_solution_s"), 12.0);
        assert_eq!(m.get("setup_s"), 0.5);
    }
}
