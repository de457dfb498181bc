//! Adaptive sort-cadence control for lane coherence.
//!
//! The 8-lane AoSoA push pays for itself only while blocks stay
//! voxel-coherent: cell-crossers need the mover and mixed-voxel blocks
//! gather from eight voxels. How coherent blocks stay between sorts is
//! workload-dependent — a cold thermal plasma drifts slowly, a laser-heated
//! one scrambles in a few steps — so a fixed `sort_interval` is either
//! wasted sorting or wasted spilling. This module closes the loop:
//!
//! * [`CoherenceCounters`] — cheap per-species telemetry from the push
//!   (crossers, lane spills, mixed blocks, straddled lanes) folded
//!   bit-identically across pipelines the way the sentinel folds
//!   [`HealthSample`](crate::sentinel::HealthSample)s: integer counters,
//!   summed in pipeline order, with a flat `to_vec`/`from_vec` codec for
//!   cross-rank reduction.
//! * [`CadenceState`] + [`auto_sort_interval`] — an amortized cost model in
//!   the style of the Young/Daly checkpoint-interval solver
//!   (`roadrunner-model`): sorting costs `S` once per interval, incoherence
//!   costs `C_MIX · n · r` per step and grows linearly with the steps since
//!   the last sort, so the optimum interval is `τ* = sqrt(2S / (C_MIX·n·r))`.
//! * [`SortPolicy`] — `Fixed(n)` (the historical knob, `0` = never) or
//!   `Auto` (the controller above).
//!
//! ## Determinism contract
//!
//! Every input to a cadence decision is bitwise-deterministic: crosser
//! counts are exact integers identical across the oracle, kernels and worker
//! counts (a particle either enters `move_p` or it does not), and the model
//! constants are compile-time fixed. Wall-clock time never feeds a
//! decision. The f64 solver arithmetic is a fixed expression tree, so every
//! pipeline count computes the same interval, and [`CadenceState`] rides
//! checkpoints bit-exactly (the EWMA rate is stored as raw f64 bits).

use std::fmt;

/// Historical default cadence (steps between sorts) — also the `Auto`
/// controller's starting interval before its first measurement window.
pub const DEFAULT_SORT_INTERVAL: u32 = 25;

/// Floor for the auto-tuned interval: below this the sort itself dominates
/// even a fully scrambled species.
pub const MIN_AUTO_INTERVAL: u32 = 4;

/// Ceiling for the auto-tuned interval: a quiescent species (zero measured
/// crossing rate) still re-sorts occasionally so the controller keeps
/// getting measurement windows after a workload change.
pub const MAX_AUTO_INTERVAL: u32 = 250;

/// Relative cost of one incoherent particle-step versus one sorted
/// particle-step: the scalar spill path re-derives the interpolator and
/// runs `move_p` per particle, roughly the cost of touching the particle
/// once more. Deliberately a compile-time constant — measuring it at run
/// time would make the cadence depend on the host.
const C_MIX: f64 = 1.0;

/// EWMA smoothing for the measured crossing rate. `0.5` reacts within two
/// windows while riding out single-window noise.
const RATE_ALPHA: f64 = 0.5;

/// When a species should be counting-sorted back into voxel order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortPolicy {
    /// Sort every `n` steps; `0` disables sorting entirely.
    Fixed(u32),
    /// Auto-tune the interval from measured coherence telemetry.
    Auto,
}

impl Default for SortPolicy {
    fn default() -> Self {
        SortPolicy::Fixed(DEFAULT_SORT_INTERVAL)
    }
}

impl SortPolicy {
    /// Parse a deck value: `auto` or a step count.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim().trim_matches('"');
        if s.eq_ignore_ascii_case("auto") {
            return Some(SortPolicy::Auto);
        }
        s.parse::<u32>().ok().map(SortPolicy::Fixed)
    }

    /// Stable name for bench records and reports (`auto` / `fixed-25`).
    pub fn name(&self) -> String {
        match self {
            SortPolicy::Auto => "auto".to_string(),
            SortPolicy::Fixed(n) => format!("fixed-{n}"),
        }
    }
}

impl fmt::Display for SortPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Per-push-call telemetry, returned per pipeline and summed in pipeline
/// order (integer adds commute, so any worker count folds to the same
/// totals — the same argument the accumulator merge makes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushTally {
    /// Particles advanced.
    pub pushed: u64,
    /// Particles that entered `move_p` (crossed a cell face this step).
    pub crossers: u64,
    /// Fully-owned AoSoA blocks taken by the lane kernel.
    pub lane_blocks: u64,
    /// Crossers of lane-kernel blocks handed to the scalar `move_p` path —
    /// the ones the batched one-face mover leaves (corners; reflect,
    /// absorb and migrate faces; non-finite lanes). Telemetry only: no
    /// decision reads it.
    pub lane_spills: u64,
    /// Lane-kernel blocks whose live lanes span more than one voxel.
    pub mixed_blocks: u64,
    /// Lanes pushed scalar because their block straddled a pipeline
    /// partition boundary.
    pub straddle_lanes: u64,
}

impl PushTally {
    /// Fold another tally into this one (plain integer sums).
    pub fn absorb(&mut self, other: &PushTally) {
        self.pushed += other.pushed;
        self.crossers += other.crossers;
        self.lane_blocks += other.lane_blocks;
        self.lane_spills += other.lane_spills;
        self.mixed_blocks += other.mixed_blocks;
        self.straddle_lanes += other.straddle_lanes;
    }
}

/// Lifetime coherence telemetry for one species: push tallies plus sort
/// events. Reducible across ranks through the same flat-vector codec the
/// sentinel uses for [`HealthSample`](crate::sentinel::HealthSample).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoherenceCounters {
    /// Summed push telemetry since the species was created.
    pub tally: PushTally,
    /// Counting sorts actually performed.
    pub sorts: u64,
    /// Cadence-due sorts skipped because the species was provably still
    /// coherent (zero crossers and unchanged length since the last sort).
    pub skipped_sorts: u64,
}

impl CoherenceCounters {
    /// Number of reducible metrics in [`CoherenceCounters::to_vec`].
    pub const LEN: usize = 8;

    /// Flatten to an f64 vector for a sum-allreduce. Counter values stay
    /// exact through f64 up to 2^53 events — beyond any run we take.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.tally.pushed as f64,
            self.tally.crossers as f64,
            self.tally.lane_blocks as f64,
            self.tally.lane_spills as f64,
            self.tally.mixed_blocks as f64,
            self.tally.straddle_lanes as f64,
            self.sorts as f64,
            self.skipped_sorts as f64,
        ]
    }

    /// Rebuild from a reduced vector.
    ///
    /// # Panics
    ///
    /// When `v` is shorter than [`CoherenceCounters::LEN`].
    pub fn from_vec(v: &[f64]) -> Self {
        assert!(v.len() >= Self::LEN, "short coherence vector: {}", v.len());
        CoherenceCounters {
            tally: PushTally {
                pushed: v[0] as u64,
                crossers: v[1] as u64,
                lane_blocks: v[2] as u64,
                lane_spills: v[3] as u64,
                mixed_blocks: v[4] as u64,
                straddle_lanes: v[5] as u64,
            },
            sorts: v[6] as u64,
            skipped_sorts: v[7] as u64,
        }
    }

    /// Fold another rank's counters into this one.
    pub fn merge(&mut self, other: &CoherenceCounters) {
        self.tally.absorb(&other.tally);
        self.sorts += other.sorts;
        self.skipped_sorts += other.skipped_sorts;
    }

    /// Crossers per particle-step over the species' lifetime.
    pub fn crosser_rate(&self) -> f64 {
        if self.tally.pushed == 0 {
            0.0
        } else {
            self.tally.crossers as f64 / self.tally.pushed as f64
        }
    }

    /// Lanes spilled per lane-kernel block pushed (8 lanes per block).
    pub fn spill_rate(&self) -> f64 {
        let lanes = self.tally.lane_blocks.saturating_mul(8);
        if lanes == 0 {
            0.0
        } else {
            self.tally.lane_spills as f64 / lanes as f64
        }
    }

    /// Fraction of lane-kernel blocks whose live lanes spanned more than
    /// one voxel.
    pub fn mixed_block_fraction(&self) -> f64 {
        if self.tally.lane_blocks == 0 {
            0.0
        } else {
            self.tally.mixed_blocks as f64 / self.tally.lane_blocks as f64
        }
    }
}

/// Optimal steps-between-sorts from the amortized cost model.
///
/// Per Young/Daly: let `S = 2n + n_voxels` be the counting-sort cost in
/// particle-touch units (one counting pass + one permute pass over `n`
/// particles, one prefix-sum pass over the voxels), and let the
/// incoherence penalty grow linearly after a sort — `t` steps after
/// sorting, roughly `n · r · t` particles sit displaced from voxel order
/// (rate `r` = crossers per particle-step), each costing `C_MIX` extra.
/// Amortized cost per step of sorting every `τ` steps:
///
/// ```text
/// cost(τ) = S/τ + C_MIX · n · r · τ / 2
/// d/dτ = 0  ⇒  τ* = sqrt(2S / (C_MIX · n · r))
/// ```
///
/// A fixed f64 expression tree over exact integer inputs: every pipeline
/// count and kernel computes the same interval. A zero measured
/// rate maps to [`MAX_AUTO_INTERVAL`], not "never", so the controller keeps
/// sampling after a quiet phase.
pub fn auto_sort_interval(n_particles: u64, n_voxels: u64, rate: f64) -> u32 {
    if n_particles == 0 || rate.is_nan() || rate <= 0.0 {
        return MAX_AUTO_INTERVAL;
    }
    let n = n_particles as f64;
    let sort_cost = 2.0 * n + n_voxels as f64;
    let tau = (2.0 * sort_cost / (C_MIX * n * rate)).sqrt();
    if !tau.is_finite() {
        return MAX_AUTO_INTERVAL;
    }
    (tau as u32).clamp(MIN_AUTO_INTERVAL, MAX_AUTO_INTERVAL)
}

/// Mutable controller state for one species. Rides restart dumps
/// bit-exactly (see `checkpoint::encode_species`) so resume and rollback
/// replay the same cadence decisions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CadenceState {
    /// Current steps-between-sorts the controller is operating at.
    pub interval: u32,
    /// Steps pushed since the last (real or skipped-as-coherent) sort.
    pub steps_since_sort: u32,
    /// Crossers counted since the last real sort.
    pub crossers_since_sort: u64,
    /// Species length when coherence was last established; any change
    /// (migrant appends, absorption swap-removes) dirties the voxel order.
    pub len_at_sort: u64,
    /// True only while the store is provably in voxel order: a sort
    /// happened, and zero crossers / no length change since.
    pub coherent: bool,
    /// EWMA of the measured crossing rate (crossers per particle-step).
    pub rate: f64,
    /// Whether at least one measurement window has completed.
    pub measured: bool,
}

impl CadenceState {
    /// Fresh state for a species governed by `policy`.
    pub fn new(policy: SortPolicy) -> Self {
        CadenceState {
            interval: match policy {
                SortPolicy::Fixed(n) => n,
                SortPolicy::Auto => DEFAULT_SORT_INTERVAL,
            },
            steps_since_sort: 0,
            crossers_since_sort: 0,
            len_at_sort: 0,
            coherent: false,
            rate: 0.0,
            measured: false,
        }
    }

    /// Account one step's push telemetry. `len_after` is the species
    /// length after the push (and any migration that followed).
    pub fn note_push(&mut self, crossers: u64, len_after: u64) {
        self.steps_since_sort = self.steps_since_sort.saturating_add(1);
        self.crossers_since_sort += crossers;
        if crossers > 0 || len_after != self.len_at_sort {
            self.coherent = false;
        }
    }

    /// Whether the cadence calls for a sort at `step`. Never fires on
    /// step 0 (a fresh load has nothing to measure and loaders emit voxel
    /// order anyway), and `Fixed(0)` disables sorting entirely.
    pub fn sort_due(&self, step: u64) -> bool {
        step > 0 && self.interval > 0 && self.steps_since_sort >= self.interval
    }

    /// This step's sort vote, cast before the step's push is noted: what
    /// [`sort_due`](Self::sort_due) will return on the next step once
    /// [`note_push`](Self::note_push) has run.
    pub fn due_after_push(&self) -> bool {
        self.interval > 0 && self.steps_since_sort.saturating_add(1) >= self.interval
    }

    /// Another rank voted its copy of this species due: bring this
    /// rank's sort forward to the same next step by lowering the interval
    /// to the steps that will have passed by then. Only the phase moves —
    /// that sort re-solves the interval. A no-op when this rank is due
    /// already or sorting is off (`Fixed(0)`).
    pub fn join_sort(&mut self) {
        if self.interval > 0 && !self.due_after_push() {
            self.interval = self.steps_since_sort + 1;
        }
    }

    /// A real sort just ran: close the measurement window, fold the window
    /// rate into the EWMA, re-solve the interval under `policy`, and mark
    /// the store coherent.
    pub fn on_sorted(&mut self, policy: SortPolicy, len: u64, n_voxels: u64) {
        if self.steps_since_sort > 0 && len > 0 {
            let window =
                self.crossers_since_sort as f64 / (self.steps_since_sort as f64 * len as f64);
            self.fold_rate(window);
        }
        self.retune(policy, len, n_voxels);
        self.steps_since_sort = 0;
        self.crossers_since_sort = 0;
        self.len_at_sort = len;
        self.coherent = true;
    }

    /// A cadence-due sort was skipped because the store is provably still
    /// coherent. Treat it as a virtual sort with a measured rate of zero:
    /// reset the window (so the cadence keeps its phase) and let the EWMA
    /// decay toward quiescence.
    pub fn on_skipped(&mut self, policy: SortPolicy, len: u64, n_voxels: u64) {
        self.fold_rate(0.0);
        self.retune(policy, len, n_voxels);
        self.steps_since_sort = 0;
        self.crossers_since_sort = 0;
        self.len_at_sort = len;
    }

    fn fold_rate(&mut self, window: f64) {
        self.rate = if self.measured {
            RATE_ALPHA * window + (1.0 - RATE_ALPHA) * self.rate
        } else {
            window
        };
        self.measured = true;
    }

    fn retune(&mut self, policy: SortPolicy, len: u64, n_voxels: u64) {
        self.interval = match policy {
            SortPolicy::Fixed(n) => n,
            SortPolicy::Auto => auto_sort_interval(len, n_voxels, self.rate),
        };
    }
}

impl Default for CadenceState {
    fn default() -> Self {
        CadenceState::new(SortPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_auto_and_fixed() {
        assert_eq!(SortPolicy::parse("auto"), Some(SortPolicy::Auto));
        assert_eq!(SortPolicy::parse("\"auto\""), Some(SortPolicy::Auto));
        assert_eq!(SortPolicy::parse("25"), Some(SortPolicy::Fixed(25)));
        assert_eq!(SortPolicy::parse("0"), Some(SortPolicy::Fixed(0)));
        assert_eq!(SortPolicy::parse("-3"), None);
        assert_eq!(SortPolicy::parse("fast"), None);
        assert_eq!(SortPolicy::Auto.name(), "auto");
        assert_eq!(SortPolicy::Fixed(25).name(), "fixed-25");
    }

    #[test]
    fn solver_clamps_and_is_monotone_in_rate() {
        // Quiescent species: ceiling.
        assert_eq!(auto_sort_interval(1000, 64, 0.0), MAX_AUTO_INTERVAL);
        assert_eq!(auto_sort_interval(0, 64, 0.5), MAX_AUTO_INTERVAL);
        assert_eq!(auto_sort_interval(1000, 64, f64::NAN), MAX_AUTO_INTERVAL);
        // Fully scrambled: floor.
        assert_eq!(auto_sort_interval(1000, 64, 1.0), MIN_AUTO_INTERVAL);
        // Higher rate never lengthens the interval.
        let mut prev = u32::MAX;
        for i in 1..=20 {
            let r = i as f64 / 20.0;
            let tau = auto_sort_interval(100_000, 4096, r);
            assert!(tau <= prev, "rate {r}: {tau} > {prev}");
            prev = tau;
        }
    }

    #[test]
    fn solver_matches_closed_form() {
        // n = 10_000, n_voxels = 1_000, r = 0.01:
        // S = 21_000, tau = sqrt(2*21000/(10000*0.01)) = sqrt(420) ≈ 20.49
        assert_eq!(auto_sort_interval(10_000, 1_000, 0.01), 20);
    }

    #[test]
    fn solver_is_bit_stable() {
        // Same inputs, same output — run it a few times to make the
        // determinism claim executable, not just asserted.
        let a = auto_sort_interval(123_456, 8_192, 0.003);
        for _ in 0..100 {
            assert_eq!(auto_sort_interval(123_456, 8_192, 0.003), a);
        }
    }

    #[test]
    fn cadence_never_fires_on_step_zero() {
        let st = CadenceState::new(SortPolicy::Fixed(1));
        assert!(!st.sort_due(0));
    }

    #[test]
    fn fixed_cadence_fires_every_n_steps() {
        let policy = SortPolicy::Fixed(3);
        let mut st = CadenceState::new(policy);
        let mut sorted_at = Vec::new();
        for step in 0..10u64 {
            if st.sort_due(step) {
                st.on_sorted(policy, 100, 64);
                sorted_at.push(step);
            }
            st.note_push(5, 100);
        }
        assert_eq!(sorted_at, vec![3, 6, 9]);
    }

    #[test]
    fn fixed_zero_never_sorts() {
        let mut st = CadenceState::new(SortPolicy::Fixed(0));
        for step in 0..100u64 {
            assert!(!st.sort_due(step));
            st.note_push(50, 100);
        }
    }

    #[test]
    fn vote_predicts_the_next_steps_sort_due() {
        for policy in [SortPolicy::Fixed(3), SortPolicy::Fixed(0), SortPolicy::Auto] {
            let mut st = CadenceState::new(policy);
            for step in 0..60u64 {
                if st.sort_due(step) {
                    st.on_sorted(policy, 100, 64);
                }
                let vote = st.due_after_push();
                st.note_push(5, 100);
                assert_eq!(vote, st.sort_due(step + 1), "{policy} at step {step}");
            }
        }
    }

    #[test]
    fn joining_a_sort_moves_only_the_phase() {
        let policy = SortPolicy::Auto;
        let mut st = CadenceState::new(policy);
        for _ in 0..3 {
            st.note_push(5, 100);
        }
        assert!(!st.due_after_push());
        st.join_sort();
        assert_eq!(st.interval, 4);
        assert!(st.due_after_push());
        st.note_push(5, 100);
        assert!(st.sort_due(4));
        // The sort re-solves the interval from the measured rate.
        st.on_sorted(policy, 100, 64);
        assert_eq!(st.interval, auto_sort_interval(100, 64, st.rate));

        // Already due, or never sorting: nothing moves.
        let mut due = CadenceState::new(SortPolicy::Fixed(1));
        due.join_sort();
        assert_eq!(due.interval, 1);
        let mut off = CadenceState::new(SortPolicy::Fixed(0));
        off.join_sort();
        assert_eq!(off.interval, 0);
    }

    #[test]
    fn coherence_survives_quiet_pushes_and_dies_on_crossers() {
        let policy = SortPolicy::Fixed(2);
        let mut st = CadenceState::new(policy);
        st.on_sorted(policy, 100, 64);
        assert!(st.coherent);
        st.note_push(0, 100);
        assert!(st.coherent, "zero crossers, same len: still coherent");
        st.note_push(1, 100);
        assert!(!st.coherent, "a crosser dirties the order");
    }

    #[test]
    fn coherence_dies_on_length_change() {
        let policy = SortPolicy::Fixed(2);
        let mut st = CadenceState::new(policy);
        st.on_sorted(policy, 100, 64);
        st.note_push(0, 101); // a migrant appended
        assert!(!st.coherent);
    }

    #[test]
    fn skip_keeps_phase_and_decays_rate() {
        let policy = SortPolicy::Auto;
        let mut st = CadenceState::new(policy);
        st.on_sorted(policy, 1000, 64);
        // One noisy window.
        for _ in 0..10 {
            st.note_push(20, 1000);
        }
        st.on_sorted(policy, 1000, 64);
        let rate_after_window = st.rate;
        assert!(rate_after_window > 0.0);
        // A coherent skip folds a zero window: rate halves.
        st.on_skipped(policy, 1000, 64);
        assert_eq!(st.rate, rate_after_window * 0.5);
        assert_eq!(st.steps_since_sort, 0);
    }

    #[test]
    fn auto_converges_on_steady_rate() {
        let policy = SortPolicy::Auto;
        let mut st = CadenceState::new(policy);
        let (len, voxels) = (100_000u64, 4_096u64);
        let rate = 0.002; // crossers per particle-step
        let mut last = Vec::new();
        let mut step = 0u64;
        for _ in 0..40 {
            // Run one window at the current interval, then sort.
            for _ in 0..st.interval.max(1) {
                step += 1;
                st.note_push((rate * len as f64) as u64, len);
            }
            st.sort_due(step);
            st.on_sorted(policy, len, voxels);
            last.push(st.interval);
        }
        let tail = &last[last.len() - 5..];
        assert!(
            tail.windows(2).all(|w| w[0] == w[1]),
            "cadence should stabilize, got {tail:?}"
        );
        let expected = auto_sort_interval(len, voxels, rate);
        let got = *tail.last().unwrap();
        assert!(
            got.abs_diff(expected) <= 1,
            "converged interval {got} far from closed form {expected}"
        );
    }

    #[test]
    fn counters_roundtrip_and_merge() {
        let a = CoherenceCounters {
            tally: PushTally {
                pushed: 1000,
                crossers: 17,
                lane_blocks: 125,
                lane_spills: 9,
                mixed_blocks: 3,
                straddle_lanes: 8,
            },
            sorts: 4,
            skipped_sorts: 2,
        };
        let v = a.to_vec();
        assert_eq!(v.len(), CoherenceCounters::LEN);
        assert_eq!(CoherenceCounters::from_vec(&v), a);
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.tally.pushed, 2000);
        assert_eq!(b.sorts, 8);
        assert!((a.crosser_rate() - 0.017).abs() < 1e-12);
        assert!((a.spill_rate() - 9.0 / 1000.0).abs() < 1e-12);
        assert!((a.mixed_block_fraction() - 3.0 / 125.0).abs() < 1e-12);
    }

    #[test]
    fn tally_absorb_sums_fields() {
        let mut a = PushTally {
            pushed: 1,
            crossers: 2,
            lane_blocks: 3,
            lane_spills: 4,
            mixed_blocks: 5,
            straddle_lanes: 6,
        };
        a.absorb(&a.clone());
        assert_eq!(
            a,
            PushTally {
                pushed: 2,
                crossers: 4,
                lane_blocks: 6,
                lane_spills: 8,
                mixed_blocks: 10,
                straddle_lanes: 12,
            }
        );
    }
}
