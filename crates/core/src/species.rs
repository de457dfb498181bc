//! A particle species: charge, mass and its macroparticle storage, an
//! [`AosoaStore`] of 8-lane blocks (the layout the lane kernel runs on).

use crate::aosoa::{sort_aosoa_with, AosoaStore, SortBuffers};
use crate::cadence::{CadenceState, CoherenceCounters, PushTally, SortPolicy};
use crate::grid::Grid;
use crate::particle::Particle;
use crate::push::Exile;

/// One kinetic species (e.g. electrons, helium ions).
#[derive(Clone, Debug)]
pub struct Species {
    /// Display name.
    pub name: String,
    /// Charge per physical particle (electron = −1 in normalized units).
    pub q: f32,
    /// Mass per physical particle (electron = 1 in normalized units).
    pub m: f32,
    /// When to counting-sort back into voxel order: a fixed interval
    /// (VPIC defaults to a few tens of steps; 0 = never) or the adaptive
    /// cadence controller.
    pub sort_policy: SortPolicy,
    /// Cadence controller state (rides checkpoints bit-exactly).
    cadence: CadenceState,
    /// Lifetime coherence telemetry (crossers, spills, mixed blocks,
    /// sorts performed/skipped).
    counters: CoherenceCounters,
    /// Macroparticles.
    store: AosoaStore,
    /// Persistent sort histograms, window buffers and far lists, so
    /// steady-state sorting allocates nothing (see [`sort_aosoa_with`]).
    sort_buffers: SortBuffers,
}

impl Species {
    /// New empty species.
    pub fn new(name: impl Into<String>, q: f32, m: f32) -> Self {
        assert!(m > 0.0, "mass must be positive");
        let sort_policy = SortPolicy::default();
        Species {
            name: name.into(),
            q,
            m,
            sort_policy,
            cadence: CadenceState::new(sort_policy),
            counters: CoherenceCounters::default(),
            store: AosoaStore::default(),
            sort_buffers: SortBuffers::default(),
        }
    }

    /// Builder-style fixed sort interval override (`0` = never sort).
    pub fn with_sort_interval(mut self, interval: usize) -> Self {
        self.set_sort_policy(SortPolicy::Fixed(interval as u32));
        self
    }

    /// Builder-style sort policy override.
    pub fn with_sort_policy(mut self, policy: SortPolicy) -> Self {
        self.set_sort_policy(policy);
        self
    }

    /// Swap the sort policy, resetting the cadence controller.
    pub fn set_sort_policy(&mut self, policy: SortPolicy) {
        self.sort_policy = policy;
        self.cadence = CadenceState::new(policy);
    }

    /// The cadence controller's current state (interval, coherence flag,
    /// measured crossing rate).
    pub fn cadence(&self) -> &CadenceState {
        &self.cadence
    }

    /// Overwrite the cadence controller state (checkpoint restore).
    pub fn set_cadence(&mut self, state: CadenceState) {
        self.cadence = state;
    }

    /// Lifetime coherence counters.
    pub fn coherence(&self) -> &CoherenceCounters {
        &self.counters
    }

    /// Overwrite the coherence counters (checkpoint restore).
    pub fn set_coherence(&mut self, counters: CoherenceCounters) {
        self.counters = counters;
    }

    /// Account one step's push telemetry to the cadence controller and
    /// the lifetime counters. Call after the push (and any migration /
    /// injection that follows it), so the length check sees the final
    /// population of the step.
    pub fn note_push_tally(&mut self, tally: &PushTally) {
        self.counters.tally.absorb(tally);
        self.cadence
            .note_push(tally.crossers, self.store.len() as u64);
    }

    /// Whether the cadence calls for a sort at `step` (never on step 0).
    pub fn sort_due(&self, step: u64) -> bool {
        self.cadence.sort_due(step)
    }

    /// Another rank's copy of this species votes to sort on the next step
    /// ([`CadenceState::due_after_push`]): sort then too
    /// ([`CadenceState::join_sort`]). Call before
    /// [`note_push_tally`](Self::note_push_tally).
    pub fn join_sort(&mut self) {
        self.cadence.join_sort();
    }

    /// Run the cadence-due sort, skipping the counting sort entirely when
    /// the store is provably still in voxel order (a sort happened, and
    /// zero crossers / no length change since — a stable counting sort of
    /// sorted input is the identity permutation, so skipping is bitwise
    /// free). Returns true when a real sort ran.
    pub fn sort_on_cadence(&mut self, g: &Grid) -> bool {
        if self.cadence.coherent {
            self.counters.skipped_sorts += 1;
            self.cadence
                .on_skipped(self.sort_policy, self.len() as u64, g.n_voxels() as u64);
            false
        } else {
            self.sort(g);
            true
        }
    }

    /// The underlying store (for the pushers and checkpoint layer).
    #[inline]
    pub fn store(&self) -> &AosoaStore {
        &self.store
    }

    /// Mutable access to the underlying store.
    #[inline]
    pub fn store_mut(&mut self) -> &mut AosoaStore {
        &mut self.store
    }

    /// Number of macroparticles.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the species holds no macroparticles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Append a macroparticle.
    #[inline]
    pub fn push(&mut self, p: Particle) {
        self.store.push(p);
    }

    /// Append every particle of `it`.
    pub fn extend(&mut self, it: impl IntoIterator<Item = Particle>) {
        for p in it {
            self.store.push(p);
        }
    }

    /// Copy out particle `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Particle {
        self.store.get(i)
    }

    /// Overwrite particle `i`.
    #[inline]
    pub fn set(&mut self, i: usize, p: Particle) {
        self.store.set(i, p);
    }

    /// Remove particle `i` by swapping in the last one; returns it.
    #[inline]
    pub fn swap_remove(&mut self, i: usize) -> Particle {
        self.store.swap_remove(i)
    }

    /// Remove the particles that left the domain; returns how many.
    pub fn remove_exiles(&mut self, exiles: &[Exile]) -> u64 {
        let mut idxs: Vec<u32> = exiles.iter().map(|e| e.idx).collect();
        // Descending order keeps pending indices valid across swap_removes.
        idxs.sort_unstable_by(|a, b| b.cmp(a));
        for idx in idxs {
            self.swap_remove(idx as usize);
        }
        exiles.len() as u64
    }

    /// Iterate particles by value in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Particle> + '_ {
        self.store.iter()
    }

    /// Copy out the canonical AoS view.
    pub fn to_particles(&self) -> Vec<Particle> {
        self.store.to_particles()
    }

    /// Replace the particle contents.
    pub fn set_particles(&mut self, parts: Vec<Particle>) {
        self.store = AosoaStore::from_particles(&parts);
    }

    /// Counting-sort the particles by voxel, in place (Rayon-parallel) —
    /// the stable permutation of the AoS oracle sort. Each worker walks
    /// its own blocks in windows of [`crate::SORT_WINDOW`] lanes through a
    /// window buffer; lanes bound outside their window wait on a far list
    /// until every window is written back. Those buffers and the
    /// histograms persist across calls: about `min(SORT_WINDOW, n /
    /// workers)` lanes per worker plus the far lanes, never a second copy
    /// of a large store ([`Species::sort_buffer_bytes`]). Closes the
    /// cadence controller's measurement window (every caller — cadence,
    /// collisions, tests — re-establishes coherence the same way, so the
    /// controller's view of the store stays truthful).
    pub fn sort(&mut self, g: &Grid) {
        sort_aosoa_with(&mut self.store, g.n_voxels(), &mut self.sort_buffers);
        self.counters.sorts += 1;
        self.cadence.on_sorted(
            self.sort_policy,
            self.store.len() as u64,
            g.n_voxels() as u64,
        );
    }

    /// Heap bytes the sort keeps between calls: histograms, window
    /// buffers and far lists (capacities).
    pub fn sort_buffer_bytes(&self) -> usize {
        self.sort_buffers.bytes()
    }

    /// Total kinetic energy `Σ w·m·c²·(γ−1)` in double precision.
    pub fn kinetic_energy(&self, g: &Grid) -> f64 {
        let mc2 = (self.m * g.cvac * g.cvac) as f64;
        mc2 * self.iter().map(|p| p.kinetic_w()).sum::<f64>()
    }

    /// Total momentum `Σ w·m·c·u` per axis in double precision.
    pub fn momentum(&self, g: &Grid) -> [f64; 3] {
        let mc = (self.m * g.cvac) as f64;
        let mut s = [0.0f64; 3];
        for p in self.iter() {
            s[0] += p.w as f64 * p.ux as f64;
            s[1] += p.w as f64 * p.uy as f64;
            s[2] += p.w as f64 * p.uz as f64;
        }
        [mc * s[0], mc * s[1], mc * s[2]]
    }

    /// Total statistical weight (number of physical particles).
    pub fn total_weight(&self) -> f64 {
        self.iter().map(|p| p.w as f64).sum()
    }

    /// Mean velocity `⟨v⟩/c` per axis (weight-averaged).
    pub fn mean_velocity(&self) -> [f64; 3] {
        let mut s = [0.0f64; 3];
        let mut wtot = 0.0f64;
        for p in self.iter() {
            let rg = 1.0 / p.gamma() as f64;
            let w = p.w as f64;
            s[0] += w * p.ux as f64 * rg;
            s[1] += w * p.uy as f64 * rg;
            s[2] += w * p.uz as f64 * rg;
            wtot += w;
        }
        if wtot > 0.0 {
            for v in &mut s {
                *v /= wtot;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_and_momentum_sums() {
        let g = Grid::periodic((2, 2, 2), (1.0, 1.0, 1.0), 0.1);
        let mut s = Species::new("e", -1.0, 1.0);
        s.push(Particle {
            ux: 3.0,
            uy: 0.0,
            uz: 4.0,
            w: 2.0,
            i: 9,
            ..Default::default()
        });
        s.push(Particle {
            ux: -1.0,
            w: 1.0,
            i: 9,
            ..Default::default()
        });
        let ke = s.kinetic_energy(&g);
        let want = 2.0 * ((26.0f64).sqrt() - 1.0) + ((2.0f64).sqrt() - 1.0);
        assert!((ke - want).abs() < 1e-6);
        let p = s.momentum(&g);
        assert!((p[0] - (2.0 * 3.0 - 1.0)).abs() < 1e-6);
        assert!((p[2] - 8.0).abs() < 1e-6);
        assert!((s.total_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_velocity_of_opposite_streams_is_zero() {
        let mut s = Species::new("e", -1.0, 1.0);
        s.push(Particle {
            ux: 0.5,
            w: 1.0,
            ..Default::default()
        });
        s.push(Particle {
            ux: -0.5,
            w: 1.0,
            ..Default::default()
        });
        let v = s.mean_velocity();
        assert!(v[0].abs() < 1e-12);
    }

    #[test]
    fn sort_orders_particles() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let mut s = Species::new("e", -1.0, 1.0);
        for i in [40u32, 7, 99, 7, 3] {
            s.push(Particle {
                i,
                ..Default::default()
            });
        }
        s.sort(&g);
        let sorted = s.to_particles();
        assert!(sorted.windows(2).all(|w| w[0].i <= w[1].i));
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }
}
