//! # vpic-core
//!
//! A from-scratch Rust reproduction of the VPIC kinetic plasma simulation
//! core — the three-dimensional, relativistic, electromagnetic
//! particle-in-cell code whose Roadrunner runs are reported in
//! *"0.374 Pflop/s trillion-particle kinetic modeling of laser plasma
//! interaction on Roadrunner"* (Bowers et al., SC 2008).
//!
//! The crate provides the single-domain engine:
//!
//! * [`grid::Grid`] — Yee mesh with ghost ring, voxel indexing and
//!   particle boundary topology;
//! * [`field::FieldArray`] + [`field_solver`] — explicit FDTD Maxwell
//!   solver with periodic/PEC boundaries and Marder divergence cleaning;
//! * [`interpolator::InterpolatorArray`] — per-voxel energy-conserving
//!   interpolation coefficients (VPIC's 18-float interpolator);
//! * [`push`] — the relativistic Boris push with charge-conserving
//!   (Villasenor–Buneman) current deposition and `move_p` cell-crossing
//!   segmentation;
//! * [`accumulator`] — per-pipeline current accumulators;
//! * [`sort`] — voxel-order counting sort;
//! * [`maxwellian`] — plasma loading;
//! * [`sim::Simulation`] — the step driver with per-phase timings;
//! * [`sponge`], [`checkpoint`], [`rng`] — open-boundary damping layers,
//!   restart dumps and deterministic RNG.
//!
//! Distributed (multi-domain) runs live in the `vpic-parallel` crate;
//! laser–plasma workloads in `vpic-lpi`.
//!
//! ## Units
//!
//! The engine is unit-agnostic; the normalized convention used throughout
//! the workspace is `c = ε0 = μ0 = 1`, electron charge `−1`, electron
//! mass `1`, so a density `n` gives plasma frequency `ωpe = √n`.
//! Magnetic storage is `cB` (VPIC convention) and particle momentum is
//! `u = p/(mc)`.

pub mod accumulator;
pub mod aosoa;
pub mod cadence;
pub mod checkpoint;
pub mod crc32;
pub mod deposit;
pub mod field;
pub mod field_solver;
pub mod grid;
pub mod interpolator;
pub mod journal;
pub mod juttner;
pub mod lanes;
pub mod maxwellian;
pub mod particle;
pub mod push;
pub mod queue;
pub mod rng;
pub mod sentinel;
pub mod sim;
pub mod sort;
pub mod species;
pub mod sponge;
pub mod threads;
pub mod units;
mod zeroed;

pub use accumulator::{Accumulator, AccumulatorArray, AccumulatorSet};
pub use aosoa::{
    advance_p_aosoa, sort_aosoa_with, AosoaStore, Block, Layout, SortBuffers, LANES, SORT_WINDOW,
};
pub use cadence::{
    auto_sort_interval, CadenceState, CoherenceCounters, PushTally, SortPolicy,
    DEFAULT_SORT_INTERVAL, MAX_AUTO_INTERVAL, MIN_AUTO_INTERVAL,
};
pub use checkpoint::CheckpointError;
pub use crc32::{crc32, Crc32};
pub use field::FieldArray;
pub use field_solver::FieldBc;
pub use grid::{Grid, ParticleBc};
pub use interpolator::{Interpolator, InterpolatorArray};
pub use journal::{Journal, JournalError, ReplayReport};
pub use juttner::{load_juttner, sample_juttner, sample_juttner_u};
pub use lanes::{transpose8, F32x8, Mask8};
pub use maxwellian::{
    load_profile, load_profile_serial, load_two_stream, load_uniform, Momentum, LOAD_CHUNK,
};
pub use particle::{Mover, Particle};
pub use push::{
    advance_p, advance_p_aos, advance_p_serial, advance_p_tallied, move_p_local, Exile,
    MoveOutcome, PushCoefficients, PushKernel,
};
pub use queue::{
    Job, JobEvent, JobLog, JobLogError, JobQueue, JobState, QueueError, QueueStats, RetryPolicy,
};
pub use rng::Rng;
pub use sentinel::{
    classify, validate_cfl, AnomalyKind, CorruptionEvent, CorruptionMode, CorruptionPlan,
    FlightRecorder, HealEvent, HealthSample, HealthVerdict, Sentinel, SentinelConfig, SimConfig,
};
pub use sim::{EnergySnapshot, Simulation, StepTimings};
pub use sort::{sort_by_voxel, sort_by_voxel_with};
pub use species::Species;
pub use sponge::Sponge;
pub use threads::{with_worker_threads, worker_threads};
pub use units::LabFrame;
