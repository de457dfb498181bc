//! Crash-proof reflectivity-sweep service.
//!
//! The paper's headline deliverable is not one run but a *curve*:
//! SRS backscatter reflectivity as a function of laser intensity,
//! density and electron temperature (Fig. 4 territory). This module
//! turns that campaign of campaigns into a service that survives being
//! killed at any instant:
//!
//! * [`grid::SweepGrid`] — templates the base deck over an
//!   `(a0, n/ncr, vth)` grid; every grid point is a job with a stable
//!   id and a spec fingerprint.
//! * [`scheduler::SweepRunner`] — drives jobs through the
//!   fault-tolerant [`crate::campaign`] runtime, journaling every job
//!   transition (`Pending → Running → Done | Failed | Quarantined`) to a
//!   write-ahead log (`vpic_core::journal`) *before* acting on it. A
//!   restarted runner replays the log, releases the jobs its predecessor
//!   died running without charging an attempt, and resumes each from its
//!   last certified checkpoint — the finished curve is **bit-identical**
//!   with an unkilled sweep's.
//! * A failed attempt is retried once no job is pending
//!   ([`vpic_core::queue::JobQueue::next_ready`]); a job that fails
//!   `max_attempts` times ([`vpic_core::queue::RetryPolicy`]) is
//!   quarantined (its flight recorder and
//!   partial dump are already on disk in the job's checkpoint
//!   directory) and the sweep completes over the surviving points.
//! * [`curve::ReflectivityCurve`] — exactly-once aggregation: the curve
//!   is folded only from `Done` journal records, in job-id order, and
//!   written atomically as `reflectivity_curve.json` next to a
//!   `vpic-bench/sweep/v1` service-level record.

pub mod curve;
pub mod grid;
pub mod scheduler;

pub use curve::{
    parse_curve_reflectivities, CurvePoint, PartialCurve, PartialPoint, PartialStatus, PointResult,
    ReflectivityCurve, PARTIAL_CURVE_SCHEMA, SWEEP_BENCH_SCHEMA,
};
pub use grid::{SweepGrid, SweepPoint};
pub use scheduler::{
    SweepConfig, SweepEnd, SweepError, SweepKillPlan, SweepOutcome, SweepProgress, SweepRunner,
    BENCH_NAME, CURVE_NAME, PARTIAL_NAME, WAL_NAME,
};
