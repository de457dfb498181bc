//! # vpic-lpi
//!
//! Laser–plasma interaction workloads for the VPIC reproduction — the
//! physics campaign of the SC'08 paper (stimulated Raman backscatter of a
//! laser in a hohlraum-like plasma) reduced to laptop-scale quasi-1D runs
//! that exercise identical code paths.
//!
//! * [`laser`] — current-sheet antenna injection;
//! * [`profile`] — slab density profiles;
//! * [`srs`] — SRS linear theory (matching, growth, Landau damping, gain);
//! * [`three_wave`] — fluid coupled-mode baseline (no trapping physics);
//! * [`setup`] — assembled [`setup::LpiRun`] with reflectivity probe;
//! * [`campaign`] — the run on `vpic-parallel`'s fault-tolerant campaign
//!   ladder as a one-rank world (sentinel, checkpoints, rollback, graceful
//!   degradation).

pub mod campaign;
pub mod laser;
pub mod profile;
pub mod setup;
pub mod srs;
pub mod sweep;
pub mod three_wave;

pub use campaign::{
    run_lpi_campaign, run_lpi_campaign_with, LpiCampaignConfig, LpiCampaignEnd, LpiCampaignOutcome,
};
pub use laser::{LaserAntenna, Polarization};
pub use profile::SlabProfile;
pub use setup::{LpiParams, LpiRun};
pub use srs::{srs_match, SrsMatch};
pub use sweep::{
    ReflectivityCurve, SweepConfig, SweepEnd, SweepError, SweepGrid, SweepKillPlan, SweepOutcome,
    SweepPoint, SweepProgress, SweepRunner,
};
pub use three_wave::{reflectivity_curve, tang_reflectivity, ThreeWaveModel, ThreeWaveResult};
