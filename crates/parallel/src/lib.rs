//! # vpic-parallel
//!
//! Domain-decomposed distributed PIC on top of [`nanompi`] — the
//! reproduction of VPIC's MPI layer from the SC'08 Roadrunner paper.
//! A global brick of cells is split uniformly over a Cartesian rank
//! topology; each rank runs the `vpic-core` engine on its sub-domain and
//! this crate supplies the three things that stitch domains together:
//!
//! * [`exchange::GhostExchanger`] — field ghost-plane exchange after every
//!   Maxwell sub-update and current folding after deposition;
//! * [`migrate`] — particles that leave a domain mid-move are shipped with
//!   their unfinished mover and *continue the same move* on the receiving
//!   rank, so charge conservation is exact across boundaries;
//! * [`dsim::DistributedSim`] — the per-rank driver with phase timings,
//!   global reductions and reproducible per-rank particle loading;
//! * [`campaign`] — the fault-tolerant campaign runtime, one ladder for
//!   every [`campaign::CampaignSim`] (a distributed rank here, the serial
//!   LPI run in `vpic-lpi`): periodic CRC-protected (optionally
//!   compressed and write-throttled) checkpoints on a fixed or
//!   Young/Daly-auto schedule, global health checks, and automatic
//!   whole-world rollback recovery with bounded retries and graceful
//!   degradation;
//! * [`sweepjob`] — distributed campaigns as WAL-journaled sweep jobs,
//!   sharing the reflectivity-sweep service's job log
//!   (`vpic_core::queue::JobLog`: leases, retry/backoff, quarantine,
//!   exactly-once results).

pub mod campaign;
pub mod dcheckpoint;
pub mod decomposition;
pub mod dsim;
pub mod exchange;
pub mod migrate;
pub mod sweepjob;

pub use campaign::{
    run_campaign, run_campaign_from, run_campaign_with, CampaignConfig, CampaignDrive, CampaignEnd,
    CampaignError, CampaignOutcome, CampaignSim, CheckpointPolicy, DrivenSim, RecoveryEvent, Start,
};
pub use dcheckpoint::{dump_rank_bytes, load_rank, load_rank_from_path, save_rank_to_path};
pub use decomposition::{spec_fingerprint, DomainSpec};
pub use dsim::DistributedSim;
pub use exchange::GhostExchanger;
pub use migrate::{migrate_species, transform_to_receiver, Migrant};
pub use sweepjob::{JobJournal, JobResult, JobVerdict};
