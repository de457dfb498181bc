//! # roadrunner-model
//!
//! An analytic performance model of the IBM Roadrunner supercomputer and
//! of VPIC running on it — the substitute for the machine we cannot have.
//! The SC'08 paper itself validated a Kerbyson-style analytic model
//! against measured rates and used it to reason about full-machine
//! performance; this crate reproduces that methodology:
//!
//! * [`machine`] — the 17-CU, 3060-triblade, 97920-SPE configuration;
//! * [`flops`] — static flop/byte accounting for our kernels (the basis
//!   of every Pflop/s figure the bench harness prints);
//! * [`model`] — step-time budget (push, field, ghost exchange, particle
//!   migration, PCIe staging, allreduce), weak scaling, and Pflop/s
//!   projections, calibrated either from the paper's inner-loop figure or
//!   from rates measured on the host running the benches.

pub mod campaign;
pub mod flops;
pub mod machine;
pub mod model;

pub use campaign::{young_daly_interval_seconds, young_daly_interval_steps};
pub use machine::Machine;
pub use model::{KernelRates, NodeLoad, PerfModel, StepBudget};
