//! # nanompi
//!
//! An in-process message-passing substrate standing in for the MPI layer
//! VPIC used on Roadrunner. Ranks are OS threads; point-to-point messages
//! travel over per-pair channels with MPI-like (source, tag) matching;
//! collectives (barrier, allgather, allreduce) run over the same channels.
//!
//! Every application byte sent is counted per rank pair, so the distributed
//! PIC's real communication volume can be measured and fed to the Roadrunner
//! performance model (`roadrunner-model`), mirroring how the paper's
//! authors validated their analytic model against measured traffic.
//!
//! The substrate is fault-aware: operations return [`CommError`] instead of
//! hanging or panicking when a peer dies, a [`FaultPlan`] can inject
//! deterministic message faults and rank kills for resilience testing, and
//! [`Comm::recover`] rendezvouses the world onto a fresh epoch so a
//! campaign can roll back to a checkpoint and resume.
//!
//! ```
//! let (results, traffic) = nanompi::run_expect(4, |comm| {
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(right, 7, comm.rank() as u64).unwrap();
//!     let from_left: u64 = comm.recv(left, 7).unwrap();
//!     comm.allreduce_sum(from_left as f64).unwrap()
//! });
//! assert!(results.iter().all(|&r| r == 6.0)); // 0+1+2+3
//! assert_eq!(traffic.total_messages, 4);
//! ```

mod cart;
pub mod comm;
pub mod fault;
pub mod socket;
pub mod transport;
pub mod wire;

pub use cart::CartTopology;
pub use comm::{
    run, run_expect, run_with_faults, Comm, CommError, RankPanic, TrafficReport, DEFAULT_OP_TIMEOUT,
};
pub use fault::{FaultKind, FaultPlan, FaultRule, PartitionRule, Trigger};
pub use socket::{
    run_socket, run_socket_world, BootstrapError, SocketAddrSpec, SocketBoot, WIRE_VERSION,
};
pub use transport::{TagTraffic, TransportKind};
pub use wire::{Wire, WireReader};
