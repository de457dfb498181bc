//! # vpic-bench
//!
//! The paper-figure regenerators: one binary per table and figure of
//! the SC'08 VPIC paper's evaluation (experiment index in `DESIGN.md`,
//! paper vs. measured record in `EXPERIMENTS.md`). They print tables;
//! the harness of record, and every perf gate, is `benchmark/` at the
//! repo root (README "Measuring performance").
//!
//! | bin | reproduces |
//! |-----|------------|
//! | `e1_inner_loop` | inner-loop particle advance rate (0.488 Pflop/s anchor) |
//! | `e2_step_breakdown` | sustained vs inner loop (0.374/0.488 ≈ 77%) |
//! | `e3_weak_scaling` | weak scaling across ranks + CU extrapolation |
//! | `e4_strong_scaling` | strong scaling at fixed global problem |
//! | `e5_reflectivity` | reflectivity vs laser intensity (headline physics) |
//! | `e6_trapping` | trapped-particle distribution tails |
//! | `e7_machine_projection` | trillion-particle machine projection table |
//! | `e8_ablations` | layout / sort-interval / pipeline ablations |
//! | `e9_validation` | fidelity battery vs analytic theory |
//! | `e10_data_motion` | bytes-per-flop vs LINPACK/N-body/Monte-Carlo |
//!
//! Every binary accepts `--full` for a larger (longer) configuration,
//! prints self-contained tables to stdout, and exits 2 on a flag it does
//! not read ([`known_flags`]) or a value it cannot parse ([`parse_opt`]).

pub mod datamotion;
pub mod util;

pub use util::{known_flags, parse_flag, parse_opt, print_table, time_it, uniform_plasma};
