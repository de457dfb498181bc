//! # vpic-diag
//!
//! Diagnostics for PIC runs: the instruments the SC'08 paper's evaluation
//! relies on.
//!
//! * [`fft`] — from-scratch radix-2 FFT, power spectra, dominant-frequency
//!   and growth-rate extraction;
//! * [`poynting`] — Poynting flux and forward/backward wave decomposition
//!   (the laser reflectivity probe of the paper's parameter study);
//! * [`histogram`] — weighted momentum distributions and trapping
//!   metrics (hot-tail fraction, momentum spread);
//! * [`recorder`] — scalar time series with ω and growth-rate fits;
//! * [`pipeline`] — in-situ reduction: the step loop publishes
//!   deterministic [`DiagSnapshot`]s and one [`DiagEngine`] ingests them
//!   inline; the run's `progress.json` reports its own probe and series
//!   beside the engine's reduction of a heavy snapshot built where the
//!   file is written.

pub mod dump;
pub mod fft;
pub mod histogram;
pub mod pipeline;
pub mod poynting;
pub mod recorder;

pub use dump::{write_field_line_x, write_series, EnergyLogger};
pub use fft::{dominant_frequency, fft_inplace, growth_rate, power_spectrum};
pub use histogram::{momentum_histogram, momentum_spread, tail_fraction, Histogram};
pub use pipeline::{
    backscatter_spectrum_of, parse_progress, spectrum_peak, DiagConfig, DiagEngine, DiagMode,
    DiagSink, DiagSnapshot, DiagStats,
};
pub use poynting::{poynting_x, wave_split_x, ReflectivityProbe};
pub use recorder::TimeSeries;
