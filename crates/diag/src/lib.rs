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
//! * [`pipeline`] — the off-hot-path snapshot pipeline: a bounded-queue
//!   worker consuming deterministic [`DiagSnapshot`]s, with the sync
//!   inline path kept as the bit-identity oracle.

pub mod dump;
pub mod fft;
pub mod histogram;
pub mod pipeline;
pub mod poynting;
pub mod recorder;
pub mod spectrogram;

pub use dump::{write_field_line_x, write_series, EnergyLogger};
pub use fft::{dominant_frequency, fft_inplace, growth_rate, power_spectrum};
pub use histogram::{momentum_histogram, momentum_spread, tail_fraction, Histogram};
pub use pipeline::{
    backscatter_spectrum_of, parse_progress, spectrum_peak, Backpressure, DiagConfig, DiagEngine,
    DiagMode, DiagPipeline, DiagSink, DiagSnapshot, DiagStats, EngineState,
};
pub use poynting::{poynting_x, wave_split_x, ReflectivityProbe};
pub use recorder::TimeSeries;
pub use spectrogram::Spectrogram;
