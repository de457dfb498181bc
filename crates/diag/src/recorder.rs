//! Time-series recording of scalar diagnostics (energies, field probes)
//! with frequency/growth-rate extraction.

use crate::fft::{dominant_frequency, growth_rate};

/// A named scalar time series sampled every `dt`, with optional
/// windowed retention for long campaigns.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    pub name: String,
    pub dt: f64,
    /// Retained samples — the newest window when a cap is set.
    pub samples: Vec<f64>,
    /// Retention cap in samples; 0 means unbounded. See [`Self::push`]
    /// for the retention rule.
    pub cap: usize,
    /// Samples discarded by windowed retention (so `total_pushed` stays
    /// exact across checkpoints: both fields ride the sidecar).
    pub discarded: u64,
}

impl TimeSeries {
    /// Empty unbounded series.
    pub fn new(name: impl Into<String>, dt: f64) -> Self {
        TimeSeries {
            name: name.into(),
            dt,
            samples: Vec::new(),
            cap: 0,
            discarded: 0,
        }
    }

    /// Same series with a retention cap (0 = unbounded).
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = cap;
        self
    }

    /// Append a sample. Retention rule: when the series holds `cap`
    /// samples, the oldest `max(cap/4, 1)` are discarded in one block
    /// (amortized O(1)) before the append, keeping the newest window.
    /// Spectra/fits are computed over the retained window; shipped
    /// decks stay far below the default cap, so their artifacts are
    /// unchanged by retention.
    pub fn push(&mut self, v: f64) {
        if self.cap > 0 && self.samples.len() >= self.cap {
            let drop = (self.cap / 4).max(1);
            self.samples.drain(..drop);
            self.discarded += drop as u64;
        }
        self.samples.push(v);
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Samples ever pushed (retained + discarded).
    pub fn total_pushed(&self) -> u64 {
        self.discarded + self.samples.len() as u64
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Min and max over the whole series.
    pub fn min_max(&self) -> (f64, f64) {
        self.samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }

    /// Dominant angular frequency (mean removed first so the DC component
    /// doesn't mask the physics).
    pub fn dominant_omega(&self) -> f64 {
        let mean = self.samples.iter().sum::<f64>() / self.samples.len().max(1) as f64;
        let centered: Vec<f64> = self.samples.iter().map(|v| v - mean).collect();
        dominant_frequency(&centered, self.dt).1
    }

    /// Exponential growth rate (per unit time) fit over the sample index
    /// range `[a, b)`.
    pub fn growth_rate_in(&self, a: usize, b: usize) -> f64 {
        let b = b.min(self.samples.len());
        if a >= b {
            return 0.0;
        }
        growth_rate(&self.samples[a..b]) / self.dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_and_range() {
        let mut ts = TimeSeries::new("x", 0.1);
        for i in 0..10 {
            ts.push(i as f64);
        }
        assert_eq!(ts.len(), 10);
        assert!(!ts.is_empty());
        assert_eq!(ts.min_max(), (0.0, 9.0));
    }

    #[test]
    fn capped_series_keeps_newest_window() {
        let mut ts = TimeSeries::new("cap", 1.0).with_cap(8);
        for i in 0..8 {
            ts.push(i as f64);
        }
        assert_eq!(ts.discarded, 0);
        // Ninth push evicts the oldest cap/4 = 2 samples in one block.
        ts.push(8.0);
        assert_eq!(ts.len(), 7);
        assert_eq!(ts.discarded, 2);
        assert_eq!(ts.total_pushed(), 9);
        assert_eq!(ts.samples.first().copied(), Some(2.0));
        assert_eq!(ts.samples.last().copied(), Some(8.0));
        for i in 9..100 {
            ts.push(i as f64);
        }
        assert!(ts.len() <= 8);
        assert_eq!(ts.total_pushed(), 100);
        assert_eq!(ts.samples.last().copied(), Some(99.0));
        // Uncapped series never discards.
        let mut open = TimeSeries::new("open", 1.0);
        for i in 0..100 {
            open.push(i as f64);
        }
        assert_eq!(open.len(), 100);
        assert_eq!(open.discarded, 0);
    }

    #[test]
    fn oscillation_frequency_recovered() {
        let dt = 0.05;
        let omega = 3.0;
        let mut ts = TimeSeries::new("osc", dt);
        for i in 0..512 {
            ts.push(5.0 + (omega * i as f64 * dt).sin());
        }
        let got = ts.dominant_omega();
        assert!((got - omega).abs() / omega < 0.05, "got {got}");
    }

    #[test]
    fn growth_rate_window() {
        let dt = 0.2;
        let gamma = 0.5; // per unit time
        let mut ts = TimeSeries::new("g", dt);
        for i in 0..100 {
            ts.push(1e-8 * (gamma * i as f64 * dt).exp());
        }
        let got = ts.growth_rate_in(10, 90);
        assert!((got - gamma).abs() < 1e-6, "got {got}");
    }
}
