//! Short-time Fourier transform (spectrogram) of a scalar time series —
//! the "streaked spectrum" diagnostic LPI papers (including the VPIC
//! group's) use to show backscatter bursts: frequency content vs time.

use crate::fft::fft_inplace;

/// A computed spectrogram: power in `frames × bins` layout.
#[derive(Clone, Debug)]
pub struct Spectrogram {
    /// Center time of each frame (same units as the input `dt`).
    pub times: Vec<f64>,
    /// Angular frequency of each bin.
    pub omegas: Vec<f64>,
    /// `power[frame][bin]`.
    pub power: Vec<Vec<f64>>,
}

impl Spectrogram {
    /// Compute with Hann-windowed frames of `window` samples (rounded up
    /// to a power of two) advancing by `hop` samples.
    pub fn compute(samples: &[f64], dt: f64, window: usize, hop: usize) -> Self {
        assert!(window >= 4 && hop >= 1 && dt > 0.0);
        let n = window.next_power_of_two();
        let omegas: Vec<f64> = (0..=n / 2)
            .map(|k| 2.0 * std::f64::consts::PI * k as f64 / (n as f64 * dt))
            .collect();
        let hann: Vec<f64> = (0..window)
            .map(|i| {
                0.5 * (1.0
                    - (2.0 * std::f64::consts::PI * i as f64 / (window - 1).max(1) as f64).cos())
            })
            .collect();
        let mut times = Vec::new();
        let mut power = Vec::new();
        let mut start = 0usize;
        while start + window <= samples.len() {
            let mut re = vec![0.0f64; n];
            let mut im = vec![0.0f64; n];
            for i in 0..window {
                re[i] = samples[start + i] * hann[i];
            }
            fft_inplace(&mut re, &mut im, false);
            power.push((0..=n / 2).map(|k| re[k] * re[k] + im[k] * im[k]).collect());
            times.push((start as f64 + window as f64 / 2.0) * dt);
            start += hop;
        }
        Spectrogram {
            times,
            omegas,
            power,
        }
    }

    /// Frequency of the strongest nonzero bin in frame `f`.
    pub fn peak_omega(&self, f: usize) -> f64 {
        let frame = &self.power[f];
        let best = (1..frame.len()).max_by(|&a, &b| frame[a].partial_cmp(&frame[b]).unwrap());
        best.map(|b| self.omegas[b]).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chirp_is_tracked_in_time() {
        // A two-tone signal: ω = 2 for the first half, ω = 6 after.
        let dt = 0.05;
        let n = 4096;
        let samples: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                if i < n / 2 {
                    (2.0 * t).sin()
                } else {
                    (6.0 * t).sin()
                }
            })
            .collect();
        let sg = Spectrogram::compute(&samples, dt, 256, 128);
        assert!(sg.power.len() > 10);
        let early = sg.peak_omega(0);
        let late = sg.peak_omega(sg.power.len() - 1);
        assert!((early - 2.0).abs() < 0.3, "early peak {early}");
        assert!((late - 6.0).abs() < 0.3, "late peak {late}");
    }

    #[test]
    fn frame_times_advance_by_hop() {
        let samples = vec![0.0; 1000];
        let sg = Spectrogram::compute(&samples, 0.1, 128, 64);
        for w in sg.times.windows(2) {
            assert!((w[1] - w[0] - 6.4).abs() < 1e-9);
        }
        assert_eq!(sg.omegas.len(), 65);
    }
}
