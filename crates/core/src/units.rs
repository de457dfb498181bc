//! Conversions between the code's normalized units (`c = ε0 = mₑ = e = 1`,
//! time in `1/ωpe`) and laboratory units — so LPI setups can be specified
//! the way the paper does ("a 351 nm laser at 10¹⁵ W/cm² in a 0.1 n_cr,
//! 2.6 keV hohlraum plasma") and results can be quoted back in
//! experimentally meaningful numbers.

/// Physical constants (SI).
pub mod consts {
    /// Speed of light (m/s).
    pub const C: f64 = 2.997_924_58e8;
    /// Electron mass (kg).
    pub const M_E: f64 = 9.109_383_7e-31;
    /// Elementary charge (C).
    pub const Q_E: f64 = 1.602_176_63e-19;
    /// Vacuum permittivity (F/m).
    pub const EPS_0: f64 = 8.854_187_81e-12;
    /// Electron-volt (J).
    pub const EV: f64 = 1.602_176_63e-19;
}

/// A laboratory reference frame: everything derives from the laser
/// wavelength and the plasma density relative to critical.
#[derive(Clone, Copy, Debug)]
pub struct LabFrame {
    /// Laser vacuum wavelength (m).
    pub lambda0: f64,
    /// Plasma density over critical.
    pub n_over_ncr: f64,
}

impl LabFrame {
    /// NIF-like frame: 351 nm (3ω) light.
    pub fn nif(n_over_ncr: f64) -> Self {
        LabFrame {
            lambda0: 351e-9,
            n_over_ncr,
        }
    }

    /// Laser angular frequency ω0 (rad/s).
    pub fn omega0(&self) -> f64 {
        2.0 * std::f64::consts::PI * consts::C / self.lambda0
    }

    /// Critical density n_cr (m⁻³): `ε0 mₑ ω0²/e²`.
    pub fn n_critical(&self) -> f64 {
        consts::EPS_0 * consts::M_E * self.omega0().powi(2) / consts::Q_E.powi(2)
    }

    /// Electron density (m⁻³).
    pub fn n_e(&self) -> f64 {
        self.n_over_ncr * self.n_critical()
    }

    /// Plasma frequency ωpe (rad/s) — the code's unit of inverse time.
    pub fn omega_pe(&self) -> f64 {
        (self.n_e() * consts::Q_E.powi(2) / (consts::EPS_0 * consts::M_E)).sqrt()
    }

    /// The code's unit of length, the skin depth `c/ωpe` (m).
    pub fn skin_depth(&self) -> f64 {
        consts::C / self.omega_pe()
    }

    /// Convert a temperature in eV into the code's thermal velocity
    /// `vth/c = √(kT/mₑc²)` (non-relativistic thermal momentum spread).
    pub fn vth_of_ev(&self, t_ev: f64) -> f64 {
        (t_ev * consts::EV / (consts::M_E * consts::C * consts::C)).sqrt()
    }

    /// Inverse of [`LabFrame::vth_of_ev`].
    pub fn ev_of_vth(&self, vth: f64) -> f64 {
        vth * vth * consts::M_E * consts::C * consts::C / consts::EV
    }

    /// Laser intensity (W/cm²) for a given `a0`:
    /// `I·λ²[µm] = 1.37e18 · a0²` (linear polarization).
    pub fn intensity_of_a0(&self, a0: f64) -> f64 {
        let lambda_um = self.lambda0 * 1e6;
        1.37e18 * a0 * a0 / (lambda_um * lambda_um)
    }

    /// Convert a length in code units (`c/ωpe`) to microns.
    pub fn microns_of(&self, code_length: f64) -> f64 {
        code_length * self.skin_depth() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nif_critical_density() {
        // n_cr(351 nm) ≈ 9.05e27 m⁻³ (9.05e21 cm⁻³) — a standard number.
        let f = LabFrame::nif(0.1);
        let ncr_cm3 = f.n_critical() * 1e-6;
        assert!(
            (ncr_cm3 - 9.05e21).abs() / 9.05e21 < 0.01,
            "n_cr = {ncr_cm3:.3e} cm^-3"
        );
    }

    #[test]
    fn omega0_over_omega_pe_matches_density() {
        let f = LabFrame::nif(0.1);
        let ratio = f.omega0() / f.omega_pe();
        // ω0/ωpe = 1/√(n/ncr) = √10.
        assert!((ratio - 10f64.sqrt()).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn temperature_roundtrip() {
        let f = LabFrame::nif(0.1);
        // 2.6 keV hohlraum electrons → vth/c ≈ 0.0713.
        let vth = f.vth_of_ev(2600.0);
        assert!((vth - 0.0713).abs() < 0.001, "vth = {vth}");
        assert!((f.ev_of_vth(vth) - 2600.0).abs() < 1.0);
    }

    #[test]
    fn intensity_roundtrip_and_scale() {
        let f = LabFrame::nif(0.1);
        // a0 = 0.03 at 351 nm → ~1e16 W/cm².
        let i = f.intensity_of_a0(0.03);
        assert!((1e15..2e16).contains(&i), "I = {i:.3e}");
        // Quadratic in a0.
        assert!((f.intensity_of_a0(0.06) / i - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lengths_and_times_are_lpi_scale() {
        let f = LabFrame::nif(0.1);
        // Skin depth at 0.1 n_cr of 351 nm light: c/ωpe = λ0·√(n_cr/n)/(2π).
        let want_um = 0.351 * 10f64.sqrt() / (2.0 * std::f64::consts::PI);
        assert!((f.microns_of(1.0) - want_um).abs() / want_um < 1e-9);
    }
}
