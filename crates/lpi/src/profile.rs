//! Plasma density profiles along x (vacuum gap → ramp → flat top → ramp →
//! vacuum gap), the standard quasi-1D LPI target layout.

/// Piecewise-linear density profile along x, normalized to 1 at flat top.
#[derive(Clone, Copy, Debug)]
pub struct SlabProfile {
    /// Start of the up-ramp.
    pub x_enter: f32,
    /// Up-ramp length (0 = hard edge).
    pub ramp_up: f32,
    /// Flat-top length.
    pub flat: f32,
    /// Down-ramp length (0 = hard edge).
    pub ramp_down: f32,
}

impl SlabProfile {
    /// Density in `[0,1]` at position `x`.
    pub fn density(&self, x: f32) -> f32 {
        let x0 = self.x_enter;
        let x1 = x0 + self.ramp_up;
        let x2 = x1 + self.flat;
        let x3 = x2 + self.ramp_down;
        if x < x0 || x > x3 {
            0.0
        } else if x < x1 {
            (x - x0) / self.ramp_up
        } else if x <= x2 {
            1.0
        } else {
            (x3 - x) / self.ramp_down
        }
    }

    /// End of the plasma (start of the exit vacuum region).
    pub fn x_exit(&self) -> f32 {
        self.x_enter + self.ramp_up + self.flat + self.ramp_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_shape() {
        let p = SlabProfile {
            x_enter: 10.0,
            ramp_up: 5.0,
            flat: 20.0,
            ramp_down: 5.0,
        };
        assert_eq!(p.density(0.0), 0.0);
        assert_eq!(p.density(9.99), 0.0);
        assert!((p.density(12.5) - 0.5).abs() < 1e-6);
        assert_eq!(p.density(15.0), 1.0);
        assert_eq!(p.density(30.0), 1.0);
        assert!((p.density(37.5) - 0.5).abs() < 1e-6);
        assert_eq!(p.density(40.1), 0.0);
        assert_eq!(p.x_exit(), 40.0);
    }

    #[test]
    fn hard_edges() {
        let p = SlabProfile {
            x_enter: 5.0,
            ramp_up: 0.0,
            flat: 10.0,
            ramp_down: 0.0,
        };
        assert_eq!(p.density(4.9), 0.0);
        assert_eq!(p.density(5.1), 1.0);
        assert_eq!(p.density(14.9), 1.0);
        assert_eq!(p.density(15.1), 0.0);
    }
}
