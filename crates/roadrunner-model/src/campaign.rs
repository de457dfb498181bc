//! Campaign checkpoint arithmetic: the Young/Daly optimum period, which
//! balances the cost of a restart dump against the work an interrupt
//! throws away on a machine whose mean time between interrupts is
//! measured in hours (a real constraint the Roadrunner papers discuss).

/// The Young/Daly optimal checkpoint period in *seconds*:
/// `τ_opt = √(2·δ·MTBI)` for a per-dump cost `δ` and mean time between
/// interrupts `MTBI` (both seconds). Degenerate inputs (zero or negative
/// cost or MTBI) yield 0.0, meaning "no useful optimum".
pub fn young_daly_interval_seconds(checkpoint_seconds: f64, mtbi_seconds: f64) -> f64 {
    if checkpoint_seconds <= 0.0 || mtbi_seconds <= 0.0 {
        return 0.0;
    }
    (2.0 * checkpoint_seconds * mtbi_seconds).sqrt()
}

/// The Young/Daly optimum expressed in whole simulation steps, given the
/// measured wall time of one step. Always at least 1 so a campaign that
/// asks for the optimum still checkpoints.
pub fn young_daly_interval_steps(
    checkpoint_seconds: f64,
    mtbi_seconds: f64,
    step_seconds: f64,
) -> u64 {
    let tau = young_daly_interval_seconds(checkpoint_seconds, mtbi_seconds);
    if step_seconds <= 0.0 {
        return 1;
    }
    (tau / step_seconds).max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_daly_matches_closed_form_across_grid() {
        // τ_opt = √(2·δ·MTBI) over a grid of dump costs and MTBIs.
        for delta in [0.5, 10.0, 640.0, 3600.0] {
            for mtbi in [600.0, 3600.0, 6.0 * 3600.0, 24.0 * 3600.0] {
                let tau = young_daly_interval_seconds(delta, mtbi);
                let expect = (2.0 * delta * mtbi).sqrt();
                assert!(
                    (tau - expect).abs() < 1e-9 * expect,
                    "delta={delta} mtbi={mtbi}: {tau} vs {expect}"
                );
                for step in [0.01, 0.5, 30.0] {
                    let steps = young_daly_interval_steps(delta, mtbi, step);
                    assert_eq!(steps, ((expect / step).max(1.0)) as u64);
                    assert!(steps >= 1);
                }
            }
        }
        // Degenerate inputs: no optimum, but never a panic or zero steps.
        assert_eq!(young_daly_interval_seconds(0.0, 3600.0), 0.0);
        assert_eq!(young_daly_interval_seconds(640.0, 0.0), 0.0);
        assert_eq!(young_daly_interval_steps(640.0, 3600.0, 0.0), 1);
        assert_eq!(young_daly_interval_steps(0.0, 0.0, 1.0), 1);
    }
}
