//! Absolute dBm calibration.
//!
//! The simulator is scale-free internally; the paper, however, reports
//! energy-detection thresholds in dBm (Fig. 10b). [`Calibration`] pins a
//! chosen linear power to the thermal noise floor of a 20 MHz 802.11a
//! receiver (≈ −95 dBm) so both worlds can be converted losslessly.

use cos_dsp::{dbm_to_mw, mw_to_dbm};

/// The canonical noise floor of a 20 MHz WLAN receiver in dBm.
pub const NOISE_FLOOR_DBM: f64 = -95.0;

/// A linear-power ↔ dBm mapping anchored at the noise floor.
///
/// # Examples
///
/// ```
/// use cos_channel::Calibration;
///
/// let cal = Calibration::new(0.01); // linear noise power 0.01 = −95 dBm
/// assert!((cal.to_dbm(0.01) + 95.0).abs() < 1e-9);
/// assert!((cal.to_linear(-85.0) / 0.1 - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The linear power that corresponds to [`NOISE_FLOOR_DBM`].
    noise_power: f64,
}

impl Calibration {
    /// Anchors the calibration: `noise_power` (linear) ≙ −95 dBm.
    ///
    /// # Panics
    ///
    /// Panics if `noise_power` is not strictly positive and finite.
    pub fn new(noise_power: f64) -> Self {
        assert!(
            noise_power > 0.0 && noise_power.is_finite(),
            "noise power must be positive and finite, got {noise_power}"
        );
        Calibration { noise_power }
    }

    /// Converts a linear power to dBm.
    pub fn to_dbm(&self, linear: f64) -> f64 {
        NOISE_FLOOR_DBM + mw_to_dbm(linear / self.noise_power)
    }

    /// Converts a dBm power to linear.
    pub fn to_linear(&self, dbm: f64) -> f64 {
        self.noise_power * dbm_to_mw(dbm - NOISE_FLOOR_DBM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_point() {
        let cal = Calibration::new(2.0);
        assert!((cal.to_dbm(2.0) - NOISE_FLOOR_DBM).abs() < 1e-12);
    }

    #[test]
    fn roundtrip() {
        let cal = Calibration::new(0.5);
        for dbm in [-110.0, -95.0, -70.0, -50.0] {
            assert!((cal.to_dbm(cal.to_linear(dbm)) - dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn ten_db_is_a_factor_of_ten() {
        let cal = Calibration::new(1.0);
        assert!((cal.to_linear(-85.0) / cal.to_linear(-95.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_noise_power_panics() {
        Calibration::new(0.0);
    }
}
