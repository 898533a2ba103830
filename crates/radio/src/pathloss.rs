//! Distance-based path loss feeding each terminal's mean SNR.
//!
//! The paper evaluates its protocols inside one cell, where every terminal
//! shares the same *mean* SNR and only the fading processes differ.  The
//! multi-cell system layer places terminals on a 2-D plane, so the mean SNR
//! becomes a function of the distance to the serving base station: the
//! classic log-distance model
//!
//! ```text
//! SNR̄(d) = SNR_ref − 10·n·log10(max(d, d_ref) / d_ref) + X_site
//! ```
//!
//! with path-loss exponent `n`, reference distance `d_ref`, and a
//! log-normal *site shadowing* term `X_site ~ N(0, σ²)` in dB redrawn per
//! (terminal, serving cell) attachment — the slowly varying terrain component
//! that differs from one base-station link to another.  The existing AR(1)
//! short-term fading and long-term shadowing processes ride on top of this
//! mean unchanged, so a single-cell run with `n = 0` and `σ = 0` reproduces
//! the paper's flat-mean channel exactly.

use charisma_des::{Sampler, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};

/// Log-distance path-loss parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathLossConfig {
    /// Path-loss exponent `n` (0 disables the distance dependence; ~2 free
    /// space, 3–4 urban macro-cell).
    pub exponent: f64,
    /// Reference distance `d_ref` in metres; distances below it saturate at
    /// the reference SNR (the near-field clamp).
    pub reference_distance_m: f64,
    /// Mean received SNR in dB at the reference distance.
    pub snr_at_reference_db: f64,
    /// Standard deviation of the per-(terminal, cell) site shadowing in dB.
    pub site_shadowing_sigma_db: f64,
}

impl Default for PathLossConfig {
    /// An urban macro-cell calibration keeping the adaptive PHY inside its
    /// operating range across a default-radius cell: ~21 dB mean SNR at
    /// mid-cell, ~12 dB at the cell border.
    fn default() -> Self {
        PathLossConfig {
            exponent: 3.0,
            reference_distance_m: 25.0,
            snr_at_reference_db: 48.0,
            site_shadowing_sigma_db: 4.0,
        }
    }
}

impl PathLossConfig {
    /// A flat profile: every distance sees `snr_db`, no site shadowing.
    /// Makes a multi-cell run channel-equivalent to the paper's single-cell
    /// model (used by the cells=1 equivalence tests).
    pub fn flat(snr_db: f64) -> Self {
        PathLossConfig {
            exponent: 0.0,
            reference_distance_m: 1.0,
            snr_at_reference_db: snr_db,
            site_shadowing_sigma_db: 0.0,
        }
    }

    /// The mean SNR in dB at `distance_m` from the serving base station
    /// (before site shadowing and fading).
    pub fn mean_snr_db(&self, distance_m: f64) -> f64 {
        assert!(
            distance_m >= 0.0 && distance_m.is_finite(),
            "distance must be finite and non-negative, got {distance_m}"
        );
        let d = distance_m.max(self.reference_distance_m);
        self.snr_at_reference_db - 10.0 * self.exponent * (d / self.reference_distance_m).log10()
    }

    /// Draws the site-shadowing offset (dB) for one (terminal, cell)
    /// attachment.  Always consumes the same number of RNG draws, so a zero
    /// sigma changes values, never stream alignment.
    pub fn draw_site_shadow_db(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        Sampler::normal(rng, 0.0, self.site_shadowing_sigma_db)
    }

    /// Validates the parameters, returning the first rule they break.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.exponent.is_finite() && self.exponent >= 0.0) {
            return Err(format!(
                "path-loss exponent must be finite and non-negative, got {}",
                self.exponent
            ));
        }
        if !(self.reference_distance_m.is_finite() && self.reference_distance_m > 0.0) {
            return Err(format!(
                "path-loss reference distance must be positive, got {}",
                self.reference_distance_m
            ));
        }
        if !self.snr_at_reference_db.is_finite() {
            return Err(format!(
                "path-loss reference SNR must be finite, got {}",
                self.snr_at_reference_db
            ));
        }
        if !(self.site_shadowing_sigma_db.is_finite() && self.site_shadowing_sigma_db >= 0.0) {
            return Err(format!(
                "site shadowing sigma must be finite and non-negative, got {}",
                self.site_shadowing_sigma_db
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_loss_is_monotone_non_increasing_in_distance() {
        let pl = PathLossConfig::default();
        let mut prev = f64::INFINITY;
        for step in 0..2_000 {
            let d = step as f64 * 1.0;
            let snr = pl.mean_snr_db(d);
            assert!(
                snr <= prev + 1e-12,
                "SNR rose with distance: {snr} dB at {d} m after {prev} dB"
            );
            prev = snr;
        }
    }

    #[test]
    fn reference_distance_clamps_the_near_field() {
        let pl = PathLossConfig::default();
        assert_eq!(pl.mean_snr_db(0.0), pl.snr_at_reference_db);
        assert_eq!(
            pl.mean_snr_db(pl.reference_distance_m),
            pl.snr_at_reference_db
        );
        assert!(pl.mean_snr_db(pl.reference_distance_m * 2.0) < pl.snr_at_reference_db);
    }

    #[test]
    fn exponent_sets_the_decade_slope() {
        let pl = PathLossConfig {
            exponent: 3.5,
            ..PathLossConfig::default()
        };
        let d0 = pl.reference_distance_m;
        let drop = pl.mean_snr_db(d0) - pl.mean_snr_db(d0 * 10.0);
        assert!((drop - 35.0).abs() < 1e-9, "decade drop {drop} dB");
    }

    #[test]
    fn flat_profile_is_distance_independent() {
        let pl = PathLossConfig::flat(18.0);
        pl.validate().unwrap();
        for d in [0.0, 1.0, 100.0, 10_000.0] {
            assert_eq!(pl.mean_snr_db(d), 18.0);
        }
        let mut rng = charisma_des::Xoshiro256StarStar::from_seed_u64(1);
        assert_eq!(pl.draw_site_shadow_db(&mut rng), 0.0);
    }

    #[test]
    fn default_keeps_the_adaptive_phy_operating_range() {
        // Across a 400 m cell the mean SNR should stay within the ABICM
        // adaptation range (roughly 0–35 dB) rather than saturating.
        let pl = PathLossConfig::default();
        let mid = pl.mean_snr_db(200.0);
        let edge = pl.mean_snr_db(480.0);
        assert!((15.0..30.0).contains(&mid), "mid-cell SNR {mid} dB");
        assert!((5.0..20.0).contains(&edge), "cell-edge SNR {edge} dB");
    }

    #[test]
    fn site_shadow_draws_match_the_sigma() {
        let pl = PathLossConfig {
            site_shadowing_sigma_db: 6.0,
            ..PathLossConfig::default()
        };
        let mut rng = charisma_des::Xoshiro256StarStar::from_seed_u64(42);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = pl.draw_site_shadow_db(&mut rng);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let std = (sq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.2, "shadow mean {mean}");
        assert!((std - 6.0).abs() < 0.2, "shadow std {std}");
    }

    #[test]
    #[should_panic(expected = "reference distance")]
    fn zero_reference_distance_is_rejected() {
        PathLossConfig {
            reference_distance_m: 0.0,
            ..PathLossConfig::default()
        }
        .validate()
        .unwrap();
    }
}
