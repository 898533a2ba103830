//! Transmission modes and CSI adaptation thresholds of the 6-mode ABICM
//! scheme (paper Section 4.2 and Fig. 7).
//!
//! Modes carry a *normalised throughput* — the number of information bits per
//! modulation symbol — ranging from ½ (heavy redundancy, robust) to 5 (dense
//! constellation, fragile).  The scheme operates in the *constant-BER* mode:
//! the adaptation thresholds are chosen so that, inside the adaptation range,
//! every mode achieves the same target bit-error rate, and throughput is what
//! varies with the channel.  Below the lowest threshold the target BER cannot
//! be maintained at any available mode; the paper calls this the mode-0 /
//! adaptation-range-exceeded region and we model it as an outage state.

use serde::{Deserialize, Serialize};

/// A transmission mode of the adaptive PHY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TransmissionMode {
    /// Channel below the adaptation range: the target BER cannot be met.
    Outage,
    /// Normalised throughput ½ bit/symbol.
    Mode1,
    /// Normalised throughput 1 bit/symbol.
    Mode2,
    /// Normalised throughput 2 bits/symbol.
    Mode3,
    /// Normalised throughput 3 bits/symbol.
    Mode4,
    /// Normalised throughput 4 bits/symbol.
    Mode5,
    /// Normalised throughput 5 bits/symbol.
    Mode6,
}

impl TransmissionMode {
    /// All modes in increasing order of throughput (excluding outage).
    pub const ACTIVE_MODES: [TransmissionMode; 6] = [
        TransmissionMode::Mode1,
        TransmissionMode::Mode2,
        TransmissionMode::Mode3,
        TransmissionMode::Mode4,
        TransmissionMode::Mode5,
        TransmissionMode::Mode6,
    ];

    /// Normalised throughput in information bits per modulation symbol.
    /// The reference slot is dimensioned so that a throughput of 1 carries
    /// exactly one information packet, so this value doubles as "packets per
    /// information slot".
    pub fn normalized_throughput(self) -> f64 {
        match self {
            TransmissionMode::Outage => 0.0,
            TransmissionMode::Mode1 => 0.5,
            TransmissionMode::Mode2 => 1.0,
            TransmissionMode::Mode3 => 2.0,
            TransmissionMode::Mode4 => 3.0,
            TransmissionMode::Mode5 => 4.0,
            TransmissionMode::Mode6 => 5.0,
        }
    }

    /// Index used in announcements (0 = outage, 1–6 = active modes).
    pub fn index(self) -> u8 {
        match self {
            TransmissionMode::Outage => 0,
            TransmissionMode::Mode1 => 1,
            TransmissionMode::Mode2 => 2,
            TransmissionMode::Mode3 => 3,
            TransmissionMode::Mode4 => 4,
            TransmissionMode::Mode5 => 5,
            TransmissionMode::Mode6 => 6,
        }
    }

    /// Whether the mode can carry information at the target BER.
    pub fn is_active(self) -> bool {
        self != TransmissionMode::Outage
    }
}

/// CSI adaptation thresholds `{η_0, η_1, …, η_5}` (in dB of instantaneous
/// SNR): mode `q` is selected when the CSI falls in `[η_{q−1}, η_q)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptationThresholds {
    /// Lower SNR boundary (dB) of each active mode, in increasing order.
    /// `boundaries[0]` is the edge of the adaptation range: below it the PHY
    /// is in outage.
    pub boundaries: [f64; 6],
}

impl AdaptationThresholds {
    /// Default thresholds used throughout the reproduction.
    ///
    /// They are spaced ~6 dB apart, which is the spacing needed to keep the
    /// BER constant when the constellation density doubles, and place a
    /// terminal at the default 18 dB mean SNR in the middle of the adaptation
    /// range (mode 3–4), giving the ≈2× average throughput advantage over the
    /// fixed-rate PHY that the paper quotes for D-TDMA/VR.
    pub fn paper_default() -> Self {
        AdaptationThresholds {
            boundaries: [-8.0, -2.0, 4.0, 10.0, 16.0, 22.0],
        }
    }

    /// Creates thresholds after validating monotonicity.
    pub fn new(boundaries: [f64; 6]) -> Self {
        for w in boundaries.windows(2) {
            assert!(
                w[0] < w[1],
                "adaptation thresholds must be strictly increasing: {boundaries:?}"
            );
        }
        AdaptationThresholds { boundaries }
    }

    /// Selects the transmission mode for a CSI value (instantaneous SNR, dB).
    pub fn select(&self, snr_db: f64) -> TransmissionMode {
        if snr_db.is_nan() || snr_db < self.boundaries[0] {
            return TransmissionMode::Outage;
        }
        let mut mode = TransmissionMode::Mode1;
        for (i, &b) in self.boundaries.iter().enumerate().skip(1) {
            if snr_db >= b {
                mode = TransmissionMode::ACTIVE_MODES[i];
            } else {
                break;
            }
        }
        mode
    }
}

impl Default for AdaptationThresholds {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughputs_match_the_papers_range() {
        let tps: Vec<f64> = TransmissionMode::ACTIVE_MODES
            .iter()
            .map(|m| m.normalized_throughput())
            .collect();
        assert_eq!(tps, vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(TransmissionMode::Outage.normalized_throughput(), 0.0);
    }

    #[test]
    fn mode_indices_are_stable() {
        assert_eq!(TransmissionMode::Outage.index(), 0);
        assert_eq!(TransmissionMode::Mode6.index(), 6);
    }

    #[test]
    fn selection_is_monotone_in_snr() {
        let th = AdaptationThresholds::paper_default();
        let mut last = TransmissionMode::Outage;
        let mut snr = -20.0;
        while snr <= 40.0 {
            let m = th.select(snr);
            assert!(
                m >= last,
                "mode decreased from {last:?} to {m:?} at {snr} dB"
            );
            last = m;
            snr += 0.25;
        }
        assert_eq!(last, TransmissionMode::Mode6);
    }

    #[test]
    fn selection_boundaries_are_inclusive_on_the_left() {
        let th = AdaptationThresholds::paper_default();
        assert_eq!(th.select(-8.0), TransmissionMode::Mode1);
        assert_eq!(th.select(-8.0001), TransmissionMode::Outage);
        assert_eq!(th.select(-2.0), TransmissionMode::Mode2);
        assert_eq!(th.select(22.0), TransmissionMode::Mode6);
        assert_eq!(th.select(21.999), TransmissionMode::Mode5);
    }

    #[test]
    fn nan_csi_is_treated_as_outage() {
        let th = AdaptationThresholds::paper_default();
        assert_eq!(th.select(f64::NAN), TransmissionMode::Outage);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_thresholds_rejected() {
        let _ = AdaptationThresholds::new([0.0, 1.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn typical_operating_point_sits_mid_range() {
        // 18 dB mean SNR minus the ~2.5 dB average Rayleigh penalty should be
        // mode 4 — the middle of the range — so adaptation has room both ways.
        let th = AdaptationThresholds::paper_default();
        assert_eq!(th.select(15.5), TransmissionMode::Mode4);
    }

    #[test]
    fn mode_is_active_helper() {
        assert!(!TransmissionMode::Outage.is_active());
        assert!(TransmissionMode::Mode1.is_active());
    }
}
