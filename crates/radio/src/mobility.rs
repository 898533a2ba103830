//! Terminal mobility and its mapping to Doppler spread / coherence time.
//!
//! The paper assumes a mean terminal speed of 50 km/h and a maximum of
//! 80 km/h, quotes a Doppler spread of roughly 100 Hz and uses
//! `T_c ≈ 1 / f_d ≈ 10 ms` as the short-term fading coherence time.  Those
//! numbers are consistent with a carrier around 2 GHz, which is what we adopt
//! as the default.

use charisma_des::{SimDuration, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};

/// Speed of light in metres per second.
pub const SPEED_OF_LIGHT_M_S: f64 = 299_792_458.0;

/// Default carrier frequency (2 GHz), consistent with the paper's quoted
/// Doppler spread of ~100 Hz at ~50 km/h.
pub const CARRIER_FREQUENCY_HZ: f64 = 2.0e9;

/// Maximum Doppler spread `f_d = v·f_c / c` for a terminal moving at
/// `speed_kmh`, in Hz.
pub fn doppler_hz(speed_kmh: f64, carrier_hz: f64) -> f64 {
    assert!(speed_kmh >= 0.0, "speed must be non-negative");
    assert!(carrier_hz > 0.0, "carrier frequency must be positive");
    let v = speed_kmh / 3.6;
    v * carrier_hz / SPEED_OF_LIGHT_M_S
}

/// How per-terminal speeds are assigned in a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedProfile {
    /// Every terminal moves at the same fixed speed (km/h).
    Fixed(f64),
    /// Speeds are drawn uniformly per terminal between `min_kmh` and
    /// `max_kmh` (the paper's "mean 50 km/h, maximum 80 km/h" population is
    /// approximated by `Uniform(20, 80)`).
    Uniform {
        /// Lower bound in km/h.
        min_kmh: f64,
        /// Upper bound in km/h.
        max_kmh: f64,
    },
    /// A heterogeneous two-class population: each terminal is independently a
    /// fast mover (probability `fraction_fast`, e.g. vehicular) or a slow one
    /// (e.g. pedestrian).  The paper only evaluates homogeneous populations;
    /// this profile opens the mixed-mobility scenarios the campaign registry
    /// adds, where CSI-aware scheduling can exploit the slow (long-coherence)
    /// terminals.
    Bimodal {
        /// Speed of the slow class in km/h.
        slow_kmh: f64,
        /// Speed of the fast class in km/h.
        fast_kmh: f64,
        /// Probability that a terminal belongs to the fast class, in `[0, 1]`.
        fraction_fast: f64,
    },
}

impl SpeedProfile {
    /// The paper's default population: mean 50 km/h, maximum 80 km/h.
    pub fn paper_default() -> Self {
        SpeedProfile::Uniform {
            min_kmh: 20.0,
            max_kmh: 80.0,
        }
    }

    /// Draws a speed for one terminal.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        match *self {
            SpeedProfile::Fixed(v) => {
                assert!(v >= 0.0, "fixed speed must be non-negative");
                v
            }
            SpeedProfile::Uniform { min_kmh, max_kmh } => {
                assert!(
                    (0.0..=max_kmh).contains(&min_kmh),
                    "invalid speed range [{min_kmh}, {max_kmh}]"
                );
                min_kmh + (max_kmh - min_kmh) * rng.next_f64()
            }
            SpeedProfile::Bimodal {
                slow_kmh,
                fast_kmh,
                fraction_fast,
            } => {
                assert!(
                    slow_kmh >= 0.0 && fast_kmh >= 0.0,
                    "bimodal speeds must be non-negative"
                );
                assert!(
                    (0.0..=1.0).contains(&fraction_fast),
                    "fraction_fast must be a probability, got {fraction_fast}"
                );
                if rng.next_f64() < fraction_fast {
                    fast_kmh
                } else {
                    slow_kmh
                }
            }
        }
    }

    /// Mean of the profile (used for reporting).
    pub fn mean_kmh(&self) -> f64 {
        match *self {
            SpeedProfile::Fixed(v) => v,
            SpeedProfile::Uniform { min_kmh, max_kmh } => 0.5 * (min_kmh + max_kmh),
            SpeedProfile::Bimodal {
                slow_kmh,
                fast_kmh,
                fraction_fast,
            } => slow_kmh + (fast_kmh - slow_kmh) * fraction_fast,
        }
    }
}

/// A point in the 2-D system plane, in metres.
///
/// Single-cell scenarios never materialise positions — the implicit cell has
/// no geometry — but the multi-cell system layer places every terminal on a
/// plane shared with the base-station layout, so distances (and with them
/// path loss) are well defined.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Position {
    /// Easting in metres.
    pub x_m: f64,
    /// Northing in metres.
    pub y_m: f64,
}

impl Position {
    /// The origin of the system plane.
    pub const ORIGIN: Position = Position { x_m: 0.0, y_m: 0.0 };

    /// Creates a position.
    pub fn new(x_m: f64, y_m: f64) -> Self {
        Position { x_m, y_m }
    }

    /// Euclidean distance to another position, in metres.
    pub fn distance_m(&self, other: Position) -> f64 {
        let dx = self.x_m - other.x_m;
        let dy = self.y_m - other.y_m;
        (dx * dx + dy * dy).sqrt()
    }
}

/// An axis-aligned rectangle bounding terminal motion (the union of the
/// system layout's cell footprints).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bounds {
    /// Lower-left corner.
    pub min: Position,
    /// Upper-right corner.
    pub max: Position,
}

impl Bounds {
    /// Creates a bounding rectangle; panics when the corners are reversed or
    /// degenerate.
    pub fn new(min: Position, max: Position) -> Self {
        assert!(
            min.x_m < max.x_m && min.y_m < max.y_m,
            "bounds must span a non-empty rectangle (min {min:?}, max {max:?})"
        );
        Bounds { min, max }
    }

    /// Whether the rectangle contains `p` (borders included).
    pub fn contains(&self, p: Position) -> bool {
        (self.min.x_m..=self.max.x_m).contains(&p.x_m)
            && (self.min.y_m..=self.max.y_m).contains(&p.y_m)
    }

    /// Draws a position uniformly inside the rectangle.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> Position {
        Position {
            x_m: self.min.x_m + (self.max.x_m - self.min.x_m) * rng.next_f64(),
            y_m: self.min.y_m + (self.max.y_m - self.min.y_m) * rng.next_f64(),
        }
    }
}

/// The random-waypoint motion model: a terminal moves in a straight line at
/// its fixed speed towards a waypoint drawn uniformly in the system bounds,
/// and draws a fresh waypoint the moment it arrives.
///
/// This is the standard mobility model for cellular system studies (the
/// paper itself stays inside one cell, so its mobility is speed-only — see
/// [`Mobility`]).  The model is deterministic given its RNG stream: waypoint
/// draws are the only consumption, so a stationary terminal consumes exactly
/// the draws of its initial waypoint and nothing more.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomWaypoint {
    position: Position,
    target: Position,
    speed_mps: f64,
}

impl RandomWaypoint {
    /// Starts the model at `start`, moving at `speed_kmh` towards a first
    /// waypoint drawn uniformly in `bounds`.
    pub fn new(
        start: Position,
        speed_kmh: f64,
        bounds: &Bounds,
        rng: &mut Xoshiro256StarStar,
    ) -> Self {
        assert!(speed_kmh >= 0.0, "speed must be non-negative");
        RandomWaypoint {
            position: start,
            target: bounds.sample(rng),
            speed_mps: speed_kmh / 3.6,
        }
    }

    /// The current position.
    pub fn position(&self) -> Position {
        self.position
    }

    /// The current waypoint.
    pub fn target(&self) -> Position {
        self.target
    }

    /// The model's speed in km/h.
    pub fn speed_kmh(&self) -> f64 {
        self.speed_mps * 3.6
    }

    /// Advances the motion by `dt_secs`, drawing new waypoints as they are
    /// reached.  Any distance budget left over at a waypoint is spent towards
    /// the next one, so long steps (coalesced idle stretches) traverse the
    /// same path a chain of short steps would.
    pub fn advance(&mut self, dt_secs: f64, bounds: &Bounds, rng: &mut Xoshiro256StarStar) {
        assert!(dt_secs >= 0.0, "time must move forwards");
        let mut budget = self.speed_mps * dt_secs;
        if budget <= 0.0 {
            return;
        }
        loop {
            let dist = self.position.distance_m(self.target);
            if dist > budget {
                let f = budget / dist;
                self.position.x_m += (self.target.x_m - self.position.x_m) * f;
                self.position.y_m += (self.target.y_m - self.position.y_m) * f;
                return;
            }
            budget -= dist;
            self.position = self.target;
            self.target = bounds.sample(rng);
            // A degenerate draw (target == position) would loop forever on a
            // zero-length leg; the budget strictly decreases otherwise.
            if budget <= f64::EPSILON {
                return;
            }
        }
    }
}

/// The mobility state of one terminal: its speed and the derived fading
/// time constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mobility {
    /// Terminal speed in km/h.
    pub speed_kmh: f64,
    /// Maximum Doppler spread in Hz.
    pub doppler_hz: f64,
}

impl Mobility {
    /// Creates the mobility state for a terminal at `speed_kmh` with the
    /// default carrier frequency.
    pub fn new(speed_kmh: f64) -> Self {
        Self::with_carrier(speed_kmh, CARRIER_FREQUENCY_HZ)
    }

    /// Creates the mobility state with an explicit carrier frequency.
    pub fn with_carrier(speed_kmh: f64, carrier_hz: f64) -> Self {
        Mobility {
            speed_kmh,
            doppler_hz: doppler_hz(speed_kmh, carrier_hz),
        }
    }

    /// Short-term fading coherence time `T_c ≈ 1 / f_d`, as used by the paper
    /// (eq. (1)).  A stationary terminal is given a very long (but finite)
    /// coherence time instead of infinity so AR coefficients stay defined.
    pub fn coherence_time(&self) -> SimDuration {
        if self.doppler_hz <= 1e-9 {
            return SimDuration::from_secs(3600);
        }
        SimDuration::from_secs_f64(1.0 / self.doppler_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_des::Xoshiro256StarStar;

    #[test]
    fn doppler_matches_papers_figure() {
        // ~50 km/h at 2 GHz ≈ 93 Hz; the paper rounds to 100 Hz.
        let fd = doppler_hz(50.0, CARRIER_FREQUENCY_HZ);
        assert!((85.0..105.0).contains(&fd), "fd = {fd}");
        // 80 km/h upper bound ≈ 148 Hz.
        let fd80 = doppler_hz(80.0, CARRIER_FREQUENCY_HZ);
        assert!((135.0..160.0).contains(&fd80), "fd80 = {fd80}");
    }

    #[test]
    fn coherence_time_near_10ms_at_50kmh() {
        let m = Mobility::new(50.0);
        let tc = m.coherence_time().as_millis_f64();
        assert!((8.0..13.0).contains(&tc), "Tc = {tc} ms");
    }

    #[test]
    fn stationary_terminal_gets_long_coherence() {
        let m = Mobility::new(0.0);
        assert!(m.coherence_time() >= SimDuration::from_secs(3600));
    }

    #[test]
    fn doppler_scales_linearly_with_speed() {
        let a = doppler_hz(10.0, CARRIER_FREQUENCY_HZ);
        let b = doppler_hz(20.0, CARRIER_FREQUENCY_HZ);
        assert!((b / a - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_speed_rejected() {
        let _ = doppler_hz(-1.0, CARRIER_FREQUENCY_HZ);
    }

    #[test]
    fn uniform_profile_samples_in_range_with_correct_mean() {
        let profile = SpeedProfile::Uniform {
            min_kmh: 20.0,
            max_kmh: 80.0,
        };
        let mut rng = Xoshiro256StarStar::from_seed_u64(11);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = profile.sample(&mut rng);
            assert!((20.0..=80.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 50.0).abs() < 1.0, "mean speed {mean}");
        assert_eq!(profile.mean_kmh(), 50.0);
    }

    #[test]
    fn fixed_profile_is_constant() {
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        let profile = SpeedProfile::Fixed(30.0);
        for _ in 0..10 {
            assert_eq!(profile.sample(&mut rng), 30.0);
        }
    }

    #[test]
    fn paper_default_profile_mean_is_50() {
        assert_eq!(SpeedProfile::paper_default().mean_kmh(), 50.0);
    }

    #[test]
    fn bimodal_profile_draws_both_classes_with_the_right_rate() {
        let profile = SpeedProfile::Bimodal {
            slow_kmh: 3.0,
            fast_kmh: 80.0,
            fraction_fast: 0.25,
        };
        let mut rng = Xoshiro256StarStar::from_seed_u64(42);
        let n = 40_000;
        let mut fast = 0usize;
        for _ in 0..n {
            let v = profile.sample(&mut rng);
            assert!(v == 3.0 || v == 80.0, "unexpected speed {v}");
            if v == 80.0 {
                fast += 1;
            }
        }
        let frac = fast as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "fast fraction {frac}");
        let mean = profile.mean_kmh();
        assert!((mean - (3.0 + 77.0 * 0.25)).abs() < 1e-12, "mean {mean}");
    }

    #[test]
    fn waypoint_motion_stays_in_bounds_and_covers_distance() {
        let bounds = Bounds::new(Position::new(-500.0, -500.0), Position::new(500.0, 500.0));
        let mut rng = Xoshiro256StarStar::from_seed_u64(7);
        let mut rw = RandomWaypoint::new(Position::ORIGIN, 72.0, &bounds, &mut rng);
        assert_eq!(rw.speed_kmh(), 72.0); // 20 m/s
        let mut travelled = 0.0;
        let mut prev = rw.position();
        for _ in 0..10_000 {
            rw.advance(0.1, &bounds, &mut rng);
            assert!(
                bounds.contains(rw.position()),
                "escaped: {:?}",
                rw.position()
            );
            travelled += prev.distance_m(rw.position());
            prev = rw.position();
        }
        // 10 000 x 0.1 s at 20 m/s = 20 km of path.  Steps containing a
        // waypoint turn contribute a chord shorter than the path, so the
        // summed endpoint distances land slightly below 20 km.
        assert!(
            (19_000.0..=20_000.0 + 1e-6).contains(&travelled),
            "travelled {travelled}"
        );
    }

    #[test]
    fn waypoint_long_step_equals_chain_of_short_steps() {
        let bounds = Bounds::new(Position::new(0.0, 0.0), Position::new(1000.0, 1000.0));
        let mut rng_a = Xoshiro256StarStar::from_seed_u64(9);
        let mut rng_b = Xoshiro256StarStar::from_seed_u64(9);
        let start = Position::new(500.0, 500.0);
        let mut a = RandomWaypoint::new(start, 50.0, &bounds, &mut rng_a);
        let mut b = RandomWaypoint::new(start, 50.0, &bounds, &mut rng_b);
        a.advance(60.0, &bounds, &mut rng_a);
        for _ in 0..60 {
            b.advance(1.0, &bounds, &mut rng_b);
        }
        assert!(
            a.position().distance_m(b.position()) < 1e-6,
            "coalesced {:?} vs stepped {:?}",
            a.position(),
            b.position()
        );
    }

    #[test]
    fn stationary_waypoint_model_never_moves() {
        let bounds = Bounds::new(Position::new(-10.0, -10.0), Position::new(10.0, 10.0));
        let mut rng = Xoshiro256StarStar::from_seed_u64(3);
        let mut rw = RandomWaypoint::new(Position::new(1.0, 2.0), 0.0, &bounds, &mut rng);
        for _ in 0..100 {
            rw.advance(10.0, &bounds, &mut rng);
        }
        assert_eq!(rw.position(), Position::new(1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "non-empty rectangle")]
    fn reversed_bounds_are_rejected() {
        let _ = Bounds::new(Position::new(1.0, 0.0), Position::new(0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bimodal_rejects_bad_fraction() {
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        let _ = SpeedProfile::Bimodal {
            slow_kmh: 3.0,
            fast_kmh: 80.0,
            fraction_fast: 1.5,
        }
        .sample(&mut rng);
    }
}
