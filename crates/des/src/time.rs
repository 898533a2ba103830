//! Simulation time as exact integer microseconds.
//!
//! The paper's TDMA frame is 2.5 ms long and voice packets are generated on a
//! 20 ms period, so every quantity of interest is an exact multiple of one
//! microsecond.  Using integer microseconds (instead of `f64` seconds) keeps
//! frame boundaries exact over arbitrarily long runs and makes every ordering
//! of instants total and reproducible.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A span of simulated time, in whole microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.  Panics on negative or non-finite input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative, got {s}"
        );
        SimDuration((s * 1e6).round() as u64)
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Integer division of two durations (how many `rhs` fit in `self`).
    pub const fn div_duration(self, rhs: SimDuration) -> u64 {
        assert!(rhs.0 != 0, "division by zero duration");
        self.0 / rhs.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0 % 1_000 == 0 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

/// An absolute instant on the simulation timeline, in whole microseconds
/// since the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// A time far in the future; useful as an "infinite" deadline sentinel.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole microseconds since the origin.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the simulation origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation origin (lossy, for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`.  Panics if `earlier` is later
    /// than `self` (an elapsed time can never be negative in a monotone
    /// simulation).
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is after self"),
        )
    }

    /// The duration elapsed since `earlier`, or zero if `earlier` is later.
    pub const fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration (None on overflow).
    pub const fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        match self.0.checked_add(d.as_micros()) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.as_micros())
                .expect("simulation time overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.as_micros())
                .expect("simulation time underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(2), SimDuration::from_micros(2_000));
        assert_eq!(
            SimDuration::from_secs(3),
            SimDuration::from_micros(3_000_000)
        );
        assert_eq!(
            SimDuration::from_secs_f64(0.0025),
            SimDuration::from_micros(2_500)
        );
        assert_eq!(
            SimDuration::from_secs_f64(1.35),
            SimDuration::from_micros(1_350_000)
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(20);
        let b = SimDuration::from_micros(2_500);
        assert_eq!(a + b, SimDuration::from_micros(22_500));
        assert_eq!(a - b, SimDuration::from_micros(17_500));
        assert_eq!(b * 8, a);
        assert_eq!(a / 8, b);
        assert_eq!(a.div_duration(b), 8);
        assert_eq!(a % b, SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros(3) % b, SimDuration::from_micros(3));
    }

    #[test]
    fn duration_saturating_sub_clamps_to_zero() {
        let a = SimDuration::from_micros(5);
        let b = SimDuration::from_micros(9);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_micros(4));
    }

    #[test]
    #[should_panic(expected = "duration underflow")]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_micros(1) - SimDuration::from_micros(2);
    }

    #[test]
    fn time_arithmetic_and_ordering() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(2);
        let t2 = t1 + SimDuration::from_micros(500);
        assert!(t0 < t1 && t1 < t2);
        assert_eq!(t2.duration_since(t0), SimDuration::from_micros(2_500));
        assert_eq!(t2 - t1, SimDuration::from_micros(500));
        assert_eq!(t0.saturating_duration_since(t2), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_are_human_readable() {
        assert_eq!(SimDuration::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_micros(2_500).to_string(), "2.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_micros(1_500_000).to_string(), "t=1.500000s");
    }

    #[test]
    fn far_future_behaves_as_infinite_deadline() {
        assert!(SimTime::FAR_FUTURE > SimTime::from_micros(u64::MAX - 1));
        assert!(SimTime::FAR_FUTURE
            .checked_add(SimDuration::from_micros(1))
            .is_none());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn negative_seconds_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
