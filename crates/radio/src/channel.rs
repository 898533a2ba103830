//! The combined per-terminal uplink channel `c(t) = c_l(t) · c_s(t)` and its
//! mapping to an instantaneous channel state (SNR in dB).

use crate::fading::{LongTermShadowing, ShadowingConfig, ShortTermFading};
use crate::mobility::Mobility;
use charisma_des::{SimDuration, SimTime, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};

/// How the simulation advances a terminal's fading channel along the frame
/// grid.
///
/// Both modes sample the *same* AR(1) processes; they differ only in when the
/// random innovations are drawn (see the coalescing invariant documented in
/// [`crate::fading`]), so they produce different but statistically equivalent
/// sample paths.  Switching a scenario between modes is therefore a one-time
/// determinism-trajectory change, not a model change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ChannelMode {
    /// Advance every terminal's channel at every frame boundary and recompute
    /// the SNR at every query.  This reproduces the pre-optimisation hot path
    /// (two `exp` calls per terminal per frame plus repeated dB conversions).
    /// It is retained for exact channel pairing: every protocol then sees
    /// the same fading draws, which lazy evaluation does not promise (see
    /// `charisma_des::rng`).  Scenario specs select it with
    /// `"channel_mode": "eager"` (`charisma::spec`), and the lazy-path
    /// oracle tests compare against it.
    Eager,
    /// Advance a terminal's channel only when its SNR is actually sampled,
    /// coalescing all frames since the last sample into one AR(1) step, and
    /// cache the per-frame SNR so repeated queries within a frame are free.
    /// Idle terminals (no packet, no grant, no contention) skip channel work
    /// entirely.  The default.
    #[default]
    Lazy,
}

/// Configuration of a terminal's uplink channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// Mean received SNR in dB when the combined fading gain is unity.  This
    /// sets the operating point of the adaptive PHY: with the default ABICM
    /// thresholds a mean of ~18 dB puts the typical terminal in the middle of
    /// the adaptation range.
    pub mean_snr_db: f64,
    /// Long-term shadowing parameters.
    pub shadowing: ShadowingConfig,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            mean_snr_db: 18.0,
            shadowing: ShadowingConfig::default(),
        }
    }
}

/// The combined fading channel of a single terminal.
///
/// The channel is advanced lazily: callers ask for the state at an absolute
/// simulation time and the internal processes are stepped forward by the
/// elapsed interval.  Requests for the *same* time return the same state, so
/// the MAC layer and the PHY observe one consistent channel per frame.
#[derive(Debug, Clone)]
pub struct CombinedChannel {
    config: ChannelConfig,
    mobility: Mobility,
    short: ShortTermFading,
    long: LongTermShadowing,
    rng: Xoshiro256StarStar,
    now: SimTime,
}

impl CombinedChannel {
    /// Creates a channel for a terminal with the given mobility, drawing the
    /// initial fading state from the stationary distributions.
    pub fn new(config: ChannelConfig, mobility: Mobility, mut rng: Xoshiro256StarStar) -> Self {
        let short = ShortTermFading::new(mobility.coherence_time(), &mut rng);
        let long = LongTermShadowing::new(config.shadowing, &mut rng);
        CombinedChannel {
            config,
            mobility,
            short,
            long,
            rng,
            now: SimTime::ZERO,
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The terminal's mobility parameters.
    pub fn mobility(&self) -> &Mobility {
        &self.mobility
    }

    /// Re-points the channel's mean SNR (dB): the multi-cell system layer
    /// updates it every frame from the terminal's distance to its serving
    /// base station (path loss + site shadowing).  The fading processes are
    /// untouched — they ride on top of whatever mean is current when the SNR
    /// is sampled.
    pub fn set_mean_snr_db(&mut self, mean_snr_db: f64) {
        assert!(mean_snr_db.is_finite(), "mean SNR must be finite");
        self.config.mean_snr_db = mean_snr_db;
    }

    /// The simulation time the channel state currently refers to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the channel to `t`, coalescing the whole elapsed interval
    /// into one AR(1) step per process (the lazy-evaluation fast path; exact
    /// for AR(1), see [`crate::fading`]).  Panics if `t` is in the past:
    /// fading processes cannot be rewound.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "channel cannot be advanced backwards (now {}, asked {t})",
            self.now
        );
        let dt = t.duration_since(self.now);
        if dt.is_zero() {
            return;
        }
        self.short.step(dt, &mut self.rng);
        self.long.step(dt, &mut self.rng);
        self.now = t;
    }

    /// Advances the channel to `t` exactly as the pre-optimisation simulator
    /// did: one uncached AR(1) step over the elapsed interval, recomputing
    /// the `exp`/`sqrt` step coefficients on every call.  Used by
    /// [`ChannelMode::Eager`] runs, which step every channel every frame for
    /// exact channel pairing across protocols.
    pub fn advance_to_eager(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "channel cannot be advanced backwards (now {}, asked {t})",
            self.now
        );
        let dt = t.duration_since(self.now);
        if dt.is_zero() {
            return;
        }
        self.short.step_uncached(dt, &mut self.rng);
        self.long.step_uncached(dt, &mut self.rng);
        self.now = t;
    }

    /// The combined amplitude gain `c = c_l · c_s` at the current time.
    pub fn gain_linear(&self) -> f64 {
        self.long.local_mean_linear() * self.short.envelope()
    }

    /// The combined gain in dB (`20·log10(c)`); `-inf` is clamped to a very
    /// low but finite value so downstream arithmetic stays well defined.
    pub fn gain_db(&self) -> f64 {
        let g = self.gain_linear();
        if g <= 1e-12 {
            -240.0
        } else {
            20.0 * g.log10()
        }
    }

    /// The instantaneous channel state (received SNR in dB) presented to the
    /// adaptive PHY: the mean SNR plus the instantaneous fading gain.
    pub fn snr_db(&self) -> f64 {
        self.config.mean_snr_db + self.gain_db()
    }

    /// Convenience: advance to `t` and return the SNR there.
    pub fn snr_db_at(&mut self, t: SimTime) -> f64 {
        self.advance_to(t);
        self.snr_db()
    }

    /// Decomposes the channel into its constituent state so a columnar store
    /// (the core crate's `TerminalColumns`) can keep each piece in its own
    /// parallel array.  The parts are exactly the channel's fields; rebuilding
    /// the same behaviour requires advancing `short`/`long` with draws from
    /// `rng` in that order (short first, then long — the order `advance_to`
    /// uses) and tracking `now` alongside.
    pub fn into_parts(self) -> ChannelParts {
        ChannelParts {
            config: self.config,
            mobility: self.mobility,
            short: self.short,
            long: self.long,
            rng: self.rng,
            now: self.now,
        }
    }

    /// Generates a fading trace sampled every `step` for `n` samples starting
    /// at the current time.  Returns `(time, short_term_db, long_term_db,
    /// combined_snr_db)` rows; used by the Fig. 5 reproduction.
    pub fn trace(&mut self, step: SimDuration, n: usize) -> Vec<(SimTime, f64, f64, f64)> {
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let t = self.now + step;
            self.advance_to(t);
            let short_db = 20.0 * self.short.envelope().max(1e-12).log10();
            let long_db = self.long.local_mean_db();
            rows.push((t, short_db, long_db, self.snr_db()));
        }
        rows
    }
}

/// The decomposed state of a [`CombinedChannel`] (see
/// [`CombinedChannel::into_parts`]).  Field invariants:
///
/// * `short` was seeded *before* `long` from `rng` (two standard normals,
///   then one), and subsequent AR(1) steps must keep drawing short-then-long
///   from the same `rng` to reproduce the channel's sample path.
/// * `now` is the simulation time the fading state refers to; steps advance
///   it monotonically.
/// * `config.mean_snr_db` is the operating point added on top of the fading
///   gain when the SNR is sampled.
#[derive(Debug, Clone)]
pub struct ChannelParts {
    /// Channel configuration (mean SNR operating point + shadowing params).
    pub config: ChannelConfig,
    /// The terminal's mobility parameters (speed, Doppler).
    pub mobility: Mobility,
    /// Short-term Rayleigh fading process.
    pub short: ShortTermFading,
    /// Long-term log-normal shadowing process.
    pub long: LongTermShadowing,
    /// The channel's dedicated innovation stream.
    pub rng: Xoshiro256StarStar,
    /// Simulation time the fading state refers to.
    pub now: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_des::{RngStreams, StreamId};

    fn channel(seed: u64, speed: f64) -> CombinedChannel {
        let streams = RngStreams::new(seed);
        CombinedChannel::new(
            ChannelConfig::default(),
            Mobility::new(speed),
            streams.stream(StreamId::new(StreamId::DOMAIN_CHANNEL, 0)),
        )
    }

    #[test]
    fn advancing_to_same_time_is_stable() {
        let mut ch = channel(1, 50.0);
        let t = SimTime::from_micros(2_500);
        ch.advance_to(t);
        let a = ch.snr_db();
        ch.advance_to(t);
        assert_eq!(a, ch.snr_db());
    }

    #[test]
    #[should_panic(expected = "advanced backwards")]
    fn cannot_rewind() {
        let mut ch = channel(2, 50.0);
        ch.advance_to(SimTime::from_micros(5_000));
        ch.advance_to(SimTime::from_micros(2_500));
    }

    #[test]
    fn mean_snr_is_close_to_configured_operating_point() {
        // E[20·log10(c_s)] for Rayleigh is about −2.5 dB; with 0-mean shadowing
        // the long-run average SNR in dB sits a little below mean_snr_db.
        let mut ch = channel(3, 50.0);
        let n = 40_000;
        let mut sum = 0.0;
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t += SimDuration::from_millis(25);
            sum += ch.snr_db_at(t);
        }
        let mean = sum / n as f64;
        assert!((mean - (18.0 - 2.5)).abs() < 1.0, "mean SNR {mean} dB");
    }

    #[test]
    fn independent_terminals_have_independent_channels() {
        let streams = RngStreams::new(77);
        let mk = |i: u32| {
            CombinedChannel::new(
                ChannelConfig::default(),
                Mobility::new(50.0),
                streams.stream(StreamId::new(StreamId::DOMAIN_CHANNEL, i)),
            )
        };
        let mut a = mk(0);
        let mut b = mk(1);
        let n = 20_000;
        let mut t = SimTime::ZERO;
        let (mut sa, mut sb, mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            t += SimDuration::from_millis(25);
            let x = a.snr_db_at(t);
            let y = b.snr_db_at(t);
            sa += x;
            sb += y;
            sab += x * y;
            saa += x * x;
            sbb += y * y;
        }
        let nf = n as f64;
        let cov = sab / nf - (sa / nf) * (sb / nf);
        let corr = cov
            / (((saa / nf) - (sa / nf).powi(2)).sqrt() * ((sbb / nf) - (sb / nf).powi(2)).sqrt());
        assert!(corr.abs() < 0.05, "cross-terminal SNR correlation {corr}");
    }

    #[test]
    fn faster_terminals_decorrelate_faster() {
        // Frame-to-frame SNR change should be larger at 80 km/h than at 10 km/h.
        let avg_abs_delta = |speed: f64, seed: u64| {
            let mut ch = channel(seed, speed);
            let mut t = SimTime::ZERO;
            let mut prev = ch.snr_db_at(t);
            let mut acc = 0.0;
            let n = 20_000;
            for _ in 0..n {
                t += SimDuration::from_micros(2_500);
                let cur = ch.snr_db_at(t);
                acc += (cur - prev).abs();
                prev = cur;
            }
            acc / n as f64
        };
        let slow = avg_abs_delta(10.0, 5);
        let fast = avg_abs_delta(80.0, 5);
        assert!(
            fast > 1.5 * slow,
            "fast {fast} dB vs slow {slow} dB per frame"
        );
    }

    #[test]
    fn trace_has_requested_length_and_monotone_time() {
        let mut ch = channel(9, 50.0);
        let rows = ch.trace(SimDuration::from_millis(1), 500);
        assert_eq!(rows.len(), 500);
        for w in rows.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        // combined = mean + short_db + long_db (within numerical tolerance)
        for &(_, s_db, l_db, snr) in &rows {
            assert!((snr - (18.0 + s_db + l_db)).abs() < 1e-9);
        }
    }

    #[test]
    fn gain_db_handles_deep_fades() {
        let mut ch = channel(11, 80.0);
        let mut t = SimTime::ZERO;
        for _ in 0..50_000 {
            t += SimDuration::from_micros(2_500);
            ch.advance_to(t);
            let g = ch.gain_db();
            assert!(g.is_finite());
            assert!(g >= -240.0);
        }
    }
}
