//! Property-based tests for the simulation substrate.

use charisma_des::{
    FrameClock, RngStreams, Sampler, SimDuration, SimTime, StreamId, Xoshiro256StarStar,
};
use proptest::prelude::*;

proptest! {
    // Fixed case count on top of the runner's fixed master seed: the suite
    // explores the same cases on every machine and every run.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Frame decomposition is a bijection: frame_start(frame) + offset == t
    /// and the offset is always strictly less than the frame duration.
    #[test]
    fn frame_position_roundtrip(t_us in 0u64..10_000_000_000, frame_us in 1u64..100_000) {
        let clock = FrameClock::new(SimDuration::from_micros(frame_us));
        let t = SimTime::from_micros(t_us);
        let pos = clock.position(t);
        prop_assert_eq!(clock.frame_start(pos.frame) + pos.offset, t);
        prop_assert!(pos.offset < clock.frame_duration());
    }

    /// next_boundary is idempotent, never earlier than its argument and at
    /// most one frame away.
    #[test]
    fn next_boundary_properties(t_us in 0u64..10_000_000_000, frame_us in 1u64..100_000) {
        let clock = FrameClock::new(SimDuration::from_micros(frame_us));
        let t = SimTime::from_micros(t_us);
        let b = clock.next_boundary(t);
        prop_assert!(b >= t);
        prop_assert!(b.duration_since(t) < clock.frame_duration());
        prop_assert_eq!(clock.next_boundary(b), b);
    }

    /// Derived RNG streams are reproducible and two different entities in the
    /// same domain never share a seed.
    #[test]
    fn rng_streams_distinct(seed in any::<u64>(), a in 0u32..10_000, b in 0u32..10_000) {
        prop_assume!(a != b);
        let f = RngStreams::new(seed);
        let sa = f.derive_seed(StreamId::new(StreamId::DOMAIN_CHANNEL, a));
        let sb = f.derive_seed(StreamId::new(StreamId::DOMAIN_CHANNEL, b));
        prop_assert_eq!(sa, f.derive_seed(StreamId::new(StreamId::DOMAIN_CHANNEL, a)));
        prop_assert_ne!(sa, sb);
    }

    /// Exponential samples are non-negative for any positive mean and any seed.
    #[test]
    fn exponential_non_negative(seed in any::<u64>(), mean in 0.001f64..1000.0) {
        let mut rng = Xoshiro256StarStar::from_seed_u64(seed);
        for _ in 0..64 {
            prop_assert!(Sampler::exponential(&mut rng, mean) >= 0.0);
        }
    }

    /// uniform_index always lands in range.
    #[test]
    fn uniform_index_in_range(seed in any::<u64>(), n in 1usize..1000) {
        let mut rng = Xoshiro256StarStar::from_seed_u64(seed);
        for _ in 0..64 {
            prop_assert!(Sampler::uniform_index(&mut rng, n) < n);
        }
    }

    /// SimTime/SimDuration arithmetic is associative over addition of durations.
    #[test]
    fn time_addition_associative(start in 0u64..1u64 << 40, a in 0u64..1u64 << 30, b in 0u64..1u64 << 30) {
        let t = SimTime::from_micros(start);
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(b);
        prop_assert_eq!((t + da) + db, t + (da + db));
        prop_assert_eq!(((t + da) + db).duration_since(t), da + db);
    }
}
