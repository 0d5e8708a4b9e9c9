//! Property tests for the streaming anomaly detectors behind the health
//! plane ([`me_trace::detect`]): on boring inputs — constant series,
//! bounded i.i.d. noise — no detector ever alarms at the default
//! thresholds; a slow ramp drives the CUSUM over its threshold; and the
//! full monitor is a pure function of its row stream (two runs render
//! byte-identical reports).

use me_trace::detect::{BURST_FLOOR, CUSUM_THRESHOLD, WARMUP};
use me_trace::{Burst, Cusum, HealthMonitor, SourceKind};
use proptest::prelude::*;

/// SplitMix64 — a tiny deterministic generator so "white noise" means
/// genuinely i.i.d. draws from a seed, not an adversarially chosen
/// sequence (a bounded but *persistent* offset is a real level shift and
/// is supposed to alarm).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[lo, hi]`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }
}

proptest! {
    /// A constant series is the quietest possible input: the CUSUM never
    /// alarms at any level, and the burst rule fires at most on the very
    /// first reading (a storm already present at startup is an alarm by
    /// design) — never once the rate is established. An all-zero series
    /// never fires at all.
    #[test]
    fn constant_series_never_alarms(level in 0u64..1_000_000, len in 2usize..300) {
        let (mut c, mut b) = (Cusum::default(), Burst::default());
        for i in 0..len {
            let cs = c.observe(level as f64);
            let bs = b.observe(level);
            prop_assert!(cs < CUSUM_THRESHOLD, "cusum alarmed on constant at row {i}: {cs}");
            if i > 0 || level == 0 {
                prop_assert!(bs == 0.0, "burst fired on established constant rate at row {i}: {bs}");
            }
        }
    }

    /// Bounded i.i.d. noise stays silent: draws within ±2% of a positive
    /// mean sit inside the CUSUM's relative σ floor (5% of the mean, plus
    /// 0.5 slack per step), so the drift detector never alarms, at any
    /// scale.
    #[test]
    fn white_noise_never_alarms(
        mean in 100u64..1_000_000,
        seed in any::<u64>(),
        len in 10usize..400,
    ) {
        let mut rng = SplitMix(seed);
        let m = mean as f64;
        let mut c = Cusum::default();
        for i in 0..len {
            let x = rng.range(0.98 * m, 1.02 * m);
            let cs = c.observe(x);
            prop_assert!(cs < CUSUM_THRESHOLD, "cusum alarmed on noise at row {i}: {cs}");
        }
    }

    /// A slow upward ramp — 0.5–2 % of the baseline per reading — still
    /// accumulates in the CUSUM (slow reference, per-step slack
    /// notwithstanding) and crosses its threshold before the ramp ends.
    #[test]
    fn cusum_catches_a_slow_ramp(
        base in 500u64..50_000,
        slope_permille in 5u64..20,
    ) {
        let m = base as f64;
        let d = m * slope_permille as f64 / 1000.0;
        let mut c = Cusum::default();
        for _ in 0..=WARMUP {
            c.observe(m);
        }
        let mut cusum_alarmed = false;
        let mut x = m;
        for _ in 0..150 {
            x += d;
            if c.observe(x) >= CUSUM_THRESHOLD {
                cusum_alarmed = true;
                break;
            }
        }
        prop_assert!(cusum_alarmed, "a {slope_permille}‰/interval ramp never tripped the CUSUM");
    }

    /// The burst rule on a quiet-on-healthy counter: any run of zero
    /// deltas followed by a delta at or above the floor fires exactly at
    /// the storm row.
    #[test]
    fn burst_fires_on_first_storm_after_quiet(
        quiet in 1usize..200,
        storm in 4u64..100_000,
    ) {
        let storm = storm.max(BURST_FLOOR);
        let mut b = Burst::default();
        for i in 0..quiet {
            prop_assert!(b.observe(0) == 0.0, "burst fired on quiet row {i}");
        }
        prop_assert!(b.observe(storm) > 0.0, "storm delta {storm} did not fire");
    }

    /// The monitor is a pure function of `(t_ns, values)`:
    /// feeding the same arbitrary row stream twice renders byte-identical
    /// reports — the determinism the offline `me-inspect doctor` replay
    /// contract rests on.
    #[test]
    fn monitor_is_deterministic(
        rows in proptest::collection::vec(
            (1u64..2_000_000, 0u64..50_000, 0u64..200, 0u64..64), 1..200),
    ) {
        let names: Vec<String> = ["events", "retransmits_nack", "token_age_ns"]
            .iter().map(|s| s.to_string()).collect();
        let kinds = [SourceKind::Counter, SourceKind::Counter, SourceKind::Gauge];
        let run = || {
            let mut m = HealthMonitor::new(&names, &kinds);
            let mut t = 0u64;
            for (dt, ev, nack, g) in &rows {
                t += dt;
                m.observe(t, &[*ev, *nack, *g]);
            }
            m.report().to_json().render()
        };
        prop_assert_eq!(run(), run());
    }
}
