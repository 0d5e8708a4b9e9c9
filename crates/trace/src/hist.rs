//! Log-bucketed latency histogram (HdrHistogram-lite).
//!
//! Values are `u64` (this workspace records nanoseconds). Each power-of-two
//! octave is split into `2^SUB_BITS = 32` linear sub-buckets, bounding the
//! relative quantization error at ≈ 1/32 ≈ 3% while keeping the whole
//! histogram a flat 1920-slot array that merges with plain addition —
//! exactly what per-connection rollups need.

use crate::json::Json;

/// Sub-bucket resolution: 32 linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count for the full `u64` range:
/// `SUB` identity buckets + `(64 - SUB_BITS)` octaves × `SUB` sub-buckets.
const BUCKETS: usize = (SUB as usize) * (65 - SUB_BITS as usize);

/// Mergeable log-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let oct = msb - SUB_BITS;
    let sub = (v >> oct) - SUB; // top SUB_BITS+1 bits, minus the leading 1
    ((oct as usize + 1) << SUB_BITS) + sub as usize
}

/// Inclusive lower bound of bucket `i` (the value reported for samples that
/// landed in it).
fn bucket_floor(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let oct = (i >> SUB_BITS) as u32 - 1;
    let sub = (i & (SUB as usize - 1)) as u64;
    (SUB + sub) << oct
}

impl LogHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the recorded samples (saturating at `u64::MAX`).
    /// Unlike the percentiles this is not quantized, so two histograms
    /// recording the same underlying durations report identical sums —
    /// the attribution layer relies on that for exact reconciliation.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the exact samples (not the bucket floors); 0 when
    /// empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at percentile `p` (0–100): the floor of the bucket containing
    /// the `ceil(p% · count)`-th sample, clamped to the observed min/max so
    /// quantization never reports a value outside the recorded range.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(floor_value, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_floor(i), c))
            .collect()
    }

    /// Serialize for baseline/diff artifacts. Buckets are packed as a
    /// compact `"floor:count,floor:count,…"` string — a nested array would
    /// explode the pretty renderer (one line per element) and MB-scale
    /// committed baselines. `min` is omitted when empty (the internal
    /// sentinel `u64::MAX` is not exactly representable in JSON's f64).
    /// Values must stay below 2^53 to round-trip exactly; nanosecond
    /// durations do by a wide margin.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .nonzero_buckets()
            .iter()
            .map(|(f, c)| format!("{f}:{c}"))
            .collect::<Vec<_>>()
            .join(",");
        let mut j = Json::obj().set("count", self.count).set("sum", self.sum);
        if self.count > 0 {
            j = j.set("min", self.min).set("max", self.max);
        }
        j.set("buckets", buckets)
    }

    /// Rebuild a histogram from [`LogHistogram::to_json`] output. Restores
    /// the exact internal state (so `from_json(to_json(h)) == h`), checking
    /// that every floor is a real bucket floor and that the bucket counts
    /// sum to `count`.
    pub fn from_json(j: &Json) -> Result<LogHistogram, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("hist: missing field '{k}'"))
        };
        let count = num("count")?;
        let mut h = LogHistogram::new();
        if count == 0 {
            return Ok(h);
        }
        let buckets = j
            .get("buckets")
            .and_then(|v| v.as_str())
            .ok_or("hist: missing field 'buckets'")?;
        let mut total = 0u64;
        for pair in buckets.split(',').filter(|s| !s.is_empty()) {
            let (floor, c) = pair
                .split_once(':')
                .ok_or_else(|| format!("hist: malformed bucket '{pair}'"))?;
            let floor: u64 = floor
                .parse()
                .map_err(|_| format!("hist: bad bucket floor '{floor}'"))?;
            let c: u64 = c
                .parse()
                .map_err(|_| format!("hist: bad bucket count '{c}'"))?;
            let i = bucket_index(floor);
            if bucket_floor(i) != floor {
                return Err(format!("hist: {floor} is not a bucket floor"));
            }
            h.counts[i] += c;
            total += c;
        }
        if total != count {
            return Err(format!(
                "hist: bucket counts sum to {total}, expected {count}"
            ));
        }
        h.count = count;
        h.sum = num("sum")?;
        h.min = num("min")?;
        h.max = num("max")?;
        if h.min > h.max {
            return Err(format!("hist: min {} above max {}", h.min, h.max));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_range_is_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for v in 0..32usize {
            assert_eq!(bucket_floor(v), v as u64);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn floor_below_value_and_within_3pct() {
        for v in [
            32u64,
            33,
            100,
            1_000,
            27_500,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let f = bucket_floor(bucket_index(v));
            assert!(f <= v, "floor {f} above value {v}");
            assert!(
                (v - f) as f64 <= v as f64 / 32.0 + 1.0,
                "quantization too coarse for {v}: floor {f}"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn single_value_dominates_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(27_500);
        for p in [0.0, 0.001, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 27_500, "p{p}");
        }
        assert_eq!((h.min(), h.max()), (27_500, 27_500));
        assert_eq!(h.mean(), 27_500.0);
    }

    #[test]
    fn percentile_edges_clamp_to_observed_range() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30, 1_000_000] {
            h.record(v);
        }
        // p0 (and out-of-range negatives) resolve to the first sample; p100
        // (and overshoots) to the last, never outside [min, max].
        assert_eq!(h.percentile(0.0), 10);
        assert_eq!(h.percentile(-5.0), 10);
        assert_eq!(h.percentile(100.0), h.percentile(200.0));
        assert!(h.percentile(100.0) <= h.max());
        assert!(h.percentile(100.0) >= 983_040); // within 3% below 1e6
                                                 // p25 covers exactly the first sample (ceil(0.25*4) = 1).
        assert_eq!(h.percentile(25.0), 10);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let vals_a = [3u64, 33, 1_000, 27_500, 1 << 33];
        let vals_b = [0u64, 5, 40, 999, 27_500, u64::MAX];
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in vals_a {
            a.record(v);
            both.record(v);
        }
        for v in vals_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        // Bucket-wise addition must be indistinguishable from having
        // recorded every sample into a single histogram.
        assert_eq!(a, both);
        assert_eq!(a.count(), (vals_a.len() + vals_b.len()) as u64);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), u64::MAX);
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            assert_eq!(a.percentile(p), both.percentile(p), "p{p}");
        }
    }

    #[test]
    fn merging_empty_is_identity() {
        let mut h = LogHistogram::new();
        h.record(42);
        let before = h.clone();
        h.merge(&LogHistogram::new());
        assert_eq!(h, before);
        let mut e = LogHistogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 3, 33, 1_000, 27_500, 27_500, 1 << 33, (1 << 50) + 7] {
            h.record(v);
        }
        let text = h.to_json().render_pretty();
        let back = LogHistogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        for p in [1.0, 50.0, 99.0] {
            assert_eq!(back.percentile(p), h.percentile(p));
        }
    }

    #[test]
    fn json_round_trip_empty() {
        let h = LogHistogram::new();
        let j = h.to_json();
        assert!(j.get("min").is_none(), "empty hist must omit min");
        let back = LogHistogram::from_json(&j).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.min, u64::MAX, "empty sentinel restored");
    }

    #[test]
    fn from_json_rejects_corrupt_documents() {
        for (bad, why) in [
            (Json::obj(), "missing count"),
            (
                Json::obj()
                    .set("count", 1u64)
                    .set("sum", 100u64)
                    .set("min", 100u64)
                    .set("max", 100u64),
                "missing buckets",
            ),
            (
                Json::obj()
                    .set("count", 1u64)
                    .set("sum", 100u64)
                    .set("min", 100u64)
                    .set("max", 100u64)
                    .set("buckets", "101:1"),
                "non-floor bucket",
            ),
            (
                Json::obj()
                    .set("count", 1u64)
                    .set("sum", 100u64)
                    .set("min", 100u64)
                    .set("max", 100u64)
                    .set("buckets", "96:2"),
                "count/bucket mismatch",
            ),
            (
                Json::obj()
                    .set("count", 1u64)
                    .set("sum", 100u64)
                    .set("min", 200u64)
                    .set("max", 100u64)
                    .set("buckets", "96:1"),
                "min above max",
            ),
        ] {
            assert!(LogHistogram::from_json(&bad).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn indices_monotone_across_octave_boundaries() {
        let mut prev = 0usize;
        for msb in 5..63u32 {
            for v in [(1u64 << msb) - 1, 1u64 << msb, (1u64 << msb) + 1] {
                let i = bucket_index(v);
                assert!(i >= prev, "index not monotone at {v}");
                assert!(i < BUCKETS);
                prev = i;
            }
        }
    }
}
