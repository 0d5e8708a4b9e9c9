//! Property tests for the comparison machinery behind regression
//! diagnosis: the per-phase subtraction is exactly antisymmetric,
//! identical inputs subtract to exactly zero, merging histograms then
//! diffing equals diffing the jointly-recorded distributions, and the JSON
//! encoding round-trips bit-exactly — all over random log-bucketed
//! distributions.

use me_trace::{diff_rollups, Json, LogHistogram, PhaseRollup};
use proptest::prelude::*;

/// Random latency samples spanning the histogram's log range, bounded so a
/// 200-sample `sum` stays inside f64's exact-integer range (2^53): the Json
/// number model is f64, so exact round-tripping is only promised there —
/// real artifacts hold nanosecond latencies orders of magnitude below it.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1 << 44), 1..200)
}

fn hist_of(values: &[u64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// A rollup with one op per sample, sample `i` landing in phase
/// `i % phases`.
fn rollup_of(values: &[u64]) -> PhaseRollup {
    let mut r = PhaseRollup::default();
    for (i, &v) in values.iter().enumerate() {
        r.ops += 1;
        r.latency_total_ns += v;
        r.latency_hist.record(v);
        let ph = i % r.phase_total_ns.len();
        r.phase_total_ns[ph] += v;
        r.phase_hist[ph].record(v);
    }
    r
}

const QUANTILES: [f64; 5] = [10.0, 50.0, 90.0, 99.0, 100.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Swapping old and new negates every per-op phase delta exactly (not
    /// just approximately: IEEE rounding is sign-symmetric), swaps the
    /// p50/p99 sides, and names the same dominant phase.
    #[test]
    fn phase_subtraction_is_antisymmetric(a in samples(), b in samples()) {
        let (ra, rb) = (rollup_of(&a), rollup_of(&b));
        let fwd = diff_rollups("x", &ra, &rb);
        let rev = diff_rollups("x", &rb, &ra);
        for (f, r) in fwd.per_op_delta_ns().iter().zip(rev.per_op_delta_ns()) {
            prop_assert_eq!(*f, -r);
        }
        prop_assert_eq!((fwd.old.p50_ns, fwd.old.p99_ns), (rev.new.p50_ns, rev.new.p99_ns));
        prop_assert_eq!(
            fwd.dominant().map(|(p, d)| (p, -d)),
            rev.dominant()
        );
    }

    /// A rollup subtracted from itself is identical: zero per-op delta in
    /// every phase, no dominant phase, and an `identical` headline.
    #[test]
    fn identical_inputs_diff_to_exactly_zero(a in samples()) {
        let r = rollup_of(&a);
        let d = diff_rollups("self", &r, &r);
        prop_assert!(d.identical());
        prop_assert_eq!(d.dominant(), None);
        prop_assert_eq!(d.headline(), "self: identical");
        for delta in d.per_op_delta_ns() {
            prop_assert_eq!(delta, 0.0);
        }
    }

    /// Merging per-round histograms and then diffing gives the same answer
    /// as diffing histograms recorded jointly over the concatenated samples
    /// — the property that makes multi-round documents mergeable at all.
    #[test]
    fn merge_then_diff_equals_diff_of_merges(
        a1 in samples(), a2 in samples(),
        b1 in samples(), b2 in samples(),
    ) {
        let mut old_merged = rollup_of(&a1);
        old_merged.merge(&rollup_of(&a2));
        let mut new_merged = rollup_of(&b1);
        new_merged.merge(&rollup_of(&b2));
        let old_joint = hist_of(&[a1.clone(), a2.clone()].concat());
        let new_joint = hist_of(&[b1.clone(), b2.clone()].concat());
        prop_assert_eq!(&old_merged.latency_hist, &old_joint);
        prop_assert_eq!(&new_merged.latency_hist, &new_joint);
        let d = diff_rollups("m", &old_merged, &new_merged);
        prop_assert_eq!(d.old.p50_ns, old_joint.percentile(50.0));
        prop_assert_eq!(d.new.p99_ns, new_joint.percentile(99.0));
    }

    /// The compact JSON encoding round-trips bit-exactly through the
    /// renderer and parser, so a committed artifact diffs against a live
    /// run exactly as the original in-memory histogram would.
    #[test]
    fn hist_json_round_trips_through_text(a in samples()) {
        let h = hist_of(&a);
        let text = h.to_json().render_pretty();
        let back = LogHistogram::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&back, &h);
        for p in QUANTILES {
            prop_assert_eq!(h.percentile(p), back.percentile(p));
        }
    }
}
