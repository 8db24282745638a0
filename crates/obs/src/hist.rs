//! # Deterministic log2-bucketed histograms
//!
//! A fixed-shape histogram for latency-/size-like `u64` samples, designed
//! for the toolchain's self-profiling planes (scheduler telemetry, SAT
//! solver stats). Three properties drive the design:
//!
//! * **Deterministic** — bucket boundaries are powers of two, fixed at
//!   compile time; recording the same multiset of samples always yields the
//!   same state, so serialized output is byte-identical across runs.
//! * **Mergeable** — [`Histogram::merge`] is commutative and associative
//!   (sums, mins, maxes), so per-worker histograms merged in module/worker
//!   order produce byte-identical output at any `--threads` value.
//! * **Strict JSON** — its [`Json`] form is a single-line object
//!   that round-trips through [`crate::json::parse`]; only non-empty
//!   buckets are serialized.
//!
//! Bucketing: index 0 holds the value `0` exactly; index `i >= 1` covers
//! the inclusive range `[2^(i-1), 2^i - 1]`. Every `u64` maps to exactly
//! one of the 65 buckets.

use crate::json::{Json, Writer};

/// Number of buckets: one for zero plus one per bit position.
pub const NUM_BUCKETS: usize = 65;

/// A mergeable log2-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }

    /// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive `[lo, hi]` range covered by bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else if i >= 64 {
            (1u64 << 63, u64::MAX)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples (one bucket update).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.buckets[Self::bucket_index(v)] += n;
    }

    /// Fold another histogram into this one. Commutative and associative,
    /// so any merge order over the same per-worker parts yields identical
    /// state — merge in module/worker order for byte-identical output.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
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

    /// Arithmetic mean rounded to the nearest integer (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum
            .saturating_add(self.count / 2)
            .checked_div(self.count)
            .unwrap_or(0)
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }
}

/// Strict single-line JSON: `{"count":..,"sum":..,"min":..,"max":..,
/// "mean":..,"buckets":[{"lo":..,"hi":..,"count":..},..]}` with only
/// non-empty buckets listed (ascending).
impl Json for Histogram {
    fn write_json(&self, w: &mut Writer) {
        let buckets = (0..NUM_BUCKETS)
            .filter(|&i| self.buckets[i] > 0)
            .map(|i| (Self::bucket_bounds(i), self.buckets[i]));
        crate::json_object!(w, {
            "count": self.count, "sum": self.sum, "min": self.min(), "max": self.max,
            "mean": self.mean(),
            "buckets": [for ((lo, hi), n) in buckets => {"lo": lo, "hi": hi, "count": n}],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn zero_lands_in_its_own_bucket() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.bucket_count(0), 1);
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (1, 0, 0, 0));
    }

    #[test]
    fn power_of_two_edges() {
        // 2^k starts bucket k+1; 2^k - 1 closes bucket k.
        for k in 1..64usize {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_index(v), k + 1, "2^{k}");
            assert_eq!(Histogram::bucket_index(v - 1), k, "2^{k}-1");
            let (lo, hi) = Histogram::bucket_bounds(k + 1);
            assert!(lo <= v && v <= hi);
        }
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bounds(64), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn every_value_maps_inside_its_bucket_bounds() {
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            9,
            1023,
            1024,
            1025,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert!(
                lo <= v && v <= hi,
                "value {v} outside bucket {i} [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn merge_is_order_independent() {
        // Three worker-local parts merged in two different orders must be
        // byte-identical once serialized.
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let parts = [
            mk(&[0, 1, 5, 1 << 20]),
            mk(&[3, 3, 3, u64::MAX]),
            mk(&[]),
            mk(&[7, 8, 1 << 33]),
        ];
        let mut fwd = Histogram::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Histogram::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(json::to_string(&fwd), json::to_string(&rev));
        // Merge equals recording everything into one histogram.
        let mut flat = Histogram::new();
        for &v in &[0u64, 1, 5, 1 << 20, 3, 3, 3, u64::MAX, 7, 8, 1 << 33] {
            flat.record(v);
        }
        assert_eq!(fwd, flat);
    }

    #[test]
    fn empty_histogram_serializes_cleanly() {
        let h = Histogram::new();
        assert_eq!(
            json::to_string(&h),
            "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"mean\":0,\"buckets\":[]}"
        );
        json::parse(&json::to_string(&h)).expect("strict JSON");
    }

    #[test]
    fn json_round_trips_and_lists_only_nonempty_buckets() {
        let mut h = Histogram::new();
        h.record_n(0, 2);
        h.record(1);
        h.record(6); // bucket [4,7]
        h.record(7);
        let v = json::parse(&json::to_string(&h)).expect("strict JSON");
        let obj = match v {
            crate::json::Value::Object(o) => o,
            _ => panic!("expected object"),
        };
        let get = |k: &str| {
            obj.iter()
                .find(|(n, _)| n.as_str() == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("{k}"))
        };
        assert_eq!(get("count"), crate::json::Value::Number(5.0));
        assert_eq!(get("sum"), crate::json::Value::Number(14.0));
        match get("buckets") {
            crate::json::Value::Array(b) => assert_eq!(b.len(), 3),
            _ => panic!("buckets not an array"),
        }
    }

    #[test]
    fn saturating_sum_does_not_wrap() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }
}
