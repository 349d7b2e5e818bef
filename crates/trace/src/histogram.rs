//! The log₂-bucketed latency histogram shared by every observability
//! surface.
//!
//! The serving daemon records one [`LatencyHistogram`] per request type and
//! ships the snapshots over the wire inside its `Stats` response; the DSE
//! loop records one over its points. The histogram is log₂-bucketed in
//! microseconds — constant memory, constant-time recording, and merges
//! are plain element-wise sums, so aggregation across threads, daemons
//! and fleets never loses information beyond the bucket granularity it
//! started with.
//!
//! The serde encoding (`count` / `total_micros` / `max_micros` /
//! `buckets`) is a wire format: serve protocol v4 ships it verbatim, so
//! it must stay byte-identical across refactors.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Number of log₂ buckets a [`LatencyHistogram`] carries. Bucket `0` counts
/// sub-microsecond samples; bucket `i ≥ 1` counts samples in
/// `[2^(i-1), 2^i)` microseconds; the last bucket is a catch-all above
/// ~33.5 s — far beyond any request the daemon should be serving.
pub const LATENCY_BUCKETS: usize = 26;

/// A fixed-size log₂ latency histogram (microsecond resolution).
///
/// Recording is O(1) and allocation-free after construction; merging two
/// histograms is element-wise addition, which makes per-thread or
/// per-daemon snapshots cheap to aggregate without coordination.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples in microseconds (for exact means).
    pub total_micros: u64,
    /// Largest sample seen, in microseconds.
    pub max_micros: u64,
    /// The log₂ bucket counters (see [`LATENCY_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self { count: 0, total_micros: 0, max_micros: 0, buckets: vec![0; LATENCY_BUCKETS] }
    }

    /// The bucket index a sample of `micros` microseconds falls into.
    #[must_use]
    fn bucket_index(micros: u64) -> usize {
        if micros == 0 {
            0
        } else {
            // floor(log2(micros)) + 1, clamped into the catch-all bucket.
            let log2 = 63 - u64::leading_zeros(micros) as usize;
            (log2 + 1).min(LATENCY_BUCKETS - 1)
        }
    }

    /// The exclusive upper bound (in microseconds) of bucket `index`; the
    /// catch-all bucket reports `u64::MAX`.
    #[must_use]
    pub fn bucket_bound_micros(index: usize) -> u64 {
        if index + 1 >= LATENCY_BUCKETS {
            u64::MAX
        } else {
            1u64 << index
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        self.record_micros(u64::try_from(sample.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one sample given directly in microseconds.
    pub fn record_micros(&mut self, micros: u64) {
        if self.buckets.len() != LATENCY_BUCKETS {
            // A snapshot deserialized from an older (shorter) wire format
            // stays mergeable: normalize before touching the counters.
            self.buckets.resize(LATENCY_BUCKETS, 0);
        }
        self.count += 1;
        self.total_micros = self.total_micros.saturating_add(micros);
        self.max_micros = self.max_micros.max(micros);
        self.buckets[Self::bucket_index(micros)] += 1;
    }

    /// `true` when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean in microseconds (0 when empty).
    #[must_use]
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }

    /// An upper bound on the `p`-th percentile (0.0–1.0) in microseconds:
    /// the bound of the first bucket whose cumulative count reaches
    /// `p * count`. Returns 0 when empty.
    #[must_use]
    pub fn percentile_micros(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                // The catch-all bucket has no finite bound; the max sample
                // is the tightest truthful answer there.
                return Self::bucket_bound_micros(index).min(self.max_micros.max(1));
            }
        }
        self.max_micros
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.buckets.len() != LATENCY_BUCKETS {
            self.buckets.resize(LATENCY_BUCKETS, 0);
        }
        self.count += other.count;
        self.total_micros = self.total_micros.saturating_add(other.total_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
        for (index, &bucket) in other.buckets.iter().enumerate() {
            if bucket > 0 {
                self.buckets[index.min(LATENCY_BUCKETS - 1)] += bucket;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_in_microseconds() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(1023), 10);
        assert_eq!(LatencyHistogram::bucket_index(1024), 11);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn recording_tracks_count_mean_max_and_percentiles() {
        let mut histogram = LatencyHistogram::new();
        assert!(histogram.is_empty());
        assert_eq!(histogram.percentile_micros(0.99), 0);
        for micros in [10, 20, 30, 40, 1_000_000] {
            histogram.record_micros(micros);
        }
        assert_eq!(histogram.count, 5);
        assert_eq!(histogram.total_micros, 1_000_100);
        assert_eq!(histogram.max_micros, 1_000_000);
        assert!((histogram.mean_micros() - 200_020.0).abs() < 1e-9);
        // p50 lands in the [16, 32) bucket; the bound is 32.
        assert_eq!(histogram.percentile_micros(0.5), 32);
        // p99 needs the 5th sample; its bucket bound exceeds the max, so
        // the max is reported instead of a vacuous power of two.
        assert_eq!(histogram.percentile_micros(0.99), 1_000_000);
    }

    #[test]
    fn merge_is_elementwise_and_lossless() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(100));
        b.record(Duration::from_micros(3));
        b.record(Duration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_micros, 100 + 3 + 2_000);
        assert_eq!(a.max_micros, 2_000);
        assert_eq!(a.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn wire_round_trip_preserves_every_counter() {
        let mut histogram = LatencyHistogram::new();
        for micros in [0, 1, 7, 4096, 123_456_789] {
            histogram.record_micros(micros);
        }
        let json = serde_json::to_string(&histogram).expect("serializes");
        let back: LatencyHistogram = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, histogram);
    }

    #[test]
    fn short_deserialized_bucket_vectors_are_normalized() {
        // An older wire format with fewer buckets must stay recordable and
        // mergeable after deserialization.
        let mut short =
            LatencyHistogram { count: 1, total_micros: 5, max_micros: 5, buckets: vec![0, 1] };
        short.record_micros(1 << 20);
        assert_eq!(short.buckets.len(), LATENCY_BUCKETS);
        assert_eq!(short.count, 2);

        let mut target =
            LatencyHistogram { count: 0, total_micros: 0, max_micros: 0, buckets: Vec::new() };
        target.merge(&short);
        assert_eq!(target.count, 2);
        assert_eq!(target.buckets.len(), LATENCY_BUCKETS);
    }
}
