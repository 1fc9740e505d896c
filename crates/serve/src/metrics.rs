//! Lock-free latency histograms for the serving layer.
//!
//! A [`LatencyHistogram`] is a fixed array of microsecond buckets backed by
//! `AtomicU64` counters: recording is one atomic increment (no locks, **no
//! allocation** — the exact-cache-hit response path records into these), and
//! quantiles are read by walking the cumulative counts.
//!
//! The bucket layout is HDR-style: exact buckets below 32 µs, then four
//! sub-buckets per power of two (bucket `[2^o + s·2^(o-2), 2^o + (s+1)·2^(o-2))`
//! for `s ∈ 0..4`), so quantile answers carry at most ~25 % resolution
//! error across the full `u64` range — accurate enough that p50/p99 ratios
//! between fast (cache-hit) and slow (cold-run) populations are meaningful.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live counters of the durable schedule store ([`crate::store`]), updated
/// lock-free from the store's writer thread and its startup recovery scan,
/// and snapshotted into [`StoreStats`]; on the wire they are the
/// `bsp_store_*` series of `METRICS`.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// Entries recovered at startup and repopulated into the cache.
    pub loaded: AtomicU64,
    /// Bytes of checksum-valid records recovered at startup.
    pub recovered_bytes: AtomicU64,
    /// Torn or corrupt records dropped by recovery scans (each truncation or
    /// checksum failure counts once).
    pub dropped_corrupt: AtomicU64,
    /// Segment compactions run (disk budget exceeded; live entries rewritten,
    /// superseded ones dropped).
    pub compactions: AtomicU64,
    /// Failed or refused writes: I/O errors, injected faults, and appends
    /// dropped because the bounded writer queue was full.
    pub write_errors: AtomicU64,
    /// Records durably appended (written and flushed) — not part of the
    /// required counter set, but the fault-injection harness needs a lower
    /// bound on the durable set observable over the wire.
    pub appended: AtomicU64,
    /// Records dropped on open because a placement-epoch change moved their
    /// structure key to another shard (re-sharding, policy version bump).
    pub dropped_foreign: AtomicU64,
    /// Recovered records adopted although this shard is not their
    /// structure-range owner (load-steered or failed-over entries).  A
    /// count, not an error: affinity may legitimately home a family off its
    /// range owner within an epoch.
    pub adopted_foreign: AtomicU64,
}

impl StoreCounters {
    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            loaded: self.loaded.load(Ordering::Relaxed),
            recovered_bytes: self.recovered_bytes.load(Ordering::Relaxed),
            dropped_corrupt: self.dropped_corrupt.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            appended: self.appended.load(Ordering::Relaxed),
            dropped_foreign: self.dropped_foreign.load(Ordering::Relaxed),
            adopted_foreign: self.adopted_foreign.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of [`StoreCounters`]; all-zero when the service runs without a
/// durable store.  Summed across shards by the router's `METRICS` aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries recovered at startup and repopulated into the cache.
    pub loaded: u64,
    /// Bytes of checksum-valid records recovered at startup.
    pub recovered_bytes: u64,
    /// Torn or corrupt records dropped by recovery scans.
    pub dropped_corrupt: u64,
    /// Segment compactions run.
    pub compactions: u64,
    /// Failed or refused writes.
    pub write_errors: u64,
    /// Records durably appended (written and flushed).
    pub appended: u64,
    /// Records dropped on open by a placement-epoch change.
    pub dropped_foreign: u64,
    /// Foreign-structure records adopted anyway (steered/failed-over).
    pub adopted_foreign: u64,
}

/// Values below this are counted in exact 1 µs buckets.
const LINEAR: u64 = 32;
/// 32 linear buckets + 4 sub-buckets per octave for octaves 5..=63.
const BUCKETS: usize = LINEAR as usize + 59 * 4;

/// A histogram of request latencies (see the module docs).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket_of(micros: u64) -> usize {
        if micros < LINEAR {
            micros as usize
        } else {
            let octave = 63 - u64::from(micros.leading_zeros()); // >= 5
            let sub = (micros >> (octave - 2)) & 3;
            (LINEAR + (octave - 5) * 4 + sub) as usize
        }
    }

    /// What quantiles report for bucket `idx`: the exact value for the 1 µs
    /// linear buckets (bucket `i` holds only observations of exactly `i` µs,
    /// so reporting `i + 1` would bias every sub-32 µs quantile upward), and
    /// the exclusive upper edge for the quarter-octave buckets (conservative
    /// within the ~25 % resolution).
    fn upper_edge(idx: usize) -> u64 {
        if idx < LINEAR as usize {
            idx as u64
        } else {
            let rel = (idx - LINEAR as usize) as u64;
            let octave = 5 + rel / 4;
            let sub = rel % 4;
            // Saturates only in the very top octave (2^63 + 2^63).
            (1u64 << octave).saturating_add((sub + 1) << (octave - 2))
        }
    }

    /// Inclusive lower edge of bucket `idx` (the smallest value the bucket
    /// can hold).  Used for in-bucket quantile interpolation.
    fn lower_edge(idx: usize) -> u64 {
        if idx < LINEAR as usize {
            idx as u64
        } else {
            let rel = (idx - LINEAR as usize) as u64;
            let octave = 5 + rel / 4;
            let sub = rel % 4;
            (1u64 << octave) + (sub << (octave - 2))
        }
    }

    /// Records one observation.  Lock- and allocation-free.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Adds every observation of `other` into `self` (used to pool the
    /// per-client histograms of the bench harness).
    pub fn merge_from(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.total_micros.fetch_add(
            other.total_micros.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded latencies in microseconds.
    pub fn total_micros(&self) -> u64 {
        self.total_micros.load(Ordering::Relaxed)
    }

    /// Visits every non-empty bucket as `(upper_edge_micros, count)`, in
    /// ascending edge order.  This is the wire shape of the histogram: the
    /// Prometheus exposition renders these as cumulative `le` buckets, and
    /// [`LatencyHistogram::add_bucket_with_le`] reconstructs them on the
    /// receiving side.
    pub fn for_each_bucket<F: FnMut(u64, u64)>(&self, mut f: F) {
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                f(Self::upper_edge(i), n);
            }
        }
    }

    /// Adds `n` observations to the bucket whose reported upper edge is `le`
    /// (as produced by [`LatencyHistogram::for_each_bucket`] on the far
    /// side).  Every bucket's edge maps back to itself — linear edges are the
    /// bucket's exact value, and `le - 1` lies strictly inside a
    /// quarter-octave bucket — so shipping a histogram over the wire and
    /// re-adding it is lossless.  Does not touch the latency sum; pair with
    /// [`LatencyHistogram::add_total_micros`].
    pub fn add_bucket_with_le(&self, le: u64, n: u64) {
        let representative = if le < LINEAR { le } else { le - 1 };
        self.buckets[Self::bucket_of(representative)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the recorded latency sum (the `_sum` series of the wire
    /// exposition).
    pub fn add_total_micros(&self, micros: u64) {
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.total_micros.load(Ordering::Relaxed) as f64 / count as f64
    }

    /// Reported value (µs) of quantile `q ∈ [0, 1]`: exact below 32 µs,
    /// rank-interpolated inside the quarter-octave bucket above.  0 when the
    /// histogram is empty.
    ///
    /// The interpolation is a pure function of the bucket counts — the rank's
    /// position within its bucket is mapped linearly onto the bucket's
    /// `(lower, upper]` edge span — so two histograms holding the same
    /// observations report the same quantiles whether the observations were
    /// recorded directly or pooled via [`LatencyHistogram::merge_from`] /
    /// the wire exposition.  (The old edge-only answer already had that
    /// property, but jumped by a full ~25 % bucket width at every sub-bucket
    /// boundary; a single observation per bucket still reports the
    /// conservative upper edge.)
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket >= rank {
                if i < LINEAR as usize {
                    // Linear buckets hold exactly one value: report it.
                    return i as u64;
                }
                let lo = Self::lower_edge(i);
                let hi = Self::upper_edge(i);
                let pos = rank - seen; // 1..=in_bucket
                let span = u128::from(hi - lo);
                return lo + (span * u128::from(pos) / u128::from(in_bucket)) as u64;
            }
            seen += in_bucket;
        }
        u64::MAX
    }

    /// Convenience: `(p50, p99)` in microseconds.
    pub fn p50_p99_micros(&self) -> (u64, u64) {
        (self.quantile_micros(0.50), self.quantile_micros(0.99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_then_quarter_octave() {
        // Linear range: one bucket per microsecond.
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(31), 31);
        // 32 starts the first octave's first sub-bucket [32, 40).
        assert_eq!(LatencyHistogram::bucket_of(32), 32);
        assert_eq!(LatencyHistogram::bucket_of(39), 32);
        assert_eq!(LatencyHistogram::bucket_of(40), 33);
        // Every bucket's reported value bounds its own values from above
        // (exactly for linear buckets, conservatively for octave buckets).
        for v in [0u64, 5, 31, 32, 100, 1024, 5000, 1 << 30, u64::MAX] {
            let idx = LatencyHistogram::bucket_of(v);
            assert!(LatencyHistogram::upper_edge(idx) >= v || v == u64::MAX);
            if idx > 0 {
                assert!(LatencyHistogram::upper_edge(idx - 1) <= v);
            }
        }
        // Linear buckets are exact: the reported value IS the observation.
        for v in 0..LINEAR {
            assert_eq!(
                LatencyHistogram::upper_edge(LatencyHistogram::bucket_of(v)),
                v
            );
        }
    }

    #[test]
    fn exact_buckets_report_exact_values() {
        // Regression: a population of all-10 µs observations must report
        // p50 = p99 = 10 µs, not 11 (the old `idx + 1` upper edge).
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(Duration::from_micros(10));
        }
        assert_eq!(h.p50_p99_micros(), (10, 10));
        assert_eq!(h.quantile_micros(1.0), 10);
    }

    #[test]
    fn quantiles_bound_the_observations() {
        let h = LatencyHistogram::new();
        for micros in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 5000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 10);
        let (p50, p99) = h.p50_p99_micros();
        // p50 = 50 µs falls in [48, 56) -> 56; p99 = 5000 in [4096, 5120) -> 5120.
        assert_eq!(p50, 56);
        assert_eq!(p99, 5120);
        assert!(h.mean_micros() > 0.0);
    }

    #[test]
    fn merge_pools_observations() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for micros in [10u64, 20] {
            a.record(Duration::from_micros(micros));
        }
        for micros in [30u64, 40, 5000] {
            b.record(Duration::from_micros(micros));
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.quantile_micros(1.0), 5120);
        assert_eq!(a.quantile_micros(0.2), 10);
    }

    #[test]
    fn quantiles_interpolate_within_octave_buckets() {
        // 4 observations in one quarter-octave bucket [1024, 1280) must
        // spread the quantile answers across the bucket instead of jumping
        // to the upper edge for all of them.
        let h = LatencyHistogram::new();
        for _ in 0..4 {
            h.record(Duration::from_micros(1100));
        }
        // Ranks 1..=4 map to lo + span·pos/4 = 1088, 1152, 1216, 1280.
        assert_eq!(h.quantile_micros(0.25), 1088);
        assert_eq!(h.quantile_micros(0.50), 1152);
        assert_eq!(h.quantile_micros(0.75), 1216);
        assert_eq!(h.quantile_micros(1.00), 1280);
    }

    #[test]
    fn merged_and_single_source_quantiles_are_identical() {
        // Satellite: recording a population directly and recording it split
        // across histograms then pooling must answer every quantile
        // identically — including at sub-bucket boundaries.
        let single = LatencyHistogram::new();
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let population: Vec<u64> = (0..200).map(|i| (i * 37 + 3) % 9000).collect();
        for (i, &micros) in population.iter().enumerate() {
            single.record(Duration::from_micros(micros));
            let half = if i % 2 == 0 { &a } else { &b };
            half.record(Duration::from_micros(micros));
        }
        a.merge_from(&b);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(single.quantile_micros(q), a.quantile_micros(q), "q={q}");
        }
    }

    #[test]
    fn wire_bucket_round_trip_is_lossless() {
        // for_each_bucket → add_bucket_with_le must reproduce the histogram
        // bucket for bucket (the METRICS merge path in the router).
        let src = LatencyHistogram::new();
        for micros in [0u64, 1, 31, 32, 39, 40, 1100, 5000, 1 << 40, u64::MAX] {
            src.record(Duration::from_micros(micros));
        }
        let dst = LatencyHistogram::new();
        src.for_each_bucket(|le, n| dst.add_bucket_with_le(le, n));
        dst.add_total_micros(src.total_micros());
        assert_eq!(dst.count(), src.count());
        assert_eq!(dst.total_micros(), src.total_micros());
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(dst.quantile_micros(q), src.quantile_micros(q), "q={q}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_micros(0.5), 0);
        assert_eq!(h.mean_micros(), 0.0);
    }
}
