//! Property tests for the telemetry histogram against `OpStats` replay.
//!
//! `dsf_command_page_accesses` and `OpStats::histogram` implement the
//! same power-of-two bucketing independently (one in relaxed atomics, one
//! in plain integers). For *any* access sequence the two must agree on
//! count, sum, max, and every one of the 33 buckets — this is what lets
//! the exporter's `_max` sample stand in for `OpStats::max_accesses`.
//!
//! These cases build private `Registry` instances, so they are safe to
//! run in-process alongside each other (the global spine is untouched).

use proptest::prelude::*;
use willard_dsf::core_::OpStats;
use willard_dsf::telemetry::{Registry, HISTOGRAM_BUCKETS};

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Replaying one access stream into both sides yields identical
    /// count/sum/max and bucket-for-bucket equality; the rendered
    /// cumulative `le` buckets re-sum to the flat counts.
    #[test]
    fn histogram_reconciles_with_op_stats(accesses in prop::collection::vec(0u64..100_000, 0..300)) {
        let reg = Registry::new();
        reg.enable();
        let hist = reg.histogram("acc", "per-command accesses");

        let mut stats = OpStats::default();
        for &a in &accesses {
            hist.record(a);
            stats.record_command(a);
        }

        prop_assert_eq!(hist.count(), stats.commands);
        prop_assert_eq!(hist.sum(), stats.total_accesses);
        prop_assert_eq!(hist.max(), stats.max_accesses);

        let tel_buckets = hist.bucket_counts();
        let ops_buckets = stats.histogram.bucket_counts();
        prop_assert_eq!(tel_buckets, ops_buckets);
        prop_assert_eq!(tel_buckets.iter().sum::<u64>(), stats.commands);

        // Cumulative property of the exposition: each bucket's running
        // total is monotone and the final one equals the count.
        let mut cumulative = 0u64;
        for (i, &b) in tel_buckets.iter().enumerate() {
            cumulative += b;
            prop_assert!(cumulative <= stats.commands, "bucket {} overshoots", i);
        }
        prop_assert_eq!(cumulative, stats.commands);
    }

    /// Merging two OpStats streams matches recording their concatenation
    /// into one telemetry histogram — merge() is the per-shard
    /// aggregation the sharded wrapper relies on.
    #[test]
    fn merged_op_stats_matches_concatenated_histogram(
        left in prop::collection::vec(0u64..50_000, 0..150),
        right in prop::collection::vec(0u64..50_000, 0..150),
    ) {
        let reg = Registry::new();
        reg.enable();
        let hist = reg.histogram("acc", "per-command accesses");

        let mut a = OpStats::default();
        let mut b = OpStats::default();
        for &v in &left {
            a.record_command(v);
            hist.record(v);
        }
        for &v in &right {
            b.record_command(v);
            hist.record(v);
        }
        a.merge(&b);

        prop_assert_eq!(hist.count(), a.commands);
        prop_assert_eq!(hist.sum(), a.total_accesses);
        prop_assert_eq!(hist.max(), a.max_accesses);
        prop_assert_eq!(hist.bucket_counts(), a.histogram.bucket_counts());
        prop_assert_eq!(a.histogram.bucket_counts().len(), HISTOGRAM_BUCKETS);
    }
}
