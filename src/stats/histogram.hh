/**
 * @file
 * Fixed-bucket histogram for latency/occupancy distributions.
 */

#ifndef DDC_STATS_HISTOGRAM_HH
#define DDC_STATS_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ddc {
namespace stats {

/**
 * A histogram over non-negative integer samples with uniform buckets
 * plus an overflow bucket.  Also tracks count/sum/min/max so means and
 * extremes survive bucketing.
 */
class Histogram
{
  public:
    /**
     * @param num_buckets Number of uniform buckets before overflow.
     * @param bucket_width Width of each bucket (>= 1).
     */
    Histogram(std::size_t num_buckets = 16, std::uint64_t bucket_width = 1);

    /** Record one sample. */
    void sample(std::uint64_t value);

    /** Number of samples recorded. */
    std::uint64_t count() const { return sampleCount; }

    /** Sum of all samples. */
    std::uint64_t sum() const { return sampleSum; }

    /** Mean of samples (0 when empty). */
    double mean() const;

    /** Smallest sample (0 when empty). */
    std::uint64_t min() const { return sampleCount ? sampleMin : 0; }

    /** Largest sample (0 when empty). */
    std::uint64_t max() const { return sampleMax; }

    /** Count in bucket @p index; the last bucket is the overflow bucket. */
    std::uint64_t bucketCount(std::size_t index) const;

    /** Number of buckets including the overflow bucket. */
    std::size_t numBuckets() const { return buckets.size(); }

    /** Width of each uniform bucket. */
    std::uint64_t bucketWidth() const { return width; }

    /**
     * Smallest sample value v such that at least @p fraction of samples
     * are <= v, resolved at bucket granularity.
     *
     * Edge behavior (all deterministic, all within [min(), max()]):
     *  - empty histogram: 0 for any fraction;
     *  - fraction <= 0: min() (the 0th percentile is the smallest
     *    sample, not a bucket edge);
     *  - fraction >= 1: clamped to 1, which resolves to max() when the
     *    top-ranked sample lives in the last populated bucket;
     *  - overflow bucket: max() (the bucket has no finite upper edge);
     *  - interior buckets: the bucket's upper edge
     *    ((i + 1) * width - 1), clamped to [min(), max()] so a sparse
     *    histogram never reports a value outside the observed range.
     */
    std::uint64_t percentile(double fraction) const;

    /** Reset to empty. */
    void clear();

    /** Multi-line ASCII rendering with counts per bucket. */
    std::string render() const;

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t width;
    std::uint64_t sampleCount = 0;
    std::uint64_t sampleSum = 0;
    std::uint64_t sampleMin = 0;
    std::uint64_t sampleMax = 0;
};

} // namespace stats
} // namespace ddc

#endif // DDC_STATS_HISTOGRAM_HH
