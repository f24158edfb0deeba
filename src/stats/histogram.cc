#include "stats/histogram.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"

namespace ddc {
namespace stats {

Histogram::Histogram(std::size_t num_buckets, std::uint64_t bucket_width)
    : buckets(num_buckets + 1, 0), width(bucket_width)
{
    ddc_assert(num_buckets >= 1, "histogram needs at least one bucket");
    ddc_assert(bucket_width >= 1, "bucket width must be positive");
}

void
Histogram::sample(std::uint64_t value)
{
    std::size_t index = static_cast<std::size_t>(value / width);
    if (index >= buckets.size() - 1)
        index = buckets.size() - 1;
    buckets[index]++;

    if (sampleCount == 0) {
        sampleMin = value;
        sampleMax = value;
    } else {
        sampleMin = std::min(sampleMin, value);
        sampleMax = std::max(sampleMax, value);
    }
    sampleCount++;
    sampleSum += value;
}

double
Histogram::mean() const
{
    if (sampleCount == 0)
        return 0.0;
    return static_cast<double>(sampleSum) / static_cast<double>(sampleCount);
}

std::uint64_t
Histogram::bucketCount(std::size_t index) const
{
    ddc_assert(index < buckets.size(), "bucket index out of range");
    return buckets[index];
}

std::uint64_t
Histogram::percentile(double fraction) const
{
    if (sampleCount == 0)
        return 0;
    if (fraction <= 0.0)
        return sampleMin;
    fraction = std::min(fraction, 1.0);
    // Nearest-rank at bucket granularity: find the bucket holding the
    // target-th sample.  The rank rounds to nearest but is at least 1
    // so tiny fractions still resolve to a populated bucket instead of
    // falling through an empty bucket 0.
    std::uint64_t target = static_cast<std::uint64_t>(
        fraction * static_cast<double>(sampleCount) + 0.5);
    target = std::max<std::uint64_t>(target, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); i++) {
        seen += buckets[i];
        if (seen >= target) {
            if (i == buckets.size() - 1)
                return sampleMax;
            // Upper edge of the bucket, clamped to the observed range
            // so the answer is always a value that could have been
            // sampled (e.g. one sample of 5 with width 4 reports 5,
            // not the bucket edge 7).
            return std::clamp((i + 1) * width - 1, sampleMin,
                              sampleMax);
        }
    }
    return sampleMax;
}

void
Histogram::clear()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    sampleCount = 0;
    sampleSum = 0;
    sampleMin = 0;
    sampleMax = 0;
}

std::string
Histogram::render() const
{
    std::ostringstream os;
    os << "samples=" << sampleCount << " mean=" << mean()
       << " min=" << min() << " max=" << max() << "\n";
    for (std::size_t i = 0; i < buckets.size(); i++) {
        if (buckets[i] == 0)
            continue;
        if (i == buckets.size() - 1) {
            os << "  [" << i * width << ", inf)";
        } else {
            os << "  [" << i * width << ", " << (i + 1) * width << ")";
        }
        os << " : " << buckets[i] << "\n";
    }
    return os.str();
}

} // namespace stats
} // namespace ddc
