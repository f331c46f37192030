/**
 * @file
 * Statistic primitives: a scalar counter and a fixed-bucket histogram.
 * Components name and group them through obs::MetricRegistry.
 */

#ifndef CCR_SUPPORT_STATS_HH
#define CCR_SUPPORT_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccr
{

/** A monotonically increasing scalar statistic. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** A fixed-bucket histogram over a value range. */
class Histogram
{
  public:
    /** Buckets [lo, hi) split into @p nbuckets, plus an overflow bucket. */
    Histogram(std::int64_t lo, std::int64_t hi, std::size_t nbuckets);
    Histogram() : Histogram(0, 1, 1) {}

    void record(std::int64_t value, std::uint64_t weight = 1);

    std::uint64_t samples() const { return samples_; }
    double mean() const;
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t underflow() const { return underflow_; }

    void reset();

  private:
    std::int64_t lo_;
    std::int64_t hi_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t samples_ = 0;
    double weightedSum_ = 0.0;
};

} // namespace ccr

#endif // CCR_SUPPORT_STATS_HH
