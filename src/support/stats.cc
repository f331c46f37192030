#include "support/stats.hh"

#include "support/logging.hh"

namespace ccr
{

Histogram::Histogram(std::int64_t lo, std::int64_t hi, std::size_t nbuckets)
    : lo_(lo), hi_(hi), buckets_(nbuckets, 0)
{
    ccr_assert(hi > lo && nbuckets > 0, "bad histogram shape");
}

void
Histogram::record(std::int64_t value, std::uint64_t weight)
{
    samples_ += weight;
    weightedSum_ += static_cast<double>(value) * weight;
    if (value < lo_) {
        underflow_ += weight;
    } else if (value >= hi_) {
        overflow_ += weight;
    } else {
        const auto span = static_cast<double>(hi_ - lo_);
        const auto idx = static_cast<std::size_t>(
            static_cast<double>(value - lo_) / span * buckets_.size());
        buckets_[idx] += weight;
    }
}

double
Histogram::mean() const
{
    return samples_ == 0 ? 0.0 : weightedSum_ / samples_;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    overflow_ = underflow_ = samples_ = 0;
    weightedSum_ = 0.0;
}

} // namespace ccr
