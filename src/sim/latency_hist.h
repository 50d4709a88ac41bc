/**
 * @file
 * Fixed-bucket log-spaced latency histogram (docs/ARCHITECTURE.md
 * Sec. 12). Per-transaction enqueue-to-commit latencies are measured
 * in simulated cycles, so the histogram is part of the machine's
 * deterministic output: integer bucketing, integer rank selection,
 * and a plain vector-add merge make p50/p99/p999 exactly reproducible
 * across platforms and pinnable in bench/baselines.json.
 *
 * Layout (HdrHistogram-style): values below 2^kSubBits get exact
 * unit-width buckets; above that, each power-of-two octave is split
 * into 2^kSubBits sub-buckets, bounding the relative quantization
 * error by 2^-kSubBits (6.25%). The full uint64 range is covered, so
 * there is no separate overflow bucket — the last octave's top
 * sub-bucket absorbs everything up to UINT64_MAX.
 */

#ifndef COMMTM_SIM_LATENCY_HIST_H
#define COMMTM_SIM_LATENCY_HIST_H

#include <cstdint>
#include <vector>

namespace commtm {

class LatencyHistogram
{
  public:
    static constexpr uint32_t kSubBits = 4;
    static constexpr uint32_t kSub = 1u << kSubBits;
    /** Octaves above the exact range: msb 4..63 => 60 octaves. */
    static constexpr uint32_t kOctaves = 64 - kSubBits;
    static constexpr uint32_t kBuckets = kSub + kOctaves * kSub;

    LatencyHistogram() : counts_(kBuckets, 0) {}

    /** Bucket holding @p value. */
    static uint32_t
    bucketOf(uint64_t value)
    {
        if (value < kSub)
            return uint32_t(value);
        const uint32_t msb = 63 - uint32_t(__builtin_clzll(value));
        const uint32_t octave = msb - kSubBits;
        const uint32_t sub = uint32_t(value >> octave) - kSub;
        return kSub + octave * kSub + sub;
    }

    /**
     * Largest value bucket @p index holds; quantiles report this
     * bound, so they never understate a latency. Saturates to
     * UINT64_MAX in the top octave, whose bound is not representable.
     */
    static uint64_t
    bucketBound(uint32_t index)
    {
        if (index < kSub)
            return index;
        const uint32_t octave = (index - kSub) / kSub;
        const uint64_t top = (index - kSub) % kSub + kSub + 1;
        if (top > (UINT64_MAX >> octave))
            return UINT64_MAX;
        return (top << octave) - 1;
    }

    void
    record(uint64_t value, uint64_t times = 1)
    {
        counts_[bucketOf(value)] += times;
        total_ += times;
    }

    /** Deterministic cross-thread merge: plain per-bucket addition. */
    void
    merge(const LatencyHistogram &other)
    {
        for (uint32_t b = 0; b < kBuckets; b++)
            counts_[b] += other.counts_[b];
        total_ += other.total_;
    }

    uint64_t totalCount() const { return total_; }

    /**
     * Upper bound of the bucket holding the @p permille -th
     * per-mille-ranked sample (the smallest bucket whose cumulative
     * count covers permille/1000 of the total), or 0 when empty.
     * Pure integer arithmetic; the 128-bit products cannot overflow.
     */
    uint64_t
    quantile(uint32_t permille) const
    {
        if (total_ == 0)
            return 0;
        const unsigned __int128 target =
            (unsigned __int128)total_ * permille;
        unsigned __int128 cum = 0;
        for (uint32_t b = 0; b < kBuckets; b++) {
            cum += counts_[b];
            if (cum * 1000 >= target)
                return bucketBound(b);
        }
        return bucketBound(kBuckets - 1);
    }

    uint64_t p50() const { return quantile(500); }
    uint64_t p99() const { return quantile(990); }
    uint64_t p999() const { return quantile(999); }

    bool
    operator==(const LatencyHistogram &other) const
    {
        return total_ == other.total_ && counts_ == other.counts_;
    }

  private:
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

} // namespace commtm

#endif // COMMTM_SIM_LATENCY_HIST_H
