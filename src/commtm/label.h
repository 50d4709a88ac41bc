/**
 * @file
 * Commutativity labels: per-label identity values, reduction handlers,
 * and splitters (Secs. III-A and IV), plus the label-virtualization
 * fallback of Sec. III-D.
 */

#ifndef COMMTM_COMMTM_LABEL_H
#define COMMTM_COMMTM_LABEL_H

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "commtm/handlers.h"
#include "sim/memory.h"
#include "sim/types.h"

namespace commtm {

/**
 * Merges one forwarded reducible line into the local one.
 * @param ctx     shadow-thread context for extra memory accesses
 * @param local   the requester's copy; updated in place
 * @param incoming a forwarded partial copy from another cache
 */
using ReduceFn =
    std::function<void(HandlerContext &ctx, LineData &local,
                       const LineData &incoming)>;

/**
 * Donates part of the local reducible line to a gather requester
 * (Sec. IV). Writes the donation into @p out (which starts as the
 * label's identity) and removes it from @p local.
 * @param num_sharers number of U-state sharers, forwarded by the
 *        directory so splitters can rebalance appropriately
 */
using SplitFn =
    std::function<void(HandlerContext &ctx, LineData &local, LineData &out,
                       uint32_t num_sharers)>;

/**
 * Pure (side-effect-free) check: would split() donate anything from
 * @p local? Sharers whose split would be a no-op are skipped entirely:
 * they neither run the splitter nor trigger conflicts, since a no-op
 * split cannot affect any transaction's observed values. Without this,
 * every gather conflicts with every in-flight transaction holding the
 * line in its labeled set, and gathers livelock at high thread counts.
 */
using SplitProbeFn =
    std::function<bool(const LineData &local, uint32_t num_sharers)>;

/** Definition of one commutative-operation label. */
struct LabelInfo {
    std::string name;
    /** Identity value used to initialize lines entering U without data.
     *  Reducing any data with the identity leaves it unchanged. */
    LineData identity{};
    ReduceFn reduce;
    /** Optional; labels without a splitter do not support gathers. */
    SplitFn split;
    /** Optional; conservative (always donate) when absent. */
    SplitProbeFn splitProbe;
};

/**
 * Registry of labels defined by the program. The architecture supports a
 * limited number of hardware labels; labels defined beyond that limit
 * are *demoted*: their accesses execute as conventional loads and stores
 * (the always-safe fallback of Sec. III-D).
 */
class LabelRegistry
{
  public:
    explicit LabelRegistry(uint32_t hw_labels = kMaxHwLabels)
        : hwLabels_(hw_labels)
    {
    }

    /** Define a new label; returns its id. */
    Label
    define(LabelInfo info)
    {
        assert(info.reduce && "labels must define a reduction handler");
        assert(labels_.size() < kNoLabel);
        labels_.push_back(std::move(info));
        return Label(labels_.size() - 1);
    }

    const LabelInfo &
    get(Label label) const
    {
        assert(label < labels_.size());
        return labels_[label];
    }

    size_t size() const { return labels_.size(); }

    /** True if @p label fits in hardware and its accesses stay labeled. */
    bool
    inHardware(Label label) const
    {
        return label < hwLabels_;
    }

  private:
    uint32_t hwLabels_;
    std::vector<LabelInfo> labels_;
};

/**
 * Convenience builders for the strictly-commutative labels the paper's
 * workloads use (Table II): integer/FP addition, MIN, and MAX over
 * fixed-width elements packed in a line.
 */
namespace labels {

/** Commutative addition over ElemT elements; identity = 0. */
template <typename ElemT>
LabelInfo
makeAdd(std::string name)
{
    LabelInfo info;
    info.name = std::move(name);
    info.identity.fill(0);
    info.reduce = [](HandlerContext &ctx, LineData &local,
                     const LineData &incoming) {
        constexpr size_t n = kLineSize / sizeof(ElemT);
        auto *dst = reinterpret_cast<ElemT *>(local.data());
        auto *src = reinterpret_cast<const ElemT *>(incoming.data());
        for (size_t i = 0; i < n; i++)
            dst[i] = dst[i] + src[i];
        ctx.compute(n);
    };
    info.split = [](HandlerContext &ctx, LineData &local, LineData &out,
                    uint32_t num_sharers) {
        // Donate a fraction 1/numSharers of each element (Sec. IV).
        // Rounding DOWN matters: the paper's example code rounds up,
        // but ceil donates 1 from every sharer whose value is below
        // numSharers, draining small sharers to zero and triggering a
        // positive-feedback gather storm at high thread counts. With
        // floor, sharers whose fair share rounds to zero donate
        // nothing; if every copy is small the gather returns zero and
        // the caller falls back to a conventional load, whose full
        // reduction re-concentrates the value (see
        // docs/ARCHITECTURE.md Sec. 6).
        constexpr size_t n = kLineSize / sizeof(ElemT);
        auto *loc = reinterpret_cast<ElemT *>(local.data());
        auto *dst = reinterpret_cast<ElemT *>(out.data());
        for (size_t i = 0; i < n; i++) {
            const ElemT donation = loc[i] / ElemT(num_sharers);
            dst[i] = donation;
            loc[i] = loc[i] - donation;
        }
        ctx.compute(2 * n);
    };
    info.splitProbe = [](const LineData &local, uint32_t num_sharers) {
        constexpr size_t n = kLineSize / sizeof(ElemT);
        auto *loc = reinterpret_cast<const ElemT *>(local.data());
        for (size_t i = 0; i < n; i++) {
            if (loc[i] / ElemT(num_sharers) > ElemT(0))
                return true;
        }
        return false;
    };
    return info;
}

/** Keep-minimum over ElemT elements; identity = max representable. */
template <typename ElemT>
LabelInfo
makeMin(std::string name)
{
    LabelInfo info;
    info.name = std::move(name);
    constexpr size_t n = kLineSize / sizeof(ElemT);
    auto *id = reinterpret_cast<ElemT *>(info.identity.data());
    for (size_t i = 0; i < n; i++)
        id[i] = std::numeric_limits<ElemT>::max();
    info.reduce = [](HandlerContext &ctx, LineData &local,
                     const LineData &incoming) {
        auto *dst = reinterpret_cast<ElemT *>(local.data());
        auto *src = reinterpret_cast<const ElemT *>(incoming.data());
        for (size_t i = 0; i < n; i++)
            dst[i] = std::min(dst[i], src[i]);
        ctx.compute(n);
    };
    return info;
}

/** Keep-maximum over ElemT elements; identity = min representable. */
template <typename ElemT>
LabelInfo
makeMax(std::string name)
{
    LabelInfo info;
    info.name = std::move(name);
    constexpr size_t n = kLineSize / sizeof(ElemT);
    auto *id = reinterpret_cast<ElemT *>(info.identity.data());
    for (size_t i = 0; i < n; i++)
        id[i] = std::numeric_limits<ElemT>::lowest();
    info.reduce = [](HandlerContext &ctx, LineData &local,
                     const LineData &incoming) {
        auto *dst = reinterpret_cast<ElemT *>(local.data());
        auto *src = reinterpret_cast<const ElemT *>(incoming.data());
        for (size_t i = 0; i < n; i++)
            dst[i] = std::max(dst[i], src[i]);
        ctx.compute(n);
    };
    return info;
}

} // namespace labels
} // namespace commtm

#endif // COMMTM_COMMTM_LABEL_H
