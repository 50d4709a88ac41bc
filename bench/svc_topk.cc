/**
 * @file
 * Open-loop top-K service: every request inserts a scored element
 * into one shared TopK(64) leaderboard — the highest-contention
 * service shape, since all threads hit one descriptor
 * (docs/BENCHMARKS.md, "Open-loop service rows"). Scores put the
 * Zipfian key in the high bits, so hot keys fight for the retained
 * set; baseline HTM serializes every insert while CommTM's
 * commutative heap merges keep tails flat.
 */

#include "svc_util.h"

#include <algorithm>
#include <functional>

#include "lib/topk.h"
#include "rt/machine.h"

namespace commtm {
namespace {

constexpr uint32_t kK = 64;
constexpr uint64_t kZipfItems = 64;
constexpr uint64_t kRequestWork = 48;   // non-tx cycles per request
constexpr double kServiceCycles = 100;  // nominal uncontended latency

benchutil::RowResult
topkService(const MachineConfig &machine, uint32_t arrival,
            uint32_t threads)
{
    Machine m(machine);
    const Label label = TopK::defineLabel(m, kK);
    TopK set(m, label, kK);
    std::vector<std::vector<int64_t>> inserted(threads);

    const OpenLoopConfig cfg =
        benchutil::svcConfig(arrival, kServiceCycles, kZipfItems);
    OpenLoopFrontend fe(
        cfg, threads, [&](ThreadContext &ctx, uint64_t key) {
            ctx.compute(kRequestWork);
            // Key in the high bits, per-thread random tiebreak below:
            // hot keys contend for the same region of the retained set.
            const int64_t score =
                int64_t((key << 40) | (ctx.rng().next() >> 24));
            set.insert(ctx, score);
            inserted[ctx.id()].push_back(score);
        });
    fe.attach(m);
    m.run();

    // Host reference: the K largest of everything inserted.
    std::vector<int64_t> all;
    for (const auto &v : inserted)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end(), std::greater<int64_t>());
    if (all.size() > kK)
        all.resize(kK);
    std::vector<int64_t> got = set.peekAll(m);
    std::sort(got.begin(), got.end(), std::greater<int64_t>());
    return benchutil::serviceResult(m.stats(), got == all,
                                    fe.mergedMeasure(),
                                    fe.totalService());
}

const benchutil::Register kSvcTopk("svc_topk",
                                   benchutil::svcSweep(topkService));

} // namespace
} // namespace commtm
