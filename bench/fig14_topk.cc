/**
 * @file
 * Fig. 14: speedup of top-K insertion (K = 1000). The baseline
 * serializes on superfluous read-write dependences through the global
 * heap; CommTM builds per-core heaps that merge on reads.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace {

constexpr uint64_t kTotalOps = 48000; // paper: 10M inserts, scaled
constexpr uint32_t kK = 100; // paper: K=1000; K and ops scaled together

benchutil::RowResult
topkRow(const MachineConfig &cfg, uint32_t threads)
{
    const MicroResult r = runTopkMicro(cfg, threads, kTotalOps, kK);
    return {r.stats, r.valid};
}

const benchutil::Register kFig14(
    "fig14",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTm},
                     benchutil::threadSweep(), topkRow));

} // namespace
} // namespace commtm
