/**
 * @file
 * Fig. 13: speedup of the ordered-put (priority update) microbenchmark:
 * random 64-bit key-value pairs replace the stored pair when the new
 * key is lower. The baseline scales partially (only smaller keys cause
 * conflicting writes); CommTM scales near-linearly.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace {

constexpr uint64_t kTotalOps = 24000; // paper: 10M, scaled

benchutil::RowResult
oputRow(const MachineConfig &cfg, uint32_t threads)
{
    const MicroResult r = runOputMicro(cfg, threads, kTotalOps);
    return {r.stats, r.valid};
}

const benchutil::Register kFig13(
    "fig13",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTm},
                     benchutil::threadSweep(), oputRow));

} // namespace
} // namespace commtm
