/**
 * @file
 * Fig. 9: speedup of the counter microbenchmark. Threads perform
 * increments to a single shared counter. The paper's CommTM scales
 * linearly while the baseline HTM serializes all transactions.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace {

constexpr uint64_t kTotalOps = 24000; // paper: 10M, scaled to sim speed

benchutil::RowResult
counterRow(const MachineConfig &cfg, uint32_t threads)
{
    const MicroResult r = runCounterMicro(cfg, threads, kTotalOps);
    return {r.stats, r.valid};
}

// The sweep runs past the paper's 128-thread machine: the 256t rows
// exercise the scaled mesh geometry and the spilled sharer set.
const benchutil::Register kFig09(
    "fig09",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTm},
                     benchutil::extendedThreadSweep(), counterRow));

} // namespace
} // namespace commtm
