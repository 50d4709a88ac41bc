/**
 * @file
 * Fig. 10: speedup of the reference-counting microbenchmark (bounded
 * non-negative counters, Sec. IV). Three systems, as in the paper:
 * baseline HTM, CommTM without gather requests (frequent reductions
 * serialize once local values hit zero), and CommTM with gathers.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace {

// The paper runs 1M references; the scaled run must still be large
// enough that steady-state gather behavior (not the cold-start burst)
// dominates at 128 threads: >= ~60 ops per (thread, object) pair.
constexpr uint64_t kTotalOps = 128000;
constexpr uint32_t kObjects = 16;

benchutil::RowResult
refcountRow(const MachineConfig &cfg, uint32_t threads)
{
    const MicroResult r =
        runRefcountMicro(cfg, threads, kTotalOps, kObjects);
    return {r.stats, r.valid};
}

const benchutil::Register kFig10(
    "fig10",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTmNoGather,
                      SystemMode::CommTm},
                     benchutil::threadSweep(), refcountRow));

} // namespace
} // namespace commtm
