/**
 * @file
 * Figs. 16b/17b/18b and 19b: kmeans. The paper's strongest result:
 * commutative FP-ADD centroid updates give CommTM 3.4x over the
 * baseline at 128 threads, 25x fewer wasted cycles, and 45% fewer
 * L3 GET requests.
 */

#include "bench_util.h"

#include "apps/kmeans.h"

namespace commtm {
namespace {

benchutil::RowResult
kmeansRow(const MachineConfig &machine, uint32_t threads)
{
    KmeansConfig cfg;
    cfg.numPoints = 2048;
    cfg.maxIters = 4;
    const KmeansResult r = runKmeans(machine, threads, cfg);
    // valid: the cluster populations add up to every point.
    return {r.stats, r.valid(cfg.numPoints),
            {{"iterations", r.iterations}}};
}

const benchutil::Register kKmeans(
    "fig16_kmeans",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTm},
                     benchutil::appThreadSweep(), kmeansRow));

} // namespace
} // namespace commtm
