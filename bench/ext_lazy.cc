/**
 * @file
 * Extension: lazy (commit-time) conflict detection — Sec. III-D argues
 * CommTM "applies to HTMs with lazy conflict detection, such as TCC or
 * Bulk". This bench crosses detection scheme x system on the counter
 * and kmeans workloads: CommTM's commutative updates commit without
 * aborts under either detection scheme. The conventional HTM
 * serializes the counter under both; on kmeans, lazy detection
 * removes most of its aborts.
 */

#include "bench_util.h"

#include "apps/kmeans.h"
#include "apps/micro.h"

namespace commtm {
namespace {

constexpr uint32_t kThreads = 64;

/** One row per (system, detection): "Baseline / eager", ... */
std::vector<benchutil::Row>
detectionRows(benchutil::RowResult (*run)(const MachineConfig &))
{
    std::vector<benchutil::Row> rows;
    for (const SystemMode mode :
         {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (const ConflictDetection detection :
             {ConflictDetection::Eager, ConflictDetection::Lazy}) {
            MachineConfig cfg = benchutil::machineCfg(mode);
            cfg.conflictDetection = detection;
            rows.push_back(
                {std::string(benchutil::modeName(mode)) + " / " +
                     (detection == ConflictDetection::Eager ? "eager"
                                                            : "lazy"),
                 [=] { return run(cfg); }});
        }
    }
    return rows;
}

benchutil::RowResult
counter(const MachineConfig &cfg)
{
    const MicroResult r = runCounterMicro(cfg, kThreads, 12000);
    return {r.stats, r.valid};
}

benchutil::RowResult
kmeans(const MachineConfig &machine)
{
    KmeansConfig cfg;
    cfg.numPoints = 1024;
    cfg.maxIters = 3;
    const KmeansResult r = runKmeans(machine, kThreads, cfg);
    return {r.stats, r.valid(cfg.numPoints)};
}

const benchutil::Register kCounter("ext_lazy_counter",
                                   detectionRows(counter));
const benchutil::Register kKmeans("ext_lazy_kmeans",
                                  detectionRows(kmeans));

} // namespace
} // namespace commtm
