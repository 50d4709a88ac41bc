/**
 * @file
 * Ablation: subset gathers — the paper's future-work enhancement of
 * load_gather to "query a subset of sharers" (Sec. IV). The directory
 * forwards split requests to only the N sharers nearest the requester.
 * Smaller fanouts cut per-gather latency and split conflicts but lower
 * the yield per gather (more gathers and reduction fallbacks); the
 * sweep maps that tradeoff on the gather-heavy workloads.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace {

constexpr uint32_t kThreads = 64;

/** One row per gather fanout limit (0 = every sharer). */
std::vector<benchutil::Row>
fanoutRows(MicroResult (*run)(const MachineConfig &))
{
    std::vector<benchutil::Row> rows;
    for (const uint32_t fanout : {0u, 4u, 16u, 48u}) {
        MachineConfig cfg = benchutil::machineCfg(SystemMode::CommTm);
        cfg.gatherFanoutLimit = fanout;
        rows.push_back({fanout == 0 ? "all sharers (paper)"
                                    : "fanout " + std::to_string(fanout),
                        [=] {
                            const MicroResult r = run(cfg);
                            return benchutil::RowResult{r.stats,
                                                        r.valid};
                        }});
    }
    return rows;
}

MicroResult
refcount(const MachineConfig &cfg)
{
    return runRefcountMicro(cfg, kThreads, 64000);
}

MicroResult
mixedList(const MachineConfig &cfg)
{
    return runListMicro(cfg, kThreads, 32000, 50, 16);
}

const benchutil::Register kRefcount("abl_fanout_refcount",
                                    fanoutRows(refcount));
const benchutil::Register kList("abl_fanout_list", fanoutRows(mixedList));

} // namespace
} // namespace commtm
