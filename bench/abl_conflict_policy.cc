/**
 * @file
 * Ablation: conflict-resolution policy. The paper's baseline resolves
 * conflicts by timestamp (older wins, NACKs), which avoids the classic
 * eager-HTM pathologies (Sec. III-B1). This ablation compares it with
 * requester-wins on the highly contended counter and mixed-list
 * workloads, for both the baseline HTM and CommTM.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace {

constexpr uint64_t kTotalOps = 8000;
constexpr uint32_t kThreads = 32;

/** One row per (system, policy): "Baseline / timestamp", ... */
std::vector<benchutil::Row>
policyRows(MicroResult (*run)(const MachineConfig &))
{
    std::vector<benchutil::Row> rows;
    for (const SystemMode mode :
         {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (const ConflictPolicy policy :
             {ConflictPolicy::TimestampOlderWins,
              ConflictPolicy::RequesterWins}) {
            MachineConfig cfg = benchutil::machineCfg(mode);
            cfg.conflictPolicy = policy;
            rows.push_back(
                {std::string(benchutil::modeName(mode)) + " / " +
                     (policy == ConflictPolicy::TimestampOlderWins
                          ? "timestamp"
                          : "requester-wins"),
                 [=] {
                     const MicroResult r = run(cfg);
                     return benchutil::RowResult{r.stats, r.valid};
                 }});
        }
    }
    return rows;
}

MicroResult
counter(const MachineConfig &cfg)
{
    return runCounterMicro(cfg, kThreads, kTotalOps);
}

MicroResult
mixedList(const MachineConfig &cfg)
{
    return runListMicro(cfg, kThreads, kTotalOps, 50);
}

const benchutil::Register kCounter("abl_policy_counter",
                                   policyRows(counter));
const benchutil::Register kList("abl_policy_list", policyRows(mixedList));

} // namespace
} // namespace commtm
