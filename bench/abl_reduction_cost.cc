/**
 * @file
 * Ablation: reduction-handler cost sensitivity (Sec. III-B4 argues a
 * dedicated shadow thread keeps reductions fast). The reduction-heavy
 * configuration — reference counting on CommTM *without* gathers, where
 * threads whose local value hits zero trigger frequent reductions —
 * runs with increasing per-line reduction costs. CommTM-with-gathers is
 * included at each point to show gathers also insulate against slow
 * reduction hardware.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace {

constexpr uint64_t kTotalOps = 8000;
constexpr uint32_t kThreads = 32;

std::vector<benchutil::Row>
costRows()
{
    std::vector<benchutil::Row> rows;
    for (const SystemMode mode :
         {SystemMode::CommTmNoGather, SystemMode::CommTm}) {
        for (const Cycle cost : {0, 8, 64, 512}) {
            MachineConfig cfg = benchutil::machineCfg(mode);
            cfg.reductionFixedCost = cost;
            rows.push_back({std::string(benchutil::modeName(mode)) +
                                " cost=" + std::to_string(cost),
                            [=] {
                                const MicroResult r = runRefcountMicro(
                                    cfg, kThreads, kTotalOps);
                                return benchutil::RowResult{r.stats,
                                                            r.valid};
                            }});
        }
    }
    return rows;
}

const benchutil::Register kReductionCost("abl_reduction_cost",
                                         costRows());

} // namespace
} // namespace commtm
