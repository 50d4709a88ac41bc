/**
 * @file
 * Ablation: timing-model sensitivity to the scheduling quantum (the
 * interleaving granularity of the simulator, docs/ARCHITECTURE.md
 * Sec. 2.1 — zsim's bound-phase analog). Each system runs the
 * contended counter at quanta from 1 to 1000 cycles. The CommTM rows
 * barely move. The baseline rows do: their cost shrinks as the
 * quantum grows, since a thread running up to a quantum ahead can
 * take a line that, in simulated time, another core still holds. The
 * pinned rows make that sensitivity a checked fact rather than a
 * claim.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace {

constexpr uint64_t kTotalOps = 8000;
constexpr uint32_t kThreads = 32;

std::vector<benchutil::Row>
quantumRows()
{
    std::vector<benchutil::Row> rows;
    for (const SystemMode mode :
         {SystemMode::BaselineHtm, SystemMode::CommTm}) {
        for (const Cycle quantum : {1, 5, 10, 100, 1000}) {
            MachineConfig cfg = benchutil::machineCfg(mode);
            cfg.schedQuantum = quantum;
            rows.push_back({std::string(benchutil::modeName(mode)) +
                                " quantum=" + std::to_string(quantum),
                            [=] {
                                const MicroResult r = runCounterMicro(
                                    cfg, kThreads, kTotalOps);
                                return benchutil::RowResult{r.stats,
                                                            r.valid};
                            }});
        }
    }
    return rows;
}

const benchutil::Register kQuantum("abl_quantum", quantumRows());

} // namespace
} // namespace commtm
