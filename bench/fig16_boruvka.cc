/**
 * @file
 * Figs. 16a/17a/18a and 19a: boruvka. Speedup vs. threads, core-cycle
 * and wasted-cycle breakdowns (counters cyc_*, waste_*), and the
 * L2<->L3 GET-request breakdown (counters GETS/GETX/GETU). The paper
 * reports +35% for CommTM at 128 threads, all wasted cycles removed,
 * and 13% fewer L3 GETs.
 */

#include "bench_util.h"

#include "apps/boruvka.h"

namespace commtm {
namespace {

benchutil::RowResult
boruvkaRow(const MachineConfig &machine, uint32_t threads)
{
    BoruvkaConfig cfg;
    cfg.numVertices = 4096;
    const BoruvkaResult r = runBoruvka(machine, threads, cfg);
    // valid: the MST weight matches Kruskal's.
    return {r.stats, r.valid(), {{"rounds", r.rounds}}};
}

const benchutil::Register kBoruvka(
    "fig16_boruvka",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTm},
                     benchutil::appThreadSweep(), boruvkaRow));

} // namespace
} // namespace commtm
