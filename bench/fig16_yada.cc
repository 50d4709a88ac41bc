/**
 * @file
 * yada (STAMP port beyond the paper's five applications): worklist-
 * driven mesh refinement over a CommQueue. The worklist is both
 * producer and consumer hot — every refinement dequeues one element
 * and enqueues its children — so the baseline HTM serializes on the
 * queue descriptor while CommTM keeps the worklist per-core and
 * steals whole chunks via gathers only when a worker runs dry. Each
 * system runs under both eager and lazy conflict detection; all rows
 * carry checked-in exact-counter baselines.
 */

#include "bench_util.h"

#include "apps/yada.h"

namespace commtm {
namespace {

benchutil::RowResult
yadaRow(const MachineConfig &machine, uint32_t threads)
{
    YadaConfig cfg;
    cfg.initialBad = 512; // scaled down from STAMP's ttimeu inputs
    cfg.maxDepth = 6;
    cfg.cavityCost = 96;
    const YadaResult r = runYada(machine, threads, cfg);
    // valid: every bad element was refined exactly once.
    return {r.stats, r.valid(), {{"elements", r.elementsProcessed}}};
}

const benchutil::Register kYada(
    "fig16_yada",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTm},
                     {ConflictDetection::Eager, ConflictDetection::Lazy},
                     {1, 32, 128}, yadaRow));

} // namespace
} // namespace commtm
