/**
 * @file
 * labyrinth (STAMP port beyond the paper's five applications): grid
 * routing with all-or-nothing path claims on a GridClaim table. On the
 * baseline HTM every claim transaction conflicts at cache-line
 * granularity (64 cells per line); GridClaim's per-cell tokens make
 * claims of different cells commute, so only true cell overlaps
 * serialize. Each system runs under both eager and lazy conflict
 * detection; all rows carry checked-in exact-counter baselines.
 */

#include "bench_util.h"

#include "apps/labyrinth.h"

namespace commtm {
namespace {

benchutil::RowResult
labyrinthRow(const MachineConfig &machine, uint32_t threads)
{
    LabyrinthConfig cfg;
    cfg.width = 128; // scaled down from STAMP's 512x512 maze (see docs)
    cfg.height = 128;
    cfg.numPaths = 1024;
    cfg.maxDisp = 8; // short routes: the grid stays undersubscribed
    const LabyrinthResult r = runLabyrinth(machine, threads, cfg);
    // valid: claimed tokens match routed cells and no paths overlap.
    return {r.stats, r.valid(),
            {{"routed", r.pathsRouted}, {"cells", r.cellsClaimed}}};
}

const benchutil::Register kLabyrinth(
    "fig16_labyrinth",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTm},
                     {ConflictDetection::Eager, ConflictDetection::Lazy},
                     {1, 32, 128}, labyrinthRow));

} // namespace
} // namespace commtm
