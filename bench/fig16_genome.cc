/**
 * @file
 * Figs. 16d/17d/18d: genome. The resizable hash table's remaining-space
 * counter (bounded ADD with gather) dominates: the paper reports 3.0x
 * for CommTM at 128 threads and 8.3x fewer wasted cycles. The
 * no-gather configuration is included to show gathers matter here
 * (genome is one of the two gather-using applications, Table II).
 */

#include "bench_util.h"

#include "apps/genome.h"

namespace commtm {
namespace {

benchutil::RowResult
genomeRow(const MachineConfig &machine, uint32_t threads)
{
    GenomeConfig cfg;
    cfg.genomeLength = 8192;
    cfg.numSegments = 16384;
    const GenomeResult r = runGenome(machine, threads, cfg);
    // valid: deduplication and segment links match the reference.
    return {r.stats, r.valid(), {{"resizes", r.tableResizes}}};
}

const benchutil::Register kGenome(
    "fig16_genome",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTmNoGather,
                      SystemMode::CommTm},
                     benchutil::appThreadSweep(), genomeRow));

} // namespace
} // namespace commtm
