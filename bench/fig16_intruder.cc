/**
 * @file
 * intruder (STAMP port beyond the paper's five applications): packet
 * reassembly driven by a shared CommQueue. The queue descriptor is
 * the contended structure — every capture-phase enqueue and every
 * reassembly-phase dequeue goes through it — so the baseline HTM
 * serializes on it while CommTM keeps per-core partial queues and
 * moves whole chunks with gathers. Each system runs under both eager
 * and lazy (TCC/Bulk-style) conflict detection; all rows carry
 * checked-in exact-counter baselines.
 */

#include "bench_util.h"

#include "apps/intruder.h"

namespace commtm {
namespace {

benchutil::RowResult
intruderRow(const MachineConfig &machine, uint32_t threads)
{
    IntruderConfig cfg;
    cfg.numFlows = 1024; // scaled down from STAMP's stream (see docs)
    cfg.maxFrags = 8;
    const IntruderResult r = runIntruder(machine, threads, cfg);
    // valid: every flow reassembles and every attack is detected.
    return {r.stats, r.valid(),
            {{"flows", r.flowsCompleted},
             {"attacks", uint64_t(r.attacksDetected)}}};
}

const benchutil::Register kIntruder(
    "fig16_intruder",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTm},
                     {ConflictDetection::Eager, ConflictDetection::Lazy},
                     {1, 32, 128}, intruderRow));

} // namespace
} // namespace commtm
