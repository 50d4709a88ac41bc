/**
 * @file
 * Figs. 16c/17c/18c: ssca2. Shared commutative updates are rare, so the
 * paper reports only +0.2% for CommTM — the "commutativity barely
 * matters here" control case. The interesting check is that CommTM does
 * not hurt.
 */

#include "bench_util.h"

#include "apps/ssca2.h"

namespace commtm {
namespace {

benchutil::RowResult
ssca2Row(const MachineConfig &machine, uint32_t threads)
{
    Ssca2Config cfg;
    cfg.scale = 14; // paper: -s16; small scales create artificial contention
    cfg.edgeFactor = 8;
    const Ssca2Result r = runSsca2(machine, threads, cfg);
    // valid: the adjacency arrays are consistent.
    return {r.stats, r.valid()};
}

const benchutil::Register kSsca2(
    "fig16_ssca2",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTm},
                     benchutil::appThreadSweep(), ssca2Row));

} // namespace
} // namespace commtm
