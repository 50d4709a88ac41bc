/**
 * @file
 * Figs. 16e/17e/18e: vacation. Travel-reservation database over
 * resizable hash tables; the paper reports +45% for CommTM at 128
 * threads and 2.6x fewer wasted cycles. Like genome, vacation uses
 * gathers (Table II), so the no-gather configuration is included.
 */

#include "bench_util.h"

#include "apps/vacation.h"

namespace commtm {
namespace {

benchutil::RowResult
vacationRow(const MachineConfig &machine, uint32_t threads)
{
    VacationConfig cfg;
    cfg.relations = 2048;
    cfg.numTasks = 6144;
    const VacationResult r = runVacation(machine, threads, cfg);
    // valid: the inventory is conserved.
    return {r.stats, r.valid(),
            {{"reservations", uint64_t(r.reservationsMade)}}};
}

const benchutil::Register kVacation(
    "fig16_vacation",
    benchutil::sweep({SystemMode::BaselineHtm, SystemMode::CommTmNoGather,
                      SystemMode::CommTm},
                     benchutil::appThreadSweep(), vacationRow));

} // namespace
} // namespace commtm
