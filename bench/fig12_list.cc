/**
 * @file
 * Fig. 12: speedup of the linked-list microbenchmark. (a) 100%
 * enqueues; (b) 50% enqueues / 50% dequeues, randomly interleaved. The
 * baseline allocates head and tail pointers on separate lines to avoid
 * false sharing (Sec. VI); CommTM uses a single reducible descriptor.
 */

#include "bench_util.h"

#include "apps/micro.h"

namespace commtm {
namespace {

constexpr uint64_t kTotalOps = 64000; // paper: 10M ops, scaled

// Both sweeps run past the paper's 128-thread machine: the 256t rows
// exercise the scaled mesh geometry and the spilled sharer set.
std::vector<benchutil::Row>
listRows(uint32_t enqueue_pct)
{
    // The mixed run seeds each thread's local list: the paper's 10M-op
    // run builds this standing buffer on its own (failed dequeues tilt
    // the enqueue/dequeue balance); scaled runs must start from it.
    const uint32_t prefill = enqueue_pct < 100 ? 16 : 0;
    return benchutil::sweep(
        {SystemMode::BaselineHtm, SystemMode::CommTm},
        benchutil::extendedThreadSweep(),
        [=](const MachineConfig &cfg, uint32_t threads) {
            const MicroResult r = runListMicro(cfg, threads, kTotalOps,
                                               enqueue_pct, prefill);
            return benchutil::RowResult{r.stats, r.valid};
        });
}

const benchutil::Register kFig12a("fig12a", listRows(100));
const benchutil::Register kFig12b("fig12b", listRows(50));

} // namespace
} // namespace commtm
