/**
 * @file
 * Ablation: hardware-label pressure (Sec. III-D). A workload that uses
 * four different commutative operations (ADD counter, LIST, OPUT,
 * TOPK) runs with 0..4 hardware labels. Labels beyond the hardware
 * budget are demoted to conventional accesses (the always-safe
 * virtualization fallback), so performance degrades gracefully toward
 * the baseline as labels are removed.
 */

#include "bench_util.h"

#include "lib/counter.h"
#include "lib/linked_list.h"
#include "lib/ordered_put.h"
#include "lib/topk.h"
#include "rt/machine.h"

namespace commtm {
namespace {

constexpr uint32_t kThreads = 32;
constexpr uint64_t kOpsPerThread = 200;

benchutil::RowResult
labelsRow(uint32_t hw_labels)
{
    MachineConfig cfg = benchutil::machineCfg(SystemMode::CommTm);
    cfg.hwLabels = hw_labels;
    Machine m(cfg);
    // Definition order = hardware priority (profile-guided label
    // assignment would order by profitability, Sec. III-D).
    const Label add = CommCounter::defineLabel(m);
    const Label lst = CommList::defineLabel(m);
    const Label opt = OrderedPut::defineLabel(m);
    const Label tpk = TopK::defineLabel(m, 64);
    CommCounter counter(m, add);
    CommList list(m, lst);
    OrderedPut oput(m, opt);
    TopK topk(m, tpk, 64);
    for (uint32_t t = 0; t < kThreads; t++) {
        m.addThread([&](ThreadContext &ctx) {
            Rng &rng = ctx.rng();
            for (uint64_t i = 0; i < kOpsPerThread; i++) {
                switch (i % 4) {
                  case 0:
                    counter.add(ctx, 1);
                    break;
                  case 1:
                    list.enqueue(ctx, rng.next());
                    break;
                  case 2:
                    oput.put(ctx, int64_t(rng.next() >> 1), i);
                    break;
                  default:
                    topk.insert(ctx, int64_t(rng.next() >> 1));
                    break;
                }
                ctx.compute(8);
            }
        });
    }
    m.run();
    return {m.stats(), counter.peek(m) == int64_t(kThreads) *
                                              (kOpsPerThread / 4)};
}

std::vector<benchutil::Row>
labelRows()
{
    std::vector<benchutil::Row> rows;
    for (uint32_t hw_labels = 0; hw_labels <= 4; hw_labels++) {
        rows.push_back({std::to_string(hw_labels) + " hardware labels",
                        [=] { return labelsRow(hw_labels); }});
    }
    return rows;
}

const benchutil::Register kLabels("abl_labels", labelRows());

} // namespace
} // namespace commtm
