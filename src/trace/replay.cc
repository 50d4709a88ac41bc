/**
 * @file
 * ReplayFrontend implementation: one simulated thread per captured
 * stream, re-issuing records through ThreadContext::access with
 * transactions re-run under the live HTM's outcomes.
 */

#include "trace/replay.h"

#include <cassert>

#include "rt/machine.h"

namespace commtm {

void
ReplayFrontend::attach(Machine &machine)
{
    assert(machine.config().numCores >= trace_.numThreads() &&
           "replay machine has fewer cores than the capture has "
           "thread streams");
    for (const std::vector<TraceRecord> &records : trace_.threads) {
        machine.addThread([&records](ThreadContext &ctx) {
            replayThread(ctx, records);
        });
    }
}

void
ReplayFrontend::replayOne(ThreadContext &ctx, const TraceRecord &rec)
{
    // Loads discard their data (replay is about the op stream, not
    // the values read); stores re-write the captured operand bytes,
    // which keeps the functional pointer graphs that reduction and
    // split handlers walk well-formed. TraceReader guarantees every
    // access fits one line, so the line-sized scratch suffices.
    uint8_t scratch[kLineSize];
    switch (rec.kind) {
      case TraceOpKind::Compute:
        ctx.compute(rec.a);
        break;
      case TraceOpKind::Load:
      case TraceOpKind::Store:
      case TraceOpKind::LabeledLoad:
      case TraceOpKind::LabeledStore:
      case TraceOpKind::Gather: {
        const MemOp op = memOpOf(rec.kind);
        // A store only reads its operand.
        void *data = isStore(op) ? const_cast<uint8_t *>(rec.data.data())
                                 : scratch;
        ctx.access(op, rec.addr, rec.label, data, rec.size);
        break;
      }
      case TraceOpKind::Annotation:
        ctx.annotate(uint32_t(rec.a), rec.b);
        break;
      case TraceOpKind::Barrier:
        ctx.barrier();
        break;
      case TraceOpKind::TxBegin:
      case TraceOpKind::TxEnd:
        assert(false && "transaction markers are handled by "
                        "replayThread");
        break;
    }
}

void
ReplayFrontend::replayThread(ThreadContext &ctx,
                             const std::vector<TraceRecord> &records)
{
    size_t i = 0;
    const size_t n = records.size();
    while (i < n) {
        if (records[i].kind != TraceOpKind::TxBegin) {
            replayOne(ctx, records[i]);
            i++;
            continue;
        }
        // One committed capture-time transaction: [begin+1, end) are
        // its ops (TraceReader guarantees balance and no nesting).
        size_t end = i + 1;
        while (records[end].kind != TraceOpKind::TxEnd)
            end++;
        ctx.txRun([&ctx, &records, i, end] {
            for (size_t j = i + 1; j < end; j++) {
                replayOne(ctx, records[j]);
                // Cooperative unwind: on abort, return and let txRun
                // back off and re-issue from the TxBegin boundary.
                if (ctx.txAborted())
                    return;
            }
        });
        i = end + 1;
    }
}

} // namespace commtm
