/**
 * @file
 * Trace capture (docs/ARCHITECTURE.md Sec. 11): TraceWriter records
 * each thread's logical op stream as ThreadContext calls its note
 * hooks. Strictly observation-only, same discipline as the commit
 * log: hooks append host-side bytes and never touch simulated
 * behavior, so the exact-counter baseline wall runs bit-identical
 * with capture enabled (COMMTM_CAPTURE_TRACE in CI).
 *
 * Every record is encoded straight into its thread's stream. An
 * attempt writes TxBegin when it opens; an abort truncates the stream
 * back to before that TxBegin, so the captured stream holds committed
 * attempts only, bracketed by TxBegin/TxEnd records. commitAttempt()
 * runs at the HtmManager commit point, which is atomic in simulated
 * time, so the trace's commit order equals the functional commit
 * order.
 */

#ifndef COMMTM_TRACE_TRACE_WRITER_H
#define COMMTM_TRACE_TRACE_WRITER_H

#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "trace/trace_format.h"

namespace commtm {

class TraceWriter
{
  public:
    explicit TraceWriter(const MachineConfig &cfg);

    // --- capture hooks (ThreadContext issue paths) ---

    void noteCompute(CoreId core, uint64_t instrs);
    /** One memory op as the workload issued it. @p label is recorded
     *  for labeled ops, @p size operand bytes at @p data for stores;
     *  both are ignored otherwise. */
    void noteAccess(CoreId core, MemOp op, Addr addr, uint32_t size,
                    Label label, const void *data);
    void noteBarrier(CoreId core);
    void noteAnnotation(CoreId core, uint32_t code, uint64_t value);

    /** A transaction attempt opened on @p core: write TxBegin and
     *  remember where the stream stood before it. */
    void beginAttempt(CoreId core);
    /** The attempt committed: write TxEnd and append @p core to the
     *  commit order. Must be called at the functional commit point,
     *  before the committing thread can yield. */
    void commitAttempt(CoreId core);
    /** The attempt aborted: truncate the stream back to before its
     *  TxBegin. */
    void abortAttempt(CoreId core);

    // --- inspection / persistence ---

    uint32_t numThreads() const { return uint32_t(streams_.size()); }
    uint64_t recordsOf(CoreId core) const;
    uint64_t commits() const { return commitOrder_.size(); }
    uint64_t fingerprint() const { return fingerprint_; }

    /** Encode the trace (docs/ARCHITECTURE.md Sec. 11 format). Call
     *  after Machine::run(): no attempt may be open. */
    std::vector<uint8_t> serialize() const;

  private:
    /** Where a stream stood; beginAttempt takes one, abortAttempt
     *  rolls back to it. */
    struct Mark {
        size_t bytes = 0;
        uint64_t records = 0;
        Addr lastAddr = 0;
    };

    struct Stream {
        std::vector<uint8_t> bytes;
        uint64_t records = 0;
        Addr lastAddr = 0; //!< delta base: previous addressed record
        bool inAttempt = false;
        Mark attemptStart; //!< valid while inAttempt
    };

    /** Start a @p kind record on @p core's stream; the caller
     *  appends its payload. */
    Stream &record(CoreId core, TraceOpKind kind);

    uint64_t fingerprint_;
    std::vector<Stream> streams_;
    std::vector<CoreId> commitOrder_;
};

} // namespace commtm

#endif // COMMTM_TRACE_TRACE_WRITER_H
