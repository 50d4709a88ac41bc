/**
 * @file
 * Chunked FIFO work queue with a reducible descriptor — the queue
 * pattern intruder-style stream processing is built around. Like
 * CommList (Fig. 11), enqueues and dequeues are semantically
 * commutative when element order is irrelevant; unlike CommList, the
 * elements live in fixed-capacity chunks, so enqueues amortize
 * allocation over kChunkCap elements and the splitter donates a whole
 * chunk per gather, which cuts the gather rate of consumer-heavy
 * phases by the chunk capacity.
 */

#ifndef COMMTM_LIB_COMM_QUEUE_H
#define COMMTM_LIB_COMM_QUEUE_H

#include "rt/machine.h"

namespace commtm {

class CommQueue
{
  public:
    /** Define the QUEUE label: reduce = concatenate partial chunk
     *  lists; split = donate the head chunk. */
    static Label defineLabel(Machine &machine);

    /**
     * @param baseline_layout when true, place the head and tail
     *        pointers on different cache lines (the baseline allocates
     *        them apart to avoid false sharing, as in CommList).
     *        CommTM needs both in one reducible descriptor line.
     */
    CommQueue(Machine &machine, Label label, bool baseline_layout = false);

    /** Append @p value (semantically commutative). */
    void enqueue(ThreadContext &ctx, uint64_t value);

    /**
     * Remove an element (local first, then gather, then reduction).
     * @return true and the value, or false if the queue is empty.
     */
    bool dequeue(ThreadContext &ctx, uint64_t *out);

    /**
     * Remove an element without the full-reduction fallback: check
     * the local partial list, then gather a donated chunk; a miss
     * returns false WITHOUT proving the queue globally empty (other
     * cores may hold elements that no splitter would donate). This is
     * the right dequeue for worklist consumers with an external
     * termination condition: the full read in dequeue() collapses
     * every partial list into the reader and, at high thread counts,
     * its reduction battles every idle sharer — a NACK storm that
     * serializes the workers that still have work.
     */
    bool tryDequeue(ThreadContext &ctx, uint64_t *out);

    /** Number of elements reachable from the committed state; untimed
     *  host-side verification helper (walks all partial lists). */
    uint64_t peekSize(Machine &machine) const;

    /** Collect all committed values (untimed verification helper). */
    std::vector<uint64_t> peekAll(Machine &machine) const;

    /** Chunk layout in simulated memory: one cache line holding
     *  {next, rd, wr} and kChunkCap packed values. A linked chunk is
     *  never empty (rd < wr); enqueue unlinks nothing, dequeue unlinks
     *  a chunk when it drains. */
    static constexpr uint32_t kNextOff = 0;
    static constexpr uint32_t kRdOff = 8;
    static constexpr uint32_t kWrOff = 12;
    static constexpr uint32_t kValsOff = 16;
    static constexpr uint32_t kChunkCap =
        (kLineSize - kValsOff) / sizeof(uint64_t);

  private:
    bool dequeueImpl(ThreadContext &ctx, uint64_t *out,
                     bool allow_reduction);

    Machine &machine_;
    Addr head_; //!< address of the head-chunk pointer
    Addr tail_; //!< address of the tail-chunk pointer
    Label label_;
};

} // namespace commtm

#endif // COMMTM_LIB_COMM_QUEUE_H
