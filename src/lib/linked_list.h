/**
 * @file
 * Singly-linked list with a reducible descriptor (Fig. 11). When element
 * order is semantically irrelevant (sets, hash-table buckets,
 * work-sharing queues), enqueues and dequeues are semantically — but not
 * strictly — commutative: each core builds a private partial list under
 * its U-state descriptor copy; a reduction concatenates partial lists; a
 * splitter donates the head element to a gathering dequeuer.
 */

#ifndef COMMTM_LIB_LINKED_LIST_H
#define COMMTM_LIB_LINKED_LIST_H

#include "rt/machine.h"

namespace commtm {

class CommList
{
  public:
    /** Define the LIST label: reduce = concatenate partial lists
     *  (Fig. 11a); split = donate the head element (Fig. 11b). */
    static Label defineLabel(Machine &machine);

    /**
     * @param baseline_layout when true, place the head and tail
     *        pointers on different cache lines (the paper's baseline
     *        allocates them apart to avoid false sharing, Sec. VI).
     *        CommTM needs both in one reducible descriptor line.
     */
    CommList(Machine &machine, Label label, bool baseline_layout = false);

    /** Append @p value (semantically commutative). */
    void enqueue(ThreadContext &ctx, uint64_t value);

    /**
     * Remove an element (local first, then gather, then reduction).
     * @return true and the value, or false if the list is empty.
     */
    bool dequeue(ThreadContext &ctx, uint64_t *out);

    /** Number of elements reachable from the committed state; untimed
     *  host-side verification helper (walks all partial lists). */
    uint64_t peekSize(Machine &machine) const;

    /** Collect all committed values (untimed verification helper). */
    std::vector<uint64_t> peekAll(Machine &machine) const;

    /** Node layout in simulated memory. */
    static constexpr uint32_t kValueOff = 0;
    static constexpr uint32_t kNextOff = 8;
    static constexpr uint32_t kNodeSize = 16;

  private:
    Addr allocNode(uint64_t hint_align = kLineSize);

    Machine &machine_;
    Addr head_; //!< address of the head pointer
    Addr tail_; //!< address of the tail pointer
    Label label_;
};

} // namespace commtm

#endif // COMMTM_LIB_LINKED_LIST_H
