/**
 * @file
 * Top-K set (Sec. VI, Fig. 15): retains the K largest elements inserted.
 * Each core builds a private top-K heap under its reducible descriptor
 * copy; a read triggers a reduction that merges all local heaps into the
 * true top-K. Insertions are semantically commutative (and, unlike
 * counters, are hard to undo — open nesting does not apply; Sec. VIII).
 */

#ifndef COMMTM_LIB_TOPK_H
#define COMMTM_LIB_TOPK_H

#include <vector>

#include "rt/machine.h"

namespace commtm {

/**
 * Top-K set of int64 keys. The descriptor line holds {heapPtr, size};
 * the heap itself is a binary min-heap array in simulated memory whose
 * root is the smallest retained element, accessed with conventional
 * loads/stores (the indirection pattern for objects larger than a
 * cache line, Sec. III-A).
 */
class TopK
{
  public:
    /** Define the TOPK label for sets of capacity @p k. The reduction
     *  merges the incoming heap's elements into the local heap. */
    static Label defineLabel(Machine &machine, uint32_t k);

    TopK(Machine &machine, Label label, uint32_t k);

    /** Insert @p key, keeping the K largest. */
    void insert(ThreadContext &ctx, int64_t key);

    /**
     * Read the retained elements (triggers a reduction), unsorted.
     * Destructive of nothing; the merged heap stays in place.
     */
    std::vector<int64_t> readAll(ThreadContext &ctx);

    /** Untimed committed contents, for host-side verification. */
    std::vector<int64_t> peekAll(Machine &machine) const;

    uint32_t k() const { return k_; }

    // Descriptor layout.
    static constexpr uint32_t kHeapPtrOff = 0;
    static constexpr uint32_t kSizeOff = 8;

  private:
    Machine &machine_;
    Addr desc_;
    Label label_;
    uint32_t k_;
};

} // namespace commtm

#endif // COMMTM_LIB_TOPK_H
