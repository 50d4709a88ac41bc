/**
 * @file
 * Resizable chained hash table with a bounded remaining-space counter,
 * after Blundell et al.'s RETCON benchmarks (the paper compiles genome
 * and vacation with these, Sec. VII / Table II).
 *
 * Every insertion decrements the remaining-space counter — a
 * conditionally-commutative bounded decrement. On a conventional HTM the
 * counter serializes all inserts; CommTM keeps the decrements local, and
 * gather requests rebalance the remaining space between caches.
 * When the counter reaches zero, the inserting thread resizes the table
 * non-speculatively (its plain writes to the bucket array abort all
 * in-flight inserters, which retry against the new table).
 */

#ifndef COMMTM_LIB_HASH_TABLE_H
#define COMMTM_LIB_HASH_TABLE_H

#include "lib/bounded_counter.h"
#include "rt/machine.h"

namespace commtm {

/**
 * Hash map from uint64 keys to uint64 values (use value 0 / ignore the
 * value for set semantics). Duplicate keys are rejected by insert().
 */
class ResizableHashMap
{
  public:
    /**
     * @param label a bounded-ADD label (BoundedCounter::defineLabel)
     * @param initial_buckets starting bucket count (power of two)
     * @param fill_factor inserts allowed per bucket before resizing
     */
    ResizableHashMap(Machine &machine, Label label,
                     uint32_t initial_buckets = 1024,
                     double fill_factor = 2.0);

    /**
     * Insert (key, value). Returns false if the key already exists.
     * Runs as a (possibly nested) transaction; may trigger a resize.
     */
    bool insert(ThreadContext &ctx, uint64_t key, uint64_t value);

    /** Look up @p key. Returns true and the value if present. */
    bool lookup(ThreadContext &ctx, uint64_t key, uint64_t *value);

    /** Update the value of an existing key. Returns false if absent. */
    bool update(ThreadContext &ctx, uint64_t key, uint64_t value);

    /**
     * Atomic read-modify-write of @p key's value in one transaction:
     * @p fn receives the current value and returns true to store its
     * modification. Must be pure (it may re-run on aborts).
     * @return true iff the key was found and @p fn applied a change.
     */
    bool updateWith(ThreadContext &ctx, uint64_t key,
                    const std::function<bool(uint64_t &)> &fn);

    /** Remove @p key (frees its remaining-space unit). */
    bool erase(ThreadContext &ctx, uint64_t key);

    /** Number of elements (untimed host-side verification). */
    uint64_t peekSize(Machine &machine) const;

    /** Untimed host-side lookup for verification. */
    bool peekLookup(Machine &machine, uint64_t key, uint64_t *value)
        const;

    uint64_t peekBuckets(Machine &machine) const;
    uint64_t resizes() const { return resizes_; }

    // Node layout: {key, value, next}.
    static constexpr uint32_t kKeyOff = 0;
    static constexpr uint32_t kValOff = 8;
    static constexpr uint32_t kNextOff = 16;
    static constexpr uint32_t kNodeSize = 24;

  private:
    static uint64_t mix(uint64_t key);
    /** Header layout: {bucketsPtr, nBuckets}. */
    Addr bucketsPtrAddr() const { return header_; }
    Addr nBucketsAddr() const { return header_ + 8; }

    /** Run @p body(slot) on @p key's bucket slot in a transaction,
     *  waiting out resizes; returns the committed attempt's result. */
    template <typename Body>
    bool inBucket(ThreadContext &ctx, uint64_t key, Body &&body);
    /** The node holding @p key in the chain at @p slot, or 0; @p prev
     *  (if non-null) receives its predecessor, 0 at the chain head. */
    static Addr findKey(ThreadContext &ctx, Addr slot, uint64_t key,
                        Addr *prev);

    void resize(ThreadContext &ctx);

    Machine &machine_;
    Addr header_;   //!< {bucketsPtr, nBuckets} (read inside every tx)
    Addr lock_;     //!< resize lock (transactional test-and-set)
    BoundedCounter remaining_;
    double fillFactor_;
    uint64_t resizes_ = 0;
};

} // namespace commtm

#endif // COMMTM_LIB_HASH_TABLE_H
