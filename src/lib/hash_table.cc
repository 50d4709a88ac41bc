/**
 * @file
 * Resizable chained hash table implementation: transactional
 * bucket-chain inserts/lookups, the bounded remaining-space counter,
 * and non-speculative resizing that aborts racing inserters.
 */

#include "lib/hash_table.h"

namespace commtm {

uint64_t
ResizableHashMap::mix(uint64_t key)
{
    // splitmix64 finalizer: good avalanche for sequential keys.
    uint64_t z = key + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

ResizableHashMap::ResizableHashMap(Machine &machine, Label label,
                                   uint32_t initial_buckets,
                                   double fill_factor)
    : machine_(machine),
      header_(machine.allocator().allocLines(1)),
      lock_(machine.allocator().allocLines(1)),
      remaining_(machine, label,
                 int64_t(fill_factor * initial_buckets)),
      fillFactor_(fill_factor)
{
    assert((initial_buckets & (initial_buckets - 1)) == 0 &&
           "bucket count must be a power of two");
    const Addr buckets =
        machine.allocator().alloc(8 * uint64_t(initial_buckets),
                                  kLineSize);
    machine.memory().write<Addr>(bucketsPtrAddr(), buckets);
    machine.memory().write<uint64_t>(nBucketsAddr(), initial_buckets);
}

bool
ResizableHashMap::insert(ThreadContext &ctx, uint64_t key, uint64_t value)
{
    for (;;) {
        bool inserted = false, dup = false, full = false, locked = false;
        const Addr node = machine_.allocator().allocLines(1);
        ctx.txRun([&] {
            inserted = dup = full = locked = false;
            // Reading the resize lock puts it in the read set: a
            // resizer's non-speculative write to it aborts us, so no
            // insert can race the rehash.
            if (ctx.read<uint64_t>(lock_) != 0) {
                locked = true;
                return;
            }
            const Addr buckets = ctx.read<Addr>(bucketsPtrAddr());
            const uint64_t n = ctx.read<uint64_t>(nBucketsAddr());
            const Addr slot = buckets + 8 * (mix(key) & (n - 1));
            const Addr head = ctx.read<Addr>(slot);
            for (Addr cur = head; cur != 0;
                 cur = ctx.read<Addr>(cur + kNextOff)) {
                if (ctx.read<uint64_t>(cur + kKeyOff) == key) {
                    dup = true;
                    return;
                }
            }
            // Cooperative unwind: bail before acting on zeroed reads
            // (the chain walk above terminates on them regardless).
            if (ctx.txAborted())
                return;
            // The conditionally-commutative part: consume one unit of
            // remaining space (bounded decrement, Sec. IV).
            if (!remaining_.decrement(ctx)) {
                full = true;
                return;
            }
            ctx.write<uint64_t>(node + kKeyOff, key);
            ctx.write<uint64_t>(node + kValOff, value);
            ctx.write<Addr>(node + kNextOff, head);
            ctx.write<Addr>(slot, node);
            inserted = true;
        });
        if (locked) {
            ctx.compute(128); // wait out the resize, then retry
            continue;
        }
        if (full) {
            resize(ctx);
            continue;
        }
        return inserted;
    }
}

template <typename Body>
bool
ResizableHashMap::inBucket(ThreadContext &ctx, uint64_t key, Body &&body)
{
    for (;;) {
        bool result = false, locked = false;
        ctx.txRun([&] {
            result = locked = false;
            if (ctx.read<uint64_t>(lock_) != 0) {
                locked = true;
                return;
            }
            const Addr buckets = ctx.read<Addr>(bucketsPtrAddr());
            const uint64_t n = ctx.read<uint64_t>(nBucketsAddr());
            result = body(buckets + 8 * (mix(key) & (n - 1)));
        });
        if (!locked)
            return result;
        ctx.compute(128);
    }
}

Addr
ResizableHashMap::findKey(ThreadContext &ctx, Addr slot, uint64_t key,
                          Addr *prev)
{
    Addr before = 0;
    for (Addr cur = ctx.read<Addr>(slot); cur != 0;
         cur = ctx.read<Addr>(cur + kNextOff)) {
        if (ctx.read<uint64_t>(cur + kKeyOff) == key) {
            if (prev)
                *prev = before;
            return cur;
        }
        before = cur;
    }
    return 0;
}

bool
ResizableHashMap::lookup(ThreadContext &ctx, uint64_t key, uint64_t *value)
{
    return inBucket(ctx, key, [&](Addr slot) {
        const Addr node = findKey(ctx, slot, key, nullptr);
        if (node && value)
            *value = ctx.read<uint64_t>(node + kValOff);
        return node != 0;
    });
}

bool
ResizableHashMap::update(ThreadContext &ctx, uint64_t key, uint64_t value)
{
    return inBucket(ctx, key, [&](Addr slot) {
        const Addr node = findKey(ctx, slot, key, nullptr);
        if (node)
            ctx.write<uint64_t>(node + kValOff, value);
        return node != 0;
    });
}

bool
ResizableHashMap::updateWith(ThreadContext &ctx, uint64_t key,
                             const std::function<bool(uint64_t &)> &fn)
{
    return inBucket(ctx, key, [&](Addr slot) {
        const Addr node = findKey(ctx, slot, key, nullptr);
        if (!node)
            return false;
        uint64_t value = ctx.read<uint64_t>(node + kValOff);
        if (!fn(value))
            return false;
        ctx.write<uint64_t>(node + kValOff, value);
        return true;
    });
}

bool
ResizableHashMap::erase(ThreadContext &ctx, uint64_t key)
{
    return inBucket(ctx, key, [&](Addr slot) {
        Addr prev = 0;
        const Addr node = findKey(ctx, slot, key, &prev);
        if (!node)
            return false;
        const Addr next = ctx.read<Addr>(node + kNextOff);
        ctx.write<Addr>(prev ? prev + kNextOff : slot, next);
        // Return the space unit (always-commutative add).
        remaining_.increment(ctx, 1);
        return true;
    });
}

void
ResizableHashMap::resize(ThreadContext &ctx)
{
    // Acquire the resize lock with a tiny transaction (test-and-set).
    for (;;) {
        bool got = false;
        ctx.txRun([&] {
            got = false;
            if (ctx.read<uint64_t>(lock_) == 0) {
                ctx.write<uint64_t>(lock_, 1);
                got = true;
            }
        });
        if (got)
            break;
        ctx.compute(256); // another thread is resizing; wait it out
    }
    // Someone else may have resized while we waited for the lock.
    if (remaining_.read(ctx) > 0) {
        ctx.write<uint64_t>(lock_, 0);
        return;
    }
    // Rehash non-speculatively. Plain writes to the bucket lines and
    // the header abort any straggling transactional readers (they
    // cannot NACK a non-speculative request), so the swap is safe.
    const Addr old_buckets = ctx.read<Addr>(bucketsPtrAddr());
    const uint64_t old_n = ctx.read<uint64_t>(nBucketsAddr());
    const uint64_t new_n = old_n * 2;
    const Addr new_buckets =
        machine_.allocator().alloc(8 * new_n, kLineSize);
    for (uint64_t b = 0; b < old_n; b++) {
        Addr cur = ctx.read<Addr>(old_buckets + 8 * b);
        while (cur != 0) {
            const Addr next = ctx.read<Addr>(cur + kNextOff);
            const uint64_t k = ctx.read<uint64_t>(cur + kKeyOff);
            const Addr slot = new_buckets + 8 * (mix(k) & (new_n - 1));
            ctx.write<Addr>(cur + kNextOff, ctx.read<Addr>(slot));
            ctx.write<Addr>(slot, cur);
            cur = next;
        }
    }
    ctx.write<Addr>(bucketsPtrAddr(), new_buckets);
    ctx.write<uint64_t>(nBucketsAddr(), new_n);
    // The doubled table gains fillFactor * old_n units of space.
    remaining_.increment(ctx, int64_t(fillFactor_ * double(old_n)));
    resizes_++;
    ctx.write<uint64_t>(lock_, 0);
}

uint64_t
ResizableHashMap::peekBuckets(Machine &machine) const
{
    return machine.memory().read<uint64_t>(nBucketsAddr());
}

uint64_t
ResizableHashMap::peekSize(Machine &machine) const
{
    const Addr buckets = machine.memory().read<Addr>(bucketsPtrAddr());
    const uint64_t n = machine.memory().read<uint64_t>(nBucketsAddr());
    uint64_t size = 0;
    for (uint64_t b = 0; b < n; b++) {
        for (Addr cur = machine.memory().read<Addr>(buckets + 8 * b);
             cur != 0;
             cur = machine.memory().read<Addr>(cur + kNextOff)) {
            size++;
        }
    }
    return size;
}

bool
ResizableHashMap::peekLookup(Machine &machine, uint64_t key,
                             uint64_t *value) const
{
    const Addr buckets = machine.memory().read<Addr>(bucketsPtrAddr());
    const uint64_t n = machine.memory().read<uint64_t>(nBucketsAddr());
    const Addr slot = buckets + 8 * (mix(key) & (n - 1));
    for (Addr cur = machine.memory().read<Addr>(slot); cur != 0;
         cur = machine.memory().read<Addr>(cur + kNextOff)) {
        if (machine.memory().read<uint64_t>(cur + kKeyOff) == key) {
            if (value)
                *value = machine.memory().read<uint64_t>(cur + kValOff);
            return true;
        }
    }
    return false;
}

} // namespace commtm
