/**
 * @file
 * Flat, open-addressed hash map keyed by line address, used for all
 * speculative state on the simulator's hot path (per-core U copies,
 * transactional write-buffer lines, and transaction footprints).
 *
 * Two properties matter here and distinguish it from
 * std::unordered_map:
 *
 *  1. Host speed: a line-address key needs one multiplicative hash and a
 *     linear probe over a contiguous array — no per-node allocation, no
 *     bucket chain chasing. These maps sit under every simulated memory
 *     access, so constant factors dominate simulator host time.
 *  2. Determinism: iteration is offered *only* in ascending address
 *     order (forEachSorted), so any simulated behavior that walks a
 *     speculative set (commit application, lazy commit-time arbitration)
 *     is identical on every platform and standard library. stdlib hash
 *     containers iterate in layout order, which differs between
 *     libstdc++ and libc++ and would make checked-in counter baselines
 *     (bench/baselines.json) unreproducible.
 *
 * Reference sanitizer (docs/ARCHITECTURE.md Sec. 10): growth and
 * backward-shift deletion relocate values, so a pointer returned by
 * find() — or a reference held inside forEach — is invalidated by ANY
 * mutation of the container. Holding one across a mutation has caused
 * real protocol bugs (reduction handlers re-enter the memory system
 * and reshuffle per-core U copies under the caller's feet). In debug
 * builds (COMMTM_FLATMAP_SANITIZE, default 1 when NDEBUG is unset)
 * find() therefore returns a generation-checked handle instead of a
 * raw pointer: every dereference verifies the container has not been
 * mutated since the lookup and traps at the *use site* otherwise, and
 * forEach/forEachSorted trap when the callback mutates the container
 * mid-walk. Release builds compile the checking out entirely — find()
 * returns the raw pointer and no generation counter exists — so the
 * hot path is untouched.
 */

#ifndef COMMTM_SIM_FLAT_MAP_H
#define COMMTM_SIM_FLAT_MAP_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.h"

#ifndef COMMTM_FLATMAP_SANITIZE
#ifndef NDEBUG
#define COMMTM_FLATMAP_SANITIZE 1
#else
#define COMMTM_FLATMAP_SANITIZE 0
#endif
#endif

#if COMMTM_FLATMAP_SANITIZE
#include <cstdio>
#include <cstdlib>
#endif

namespace commtm {

#if COMMTM_FLATMAP_SANITIZE
/** Sanitizer failure: stale handle dereference or mutation during
 *  iteration. Aborts so gtest death tests can assert on the message. */
[[noreturn]] inline void
flatMapSanitizerTrap(const char *what)
{
    std::fprintf(stderr, "FlatLineMap sanitizer: %s\n", what);
    std::abort();
}
#endif

/**
 * Open-addressed hash map from line address to V with linear probing
 * and backward-shift deletion (no tombstones). Capacity is a power of
 * two; the map grows at 3/4 load. The empty-slot sentinel is
 * Addr(-1), which can never be a line address (it would correspond to
 * a virtual address above 2^70).
 */
template <typename V>
class FlatLineMap
{
  public:
    FlatLineMap() = default;

#if COMMTM_FLATMAP_SANITIZE
    /**
     * Generation-checked stand-in for the V* find() returns in Release
     * builds. Call sites bind it with `auto` and use it exactly like
     * the pointer (boolean test, *, ->); each dereference traps if the
     * container has been mutated since the lookup, naming the hazard
     * at the use site instead of silently reading relocated memory.
     */
    template <typename Ptr>
    class BasicHandle
    {
      public:
        BasicHandle() = default;
        BasicHandle(Ptr value, const FlatLineMap *map, uint64_t gen)
            : value_(value), map_(map), gen_(gen)
        {
        }

        explicit operator bool() const { return value_ != nullptr; }

        // Release call sites compare find() results to nullptr; the
        // handle must accept the same comparisons (no validation: a
        // presence test never dereferences).
        bool
        operator==(std::nullptr_t) const
        {
            return value_ == nullptr;
        }
        bool
        operator!=(std::nullptr_t) const
        {
            return value_ != nullptr;
        }

        decltype(*Ptr{}) operator*() const
        {
            validate();
            return *value_;
        }

        Ptr operator->() const
        {
            validate();
            return value_;
        }

      private:
        void
        validate() const
        {
            if (!value_) {
                flatMapSanitizerTrap(
                    "dereference of an empty find() handle");
            }
            if (map_->gen_ != gen_) {
                flatMapSanitizerTrap(
                    "stale find() handle: the container was mutated "
                    "after the lookup (values may have relocated)");
            }
        }

        Ptr value_ = nullptr;
        const FlatLineMap *map_ = nullptr;
        uint64_t gen_ = 0;
    };
    using FindResult = BasicHandle<V *>;
    using ConstFindResult = BasicHandle<const V *>;
#else
    using FindResult = V *;
    using ConstFindResult = const V *;
#endif

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    bool contains(Addr key) const { return findSlot(key) != kNoSlot; }

    /** Pointer to the value for @p key, or nullptr (in sanitize builds,
     *  a generation-checked handle with the same interface — bind with
     *  `auto`). */
    FindResult
    find(Addr key)
    {
        const size_t slot = findSlot(key);
#if COMMTM_FLATMAP_SANITIZE
        return FindResult(slot == kNoSlot ? nullptr : &values_[slot],
                          this, gen_);
#else
        return slot == kNoSlot ? nullptr : &values_[slot];
#endif
    }

    ConstFindResult
    find(Addr key) const
    {
        const size_t slot = findSlot(key);
#if COMMTM_FLATMAP_SANITIZE
        return ConstFindResult(
            slot == kNoSlot ? nullptr : &values_[slot], this, gen_);
#else
        return slot == kNoSlot ? nullptr : &values_[slot];
#endif
    }

    /** Value for @p key, default-constructed and inserted if absent. */
    V &
    operator[](Addr key)
    {
        assert(key != kEmptyKey);
        if (keys_.empty() || size_ + 1 > (capacity() * 3) / 4)
            grow();
        size_t slot = ideal(key);
        while (keys_[slot] != kEmptyKey) {
            if (keys_[slot] == key)
                return values_[slot];
            slot = (slot + 1) & mask_;
        }
        keys_[slot] = key;
        values_[slot] = V{};
        size_++;
        bumpGen();
        return values_[slot];
    }

    /** Remove @p key. Returns true iff it was present. */
    bool
    erase(Addr key)
    {
        size_t hole = findSlot(key);
        if (hole == kNoSlot)
            return false;
        // Backward-shift deletion: slide the rest of the probe chain
        // left so lookups never need tombstones.
        size_t next = (hole + 1) & mask_;
        while (keys_[next] != kEmptyKey) {
            const size_t home = ideal(keys_[next]);
            // Move keys_[next] into the hole unless its home position
            // lies (cyclically) after the hole.
            const bool in_chain = hole <= next
                                      ? (home <= hole || home > next)
                                      : (home <= hole && home > next);
            if (in_chain) {
                keys_[hole] = keys_[next];
                values_[hole] = std::move(values_[next]);
                hole = next;
            }
            next = (next + 1) & mask_;
        }
        keys_[hole] = kEmptyKey;
        values_[hole] = V{};
        size_--;
        bumpGen();
        return true;
    }

    /** Drop every entry, keeping the allocated capacity. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        std::fill(keys_.begin(), keys_.end(), kEmptyKey);
        size_ = 0;
        bumpGen();
    }

    /** Visit entries in unspecified order: fn(Addr, V&). Must not be
     *  used for anything that affects simulated behavior; prefer
     *  forEachSorted. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const uint64_t it_gen = iterGen();
        for (size_t i = 0; i < keys_.size(); i++) {
            if (keys_[i] != kEmptyKey) {
                fn(keys_[i], values_[i]);
                checkIterGen(it_gen);
            }
        }
    }

    /**
     * Visit entries in ascending address order: fn(Addr, const V&).
     * This is the only iteration order simulated behavior may depend
     * on — it is identical on every platform.
     */
    template <typename Fn>
    void
    forEachSorted(Fn &&fn) const
    {
        Addr stack_keys[kSortInline];
        std::vector<Addr> heap_keys;
        Addr *sorted = stack_keys;
        if (size_ > kSortInline) {
            heap_keys.resize(size_);
            sorted = heap_keys.data();
        }
        size_t n = 0;
        for (size_t i = 0; i < keys_.size(); i++) {
            if (keys_[i] != kEmptyKey)
                sorted[n++] = keys_[i];
        }
        assert(n == size_);
        std::sort(sorted, sorted + n);
        const uint64_t it_gen = iterGen();
        for (size_t i = 0; i < n; i++) {
            fn(sorted[i], values_[findSlot(sorted[i])]);
            checkIterGen(it_gen);
        }
    }

    /** Entries' keys in ascending order (convenience for callers that
     *  mutate the map while walking the snapshot). */
    std::vector<Addr>
    sortedKeys() const
    {
        std::vector<Addr> keys;
        keys.reserve(size_);
        for (size_t i = 0; i < keys_.size(); i++) {
            if (keys_[i] != kEmptyKey)
                keys.push_back(keys_[i]);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    static constexpr Addr kEmptyKey = ~Addr(0);
    static constexpr size_t kNoSlot = ~size_t(0);
    static constexpr size_t kInitialCapacity = 16;
    static constexpr size_t kSortInline = 64;

    // Sanitizer plumbing; all of it compiles to nothing in Release
    // builds (no counter, empty inline helpers).
#if COMMTM_FLATMAP_SANITIZE
    void bumpGen() { gen_++; }
    uint64_t iterGen() const { return gen_; }
    void
    checkIterGen(uint64_t gen) const
    {
        if (gen_ != gen) {
            flatMapSanitizerTrap(
                "container mutated during forEach/forEachSorted "
                "(use sortedKeys() to mutate while walking)");
        }
    }
#else
    void bumpGen() {}
    uint64_t iterGen() const { return 0; }
    void checkIterGen(uint64_t) const {}
#endif

    size_t capacity() const { return keys_.size(); }

    size_t
    ideal(Addr key) const
    {
        // Fibonacci multiplicative hash; line addresses are dense and
        // low-entropy in the high bits, so mix before masking.
        return size_t((key * 0x9e3779b97f4a7c15ull) >> 32) & mask_;
    }

    size_t
    findSlot(Addr key) const
    {
        if (keys_.empty())
            return kNoSlot;
        size_t slot = ideal(key);
        while (keys_[slot] != kEmptyKey) {
            if (keys_[slot] == key)
                return slot;
            slot = (slot + 1) & mask_;
        }
        return kNoSlot;
    }

    void
    grow()
    {
        // operator[] grows before probing, so even a lookup of an
        // existing key can relocate every value.
        bumpGen();
        const size_t new_cap =
            keys_.empty() ? kInitialCapacity : capacity() * 2;
        std::vector<Addr> old_keys = std::move(keys_);
        std::vector<V> old_values = std::move(values_);
        keys_.assign(new_cap, kEmptyKey);
        values_.assign(new_cap, V{});
        mask_ = new_cap - 1;
        for (size_t i = 0; i < old_keys.size(); i++) {
            if (old_keys[i] == kEmptyKey)
                continue;
            size_t slot = ideal(old_keys[i]);
            while (keys_[slot] != kEmptyKey)
                slot = (slot + 1) & mask_;
            keys_[slot] = old_keys[i];
            values_[slot] = std::move(old_values[i]);
        }
    }

    std::vector<Addr> keys_;
    std::vector<V> values_;
    size_t mask_ = 0;
    size_t size_ = 0;
#if COMMTM_FLATMAP_SANITIZE
    /** Mutation generation; find() handles snapshot it and compare on
     *  every dereference. */
    uint64_t gen_ = 0;
#endif
};

} // namespace commtm

#endif // COMMTM_SIM_FLAT_MAP_H
