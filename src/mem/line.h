/**
 * @file
 * Cache-line metadata: private-cache entries, sharer sets, and the L3
 * entries that embed the in-cache directory.
 */

#ifndef COMMTM_MEM_LINE_H
#define COMMTM_MEM_LINE_H

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>

#include "sim/types.h"

namespace commtm {

/** Coherence state of a line in a private (L1/L2) cache. M is the
 *  only state whose data may differ from the L3's: an M copy leaving
 *  its owner (downgrade to S, invalidation, eviction) is the line's
 *  one writeback. */
enum class PrivState : uint8_t {
    I, //!< invalid
    S, //!< shared, read-only
    E, //!< exclusive, clean (MESI)
    M, //!< modified
    U, //!< user-defined reducible (CommTM)
};

const char *privStateName(PrivState state);

/** Which speculative set an access joined (Sec. III-B): a transaction
 *  tracks a read, a write and a labeled set. */
enum class SpecKind : uint8_t { Read, Write, Labeled };

/** @p kind's bit in a transaction footprint or a PrivLine::noted mask. */
constexpr uint8_t
specBit(SpecKind kind)
{
    return uint8_t(1u << unsigned(kind));
}

/** Entry of a private L1/L2 tag array. */
struct PrivLine {
    Addr line = 0;
    bool valid = false;
    uint64_t lru = 0;

    PrivState state = PrivState::I;
    Label label = kNoLabel; //!< meaningful when state == U
    /**
     * Speculative-access bits (L1 only; Fig. 5). Whether they denote the
     * read/write set or the labeled set is inferred from the line state:
     * state U => labeled set.
     */
    bool specRead = false;
    bool specWrite = false;
    /**
     * specBit mask of the kinds this entry has reported to the HTM
     * (markSpec). One line can be in several kinds within one
     * transaction — the conditionally-commutative fallback reads a
     * line conventionally after labeled accesses, and the state
     * transition (U -> M) changes what an access means — and lazy
     * commit-time arbitration needs every kind recorded, not just the
     * first.
     */
    uint8_t noted = 0;

    bool spec() const { return specRead || specWrite; }

    void
    reset()
    {
        state = PrivState::I;
        label = kNoLabel;
        specRead = false;
        specWrite = false;
        noted = 0;
    }
};

/**
 * Set of sharer cores, exact at any machine size. Core ids below
 * kInlineSharers live in a fixed inline bitmask — the common case, and
 * the only case at Table I scale, so directory actions on <= 128-core
 * machines never allocate. Larger ids spill to a heap-allocated
 * extension bitmask sized at runtime to the highest id seen, so the
 * same directory models 256-, 512-, or N-core chips with no
 * compile-time cap. The extension stays bit-exact rather than
 * coarsening: every U sharer owns a U copy that reductions, gathers,
 * and evictions must visit individually (Sec. III-B3).
 */
class Sharers
{
  public:
    /** Core ids below this are tracked inline (allocation-free). */
    static constexpr uint32_t kInlineSharers = 128;

    Sharers() = default;
    Sharers(const Sharers &o) : words_(o.words_) { copyExt(o); }
    Sharers(Sharers &&o) noexcept : words_(o.words_), ext_(o.ext_)
    {
        o.words_[0] = o.words_[1] = 0;
        o.ext_ = nullptr;
    }
    Sharers &
    operator=(const Sharers &o)
    {
        if (this != &o) {
            words_ = o.words_;
            delete[] ext_;
            ext_ = nullptr;
            copyExt(o);
        }
        return *this;
    }
    Sharers &
    operator=(Sharers &&o) noexcept
    {
        if (this != &o) {
            delete[] ext_;
            words_ = o.words_;
            ext_ = o.ext_;
            o.words_[0] = o.words_[1] = 0;
            o.ext_ = nullptr;
        }
        return *this;
    }
    ~Sharers() { delete[] ext_; }

    void
    set(CoreId c)
    {
        if (c < kInlineSharers) {
            words_[c >> 6] |= bit(c);
            return;
        }
        growExt(extIndex(c) + 1);
        extWords()[extIndex(c)] |= bit(c);
    }

    void
    clear(CoreId c)
    {
        if (c < kInlineSharers)
            words_[c >> 6] &= ~bit(c);
        else if (extIndex(c) < extWordCount())
            extWords()[extIndex(c)] &= ~bit(c);
    }

    bool
    test(CoreId c) const
    {
        if (c < kInlineSharers)
            return words_[c >> 6] & bit(c);
        return extIndex(c) < extWordCount() &&
               (extWords()[extIndex(c)] & bit(c));
    }

    bool
    any() const
    {
        if (words_[0] || words_[1])
            return true;
        for (uint32_t w = 0; w < extWordCount(); w++) {
            if (extWords()[w])
                return true;
        }
        return false;
    }

    void
    resetAll()
    {
        words_[0] = words_[1] = 0;
        delete[] ext_;
        ext_ = nullptr;
    }

    uint32_t
    count() const
    {
        uint32_t n = __builtin_popcountll(words_[0]) +
                     __builtin_popcountll(words_[1]);
        for (uint32_t w = 0; w < extWordCount(); w++)
            n += __builtin_popcountll(extWords()[w]);
        return n;
    }

    /** True iff @p c is the only sharer. */
    bool
    only(CoreId c) const
    {
        return test(c) && count() == 1;
    }

    /** Lowest-numbered sharer; only valid when any(). */
    CoreId
    first() const
    {
        assert(any());
        if (words_[0])
            return __builtin_ctzll(words_[0]);
        if (words_[1])
            return 64 + __builtin_ctzll(words_[1]);
        for (uint32_t w = 0; w < extWordCount(); w++) {
            if (extWords()[w]) {
                return kInlineSharers + w * 64 +
                       __builtin_ctzll(extWords()[w]);
            }
        }
        return kNoCore;
    }

    /** Invoke @p fn for every sharer, in increasing core order. The
     *  callback is a template parameter (not std::function): this runs
     *  on the coherence fast path, where a std::function per directory
     *  action would allocate. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (int w = 0; w < 2; w++) {
            uint64_t bits = words_[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                fn(CoreId(w * 64 + b));
                bits &= bits - 1;
            }
        }
        for (uint32_t w = 0; w < extWordCount(); w++) {
            uint64_t bits = extWords()[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                fn(CoreId(kInlineSharers + w * 64 + b));
                bits &= bits - 1;
            }
        }
    }

  private:
    static uint32_t extIndex(CoreId c) { return (c - kInlineSharers) >> 6; }
    uint64_t bit(CoreId c) const { return 1ull << (c & 63); }

    uint32_t extWordCount() const { return ext_ ? uint32_t(ext_[0]) : 0; }
    uint64_t *extWords() { return ext_ + 1; }
    const uint64_t *extWords() const { return ext_ + 1; }

    void
    growExt(uint32_t words)
    {
        if (extWordCount() >= words)
            return;
        uint64_t *grown = new uint64_t[words + 1]();
        grown[0] = words;
        for (uint32_t w = 0; w < extWordCount(); w++)
            grown[w + 1] = ext_[w + 1];
        delete[] ext_;
        ext_ = grown;
    }

    void
    copyExt(const Sharers &o)
    {
        if (!o.ext_)
            return;
        const uint32_t words = o.extWordCount();
        ext_ = new uint64_t[words + 1];
        for (uint32_t w = 0; w <= words; w++)
            ext_[w] = o.ext_[w];
    }

    std::array<uint64_t, 2> words_{};
    /** Extension bitmask for cores >= kInlineSharers: word 0 holds the
     *  word count, the mask words follow. Null until a large id is
     *  set, so Table I machines never touch the heap here. */
    uint64_t *ext_ = nullptr;
};

/**
 * Stack-allocated snapshot of a sharer set. The directory handlers
 * snapshot sharers before invalidation/reduction loops (battle() and
 * handlers mutate the live set mid-walk); the snapshot is contiguous
 * (sortable for fanout-limited gathers) and stays on the stack for up
 * to kInlineSharers entries, spilling to the heap only on >128-core
 * machines.
 */
class SharerList
{
  public:
    // data_ is set in the body: members initialize in declaration
    // order, so naming inline_.data() in the init-list would read
    // inline_ before its own initialization.
    SharerList() : cap_(Sharers::kInlineSharers) { data_ = inline_.data(); }
    /** Snapshot of @p sharers without @p except (the requester). */
    SharerList(const Sharers &sharers, CoreId except) : SharerList()
    {
        sharers.forEach([&](CoreId s) {
            if (s != except)
                push(s);
        });
    }
    SharerList(const SharerList &) = delete;
    SharerList &operator=(const SharerList &) = delete;

    void
    push(CoreId c)
    {
        if (size_ == cap_)
            grow();
        data_[size_++] = c;
    }

    /** Keep only the first @p n entries (fanout-limited gathers). */
    void
    truncate(uint32_t n)
    {
        assert(n <= size_);
        size_ = n;
    }

    uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    CoreId operator[](uint32_t i) const { return data_[i]; }
    CoreId *begin() { return data_; }
    CoreId *end() { return data_ + size_; }
    const CoreId *begin() const { return data_; }
    const CoreId *end() const { return data_ + size_; }

  private:
    void
    grow()
    {
        const uint32_t grown_cap = cap_ * 2;
        CoreId *grown = new CoreId[grown_cap];
        for (uint32_t i = 0; i < size_; i++)
            grown[i] = data_[i];
        heap_.reset(grown);
        data_ = grown;
        cap_ = grown_cap;
    }

    CoreId *data_;
    uint32_t size_ = 0;
    uint32_t cap_;
    std::array<CoreId, Sharers::kInlineSharers> inline_;
    std::unique_ptr<CoreId[]> heap_;
};

/** Global (directory) view of a line's state. */
enum class DirState : uint8_t {
    NonCached, //!< present in L3 (or memory) only; no private copies
    S,         //!< one or more read-only private sharers
    M,         //!< one exclusive private owner (E or M locally)
    U,         //!< one or more reducible private sharers (CommTM)
};

const char *dirStateName(DirState state);

/** Entry of the shared L3, which embeds the in-cache directory. */
struct L3Line {
    Addr line = 0;
    bool valid = false;
    uint64_t lru = 0;

    DirState dir = DirState::NonCached;
    Sharers sharers;
    Label label = kNoLabel; //!< meaningful when dir == U

    void
    reset()
    {
        dir = DirState::NonCached;
        sharers.resetAll();
        label = kNoLabel;
    }
};

} // namespace commtm

#endif // COMMTM_MEM_LINE_H
