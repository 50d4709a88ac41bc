/**
 * @file
 * Functional backing store for the simulated address space, plus a simple
 * allocator. All committed (non-speculative, non-U) data lives here;
 * per-core U-state copies and transactional write buffers overlay it.
 */

#ifndef COMMTM_SIM_MEMORY_H
#define COMMTM_SIM_MEMORY_H

#include <array>
#include <cassert>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "sim/types.h"

namespace commtm {

/** Raw contents of one 64-byte cache line. */
using LineData = std::array<uint8_t, kLineSize>;

/**
 * Sparse, paged simulated memory. Pages are allocated lazily and
 * zero-filled, so freshly allocated simulated data reads as zero.
 */
class SimMemory
{
  public:
    static constexpr uint32_t kPageBits = 12;
    static constexpr size_t kPageSize = 1ull << kPageBits;

    /** Copy @p size bytes at simulated address @p addr into @p out. */
    void
    read(Addr addr, void *out, size_t size) const
    {
        auto *dst = static_cast<uint8_t *>(out);
        while (size > 0) {
            const size_t off = addr & (kPageSize - 1);
            const size_t chunk = std::min(size, kPageSize - off);
            const uint8_t *page = findPage(addr >> kPageBits);
            if (page) {
                std::memcpy(dst, page + off, chunk);
            } else {
                std::memset(dst, 0, chunk);
            }
            dst += chunk;
            addr += chunk;
            size -= chunk;
        }
    }

    /** Copy @p size bytes from @p src into simulated memory at @p addr. */
    void
    write(Addr addr, const void *src, size_t size)
    {
        const auto *from = static_cast<const uint8_t *>(src);
        while (size > 0) {
            const size_t off = addr & (kPageSize - 1);
            const size_t chunk = std::min(size, kPageSize - off);
            uint8_t *page = getPage(addr >> kPageBits);
            std::memcpy(page + off, from, chunk);
            from += chunk;
            addr += chunk;
            size -= chunk;
        }
    }

    /** Typed helpers for small scalars. */
    template <typename T>
    T
    read(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        read(addr, &value, sizeof(T));
        return value;
    }

    template <typename T>
    void
    write(Addr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &value, sizeof(T));
    }

    /** Read/write a whole aligned cache line. */
    LineData
    readLine(Addr line) const
    {
        LineData data;
        read(lineBase(line), data.data(), kLineSize);
        return data;
    }

    void
    writeLine(Addr line, const LineData &data)
    {
        write(lineBase(line), data.data(), kLineSize);
    }

  private:
    using Page = std::array<uint8_t, kPageSize>;

    const uint8_t *
    findPage(Addr page_num) const
    {
        auto it = pages_.find(page_num);
        return it == pages_.end() ? nullptr : it->second->data();
    }

    uint8_t *
    getPage(Addr page_num)
    {
        auto &slot = pages_[page_num];
        if (!slot) {
            slot = std::make_unique<Page>();
            slot->fill(0);
        }
        return slot->data();
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

/**
 * Bump allocator over the simulated address space. Simulated programs
 * never free; experiments reset the whole Machine instead. The base
 * address keeps line 0 unused so that Addr 0 can act as a null pointer.
 */
class SimAllocator
{
  public:
    explicit SimAllocator(Addr base = 0x10000) : next_(base) {}

    /** Allocate @p size bytes aligned to @p align (power of two). */
    Addr
    alloc(size_t size, size_t align = 8)
    {
        assert(align && !(align & (align - 1)));
        next_ = (next_ + align - 1) & ~(Addr(align) - 1);
        const Addr result = next_;
        next_ += size;
        return result;
    }

    /** Allocate a whole, line-aligned region of @p lines cache lines. */
    Addr
    allocLines(size_t lines)
    {
        return alloc(lines * kLineSize, kLineSize);
    }

    Addr watermark() const { return next_; }

  private:
    Addr next_;
};

} // namespace commtm

#endif // COMMTM_SIM_MEMORY_H
