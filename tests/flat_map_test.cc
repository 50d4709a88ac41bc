/**
 * @file
 * Unit tests for the flat, deterministic line-address map
 * (sim/flat_map.h) and the WriteBuffer built on top of it —
 * including the regression for the cross-line write that used to
 * memcpy past the 64-byte entry.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "htm/write_buffer.h"
#include "sim/flat_map.h"
#include "sim/rng.h"

namespace commtm {
namespace {

TEST(FlatLineMap, InsertFindErase)
{
    FlatLineMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(7), nullptr);

    m[7] = 70;
    m[9] = 90;
    EXPECT_EQ(m.size(), 2u);
    EXPECT_TRUE(m.contains(7));
    ASSERT_NE(m.find(9), nullptr);
    EXPECT_EQ(*m.find(9), 90);

    m[7] = 71; // overwrite, not duplicate
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(*m.find(7), 71);

    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_FALSE(m.contains(7));
    EXPECT_EQ(m.size(), 1u);

    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.contains(9));
}

TEST(FlatLineMap, GrowsPastInitialCapacity)
{
    FlatLineMap<uint64_t> m;
    for (Addr k = 0; k < 1000; k++)
        m[k * 3] = k;
    EXPECT_EQ(m.size(), 1000u);
    for (Addr k = 0; k < 1000; k++) {
        ASSERT_NE(m.find(k * 3), nullptr) << k;
        EXPECT_EQ(*m.find(k * 3), k);
    }
}

TEST(FlatLineMap, SortedIterationIsAscending)
{
    FlatLineMap<int> m;
    // Keys chosen to collide under any masking of the low bits.
    const std::vector<Addr> keys = {1024, 1, 4096, 65, 2, 640, 129};
    for (Addr k : keys)
        m[k] = int(k);
    std::vector<Addr> seen;
    m.forEachSorted([&](Addr k, const int &v) {
        EXPECT_EQ(v, int(k));
        seen.push_back(k);
    });
    std::vector<Addr> expect = keys;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(seen, expect);
    EXPECT_EQ(m.sortedKeys(), expect);
}

/** Randomized cross-check against std::map, exercising the
 *  backward-shift deletion chains. */
TEST(FlatLineMap, MatchesReferenceUnderRandomOps)
{
    FlatLineMap<uint32_t> flat;
    std::map<Addr, uint32_t> ref;
    Rng rng(123);
    for (int op = 0; op < 20000; op++) {
        const Addr key = rng.below(512); // dense: force probe chains
        switch (rng.below(3)) {
          case 0:
          case 1: {
            const uint32_t value = uint32_t(rng.next());
            flat[key] = value;
            ref[key] = value;
            break;
          }
          case 2:
            EXPECT_EQ(flat.erase(key), ref.erase(key) == 1);
            break;
        }
    }
    EXPECT_EQ(flat.size(), ref.size());
    for (const auto &[k, v] : ref) {
        ASSERT_NE(flat.find(k), nullptr) << k;
        EXPECT_EQ(*flat.find(k), v);
    }
    std::vector<Addr> ref_keys;
    for (const auto &[k, v] : ref)
        ref_keys.push_back(k);
    EXPECT_EQ(flat.sortedKeys(), ref_keys);
}

// ---------------------------------------------------------------------
// WriteBuffer
// ---------------------------------------------------------------------

/** Regression: an 8-byte write at line offset 60 used to memcpy 4
 *  bytes past the 64-byte entry (and mark mask bytes out of bounds).
 *  It must split across the two lines instead. */
TEST(WriteBuffer, CrossLineWriteSplits)
{
    WriteBuffer wb;
    const Addr base = 0x1000; // line-aligned
    const uint64_t value = 0x1122334455667788ull;
    wb.write(base + 60, &value, sizeof(value));

    EXPECT_EQ(wb.numLines(), 2u);
    EXPECT_TRUE(wb.touches(lineAddr(base)));
    EXPECT_TRUE(wb.touches(lineAddr(base + kLineSize)));

    // Overlay over a zeroed committed view reproduces the full value,
    // reading across the same line boundary.
    uint64_t out = 0;
    wb.overlay(base + 60, &out, sizeof(out));
    EXPECT_EQ(out, value);

    // Only bytes [60, 64) of the first line and [0, 4) of the second
    // are masked.
    int masked = 0;
    wb.forEach([&](Addr line, const WriteBuffer::Entry &e) {
        if (line == lineAddr(base))
            EXPECT_EQ(e.mask, 0xFull << 60);
        else
            EXPECT_EQ(e.mask, 0xFull);
        masked++;
    });
    EXPECT_EQ(masked, 2);
}

TEST(WriteBuffer, OverlayMergesBufferedBytesOnly)
{
    WriteBuffer wb;
    const Addr base = 0x2000;
    const uint32_t buffered = 0xAABBCCDD;
    wb.write(base + 8, &buffered, sizeof(buffered));

    uint8_t view[16];
    std::memset(view, 0x11, sizeof(view));
    wb.overlay(base, view, sizeof(view));
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(view[i], 0x11) << i;
    uint32_t got;
    std::memcpy(&got, view + 8, 4);
    EXPECT_EQ(got, buffered);
    for (int i = 12; i < 16; i++)
        EXPECT_EQ(view[i], 0x11) << i;
}

TEST(WriteBuffer, ForEachVisitsLinesInAddressOrder)
{
    WriteBuffer wb;
    const uint8_t byte = 0xEE;
    for (Addr line : {Addr(9), Addr(2), Addr(700), Addr(41)})
        wb.write(lineBase(line), &byte, 1);
    std::vector<Addr> order;
    wb.forEach([&](Addr line, const WriteBuffer::Entry &) {
        order.push_back(line);
    });
    EXPECT_EQ(order, (std::vector<Addr>{2, 9, 41, 700}));
    wb.clear();
    EXPECT_TRUE(wb.empty());
}

#if COMMTM_FLATMAP_SANITIZE
// Debug-only reference sanitizer (docs/ARCHITECTURE.md Sec. 10.4):
// a find() handle held across any mutation, and a mutation during
// forEach, must trap at the use site instead of silently reading a
// relocated value. In Release these handles are raw pointers and
// these tests compile out with the sanitizer itself.

TEST(FlatMapSanitizerDeathTest, StaleHandleAfterInsertTraps)
{
    FlatLineMap<int> m;
    m[10] = 1;
    auto h = m.find(10);
    ASSERT_TRUE(bool(h));
    EXPECT_EQ(*h, 1);         // fresh handle: fine
    m[11] = 2;                // may grow and relocate every value
    EXPECT_DEATH((void)*h, "FlatLineMap sanitizer: stale");
}

TEST(FlatMapSanitizerDeathTest, StaleHandleAfterEraseTraps)
{
    FlatLineMap<int> m;
    m[10] = 1;
    m[77] = 2;
    auto h = m.find(77);
    m.erase(10);              // backward-shift may move key 77
    EXPECT_DEATH((void)*h, "FlatLineMap sanitizer: stale");
}

TEST(FlatMapSanitizerDeathTest, EmptyHandleDerefTraps)
{
    FlatLineMap<int> m;
    auto h = m.find(123);
    EXPECT_FALSE(bool(h));
    EXPECT_DEATH((void)*h, "FlatLineMap sanitizer: dereference");
}

TEST(FlatMapSanitizerDeathTest, MutationDuringForEachTraps)
{
    FlatLineMap<int> m;
    m[1] = 1;
    m[2] = 2;
    EXPECT_DEATH(m.forEach([&](Addr, const int &) { m[99] = 9; }),
                 "FlatLineMap sanitizer: container mutated during");
}
#endif // COMMTM_FLATMAP_SANITIZE

} // namespace
} // namespace commtm
