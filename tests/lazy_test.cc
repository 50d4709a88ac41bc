/**
 * @file
 * Tests for lazy (commit-time) conflict detection — the Sec. III-D
 * generalization: TCC/Bulk-style transactional stores that buffer
 * silently, commit-time arbitration (committer wins), and CommTM's
 * commutative updates layered on top (same-label users never abort
 * each other).
 */

#include <gtest/gtest.h>

#include "apps/kmeans.h"
#include "apps/micro.h"
#include "htm/htm.h"
#include "lib/counter.h"
#include "lib/linked_list.h"
#include "rt/machine.h"

namespace commtm {
namespace {

MachineConfig
lazyCfg(SystemMode mode, uint32_t cores = 8)
{
    MachineConfig c;
    c.numCores = cores;
    c.mode = mode;
    c.conflictDetection = ConflictDetection::Lazy;
    return c;
}

TEST(Lazy, SerializableCounterUnderContention)
{
    Machine m(lazyCfg(SystemMode::BaselineHtm));
    const Addr a = m.allocator().allocLines(1);
    for (int t = 0; t < 8; t++) {
        m.addThread([&](ThreadContext &ctx) {
            for (int i = 0; i < 100; i++) {
                ctx.txRun([&] {
                    const int64_t v = ctx.read<int64_t>(a);
                    ctx.compute(4);
                    ctx.write<int64_t>(a, v + 1);
                });
            }
        });
    }
    m.run();
    // Commit-time arbitration must still produce a serializable sum.
    EXPECT_EQ(m.memory().read<int64_t>(a), 800);
    EXPECT_GT(m.stats().aggregateThreads().txAborted, 0u);
}

TEST(Lazy, ReadersAbortAtWriterCommitNotAtItsWrite)
{
    Machine m(lazyCfg(SystemMode::BaselineHtm, 2));
    const Addr a = m.allocator().allocLines(1);
    m.memory().write<int64_t>(a, 1);
    std::vector<int64_t> seen;
    // Thread 0: long reader; thread 1: writes and commits mid-way.
    // Lazy detection: the writer's *store* does not disturb the reader
    // (it buffers silently); the writer's *commit* dooms it. The
    // reader's retry then observes the committed value.
    m.addThread([&](ThreadContext &ctx) {
        ctx.txRun([&] {
            seen.push_back(ctx.read<int64_t>(a));
            ctx.compute(2000); // long transaction
            ctx.write<int64_t>(a + 8, 1);
        });
    });
    m.addThread([&](ThreadContext &ctx) {
        ctx.compute(200);
        ctx.txRun([&] { ctx.write<int64_t>(a, 2); });
    });
    m.run();
    ASSERT_GE(seen.size(), 1u);
    EXPECT_EQ(seen.back(), 2); // the committed attempt saw the new value
    const ThreadStats agg = m.stats().aggregateThreads();
    EXPECT_EQ(agg.txAborted, 1u);
    EXPECT_GE(agg.abortsByCause[size_t(AbortCause::WriteAfterRead)], 1u);
}

TEST(Lazy, CommTmCommutativeUpdatesDontAbortEachOther)
{
    Machine m(lazyCfg(SystemMode::CommTm));
    const Label add = CommCounter::defineLabel(m);
    CommCounter counter(m, add);
    for (int t = 0; t < 8; t++) {
        m.addThread([&](ThreadContext &ctx) {
            for (int i = 0; i < 100; i++)
                counter.add(ctx, 1);
        });
    }
    m.run();
    EXPECT_EQ(counter.peek(m), 800);
    EXPECT_EQ(m.stats().aggregateThreads().txAborted, 0u);
}

TEST(Lazy, CommitPublicationAbortsLabeledUsers)
{
    // A conventional write committing to a line others use labeled must
    // abort them (Sec. III-D: "commits would then abort all executing
    // transactions with non-commutative updates"). The writer (older)
    // runs a long transaction; a labeled user commits one increment
    // during it (fine: commutative commits abort no one) and has a
    // second increment in flight when the writer commits, which must
    // abort and retry against the published value.
    Machine m(lazyCfg(SystemMode::CommTm, 2));
    const Label add = CommCounter::defineLabel(m);
    const Addr a = m.allocator().allocLines(1);
    m.addThread([&](ThreadContext &ctx) {
        ctx.txRun([&] {
            ctx.compute(2000);
            ctx.write<int64_t>(a, 100);
            ctx.compute(2000);
        });
    });
    m.addThread([&](ThreadContext &ctx) {
        ctx.compute(500);
        ctx.txRun([&] {
            const int64_t v = ctx.readLabeled<int64_t>(a, add);
            ctx.writeLabeled<int64_t>(a, add, v + 1);
        });
        ctx.compute(2500);
        ctx.txRun([&] {
            const int64_t v = ctx.readLabeled<int64_t>(a, add);
            ctx.writeLabeled<int64_t>(a, add, v + 1);
            ctx.compute(3000); // keep it in flight across the commit
        });
    });
    m.run();
    const LineData line = m.memSys().debugReducedValue(lineAddr(a));
    int64_t v;
    std::memcpy(&v, line.data(), sizeof(v));
    // First +1 folded into the writer's publication reduction, then
    // overwritten by 100; the aborted second +1 retried on top.
    EXPECT_EQ(v, 101);
    const ThreadStats agg = m.stats().aggregateThreads();
    EXPECT_GE(
        agg.abortsByCause[size_t(AbortCause::LabeledConflict)], 1u);
}

TEST(Lazy, NoCapacityAbortsWithSignatureTracking)
{
    MachineConfig c = lazyCfg(SystemMode::BaselineHtm, 1);
    c.l1SizeKB = 1; // tiny L1: eager mode would capacity-abort
    c.l2SizeKB = 2;
    Machine m(c);
    const uint32_t l1_sets = c.l1Lines() / c.l1Ways;
    const Addr base = m.allocator().alloc(64 * kLineSize * 64, kLineSize);
    m.addThread([&](ThreadContext &ctx) {
        ctx.txRun([&] {
            for (uint32_t i = 0; i <= c.l1Ways + 2; i++)
                ctx.read<int64_t>(base + Addr(i) * l1_sets * kLineSize);
        });
    });
    m.run();
    EXPECT_EQ(m.stats().aggregateThreads().txAborted, 0u);
}

TEST(Lazy, ListStaysCorrectUnderLazyDetection)
{
    Machine m(lazyCfg(SystemMode::CommTm, 4));
    const Label label = CommList::defineLabel(m);
    CommList list(m, label);
    std::vector<int64_t> net(4, 0);
    for (int t = 0; t < 4; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            Rng &rng = ctx.rng();
            for (int i = 0; i < 50; i++) {
                if (rng.chance(0.6)) {
                    list.enqueue(ctx, (uint64_t(t) << 32) | uint64_t(i));
                    net[t]++;
                } else {
                    uint64_t out;
                    if (list.dequeue(ctx, &out))
                        net[t]--;
                }
            }
        });
    }
    m.run();
    int64_t expected = 0;
    for (auto n : net)
        expected += n;
    EXPECT_EQ(int64_t(list.peekSize(m)), expected);
}

/**
 * Commit-time arbitration's cause rules, driven through a real
 * HtmManager with no runtime (as coherence_test does). Core 0 writes
 * lines a and b and updates c labeled; cores 1-7 hold one footprint
 * each when core 0 commits. A victim's cause comes from the lowest
 * committer line it conflicts on, ranked write, then read, then
 * labeled; the committer's labeled updates conflict with conventional
 * readers and writers only.
 */
TEST(Lazy, ArbitrationCausePerVictimFootprint)
{
    MachineConfig cfg = lazyCfg(SystemMode::CommTm);
    SimMemory memory;
    MachineStats stats;
    Rng rng(1);
    LabelRegistry labels(cfg.hwLabels);
    MemorySystem mem(cfg, memory, labels, stats, rng);
    HtmManager htm(cfg, mem, memory);

    const Addr a = lineAddr(0x10000);
    const Addr b = lineAddr(0x20000);
    const Addr c = lineAddr(0x30000);
    const Addr d = lineAddr(0x40000);
    for (CoreId core = 0; core < 8; core++)
        htm.beginAttempt(core);
    htm.noteSpecLine(0, a, SpecKind::Write);
    htm.noteSpecLine(0, b, SpecKind::Write);
    htm.noteSpecLine(0, c, SpecKind::Labeled);
    htm.noteSpecLine(1, a, SpecKind::Read);
    htm.noteSpecLine(1, a, SpecKind::Write);
    htm.noteSpecLine(2, a, SpecKind::Read);
    htm.noteSpecLine(3, a, SpecKind::Labeled);
    htm.noteSpecLine(4, c, SpecKind::Read);
    htm.noteSpecLine(5, c, SpecKind::Labeled);
    htm.noteSpecLine(6, b, SpecKind::Write);
    htm.noteSpecLine(6, a, SpecKind::Labeled);
    htm.noteSpecLine(7, d, SpecKind::Read);
    htm.commit(0);

    const auto doomed_by = [&](CoreId core, AbortCause cause) {
        return htm.doomed(core) && htm.doomCause(core) == cause;
    };
    EXPECT_TRUE(doomed_by(1, AbortCause::WriteAfterWrite));
    EXPECT_TRUE(doomed_by(2, AbortCause::WriteAfterRead));
    EXPECT_TRUE(doomed_by(3, AbortCause::LabeledConflict));
    EXPECT_TRUE(doomed_by(4, AbortCause::LabeledConflict));
    EXPECT_FALSE(htm.doomed(5)); // labeled updates commute
    EXPECT_TRUE(doomed_by(6, AbortCause::LabeledConflict));
    EXPECT_FALSE(htm.doomed(7));
}

/** Abort causes of the conventional HTM's lazy ext_lazy rows: the
 *  rows pin only total aborts, and write-after-write and labeled
 *  aborts share one waste column. */
TEST(Lazy, BaselineAbortCausesArePinned)
{
    MachineConfig cfg;
    cfg.mode = SystemMode::BaselineHtm;
    cfg.conflictDetection = ConflictDetection::Lazy;
    const auto expect = [](uint64_t war, uint64_t waw) {
        decltype(ThreadStats::abortsByCause) causes{};
        causes[size_t(AbortCause::WriteAfterRead)] = war;
        causes[size_t(AbortCause::WriteAfterWrite)] = waw;
        return causes;
    };

    const MicroResult counter = runCounterMicro(cfg, 64, 12000);
    ASSERT_TRUE(counter.valid);
    EXPECT_EQ(counter.stats.aggregateThreads().abortsByCause,
              expect(142, 795));

    KmeansConfig km;
    km.numPoints = 1024;
    km.maxIters = 3;
    const KmeansResult kmeans = runKmeans(cfg, 64, km);
    ASSERT_TRUE(kmeans.valid(km.numPoints));
    EXPECT_EQ(kmeans.stats.aggregateThreads().abortsByCause,
              expect(1403, 2581));
}

} // namespace
} // namespace commtm
