/**
 * @file
 * Runtime tests: scheduler determinism, barrier semantics (uneven
 * arrival, early-finishing threads), stats reset, scheduling-quantum
 * invariance of functional results, and cycle accounting.
 */

#include <gtest/gtest.h>

#include "lib/counter.h"
#include "rt/machine.h"

namespace commtm {
namespace {

MachineConfig
cfg(uint32_t cores, uint64_t seed = 0x5eed)
{
    MachineConfig c;
    c.numCores = cores;
    c.seed = seed;
    return c;
}

Cycle
runContendedCounter(MachineConfig c, uint32_t threads)
{
    Machine m(c);
    const Label add = CommCounter::defineLabel(m);
    CommCounter counter(m, add);
    for (uint32_t t = 0; t < threads; t++) {
        m.addThread([&](ThreadContext &ctx) {
            for (int i = 0; i < 100; i++)
                counter.add(ctx, 1);
        });
    }
    m.run();
    EXPECT_EQ(counter.peek(m), int64_t(threads) * 100);
    return m.stats().runtimeCycles();
}

TEST(Machine, DeterministicAcrossRuns)
{
    const Cycle a = runContendedCounter(cfg(8), 8);
    const Cycle b = runContendedCounter(cfg(8), 8);
    EXPECT_EQ(a, b);
}

TEST(Machine, SeedChangesScheduleButNotResult)
{
    // Functional correctness is seed-independent (checked inside);
    // timing may differ.
    runContendedCounter(cfg(8, 1), 8);
    runContendedCounter(cfg(8, 2), 8);
}

TEST(Machine, QuantumDoesNotAffectFunctionalResults)
{
    for (Cycle q : {1u, 10u, 1000u}) {
        MachineConfig c = cfg(8);
        c.schedQuantum = q;
        runContendedCounter(c, 8);
    }
}

TEST(Machine, BarrierSynchronizesUnevenThreads)
{
    Machine m(cfg(4));
    std::vector<Cycle> after(4);
    for (int t = 0; t < 4; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            ctx.compute(uint64_t(t) * 1000); // very uneven arrival
            ctx.barrier();
            after[t] = ctx.now();
        });
    }
    m.run();
    // Everyone leaves the barrier at the same cycle: the slowest's.
    for (int t = 1; t < 4; t++)
        EXPECT_EQ(after[t], after[0]);
    EXPECT_GE(after[0], 3000u);
}

TEST(Machine, BarrierToleratesFinishedThreads)
{
    Machine m(cfg(4));
    int released = 0;
    for (int t = 0; t < 4; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            if (t == 3)
                return; // finishes before ever reaching the barrier
            ctx.compute(10);
            ctx.barrier();
            released++;
        });
    }
    m.run();
    EXPECT_EQ(released, 3);
}

TEST(Machine, ConsecutiveBarriers)
{
    Machine m(cfg(3));
    std::vector<int> order;
    for (int t = 0; t < 3; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            for (int phase = 0; phase < 5; phase++) {
                ctx.compute(uint64_t((t * 7 + phase * 3) % 11) + 1);
                ctx.barrier();
                if (t == 0)
                    order.push_back(phase);
            }
        });
    }
    m.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Machine, ResetStatsClearsCounters)
{
    Machine m(cfg(2));
    const Addr a = m.allocator().allocLines(1);
    for (int t = 0; t < 2; t++) {
        m.addThread([&](ThreadContext &ctx) {
            ctx.txRun([&] { ctx.write<int64_t>(a, 1); });
            ctx.barrier();
        });
    }
    m.run();
    EXPECT_GT(m.stats().aggregateThreads().txCommitted, 0u);
    m.resetStats();
    EXPECT_EQ(m.stats().aggregateThreads().txCommitted, 0u);
    EXPECT_EQ(m.stats().runtimeCycles(), 0u);
    EXPECT_EQ(m.stats().machine.totalL3Gets(), 0u);
}

TEST(Machine, CycleBucketsAreExclusive)
{
    Machine m(cfg(1));
    const Addr a = m.allocator().allocLines(1);
    m.addThread([&](ThreadContext &ctx) {
        ctx.compute(50); // non-tx
        ctx.txRun([&] {
            ctx.compute(30);
            ctx.write<int64_t>(a, 1);
        });
    });
    m.run();
    const ThreadStats agg = m.stats().aggregateThreads();
    EXPECT_GE(agg.nonTxCycles, 50u);
    EXPECT_GE(agg.txCommittedCycles, 30u);
    EXPECT_EQ(agg.txAbortedCycles, 0u);
    EXPECT_EQ(agg.totalCycles(),
              agg.nonTxCycles + agg.txCommittedCycles);
}

TEST(Machine, LatenciesFollowHierarchy)
{
    Machine m(cfg(2));
    const Addr a = m.allocator().allocLines(1);
    Cycle cold = 0, warm = 0;
    m.addThread([&](ThreadContext &ctx) {
        Cycle t0 = ctx.now();
        ctx.read<int64_t>(a); // cold: memory
        cold = ctx.now() - t0;
        t0 = ctx.now();
        ctx.read<int64_t>(a); // warm: L1
        warm = ctx.now() - t0;
    });
    m.run();
    EXPECT_EQ(warm, m.config().l1Latency);
    EXPECT_GT(cold, m.config().memLatency); // memory + L3 + NoC

    // Exact realized latencies on the Table I machine: a cold read
    // from memory, an L1 hit, and a read the directory serves while
    // another core holds the line.
    Machine table1{MachineConfig{}};
    const Addr b = table1.allocator().allocLines(1);
    Cycle mem = 0, l1 = 0, dir = 0;
    table1.addThread([&](ThreadContext &ctx) {
        Cycle t0 = ctx.now();
        ctx.read<int64_t>(b);
        mem = ctx.now() - t0;
        t0 = ctx.now();
        ctx.read<int64_t>(b);
        l1 = ctx.now() - t0;
    });
    table1.addThread([&](ThreadContext &ctx) {
        // Runs after core 0's cold read, which put it a quantum ahead.
        const Cycle t0 = ctx.now();
        ctx.read<int64_t>(b);
        dir = ctx.now() - t0;
    });
    table1.run();
    EXPECT_EQ(mem, 162u);
    EXPECT_EQ(l1, 1u);
    EXPECT_EQ(dir, 37u);
}

} // namespace
} // namespace commtm
