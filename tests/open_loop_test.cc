/**
 * @file
 * Composition tests for the open-loop service frontend
 * (docs/ARCHITECTURE.md Sec. 12) against the rest of the checking
 * stack: an open-loop fuzz case runs with commit recording and the
 * full-density invariant sweeps on and re-executes the recorded
 * commit order through the software counter model (Sec. 9, Sec. 10),
 * and a
 * captured open-loop run replays bit-identically through the trace
 * machinery (Sec. 11) — possible because the frontend expresses all
 * idle waiting as ordinary compute ops.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "lib/counter.h"
#include "models/counter_model.h"
#include "rt/machine.h"
#include "rt/open_loop.h"
#include "sim/replay_oracle.h"
#include "trace/replay.h"
#include "trace/trace_reader.h"

namespace commtm {
namespace {

/** Tiny-cache CommTM machine with every observation layer on:
 *  commit recording, invariant sweeps at full density. */
MachineConfig
checkedConfig(uint32_t cores, uint64_t seed)
{
    MachineConfig c = MachineConfig::forCores(cores);
    c.numCores = cores;
    c.mode = SystemMode::CommTm;
    c.l1SizeKB = 1;
    c.l2SizeKB = 2;
    c.l3SizeKB = 32;
    c.seed = seed;
    c.recordCommits = true;
    c.checkInvariants = true;
    c.denseInvariants = true;
    return c;
}

/** Bursty open-loop shape tight enough to overflow the queue. */
OpenLoopConfig
burstyConfig(uint64_t seed)
{
    OpenLoopConfig cfg;
    cfg.pattern.kind = ArrivalPattern::Kind::Bursty;
    cfg.pattern.meanGap = 300.0;
    cfg.pattern.burstFactor = 8.0;
    cfg.pattern.onMean = 600.0;
    cfg.pattern.offMean = 1800.0;
    cfg.arrivalsPerThread = 32;
    cfg.warmupPerThread = 4;
    cfg.queueDepth = 6;
    cfg.zipfItems = 12;
    cfg.seed = seed;
    return cfg;
}

class OpenLoopFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(OpenLoopFuzz, OracleAndInvariantsComposeWithOpenLoop)
{
    const uint64_t seed = GetParam();
    const uint32_t kCores = 48;
    constexpr uint32_t kCounters = 12;

    Machine m(checkedConfig(kCores, seed));
    const Label add = CommCounter::defineLabel(m);
    std::vector<Addr> counters;
    for (uint32_t i = 0; i < kCounters; i++)
        counters.push_back(m.allocator().allocLines(1));

    std::vector<int64_t> model(kCounters, 0);
    ReplayOracle oracle(m);
    const uint32_t cm =
        oracle.addModel(std::make_unique<CounterModel>(counters));

    OpenLoopConfig cfg = burstyConfig(seed);
    cfg.zipfItems = kCounters;
    OpenLoopFrontend fe(
        cfg, kCores, [&](ThreadContext &ctx, uint64_t key) {
            const Addr a = counters[key];
            const uint32_t action = uint32_t(ctx.rng().below(100));
            if (action < 70) {
                ctx.txRun([&] {
                    const int64_t v = ctx.readLabeled<int64_t>(a, add);
                    ctx.writeLabeled<int64_t>(a, add, v + 1);
                });
                model[key]++;
                oracle.recordOp(ctx, CounterModel::add(cm, key, 1));
            } else if (action < 90) {
                int64_t v = 0;
                ctx.txRun([&] { v = ctx.read<int64_t>(a); });
                oracle.recordOp(ctx, CounterModel::read(cm, key, v));
            } else {
                ctx.txRun([&] { ctx.write<int64_t>(a, 0); });
                model[key] = 0;
                oracle.recordOp(ctx, CounterModel::set(cm, key, 0));
            }
        });
    fe.attach(m);
    m.run();

    // The machine state, the host model, and the serially re-executed
    // commit order must all agree — with the invariant sweeps having
    // run at every tx end and memory access along the way.
    for (uint32_t c = 0; c < kCounters; c++) {
        const LineData line =
            m.memSys().debugReducedValue(lineAddr(counters[c]));
        int64_t v;
        std::memcpy(&v, line.data(), sizeof(v));
        EXPECT_EQ(v, model[c]) << "counter " << c;
    }
    std::string diag;
    EXPECT_TRUE(oracle.replaySerial(&diag)) << diag;

    // The shape must have exercised open-loop queueing for real.
    const ServiceStats svc = fe.totalService();
    EXPECT_EQ(svc.completed, svc.admitted);
    EXPECT_GT(svc.dropped, 0u);
    EXPECT_GT(svc.maxDepth, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpenLoopFuzz,
                         ::testing::Values(0x51ull, 0x52ull, 0x53ull));

/** Full-stats equality, as in trace_test.cc: replay must reproduce
 *  every counter, not just the headline cycles. */
void
expectStatsEqual(const StatsSnapshot &a, const StatsSnapshot &b)
{
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (size_t t = 0; t < a.threads.size(); t++) {
        const ThreadStats &x = a.threads[t];
        const ThreadStats &y = b.threads[t];
        EXPECT_EQ(x.nonTxCycles, y.nonTxCycles) << "thread " << t;
        EXPECT_EQ(x.txCommittedCycles, y.txCommittedCycles)
            << "thread " << t;
        EXPECT_EQ(x.txAbortedCycles, y.txAbortedCycles)
            << "thread " << t;
        EXPECT_EQ(x.wastedByCause, y.wastedByCause) << "thread " << t;
        EXPECT_EQ(x.txStarted, y.txStarted) << "thread " << t;
        EXPECT_EQ(x.txCommitted, y.txCommitted) << "thread " << t;
        EXPECT_EQ(x.txAborted, y.txAborted) << "thread " << t;
        EXPECT_EQ(x.abortsByCause, y.abortsByCause) << "thread " << t;
        EXPECT_EQ(x.instrs, y.instrs) << "thread " << t;
        EXPECT_EQ(x.labeledInstrs, y.labeledInstrs) << "thread " << t;
    }
    const MachineStats &m = a.machine;
    const MachineStats &n = b.machine;
    EXPECT_EQ(m.l3Gets, n.l3Gets);
    EXPECT_EQ(m.l1Hits, n.l1Hits);
    EXPECT_EQ(m.l1Misses, n.l1Misses);
    EXPECT_EQ(m.l2Hits, n.l2Hits);
    EXPECT_EQ(m.l2Misses, n.l2Misses);
    EXPECT_EQ(m.l3Hits, n.l3Hits);
    EXPECT_EQ(m.l3Misses, n.l3Misses);
    EXPECT_EQ(m.invalidations, n.invalidations);
    EXPECT_EQ(m.downgrades, n.downgrades);
    EXPECT_EQ(m.nacks, n.nacks);
    EXPECT_EQ(m.reductions, n.reductions);
    EXPECT_EQ(m.reductionLinesMerged, n.reductionLinesMerged);
    EXPECT_EQ(m.gathers, n.gathers);
    EXPECT_EQ(m.splits, n.splits);
    EXPECT_EQ(m.uWritebacks, n.uWritebacks);
    EXPECT_EQ(m.uForwards, n.uForwards);
    EXPECT_EQ(m.writebacks, n.writebacks);
}

TEST(OpenLoopTrace, CapturedOpenLoopRunReplaysBitIdentically)
{
    MachineConfig cfg = MachineConfig::forCores(32);
    cfg.numCores = 32;
    cfg.mode = SystemMode::CommTm;
    cfg.captureTrace = true;

    StatsSnapshot captured;
    int64_t captured_total = 0;
    std::vector<uint8_t> bytes;
    {
        Machine m(cfg);
        const Label add = CommCounter::defineLabel(m);
        std::vector<std::unique_ptr<CommCounter>> counters;
        for (int c = 0; c < 8; c++)
            counters.push_back(std::make_unique<CommCounter>(m, add));
        OpenLoopConfig ol = burstyConfig(0x77);
        ol.zipfItems = 8;
        OpenLoopFrontend fe(ol, 32,
                            [&](ThreadContext &ctx, uint64_t key) {
                                counters[key]->add(ctx, 1);
                            });
        fe.attach(m);
        m.run();
        captured = m.stats();
        for (const auto &counter : counters)
            captured_total += counter->peek(m);
        bytes = m.traceWriter()->serialize();
        // Idle gaps must be in the trace as ordinary compute ops —
        // that is what makes open-loop timing replayable at all.
        EXPECT_EQ(int64_t(fe.totalService().completed),
                  captured_total);
    }

    Trace t;
    std::string err;
    ASSERT_TRUE(TraceReader::parse(bytes, &t, &err)) << err;

    MachineConfig replay_cfg = cfg;
    replay_cfg.captureTrace = false;
    Machine m(replay_cfg);
    const Label add = CommCounter::defineLabel(m);
    std::vector<std::unique_ptr<CommCounter>> counters;
    for (int c = 0; c < 8; c++)
        counters.push_back(std::make_unique<CommCounter>(m, add));
    ReplayFrontend fe(t);
    fe.attach(m);
    m.run();

    expectStatsEqual(captured, m.stats());
    int64_t replayed_total = 0;
    for (const auto &counter : counters)
        replayed_total += counter->peek(m);
    EXPECT_EQ(replayed_total, captured_total);
}

} // namespace
} // namespace commtm
