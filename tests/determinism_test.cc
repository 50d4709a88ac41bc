/**
 * @file
 * Determinism tests: every simulation is a pure function of the seed.
 * Two runs with identical configuration must produce bit-identical
 * statistics — including abort counts and cause breakdowns, which
 * depend on the order speculative-state containers are walked
 * (write-buffer commit application, lazy commit-time arbitration,
 * U-eviction forwarding). The flat containers (sim/flat_map.h) iterate
 * in address order precisely so this holds on every platform and
 * standard library; these tests pin the property within one platform,
 * and the checked-in bench/baselines.json pins it across platforms.
 */

#include <gtest/gtest.h>

#include <utility>

#include "apps/intruder.h"
#include "apps/labyrinth.h"
#include "apps/micro.h"
#include "apps/yada.h"
#include "sim/stats.h"

namespace commtm {
namespace {

void
expectEqualThreadStats(const ThreadStats &a, const ThreadStats &b,
                       size_t thread)
{
    EXPECT_EQ(a.nonTxCycles, b.nonTxCycles) << "thread " << thread;
    EXPECT_EQ(a.txCommittedCycles, b.txCommittedCycles)
        << "thread " << thread;
    EXPECT_EQ(a.txAbortedCycles, b.txAbortedCycles) << "thread " << thread;
    EXPECT_EQ(a.wastedByCause, b.wastedByCause) << "thread " << thread;
    EXPECT_EQ(a.txStarted, b.txStarted) << "thread " << thread;
    EXPECT_EQ(a.txCommitted, b.txCommitted) << "thread " << thread;
    EXPECT_EQ(a.txAborted, b.txAborted) << "thread " << thread;
    EXPECT_EQ(a.abortsByCause, b.abortsByCause) << "thread " << thread;
    EXPECT_EQ(a.instrs, b.instrs) << "thread " << thread;
    EXPECT_EQ(a.labeledInstrs, b.labeledInstrs) << "thread " << thread;
}

void
expectEqualMachineStats(const MachineStats &a, const MachineStats &b)
{
    EXPECT_EQ(a.l3Gets, b.l3Gets);
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l3Hits, b.l3Hits);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.invalidations, b.invalidations);
    EXPECT_EQ(a.downgrades, b.downgrades);
    EXPECT_EQ(a.nacks, b.nacks);
    EXPECT_EQ(a.reductions, b.reductions);
    EXPECT_EQ(a.reductionLinesMerged, b.reductionLinesMerged);
    EXPECT_EQ(a.gathers, b.gathers);
    EXPECT_EQ(a.splits, b.splits);
    EXPECT_EQ(a.uWritebacks, b.uWritebacks);
    EXPECT_EQ(a.uForwards, b.uForwards);
    EXPECT_EQ(a.writebacks, b.writebacks);
}

void
expectEqualSnapshots(const StatsSnapshot &a, const StatsSnapshot &b)
{
    EXPECT_EQ(a.runtimeCycles(), b.runtimeCycles());
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (size_t t = 0; t < a.threads.size(); t++)
        expectEqualThreadStats(a.threads[t], b.threads[t], t);
    expectEqualMachineStats(a.machine, b.machine);
}

TEST(Determinism, EagerCounterMicroIsSeedDeterministic)
{
    MachineConfig cfg;
    cfg.mode = SystemMode::BaselineHtm; // heavy conflicts and backoff
    const MicroResult a = runCounterMicro(cfg, 16, 4000);
    const MicroResult b = runCounterMicro(cfg, 16, 4000);
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    expectEqualSnapshots(a.stats, b.stats);
}

TEST(Determinism, LazyArbitrationIsSeedDeterministic)
{
    // Lazy mode walks the committer's footprint at commit to pick
    // abort victims; the walk is in address order, so two runs agree
    // on every victim and cause.
    MachineConfig cfg;
    cfg.mode = SystemMode::BaselineHtm;
    cfg.conflictDetection = ConflictDetection::Lazy;
    const MicroResult a = runCounterMicro(cfg, 16, 4000);
    const MicroResult b = runCounterMicro(cfg, 16, 4000);
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    expectEqualSnapshots(a.stats, b.stats);
}

TEST(Determinism, GatherHeavyListMicroIsSeedDeterministic)
{
    // Mixed enqueue/dequeue exercises gathers, splits, reductions, and
    // U evictions (random forward target drawn from the machine Rng).
    MachineConfig cfg;
    cfg.mode = SystemMode::CommTm;
    const MicroResult a = runListMicro(cfg, 8, 4000, 50, 16);
    const MicroResult b = runListMicro(cfg, 8, 4000, 50, 16);
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    expectEqualSnapshots(a.stats, b.stats);
}

// ---------------------------------------------------------------------
// Beyond the inline sharer boundary: 256-thread machines exercise the
// spilled sharer representation (mem/line.h) and the scaled mesh
// geometry (MachineConfig::forCores). Same property: two same-seed runs
// must be bit-identical, in eager, lazy, and gather-heavy flavors.
// ---------------------------------------------------------------------

TEST(Determinism, Eager256ThreadCounterIsSeedDeterministic)
{
    MachineConfig cfg = MachineConfig::forCores(256);
    cfg.mode = SystemMode::BaselineHtm;
    // Periodic invariant sweeps over the spilled-sharer geometry;
    // observation-only, so both runs must still match bit-for-bit.
    cfg.checkInvariants = true;
    const MicroResult a = runCounterMicro(cfg, 256, 4096);
    const MicroResult b = runCounterMicro(cfg, 256, 4096);
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    expectEqualSnapshots(a.stats, b.stats);
}

TEST(Determinism, Lazy256ThreadCounterIsSeedDeterministic)
{
    MachineConfig cfg = MachineConfig::forCores(256);
    cfg.mode = SystemMode::BaselineHtm;
    cfg.conflictDetection = ConflictDetection::Lazy;
    cfg.checkInvariants = true;
    const MicroResult a = runCounterMicro(cfg, 256, 4096);
    const MicroResult b = runCounterMicro(cfg, 256, 4096);
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    expectEqualSnapshots(a.stats, b.stats);
}

TEST(Determinism, GatherHeavy256ThreadListIsSeedDeterministic)
{
    // 256 CommTM threads on one list descriptor: the sharer set spills,
    // and gathers/reductions fan out over >128 sharers.
    MachineConfig cfg = MachineConfig::forCores(256);
    cfg.mode = SystemMode::CommTm;
    cfg.checkInvariants = true;
    const MicroResult a = runListMicro(cfg, 256, 8192, 50, 4);
    const MicroResult b = runListMicro(cfg, 256, 8192, 50, 4);
    ASSERT_TRUE(a.valid);
    ASSERT_TRUE(b.valid);
    expectEqualSnapshots(a.stats, b.stats);
}

// ---------------------------------------------------------------------
// The CommQueue/GridClaim workloads (intruder, labyrinth, yada) add
// whole-chunk splitters, per-byte grid reductions, and worklist-driven
// control flow whose termination depends on simulated timing. Same
// property as above, at 128 threads (Table I machine) and at 256
// threads (scaled geometry + spilled sharer set).
// ---------------------------------------------------------------------

template <typename Run>
void
expectSameSeedBitIdentical(const Run &run)
{
    const StatsSnapshot a = run();
    const StatsSnapshot b = run();
    expectEqualSnapshots(a, b);
}

TEST(Determinism, Intruder128ThreadIsSeedDeterministic)
{
    expectSameSeedBitIdentical([] {
        MachineConfig cfg;
        cfg.mode = SystemMode::CommTm;
        IntruderConfig app;
        app.numFlows = 128;
        const IntruderResult r = runIntruder(cfg, 128, app);
        EXPECT_TRUE(r.valid());
        return r.stats;
    });
}

TEST(Determinism, Intruder256ThreadIsSeedDeterministic)
{
    expectSameSeedBitIdentical([] {
        MachineConfig cfg = MachineConfig::forCores(256);
        cfg.mode = SystemMode::CommTm;
        IntruderConfig app;
        app.numFlows = 192;
        const IntruderResult r = runIntruder(cfg, 256, app);
        EXPECT_TRUE(r.valid());
        return r.stats;
    });
}

TEST(Determinism, Labyrinth128ThreadIsSeedDeterministic)
{
    expectSameSeedBitIdentical([] {
        MachineConfig cfg;
        cfg.mode = SystemMode::CommTm;
        LabyrinthConfig app;
        app.numPaths = 160;
        const LabyrinthResult r = runLabyrinth(cfg, 128, app);
        EXPECT_TRUE(r.valid());
        return r.stats;
    });
}

TEST(Determinism, Labyrinth256ThreadIsSeedDeterministic)
{
    expectSameSeedBitIdentical([] {
        MachineConfig cfg = MachineConfig::forCores(256);
        cfg.mode = SystemMode::CommTm;
        LabyrinthConfig app;
        app.numPaths = 256;
        const LabyrinthResult r = runLabyrinth(cfg, 256, app);
        EXPECT_TRUE(r.valid());
        return r.stats;
    });
}

TEST(Determinism, Yada128ThreadIsSeedDeterministic)
{
    expectSameSeedBitIdentical([] {
        MachineConfig cfg;
        cfg.mode = SystemMode::CommTm;
        YadaConfig app;
        app.initialBad = 48;
        const YadaResult r = runYada(cfg, 128, app);
        EXPECT_TRUE(r.valid());
        return r.stats;
    });
}

TEST(Determinism, Yada256ThreadIsSeedDeterministic)
{
    expectSameSeedBitIdentical([] {
        MachineConfig cfg = MachineConfig::forCores(256);
        cfg.mode = SystemMode::CommTm;
        YadaConfig app;
        app.initialBad = 64;
        const YadaResult r = runYada(cfg, 256, app);
        EXPECT_TRUE(r.valid());
        return r.stats;
    });
}

// ---------------------------------------------------------------------
// Oracle-enabled determinism: the same 256-thread apps with commit
// recording on (MachineConfig::recordCommits), under eager AND lazy
// detection. Two same-seed runs must agree bit-for-bit in every
// counter (recording is observation-only, so these equal the
// unrecorded runs' stats too) and in every field of every commit
// record — the log itself is part of the machine's deterministic
// output, which is what lets the replay oracle diff logs across runs
// at all.
// ---------------------------------------------------------------------

template <typename Run>
void
expectOracleRunBitIdentical(const Run &run)
{
    const auto a = run(); // pair<StatsSnapshot, commit records>
    const auto b = run();
    expectEqualSnapshots(a.first, b.first);
    EXPECT_FALSE(a.second.empty());
    const CommitLogDiff d =
        CommitLog::diff(a.second, b.second, DiffMode::Exact);
    EXPECT_TRUE(d.equal) << "commit logs differ: " << d.message;
}

MachineConfig
oracleConfig256(ConflictDetection detection)
{
    MachineConfig cfg = MachineConfig::forCores(256);
    cfg.mode = SystemMode::CommTm;
    cfg.conflictDetection = detection;
    cfg.recordCommits = true;
    return cfg;
}

class OracleDeterminism : public ::testing::TestWithParam<int>
{
  protected:
    ConflictDetection
    detection() const
    {
        return ConflictDetection(GetParam());
    }
};

TEST_P(OracleDeterminism, Intruder256ThreadWithRecordingOn)
{
    expectOracleRunBitIdentical([&] {
        IntruderConfig app;
        app.numFlows = 160;
        const IntruderResult r =
            runIntruder(oracleConfig256(detection()), 256, app);
        EXPECT_TRUE(r.valid());
        return std::make_pair(r.stats, r.commitLog);
    });
}

TEST_P(OracleDeterminism, Labyrinth256ThreadWithRecordingOn)
{
    expectOracleRunBitIdentical([&] {
        LabyrinthConfig app;
        app.numPaths = 192;
        const LabyrinthResult r =
            runLabyrinth(oracleConfig256(detection()), 256, app);
        EXPECT_TRUE(r.valid());
        return std::make_pair(r.stats, r.commitLog);
    });
}

TEST_P(OracleDeterminism, Yada256ThreadWithRecordingOn)
{
    expectOracleRunBitIdentical([&] {
        YadaConfig app;
        app.initialBad = 48;
        const YadaResult r =
            runYada(oracleConfig256(detection()), 256, app);
        EXPECT_TRUE(r.valid());
        return std::make_pair(r.stats, r.commitLog);
    });
}

INSTANTIATE_TEST_SUITE_P(
    EagerAndLazy, OracleDeterminism,
    ::testing::Values(int(ConflictDetection::Eager),
                      int(ConflictDetection::Lazy)),
    [](const auto &params) {
        return params.param == int(ConflictDetection::Eager)
                   ? "eager"
                   : "lazy";
    });

} // namespace
} // namespace commtm
