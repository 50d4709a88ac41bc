/**
 * @file
 * Unit tests for trace capture and replay (docs/ARCHITECTURE.md
 * Sec. 11): pinned encoded bytes for a host-built capture (the format
 * is a contract — a refactor that changes it must show up here),
 * serialize/parse round trips, precise rejection diagnostics for
 * corrupted traces, capture-vs-replay bit-identity for closed-loop
 * and seed-randomized fuzz workloads, replay determinism at 128 and
 * 256 threads under eager and lazy conflict detection, and the
 * COMMTM_CAPTURE_TRACE override.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "lib/counter.h"
#include "rt/machine.h"
#include "trace/replay.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"

namespace commtm {
namespace {

using trace::kHeaderBytes;
using trace::kThreadEntryBytes;

/** CI seed randomization: shifts every fuzz seed, 0 by default. */
uint64_t
fuzzSeedOffset()
{
    static const uint64_t offset = [] {
        const char *s = std::getenv("COMMTM_FUZZ_SEED_OFFSET");
        return s ? std::strtoull(s, nullptr, 10) : 0ull;
    }();
    return offset;
}

/** Full-stats equality: every per-thread and machine counter. Replay
 *  on the capture config must reproduce all of them, not just the
 *  headline cycles. */
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

/** Host-built two-thread capture covering every record kind plus an
 *  aborted (discarded) attempt. */
TraceWriter
sampleWriter()
{
    MachineConfig cfg = MachineConfig::forCores(2);
    cfg.numCores = 2;
    TraceWriter w(cfg);
    const uint64_t operand = 0x1122334455667788ull;

    w.noteCompute(0, 5);
    w.beginAttempt(0);
    w.noteAccess(0, MemOp::Load, 0x10000, 8, kNoLabel, nullptr);
    w.noteAccess(0, MemOp::LabeledStore, 0x10040, 8, Label(1),
                 &operand);
    w.commitAttempt(0);
    w.noteAnnotation(0, kAnnotCounterAdd, 7);

    w.beginAttempt(1);
    // discarded by the abort
    w.noteAccess(1, MemOp::Store, 0x20000, 8, kNoLabel, &operand);
    w.abortAttempt(1);
    w.beginAttempt(1);
    w.noteAccess(1, MemOp::Gather, 0x10000, 8, Label(1), nullptr);
    w.commitAttempt(1);
    w.noteBarrier(1);
    return w;
}

TEST(Trace, PinnedEncodedBytes)
{
    const TraceWriter w = sampleWriter();
    const std::vector<uint8_t> bytes = w.serialize();

    // Stream payloads, byte for byte. zigzag(0x10000) = 0x20000 =
    // LEB128 [80 80 08]; zigzag(0x40) = 0x80 = [80 01].
    const std::vector<uint8_t> stream0 = {
        0, 5,                   // Compute 5
        6,                      // TxBegin
        1, 0x80, 0x80, 0x08, 8, // Load 0x10000 size 8
        4, 0x80, 0x01, 8, 1,    // LabeledStore 0x10040 size 8 label 1
        0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // operand LE
        7,                      // TxEnd
        9, 1, 7,                // Annotation code 1 value 7
    };
    const std::vector<uint8_t> stream1 = {
        6,                      // TxBegin (the aborted attempt left
                                // no bytes and did not move lastAddr)
        5, 0x80, 0x80, 0x08, 8, 1, // Gather 0x10000 size 8 label 1
        7,                      // TxEnd
        8,                      // Barrier
    };

    ASSERT_EQ(bytes.size(), kHeaderBytes + 2 * kThreadEntryBytes +
                                stream0.size() + stream1.size() + 2);
    EXPECT_EQ(std::memcmp(bytes.data(), "CTMTRACE", 8), 0);

    const auto u32At = [&](size_t off) {
        uint32_t v = 0;
        for (int i = 0; i < 4; i++)
            v |= uint32_t(bytes[off + i]) << (8 * i);
        return v;
    };
    const auto u64At = [&](size_t off) {
        uint64_t v = 0;
        for (int i = 0; i < 8; i++)
            v |= uint64_t(bytes[off + i]) << (8 * i);
        return v;
    };
    EXPECT_EQ(u32At(8), 1u);               // version
    EXPECT_EQ(u32At(12), 2u);              // numThreads
    EXPECT_EQ(u64At(16), w.fingerprint()); // config fingerprint
    EXPECT_EQ(u64At(24), 2u);              // commitCount
    EXPECT_EQ(u64At(32), 6u);              // thread 0 records
    EXPECT_EQ(u64At(40), stream0.size());  // thread 0 bytes
    EXPECT_EQ(u64At(48), 4u);              // thread 1 records
    EXPECT_EQ(u64At(56), stream1.size());  // thread 1 bytes

    const size_t s0 = kHeaderBytes + 2 * kThreadEntryBytes;
    EXPECT_TRUE(std::equal(stream0.begin(), stream0.end(),
                           bytes.begin() + s0));
    EXPECT_TRUE(std::equal(stream1.begin(), stream1.end(),
                           bytes.begin() + s0 + stream0.size()));
    // Commit order: core 0 then core 1, one varint byte each.
    EXPECT_EQ(bytes[bytes.size() - 2], 0u);
    EXPECT_EQ(bytes[bytes.size() - 1], 1u);
}

TEST(Trace, SerializeParseRoundTrip)
{
    const TraceWriter w = sampleWriter();
    const std::vector<uint8_t> bytes = w.serialize();

    Trace t;
    std::string err;
    ASSERT_TRUE(TraceReader::parse(bytes, &t, &err)) << err;
    EXPECT_EQ(t.version, 1u);
    EXPECT_EQ(t.configFingerprint, w.fingerprint());
    ASSERT_EQ(t.numThreads(), 2u);
    ASSERT_EQ(t.threads[0].size(), 6u);
    ASSERT_EQ(t.threads[1].size(), 4u);

    const TraceRecord &load = t.threads[0][2];
    EXPECT_EQ(load.kind, TraceOpKind::Load);
    EXPECT_EQ(load.addr, 0x10000u);
    EXPECT_EQ(load.size, 8u);
    const TraceRecord &store = t.threads[0][3];
    EXPECT_EQ(store.kind, TraceOpKind::LabeledStore);
    EXPECT_EQ(store.addr, 0x10040u);
    EXPECT_EQ(store.label, Label(1));
    const uint64_t operand = 0x1122334455667788ull;
    ASSERT_EQ(store.data.size(), 8u);
    EXPECT_EQ(std::memcmp(store.data.data(), &operand, 8), 0);
    const TraceRecord &annot = t.threads[0][5];
    EXPECT_EQ(annot.kind, TraceOpKind::Annotation);
    EXPECT_EQ(annot.a, uint64_t(kAnnotCounterAdd));
    EXPECT_EQ(annot.b, 7u);
    // The aborted store never appears; the gather delta is relative
    // to thread 1's own stream (initial base 0), not thread 0's.
    EXPECT_EQ(t.threads[1][1].kind, TraceOpKind::Gather);
    EXPECT_EQ(t.threads[1][1].addr, 0x10000u);
    ASSERT_EQ(t.commitOrder.size(), 2u);
    EXPECT_EQ(t.commitOrder[0], CoreId(0));
    EXPECT_EQ(t.commitOrder[1], CoreId(1));
}

TEST(Trace, CorruptedTracesRejectedWithPreciseDiagnostics)
{
    const std::vector<uint8_t> good = sampleWriter().serialize();
    const auto expectReject = [&](std::vector<uint8_t> bytes,
                                  const char *what) {
        Trace out;
        std::string err;
        EXPECT_FALSE(TraceReader::parse(bytes, &out, &err));
        EXPECT_NE(err.find(what), std::string::npos)
            << "diagnostic \"" << err << "\" lacks \"" << what
            << "\"";
    };
    // Offsets into the pinned layout (see PinnedEncodedBytes).
    const size_t s0 = kHeaderBytes + 2 * kThreadEntryBytes;
    const size_t s1 = s0 + 25; // thread 1's stream

    std::vector<uint8_t> bad = good;
    bad[0] ^= 0x20;
    expectReject(bad, "bad magic");

    bad = good;
    bad[8] = 9; // version field
    expectReject(bad, "unsupported version 9");

    bad = good;
    bad.resize(kHeaderBytes - 1);
    expectReject(bad, "truncated header");

    bad = good;
    bad.resize(kHeaderBytes + 8);
    expectReject(bad, "truncated thread table");

    bad = good;
    bad[40] = 0xff; // thread 0's byteCount overruns the buffer
    expectReject(bad, "thread 0: stream length 255 runs past the end");

    bad = good;
    bad[s0] = 42; // thread 0 record 0's opcode
    expectReject(bad, "thread 0 record 0: bad opcode 42");

    bad = good;
    bad[s0 + 7] = 65; // Load size: 65 > kLineSize
    expectReject(bad, "thread 0 record 2: implausible access size 65");

    bad = good;
    bad[s0 + 9] = 0xf8; // LabeledStore delta +0x40 -> +0x3c: the
    bad[s0 + 10] = 0;   // 8-byte access now starts at line offset 60
    expectReject(bad, "thread 0 record 3: access straddles a cache "
                      "line");

    bad = good;
    bad[40] = 20; // thread 0's byteCount: cuts the store mid-operand
    expectReject(bad, "thread 0 record 3: truncated operand (8 "
                      "bytes)");

    bad = good;
    bad[s1 + 6] = 200; // Gather label: >= kMaxHwLabels, != kNoLabel
    expectReject(bad, "thread 1 record 1: bad label 200");

    bad = good;
    bad[s0 + 21] = uint8_t(TraceOpKind::TxBegin); // TxEnd -> TxBegin
    expectReject(bad, "thread 0 record 4: TxBegin inside a "
                      "transaction");

    bad = good;
    bad[s1 + 8] = uint8_t(TraceOpKind::TxEnd); // Barrier -> 2nd TxEnd
    expectReject(bad, "thread 1 record 3: TxEnd without TxBegin");

    bad = good;
    bad[s0 + 21] = uint8_t(TraceOpKind::Barrier); // TxEnd -> Barrier
    expectReject(bad, "thread 0 record 4: Barrier inside a "
                      "transaction");

    bad = good;
    bad[good.size() - 1] = 5; // commit-order core id
    expectReject(bad, "commit order entry 1: core 5 out of range");

    bad = good;
    bad.pop_back();
    expectReject(bad, "truncated commit order at entry 1");

    bad = good;
    bad.push_back(0);
    expectReject(bad, "1 trailing bytes after the commit order");
}

/** Closed-loop counter workload under capture; returns the serialized
 *  trace and fills @p stats / @p value with the capture run's
 *  results. */
std::vector<uint8_t>
captureCounterRun(const MachineConfig &cfg, uint32_t threads,
                  uint64_t ops_per_thread, StatsSnapshot *stats,
                  int64_t *value)
{
    MachineConfig capture_cfg = cfg;
    capture_cfg.captureTrace = true;
    Machine m(capture_cfg);
    const Label add = CommCounter::defineLabel(m);
    CommCounter counter(m, add);
    for (uint32_t t = 0; t < threads; t++) {
        m.addThread([&counter, ops_per_thread](ThreadContext &ctx) {
            for (uint64_t i = 0; i < ops_per_thread; i++)
                counter.add(ctx, 1);
        });
    }
    m.run();
    *stats = m.stats();
    *value = counter.peek(m);
    return m.traceWriter()->serialize();
}

/** Replay @p t on @p cfg; returns the machine's stats and fills
 *  @p value with the replayed counter's committed value and, when
 *  @p recapture is non-null, the replay run's own serialized trace. */
StatsSnapshot
replayCounterRun(const MachineConfig &cfg, const Trace &t,
                 int64_t *value, std::vector<uint8_t> *recapture)
{
    MachineConfig replay_cfg = cfg;
    replay_cfg.captureTrace = recapture != nullptr;
    Machine m(replay_cfg);
    const Label add = CommCounter::defineLabel(m);
    CommCounter counter(m, add); // same allocation order as capture
    ReplayFrontend fe(t);
    fe.attach(m);
    m.run();
    if (value != nullptr)
        *value = counter.peek(m);
    if (recapture != nullptr)
        *recapture = m.traceWriter()->serialize();
    return m.stats();
}

TEST(Trace, ReplayOnCaptureConfigIsBitIdentical)
{
    for (const auto detection :
         {ConflictDetection::Eager, ConflictDetection::Lazy}) {
        MachineConfig cfg = MachineConfig::forCores(8);
        cfg.numCores = 8;
        cfg.mode = SystemMode::CommTm;
        cfg.conflictDetection = detection;
        cfg.seed = 1234;

        StatsSnapshot captured;
        int64_t captured_value = 0;
        const std::vector<uint8_t> bytes = captureCounterRun(
            cfg, 8, 50, &captured, &captured_value);
        EXPECT_EQ(captured_value, 400);

        Trace t;
        std::string err;
        ASSERT_TRUE(TraceReader::parse(bytes, &t, &err)) << err;
        ASSERT_EQ(t.commitOrder.size(), 400u);

        // Same config: every counter matches the capture run, the
        // functional end state matches, and re-capturing during the
        // replay reproduces the trace byte-for-byte.
        int64_t replayed_value = 0;
        std::vector<uint8_t> recaptured;
        const StatsSnapshot replayed =
            replayCounterRun(cfg, t, &replayed_value, &recaptured);
        expectStatsEqual(captured, replayed);
        EXPECT_EQ(replayed_value, captured_value);
        EXPECT_EQ(recaptured, bytes);
    }
}

TEST(Trace, ReplayIsDeterministicAcrossConfigsAt128And256Threads)
{
    for (const uint32_t threads : {128u, 256u}) {
        MachineConfig cfg = MachineConfig::forCores(threads);
        cfg.numCores = threads;
        cfg.mode = SystemMode::CommTm;
        cfg.conflictDetection = ConflictDetection::Eager;
        cfg.seed = 99;

        StatsSnapshot captured;
        int64_t captured_value = 0;
        const std::vector<uint8_t> bytes = captureCounterRun(
            cfg, threads, 4, &captured, &captured_value);
        Trace t;
        std::string err;
        ASSERT_TRUE(TraceReader::parse(bytes, &t, &err)) << err;

        // Same-seed replays of one capture must agree exactly —
        // stats and the re-captured trace — under both detection
        // policies (the capture was eager; the lazy replay is a
        // cross-config run re-resolved through the live HTM).
        for (const auto detection :
             {ConflictDetection::Eager, ConflictDetection::Lazy}) {
            MachineConfig replay_cfg = cfg;
            replay_cfg.conflictDetection = detection;
            std::vector<uint8_t> first, second;
            const StatsSnapshot a =
                replayCounterRun(replay_cfg, t, nullptr, &first);
            const StatsSnapshot b =
                replayCounterRun(replay_cfg, t, nullptr, &second);
            expectStatsEqual(a, b);
            EXPECT_EQ(first, second);
        }
    }
}

TEST(Trace, FuzzWorkloadReplaysBitIdentically)
{
    const uint64_t seed = 7 + fuzzSeedOffset();
    // Tiny caches: constant evictions, U-forwards, and aborts. The
    // bodies draw randomness from a host-side Rng (never ctx.rng()),
    // so the simulated threads' rng streams feed backoff only and
    // capture/replay consume them identically.
    MachineConfig cfg = MachineConfig::forCores(6);
    cfg.numCores = 6;
    cfg.mode = SystemMode::CommTm;
    cfg.conflictDetection =
        seed % 2 ? ConflictDetection::Lazy : ConflictDetection::Eager;
    cfg.l1SizeKB = 1;
    cfg.l2SizeKB = 2;
    cfg.l3SizeKB = 32;
    cfg.seed = seed;
    MachineConfig capture_cfg = cfg;
    capture_cfg.captureTrace = true;

    constexpr uint32_t kCounters = 24;
    constexpr int kOpsPerThread = 120;
    const auto body = [&](Machine &m, std::vector<Addr> &counters,
                          Label add, uint32_t t) {
        return [&, add, t](ThreadContext &ctx) {
            Rng rng(cfg.seed * 1000003 + t);
            for (int i = 0; i < kOpsPerThread; i++) {
                // Pre-draw everything: attempts of one transaction
                // must be identical (replay re-issues the recorded
                // ops on retry, so capture bodies whose attempts
                // vary would diverge).
                const Addr c = counters[rng.below(kCounters)];
                const int64_t delta = int64_t(rng.below(100)) - 50;
                const bool read_back = rng.below(100) < 20;
                ctx.txRun([&ctx, c, add, delta] {
                    const int64_t v =
                        ctx.readLabeled<int64_t>(c, add);
                    ctx.writeLabeled<int64_t>(c, add, v + delta);
                });
                if (read_back) {
                    ctx.txRun([&ctx, c] {
                        (void)ctx.read<int64_t>(c);
                    });
                }
                ctx.compute(4);
            }
            (void)m;
        };
    };

    StatsSnapshot captured;
    std::vector<uint8_t> bytes;
    {
        Machine m(capture_cfg);
        const Label add = CommCounter::defineLabel(m);
        std::vector<Addr> counters;
        for (uint32_t i = 0; i < kCounters; i++)
            counters.push_back(m.allocator().allocLines(1));
        for (uint32_t t = 0; t < cfg.numCores; t++)
            m.addThread(body(m, counters, add, t));
        m.run();
        captured = m.stats();
        bytes = m.traceWriter()->serialize();
    }

    Trace t;
    std::string err;
    ASSERT_TRUE(TraceReader::parse(bytes, &t, &err)) << err;

    std::vector<uint8_t> recaptured;
    {
        MachineConfig replay_cfg = cfg;
        replay_cfg.captureTrace = true;
        Machine m(replay_cfg);
        (void)CommCounter::defineLabel(m);
        for (uint32_t i = 0; i < kCounters; i++)
            (void)m.allocator().allocLines(1);
        ReplayFrontend fe(t);
        fe.attach(m);
        m.run();
        expectStatsEqual(captured, m.stats());
        recaptured = m.traceWriter()->serialize();
    }
    EXPECT_EQ(recaptured, bytes) << "seed " << seed;
}

TEST(Trace, EnvOverrideForcesCaptureOn)
{
    MachineConfig c = MachineConfig::forCores(2);
    c.numCores = 2;
    {
        Machine off(c);
        EXPECT_EQ(off.traceWriter(), nullptr);
    }
    ASSERT_EQ(setenv("COMMTM_CAPTURE_TRACE", "1", 1), 0);
    {
        Machine forced(c);
        EXPECT_NE(forced.traceWriter(), nullptr);
    }
    ASSERT_EQ(unsetenv("COMMTM_CAPTURE_TRACE"), 0);
}

} // namespace
} // namespace commtm
