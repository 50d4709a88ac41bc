/**
 * @file
 * Trace-replay sweep (docs/ARCHITECTURE.md Sec. 11): capture the
 * fig09-shaped counter and fig12-shaped (enqueue-only) list workloads
 * once per thread count, then replay each capture across machine
 * variants — {eager, lazy} conflict detection and a half-size cache
 * geometry — without recompiling or re-running the workload bodies.
 * Every row replays ONE capture deterministically, so its counters
 * are exact and pinned in bench/baselines.json like any figure row.
 *
 * Replay is a timing replay (docs/BENCHMARKS.md). The counter rows
 * are strict: the add body is attempt-invariant (branch-free), so
 * every replay — any detection policy, any geometry — must land all
 * 24000 increments, and on the capture config the counters are
 * bit-identical to the capture run (tests/trace_test.cc pins that).
 * The list rows are determinism pins only: CommList::enqueue
 * branches on the tail it reads, so a capture-time abort can make
 * the recorded (committed) attempt differ from the attempt the
 * capture machine timed first, and the replayed list may diverge
 * from the capture's. What stays guaranteed on any config is that
 * every captured transaction commits exactly once, which is what the
 * list rows validate.
 */

#include "bench_util.h"

#include <map>

#include "lib/counter.h"
#include "lib/linked_list.h"
#include "rt/machine.h"
#include "trace/replay.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"

namespace commtm {
namespace {

constexpr uint64_t kCounterOps = 24000; // fig09's total
constexpr uint64_t kListOps = 16000;    // fig12-shaped, enqueue-only

uint64_t
opsOf(uint32_t thread, uint32_t threads, uint64_t total)
{
    return total / threads + (thread < total % threads ? 1 : 0);
}

/** Capture config: the Table I CommTM machine (eager) under capture.
 *  All replays of one thread count re-execute this one capture. */
MachineConfig
captureCfg(uint32_t threads)
{
    MachineConfig cfg =
        benchutil::machineCfg(SystemMode::CommTm, threads);
    cfg.captureTrace = true;
    return cfg;
}

/** Counter capture, once per thread count (rows share it). */
const Trace &
counterCapture(uint32_t threads)
{
    static std::map<uint32_t, Trace> cache;
    const auto it = cache.find(threads);
    if (it != cache.end())
        return it->second;
    Machine m(captureCfg(threads));
    const Label add = CommCounter::defineLabel(m);
    CommCounter counter(m, add);
    for (uint32_t t = 0; t < threads; t++) {
        const uint64_t ops = opsOf(t, threads, kCounterOps);
        m.addThread([&counter, ops](ThreadContext &ctx) {
            for (uint64_t i = 0; i < ops; i++)
                counter.add(ctx, 1);
        });
    }
    m.run();
    Trace &t = cache[threads];
    std::string err;
    if (!TraceReader::parse(m.traceWriter()->serialize(), &t, &err))
        std::fprintf(stderr, "counter capture: %s\n", err.c_str());
    return t;
}

/** Enqueue-only list capture: fig12's structure without its rng
 *  draws, so the captured op stream is a pure function of (config,
 *  thread count) and replayed pointer stores carry capture-time node
 *  addresses (never wild pointers). */
const Trace &
listCapture(uint32_t threads)
{
    static std::map<uint32_t, Trace> cache;
    const auto it = cache.find(threads);
    if (it != cache.end())
        return it->second;
    Machine m(captureCfg(threads));
    const Label label = CommList::defineLabel(m);
    CommList list(m, label, false);
    for (uint32_t t = 0; t < threads; t++) {
        const uint64_t ops = opsOf(t, threads, kListOps);
        m.addThread([&list, t, ops](ThreadContext &ctx) {
            for (uint64_t i = 0; i < ops; i++) {
                list.enqueue(ctx, (uint64_t(t) << 32) | i);
                ctx.compute(8);
            }
        });
    }
    m.run();
    Trace &t = cache[threads];
    std::string err;
    if (!TraceReader::parse(m.traceWriter()->serialize(), &t, &err))
        std::fprintf(stderr, "list capture: %s\n", err.c_str());
    return t;
}

MachineConfig
replayCfg(ConflictDetection detection, uint32_t threads)
{
    return benchutil::machineCfg(SystemMode::CommTm, detection,
                                 threads);
}

/** Replay the counter capture on @p cfg; valid when all increments
 *  land. */
benchutil::RowResult
replayCounter(const MachineConfig &cfg, uint32_t threads)
{
    const Trace &t = counterCapture(threads);
    Machine m(cfg);
    const Label add = CommCounter::defineLabel(m);
    CommCounter counter(m, add);
    ReplayFrontend fe(t);
    fe.attach(m);
    m.run();
    return {m.stats(), counter.peek(m) == int64_t(kCounterOps)};
}

/** Replay the list capture on @p cfg. Determinism pin, not a
 *  functional pin (file header): valid when each captured transaction
 *  committed exactly once. */
benchutil::RowResult
replayList(const MachineConfig &cfg, uint32_t threads)
{
    const Trace &t = listCapture(threads);
    Machine m(cfg);
    (void)CommList::defineLabel(m);
    ReplayFrontend fe(t);
    fe.attach(m);
    m.run();
    const StatsSnapshot stats = m.stats();
    return {stats, stats.aggregateThreads().txCommitted == kListOps};
}

std::vector<benchutil::Row>
replayRows()
{
    // Eager counter rows come first: the @1t eager replay is the
    // family's speedup reference.
    std::vector<benchutil::Row> rows = benchutil::sweep(
        {SystemMode::CommTm},
        {ConflictDetection::Eager, ConflictDetection::Lazy},
        benchutil::extendedThreadSweep(), replayCounter);
    for (const uint32_t threads : {16u, 64u, 128u, 256u}) {
        // Half-size caches at every level: the same capture under
        // real eviction pressure (U evictions, writebacks).
        MachineConfig cfg = replayCfg(ConflictDetection::Eager, threads);
        cfg.l1SizeKB /= 2;
        cfg.l2SizeKB /= 2;
        cfg.l3SizeKB /= 2;
        rows.push_back({"CommTM/small$ @" + std::to_string(threads) + "t",
                        [=] { return replayCounter(cfg, threads); }});
    }
    for (const ConflictDetection det :
         {ConflictDetection::Eager, ConflictDetection::Lazy}) {
        for (const uint32_t threads : {1u, 8u, 32u, 128u, 256u}) {
            const MachineConfig cfg = replayCfg(det, threads);
            const std::string row =
                det == ConflictDetection::Lazy ? "list/lazy" : "list";
            rows.push_back({row + " @" + std::to_string(threads) + "t",
                            [=] { return replayList(cfg, threads); }});
        }
    }
    return rows;
}

const benchutil::Register kReplay("replay", replayRows());

} // namespace
} // namespace commtm
