/**
 * @file
 * Randomized protocol fuzzing: thousands of random labeled/unlabeled
 * operations from random cores against machines with tiny caches (so
 * evictions, U-forwards, writebacks, and reductions fire constantly),
 * checking the paper's key invariant after every step: the line's
 * value equals the reduction of all private U copies (Sec. III-B3),
 * and the directory state stays consistent with the private caches.
 *
 * Every case runs with commit recording on and the replay oracle
 * active (docs/ARCHITECTURE.md Sec. 9): the recorded commit order is
 * serially re-executed against a software counter model, and the
 * differential case cross-checks eager vs. lazy per-commit labeled-op
 * digests and end states. COMMTM_FUZZ_SEED_OFFSET shifts every seed
 * (the CI oracle leg sets it per run for seed randomization).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "lib/counter.h"
#include "models/counter_model.h"
#include "rt/machine.h"
#include "sim/replay_oracle.h"

namespace commtm {
namespace {

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

/** Tiny-cache machine: maximal eviction pressure. Geometry comes from
 *  forCores, so >128-core seeds also run the scaled mesh. Commit
 *  recording is on for every fuzz machine (observation-only). */
MachineConfig
fuzzConfig(uint64_t seed, uint32_t cores)
{
    MachineConfig c = MachineConfig::forCores(cores);
    c.numCores = cores;
    c.mode = SystemMode::CommTm;
    c.l1SizeKB = 1;  // 2 sets x 8 ways
    c.l2SizeKB = 2;  // 4 sets x 8 ways
    c.l3SizeKB = 32; // 32 sets x 16 ways
    c.seed = seed;
    c.recordCommits = true;
    // Invariant sweeps (Sec. 10): full density (every commit,
    // abort, and top-level access) up to the 128-sharer inline
    // boundary; the spilled-sharer geometries keep periodic +
    // end-of-run sweeps — a whole-machine sweep per access at
    // 130-256 cores multiplies Debug fuzz time ~10x without adding
    // invariant coverage.
    c.checkInvariants = true;
    c.denseInvariants = cores <= 128;

    return c;
}

/** Core count for a fuzz seed: randomized over both sides of the
 *  128-sharer inline/spill boundary (mem/line.h), pinned per seed so
 *  failures reproduce. */
uint32_t
fuzzCores(uint64_t seed)
{
    static constexpr uint32_t kCounts[] = {3,   6,   12,  48,
                                           130, 144, 192, 256};
    return kCounts[seed % 8];
}

/** Fewer ops per thread on big machines keeps total work bounded. */
int
fuzzOps(uint32_t cores, int small_machine_ops)
{
    return cores > 128 ? small_machine_ops / 8 : small_machine_ops;
}

class ProtocolFuzz : public ::testing::TestWithParam<uint64_t>
{
  protected:
    uint64_t seed() const { return GetParam() + fuzzSeedOffset(); }
};

TEST_P(ProtocolFuzz, CounterInvariantSurvivesRandomOps)
{
    const uint32_t kCores = fuzzCores(seed());
    constexpr uint32_t kCounters = 48; // overflows the tiny L2 sets
    const int kOpsPerThread = fuzzOps(kCores, 400);

    Machine m(fuzzConfig(seed(), kCores));
    const Label add = CommCounter::defineLabel(m);
    std::vector<Addr> counters;
    for (uint32_t i = 0; i < kCounters; i++)
        counters.push_back(m.allocator().allocLines(1));

    // Host model: expected value of each counter. Functional commit
    // order equals host execution order (the simulator is sequential
    // and each txRun/model-update pair runs without a fiber switch
    // between them), so the model tracks the committed state exactly.
    // The replay oracle re-derives the same facts independently: each
    // op is attached to the transaction that committed it and the
    // whole commit order is re-executed serially at the end.
    std::vector<int64_t> model(kCounters, 0);
    ReplayOracle oracle(m);
    const uint32_t cm =
        oracle.addModel(std::make_unique<CounterModel>(counters));

    for (uint32_t t = 0; t < kCores; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            Rng &rng = ctx.rng();
            for (int i = 0; i < kOpsPerThread; i++) {
                const uint32_t c = uint32_t(rng.below(kCounters));
                const Addr a = counters[c];
                const uint32_t action = uint32_t(rng.below(100));
                if (action < 70) {
                    // Commutative increment.
                    ctx.txRun([&] {
                        const int64_t v =
                            ctx.readLabeled<int64_t>(a, add);
                        ctx.writeLabeled<int64_t>(a, add, v + 1);
                    });
                    model[c]++;
                    oracle.recordOp(ctx, CounterModel::add(cm, c, 1));
                } else if (action < 85) {
                    // Conventional read: triggers a full reduction.
                    // The value it returns is valid as of this
                    // transaction's commit, so the serial replay can
                    // check it against the model exactly.
                    int64_t v = 0;
                    ctx.txRun([&] { v = ctx.read<int64_t>(a); });
                    oracle.recordOp(ctx,
                                    CounterModel::read(cm, c, v));
                } else if (action < 95) {
                    // Gather: rebalances but must not change the total.
                    ctx.txRun([&] {
                        (void)ctx.readGather<int64_t>(a, add);
                    });
                } else {
                    // Conventional overwrite: resets the counter.
                    ctx.txRun([&] { ctx.write<int64_t>(a, 0); });
                    model[c] = 0;
                    oracle.recordOp(ctx, CounterModel::set(cm, c, 0));
                }
            }
        });
    }
    m.run();

    for (uint32_t c = 0; c < kCounters; c++) {
        const LineData line =
            m.memSys().debugReducedValue(lineAddr(counters[c]));
        int64_t v;
        std::memcpy(&v, line.data(), sizeof(v));
        EXPECT_EQ(v, model[c]) << "counter " << c;
    }
    // Serial re-execution oracle: replay the recorded commit order
    // one transaction at a time through the software model, then
    // compare final states byte-for-byte.
    std::string diag;
    EXPECT_TRUE(oracle.replaySerial(&diag)) << diag;
    // The run must actually have exercised the U-state machinery. On
    // small machines the tiny caches force U evictions; on >128-core
    // machines (fewer ops per thread, many sharers per line) frequent
    // full reductions reclaim U lines before eviction pressure builds,
    // so require reductions instead.
    const MachineStats &ms = m.stats().machine;
    if (kCores <= 128) {
        EXPECT_GT(ms.uWritebacks + ms.uForwards, 0u);
    }
    EXPECT_GT(ms.reductions, 0u);
}

TEST_P(ProtocolFuzz, MixedLabelsNeverCrossContaminate)
{
    // Offset pick: a different core-count schedule than the counter
    // fuzz, still covering >128-core (spilled-sharer) machines.
    const uint32_t kCores = fuzzCores(seed() + 1);
    Machine m(fuzzConfig(seed() ^ 0xabcdef, kCores));
    const Label add = m.labels().define(labels::makeAdd<int64_t>("ADD"));
    const Label mn = m.labels().define(labels::makeMin<int64_t>("MIN"));
    const Label mx = m.labels().define(labels::makeMax<int64_t>("MAX"));
    const Addr sum_cell = m.allocator().allocLines(1);
    const Addr min_cell = m.allocator().allocLines(1);
    const Addr max_cell = m.allocator().allocLines(1);
    m.memory().write<int64_t>(min_cell,
                              std::numeric_limits<int64_t>::max());
    m.memory().write<int64_t>(max_cell,
                              std::numeric_limits<int64_t>::lowest());

    std::vector<int64_t> mins(kCores,
                              std::numeric_limits<int64_t>::max());
    std::vector<int64_t> maxs(kCores,
                              std::numeric_limits<int64_t>::lowest());
    const int kOps = fuzzOps(kCores, 300);
    for (uint32_t t = 0; t < kCores; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            Rng &rng = ctx.rng();
            for (int i = 0; i < kOps; i++) {
                const int64_t x = int64_t(rng.below(1000000));
                ctx.txRun([&] {
                    // Labeled updates are read-modify-writes of the
                    // local partial value (a blind store would replace
                    // the local minimum, losing earlier local updates).
                    const int64_t s =
                        ctx.readLabeled<int64_t>(sum_cell, add);
                    ctx.writeLabeled<int64_t>(sum_cell, add, s + 1);
                    const int64_t lo =
                        ctx.readLabeled<int64_t>(min_cell, mn);
                    ctx.writeLabeled<int64_t>(min_cell, mn,
                                              std::min(lo, x));
                    const int64_t hi =
                        ctx.readLabeled<int64_t>(max_cell, mx);
                    ctx.writeLabeled<int64_t>(max_cell, mx,
                                              std::max(hi, x));
                });
                mins[t] = std::min(mins[t], x);
                maxs[t] = std::max(maxs[t], x);
            }
        });
    }
    m.run();

    int64_t expect_min = std::numeric_limits<int64_t>::max();
    int64_t expect_max = std::numeric_limits<int64_t>::lowest();
    for (uint32_t t = 0; t < kCores; t++) {
        expect_min = std::min(expect_min, mins[t]);
        expect_max = std::max(expect_max, maxs[t]);
    }
    const auto value = [&](Addr a) {
        const LineData line = m.memSys().debugReducedValue(lineAddr(a));
        int64_t v;
        std::memcpy(&v, line.data(), sizeof(v));
        return v;
    };
    EXPECT_EQ(value(sum_cell), int64_t(kCores) * kOps);
    EXPECT_EQ(value(min_cell), expect_min);
    EXPECT_EQ(value(max_cell), expect_max);
}

TEST_P(ProtocolFuzz, EagerLazyDifferentialCountersAgree)
{
    // Differential mode replay (docs/ARCHITECTURE.md Sec. 9): the
    // same seeded increment workload under eager and lazy detection
    // must produce identical per-core labeled-op shape streams and
    // identical end states. Workload randomness comes from private
    // host Rngs, never ctx.rng() — the context Rng also feeds abort
    // backoff, so its draw sequence legitimately differs across
    // detection modes.
    const uint64_t s = seed();
    const uint32_t kCores = fuzzCores(s + 2);
    constexpr uint32_t kCounters = 16;
    const int kOps = fuzzOps(kCores, 120);

    const auto workload = [&](const MachineConfig &cfg) {
        Machine m(cfg);
        const Label add = CommCounter::defineLabel(m);
        std::vector<Addr> counters;
        for (uint32_t i = 0; i < kCounters; i++)
            counters.push_back(m.allocator().allocLines(1));
        for (uint32_t t = 0; t < kCores; t++) {
            m.addThread([&, t](ThreadContext &ctx) {
                Rng rng(cfg.seed ^ (0xd1fful * (t + 1)));
                for (int i = 0; i < kOps; i++) {
                    const Addr a =
                        counters[rng.below(kCounters)];
                    ctx.txRun([&] {
                        const int64_t v =
                            ctx.readLabeled<int64_t>(a, add);
                        ctx.writeLabeled<int64_t>(a, add, v + 1);
                    });
                }
            });
        }
        m.run();
        DifferentialRun out;
        out.log = m.commitLog()->records();
        for (Addr a : counters) {
            const LineData line =
                m.memSys().debugReducedValue(lineAddr(a));
            out.endState.insert(out.endState.end(), line.data(),
                                line.data() + sizeof(int64_t));
        }
        return out;
    };

    const DifferentialResult res = runDifferential(
        fuzzConfig(s, kCores), workload, DiffMode::Shape);
    EXPECT_TRUE(res.ok) << res.diag;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88));

} // namespace
} // namespace commtm
