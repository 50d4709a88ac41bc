/**
 * @file
 * Abort-path regression wall. The counters pinned here were recorded
 * on the throw-per-abort simulator (pre-cooperative-unwind) and must
 * stay bit-identical under the exception-free abort path: a forced
 * two-core abort storm (eager and lazy), the stats-bucket attribution
 * of an aborted attempt's cycles, and a 256-thread deep-gather case
 * that stresses reductions over hundreds of U sharers.
 */

#include <gtest/gtest.h>

#include "lib/bounded_counter.h"
#include "lib/comm_queue.h"
#include "rt/machine.h"

namespace commtm {
namespace {

struct StormResult {
    uint64_t commits = 0;
    uint64_t aborts = 0;
    int64_t finalValue = 0;
    Cycle cycles = 0;
};

/**
 * Two cores hammer read-modify-write transactions on one line: every
 * concurrent pair conflicts, so the run is an abort storm. Fully
 * deterministic, so commit/abort counts and total cycles pin exactly.
 */
StormResult
runStorm(ConflictDetection detection)
{
    MachineConfig c;
    c.numCores = 2;
    c.mode = SystemMode::BaselineHtm;
    c.conflictDetection = detection;
    Machine m(c);
    const Addr a = m.allocator().allocLines(1);
    constexpr int kIncrements = 200;
    for (int t = 0; t < 2; t++) {
        m.addThread([&](ThreadContext &ctx) {
            for (int i = 0; i < kIncrements; i++) {
                ctx.txRun([&] {
                    const int64_t v = ctx.read<int64_t>(a);
                    ctx.compute(8);
                    ctx.write<int64_t>(a, v + 1);
                });
            }
        });
    }
    m.run();
    const ThreadStats agg = m.stats().aggregateThreads();
    StormResult r;
    r.commits = agg.txCommitted;
    r.aborts = agg.txAborted;
    r.finalValue = m.memory().read<int64_t>(a);
    r.cycles = m.stats().runtimeCycles();
    return r;
}

TEST(AbortPath, EagerStormCountersArePinned)
{
    const StormResult r = runStorm(ConflictDetection::Eager);
    EXPECT_EQ(r.commits, 400u);
    EXPECT_EQ(r.finalValue, 400);
    EXPECT_EQ(r.aborts, 48u);
    EXPECT_EQ(r.cycles, 7064u);
}

TEST(AbortPath, LazyStormCountersArePinned)
{
    const StormResult r = runStorm(ConflictDetection::Lazy);
    EXPECT_EQ(r.commits, 400u);
    EXPECT_EQ(r.finalValue, 400);
    EXPECT_EQ(r.aborts, 47u);
    EXPECT_EQ(r.cycles, 7211u);
}

/**
 * Single deterministic abort, run twice with different abortCost: the
 * whole aborted attempt (tx_begin, the accesses, the backoff stall)
 * must land in txAbortedCycles — never in nonTxCycles — and the
 * abortCost delta must show up there exactly.
 */
struct AbortAccounting {
    ThreadStats victim;
    uint64_t aborts = 0;
};

AbortAccounting
runOneAbort(Cycle abort_cost)
{
    MachineConfig c;
    c.numCores = 2;
    c.mode = SystemMode::BaselineHtm;
    c.abortCost = abort_cost;
    c.backoffBase = 0; // backoff = abortCost exactly (window collapses)
    Machine m(c);
    const Addr a = m.allocator().allocLines(1);
    // Thread 0 (the victim) opens a transaction over the line and then
    // computes long enough for thread 1's non-speculative write to
    // arrive and doom it; the retry succeeds unconditionally.
    m.addThread([&](ThreadContext &ctx) {
        int attempt = 0;
        ctx.txRun([&] {
            attempt++;
            const int64_t v = ctx.read<int64_t>(a);
            ctx.write<int64_t>(a, v + 1);
            if (attempt == 1) {
                for (int i = 0; i < 100; i++)
                    ctx.compute(10);
            }
        });
    });
    m.addThread([&](ThreadContext &ctx) {
        ctx.compute(150);
        ctx.write<int64_t>(a, 100); // plain store; cannot be NACKed
    });
    m.run();
    AbortAccounting r;
    r.victim = m.stats().threads[0];
    r.aborts = m.stats().aggregateThreads().txAborted;
    return r;
}

TEST(AbortPath, AbortedAttemptCyclesLandInTxAbortedBucket)
{
    const AbortAccounting base = runOneAbort(0);
    const AbortAccounting plus = runOneAbort(77);
    ASSERT_EQ(base.aborts, 1u);
    ASSERT_EQ(plus.aborts, 1u);
    EXPECT_EQ(base.victim.txCommitted, 1u);

    // The victim does nothing outside its transaction: not one cycle
    // of the aborted attempt (nor of the backoff stall) may leak into
    // nonTxCycles.
    EXPECT_EQ(base.victim.nonTxCycles, 0u);
    EXPECT_EQ(plus.victim.nonTxCycles, 0u);

    // The extra abortCost is attributed to the wasted attempt, exactly.
    EXPECT_EQ(plus.victim.txAbortedCycles,
              base.victim.txAbortedCycles + 77);

    // Wasted-cycle buckets partition txAbortedCycles.
    Cycle bucketed = 0;
    for (auto w : base.victim.wastedByCause)
        bucketed += w;
    EXPECT_EQ(bucketed, base.victim.txAbortedCycles);

    // Exact attribution pinned on the pre-unwind simulator.
    EXPECT_EQ(base.victim.txAbortedCycles, 166u);
    EXPECT_EQ(base.victim.txCommittedCycles, 70u);
}

TEST(AbortPath, CooperativeTxAbortMakesOpsNoOpsAndRetries)
{
    MachineConfig c;
    c.numCores = 1;
    Machine m(c);
    const Addr a = m.allocator().allocLines(1);
    m.memory().write<int64_t>(a, 41);
    int attempts = 0;
    int64_t seen_after_abort = -1;
    m.addThread([&](ThreadContext &ctx) {
        ctx.txRun([&] {
            attempts++;
            ctx.write<int64_t>(a, 77);
            if (attempts == 1) {
                ctx.txAbort();
                EXPECT_TRUE(ctx.txAborted());
                // Pending abort: reads return the zero sentinel and
                // writes vanish; the body returns and txRun retries.
                seen_after_abort = ctx.read<int64_t>(a);
                ctx.write<int64_t>(a, 1234);
                return;
            }
        });
    });
    m.run();
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(seen_after_abort, 0);
    EXPECT_EQ(m.memory().read<int64_t>(a), 77);
    const ThreadStats agg = m.stats().aggregateThreads();
    EXPECT_EQ(agg.txCommitted, 1u);
    EXPECT_EQ(agg.txAborted, 1u);
    EXPECT_EQ(agg.abortsByCause[size_t(AbortCause::Explicit)], 1u);
}

TEST(AbortPath, NonCooperativeBodyHitsTheExceptionFallback)
{
    MachineConfig c;
    c.numCores = 1;
    Machine m(c);
    const Addr a = m.allocator().allocLines(1);
    int attempts = 0;
    m.addThread([&](ThreadContext &ctx) {
        ctx.txRun([&] {
            attempts++;
            if (attempts == 1) {
                ctx.txAbort();
                // Never check txAborted(): spin past the no-op budget
                // so the AbortException fallback force-unwinds us out
                // of this (otherwise infinite) loop.
                for (;;)
                    ctx.read<int64_t>(a);
            }
            ctx.write<int64_t>(a, 7);
        });
    });
    m.run();
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(m.memory().read<int64_t>(a), 7);
    const ThreadStats agg = m.stats().aggregateThreads();
    EXPECT_EQ(agg.txCommitted, 1u);
    EXPECT_EQ(agg.txAborted, 1u);
}

/**
 * Deep-gather case: 256 threads share one bounded counter; the
 * drainer's gathers and full reductions fan out over 255 U sharers.
 * Each donor's handler must re-enter access() at most one level deep
 * (docs/ARCHITECTURE.md Sec. 3.2), so the host stack depth stays
 * fixed however many donors there are.
 */
TEST(AbortPath, DeepGatherAt256Threads)
{
    MachineConfig c = MachineConfig::forCores(256);
    c.mode = SystemMode::CommTm;
    Machine m(c);
    const Label bounded = BoundedCounter::defineLabel(m);
    BoundedCounter counter(m, bounded, 0);
    constexpr int64_t kDeposit = 300; // > 255 so splitters donate >= 1
    uint64_t drained = 0;
    for (uint32_t t = 0; t < 256; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            if (t != 0)
                counter.increment(ctx, kDeposit);
            ctx.barrier();
            if (t == 0) {
                // Thread 0 deposited nothing: the first decrement must
                // gather donations from all 255 sharers.
                for (int i = 0; i < 8; i++) {
                    if (counter.decrement(ctx))
                        drained++;
                }
            }
        });
    }
    m.run();
    EXPECT_EQ(drained, 8u);
    EXPECT_EQ(counter.peek(m), 255 * kDeposit - 8);
    EXPECT_GE(m.stats().machine.gathers, 1u);
    EXPECT_GE(m.stats().machine.splits, 200u);
}

// ---------------------------------------------------------------------
// CommQueue additions (the queue layer the intruder/labyrinth/yada
// workloads are built on): a pinned two-core abort storm over one
// queue, the exception-fallback budget under a non-cooperative queue
// body, and the address-drift regression for enqueue's in-transaction
// chunk allocation.
// ---------------------------------------------------------------------

/**
 * Two cores hammer a baseline-HTM queue (conventional ops, shared
 * descriptor and chunk lines): every concurrent enqueue/dequeue pair
 * conflicts. Deterministic, so the counters pin exactly — recorded
 * when CommQueue landed; any drift means the abort path or queue
 * behavior changed.
 */
StormResult
runQueueStorm(ConflictDetection detection)
{
    MachineConfig c;
    c.numCores = 2;
    c.mode = SystemMode::BaselineHtm;
    c.conflictDetection = detection;
    Machine m(c);
    const Label label = CommQueue::defineLabel(m);
    CommQueue queue(m, label, /* baseline_layout */ true);
    constexpr int kOpsPerThread = 150;
    std::vector<uint64_t> dequeued(2, 0);
    for (int t = 0; t < 2; t++) {
        m.addThread([&, t](ThreadContext &ctx) {
            for (int i = 0; i < kOpsPerThread; i++) {
                if (i % 2 == 0) {
                    queue.enqueue(ctx, uint64_t(t) << 32 | i);
                } else {
                    uint64_t out;
                    if (queue.dequeue(ctx, &out))
                        dequeued[t]++;
                }
            }
        });
    }
    m.run();
    const ThreadStats agg = m.stats().aggregateThreads();
    StormResult r;
    r.commits = agg.txCommitted;
    r.aborts = agg.txAborted;
    r.finalValue =
        int64_t(queue.peekSize(m)) + dequeued[0] + dequeued[1];
    r.cycles = m.stats().runtimeCycles();
    return r;
}

TEST(AbortPath, EagerQueueStormCountersArePinned)
{
    const StormResult r = runQueueStorm(ConflictDetection::Eager);
    EXPECT_EQ(r.commits, 300u);
    EXPECT_EQ(r.finalValue, 150); // enqueues = dequeues + leftover
    EXPECT_EQ(r.aborts, 209u);
    EXPECT_EQ(r.cycles, 41017u);
}

TEST(AbortPath, LazyQueueStormCountersArePinned)
{
    const StormResult r = runQueueStorm(ConflictDetection::Lazy);
    EXPECT_EQ(r.commits, 300u);
    EXPECT_EQ(r.finalValue, 150);
    EXPECT_EQ(r.aborts, 70u);
    EXPECT_EQ(r.cycles, 24628u);
}

TEST(AbortPath, NonCooperativeQueueBodyHitsTheExceptionFallback)
{
    // A workload body that keeps issuing queue operations after its
    // abort (never checking txAborted) must be force-unwound by the
    // no-op budget: every nested dequeue body observes the zeroed
    // sentinel, returns false, and the loop would spin forever.
    MachineConfig c;
    c.numCores = 1;
    c.mode = SystemMode::CommTm;
    Machine m(c);
    const Label label = CommQueue::defineLabel(m);
    CommQueue queue(m, label);
    int attempts = 0;
    m.addThread([&](ThreadContext &ctx) {
        queue.enqueue(ctx, 41);
        ctx.txRun([&] {
            attempts++;
            if (attempts == 1) {
                ctx.txAbort();
                uint64_t out;
                for (;;)
                    queue.dequeue(ctx, &out);
            }
            queue.enqueue(ctx, 43);
        });
    });
    m.run();
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(queue.peekSize(m), 2u);
    const ThreadStats agg = m.stats().aggregateThreads();
    EXPECT_GE(agg.txAborted, 1u);
}

/**
 * Address-drift regression (the TopK hazard of ARCHITECTURE.md 4.1,
 * here for CommQueue): an aborted enqueue attempt reads the zeroed
 * tail sentinel, which looks like an empty queue; without the
 * txAborted() check it would host-allocate a fresh chunk inside every
 * doomed attempt — even mid-chunk, where no allocation is ever legal
 * — drifting all later allocations. With the check, a doomed
 * mid-chunk attempt allocates nothing, so this run must allocate
 * exactly one chunk. (A doom landing after the check, during a
 * boundary attempt's chunk-initialization writes, can still orphan
 * that one chunk; the doom here is timed to latch before the nested
 * enqueue's reads, the sentinel path this test pins.)
 */
TEST(AbortPath, AbortedCommQueueEnqueueDoesNotHostAllocate)
{
    MachineConfig c;
    c.numCores = 2;
    c.mode = SystemMode::CommTm;
    c.backoffBase = 0;
    Machine m(c);
    const Label label = CommQueue::defineLabel(m);
    CommQueue queue(m, label);
    const Addr conflict = m.allocator().allocLines(1);
    const Addr before = m.allocator().watermark();
    static_assert(CommQueue::kChunkCap >= 2, "both values fit one chunk");
    int attempts = 0;
    m.addThread([&](ThreadContext &ctx) {
        // The first enqueue legitimately allocates the only chunk.
        queue.enqueue(ctx, 1);
        // The second runs flat-nested in a transaction that is doomed
        // mid-flight (runOneAbort's shape): the victim joins the
        // conflict line's read set, stalls long enough for thread 1's
        // plain store to arrive, and by the time the nested enqueue
        // issues its labeled tail read the pending abort is latched —
        // the read returns the zeroed sentinel, and tail == 0 must NOT
        // be taken for an empty queue (that is the drift hazard).
        ctx.txRun([&] {
            attempts++;
            (void)ctx.read<int64_t>(conflict);
            if (attempts == 1) {
                for (int i = 0; i < 100; i++)
                    ctx.compute(10);
            }
            queue.enqueue(ctx, 2);
        });
    });
    m.addThread([&](ThreadContext &ctx) {
        // Lands mid-way through the victim's first-attempt compute
        // window (which spans ~1000 cycles after its setup enqueue).
        ctx.compute(500);
        ctx.write<int64_t>(conflict, 99); // plain store; dooms thread 0
    });
    m.run();
    EXPECT_EQ(attempts, 2);
    // Exactly one chunk may ever be allocated: the aborted attempt's
    // nested enqueue saw the sentinel and must not have allocated, and
    // the retry appended to the existing chunk.
    EXPECT_EQ(m.allocator().watermark() - before, Addr(kLineSize))
        << "an aborted enqueue attempt host-allocated a chunk";
    EXPECT_EQ(queue.peekSize(m), 2u);
    EXPECT_EQ(m.stats().aggregateThreads().txAborted, 1u);
}

} // namespace
} // namespace commtm
