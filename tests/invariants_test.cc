/**
 * @file
 * Negative tests of the machine-wide InvariantChecker (Sec. 10): each
 * fault-injection hook corrupts exactly one protocol field, and the
 * next sweep must report the matching violation kind with
 * field-precise diagnostics. A clean machine must sweep clean both
 * after a run and inside a live transaction, and the
 * COMMTM_CHECK_INVARIANTS override must pick the documented density.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "lib/counter.h"
#include "rt/machine.h"
#include "sim/invariants.h"

namespace commtm {
namespace {

/** Lines spaced so they land in the same L1 *and* L2 set (the strides
 *  are the two sets' line counts; 256 is a multiple of 64). */
constexpr Addr kSetStrideBytes = 256 * kLineSize;

/**
 * A 4-core machine run to completion with known post-run cache state:
 * `shared` is dir-S with sharers {0,1}, `owned` is dir-M owned by
 * core 0, the counter line is dir-U with both cores' partials, and
 * core 0 holds 8 conventional lines that map to one L1/L2 set
 * (`stride(0..7)`).
 */
struct Rig {
    Rig()
    {
        cfg.numCores = 4;
        cfg.seed = 0x5eed;
        m = std::make_unique<Machine>(cfg);
        const Label add = CommCounter::defineLabel(*m);
        counter = std::make_unique<CommCounter>(*m, add);
        shared = m->allocator().alloc(64, 64);
        owned = m->allocator().alloc(64, 64);
        arena = m->allocator().alloc(8 * kSetStrideBytes, 64);
        m->addThread([&](ThreadContext &ctx) {
            (void)ctx.read<uint64_t>(shared);
            ctx.write<uint64_t>(owned, 42);
            counter->add(ctx, 1);
            for (int k = 0; k < 8; k++)
                (void)ctx.read<uint64_t>(stride(k));
        });
        m->addThread([&](ThreadContext &ctx) {
            (void)ctx.read<uint64_t>(shared);
            counter->add(ctx, 2);
        });
        m->run();
        chk = std::make_unique<InvariantChecker>(cfg, m->memSys(),
                                                 m->htm());
    }

    Addr stride(int k) const { return arena + Addr(k) * kSetStrideBytes; }
    Addr counterLine() const { return lineAddr(counter->addr()); }

    std::vector<InvariantViolation>
    sweep()
    {
        std::vector<InvariantViolation> v;
        chk->sweep(v);
        return v;
    }

    MachineConfig cfg;
    std::unique_ptr<Machine> m;
    std::unique_ptr<CommCounter> counter;
    std::unique_ptr<InvariantChecker> chk;
    Addr shared = 0, owned = 0, arena = 0;
};

bool
has(const std::vector<InvariantViolation> &v, InvariantKind kind)
{
    for (const InvariantViolation &x : v)
        if (x.kind == kind)
            return true;
    return false;
}

/** First message reported for @p kind ("" when absent). */
std::string
msgFor(const std::vector<InvariantViolation> &v, InvariantKind kind)
{
    for (const InvariantViolation &x : v)
        if (x.kind == kind)
            return x.message;
    return "";
}

TEST(Invariants, CleanMachineSweepsClean)
{
    Rig r;
    ASSERT_EQ(r.m->memSys().dirState(lineAddr(r.shared)), DirState::S);
    ASSERT_EQ(r.m->memSys().dirState(lineAddr(r.owned)), DirState::M);
    ASSERT_EQ(r.m->memSys().dirState(r.counterLine()), DirState::U);
    EXPECT_TRUE(r.sweep().empty());
    EXPECT_EQ(r.chk->sweeps(), 1u);
}

TEST(Invariants, DirSharerNotPresent)
{
    Rig r;
    // Core 2 never touched `shared`: a ghost sharer bit must name it.
    r.m->memSys().testFlipSharerBit(lineAddr(r.shared), 2);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::DirSharerNotPresent));
    const std::string msg =
        msgFor(v, InvariantKind::DirSharerNotPresent);
    EXPECT_NE(msg.find("sharer holds no private copy"),
              std::string::npos) << msg;
    EXPECT_NE(msg.find("dir=S"), std::string::npos) << msg;
    // Diagnostic carries both halves of the diff: the directory's
    // sharer mask and the cores that actually hold a copy.
    EXPECT_NE(msg.find("sharers={0,1,2}"), std::string::npos) << msg;
    EXPECT_NE(msg.find("priv={0,1}"), std::string::npos) << msg;
}

TEST(Invariants, PrivLineNotInDir)
{
    Rig r;
    // Clearing the owner's sharer bit orphans its private M copy.
    r.m->memSys().testFlipSharerBit(lineAddr(r.owned), 0);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::PrivLineNotInDir));
    const std::string msg = msgFor(v, InvariantKind::PrivLineNotInDir);
    EXPECT_NE(msg.find("core=0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("untracked"), std::string::npos) << msg;
}

TEST(Invariants, DirStateMismatch)
{
    Rig r;
    r.m->memSys().testFlipPrivState(0, lineAddr(r.shared),
                                    PrivState::M);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::DirStateMismatch));
    // The private sweep also flags the illegal exclusive copy.
    EXPECT_TRUE(has(v, InvariantKind::ExclusivityViolation));
}

TEST(Invariants, ExclusivityViolation)
{
    Rig r;
    // Dir-M with two sharers: M requires exactly one owner.
    r.m->memSys().testFlipDirState(lineAddr(r.shared), DirState::M);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::ExclusivityViolation));
    const std::string msg =
        msgFor(v, InvariantKind::ExclusivityViolation);
    EXPECT_NE(msg.find("exactly one owner"), std::string::npos) << msg;
}

TEST(Invariants, SharerCountMismatch)
{
    Rig r;
    r.m->memSys().testFlipDirState(lineAddr(r.owned),
                                   DirState::NonCached);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::SharerCountMismatch));
    const std::string msg =
        msgFor(v, InvariantKind::SharerCountMismatch);
    EXPECT_NE(msg.find("NonCached line has sharers"),
              std::string::npos) << msg;
}

TEST(Invariants, ULabelMismatchOnConventionalLine)
{
    Rig r;
    // A conventional (kNoLabel) line flipped to U has no reduction
    // label to merge partials with.
    r.m->memSys().testFlipDirState(lineAddr(r.owned), DirState::U);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::ULabelMismatch));
    EXPECT_NE(msgFor(v, InvariantKind::ULabelMismatch)
                  .find("unregistered label"),
              std::string::npos);
}

TEST(Invariants, ULabelMismatchOnLabeledLine)
{
    Rig r;
    // The counter line keeps its ADD label but leaves U: only U lines
    // may carry a label.
    r.m->memSys().testFlipDirState(r.counterLine(), DirState::S);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::ULabelMismatch));
    EXPECT_NE(msgFor(v, InvariantKind::ULabelMismatch)
                  .find("non-U line carries a label"),
              std::string::npos);
}

TEST(Invariants, UCopyMissing)
{
    Rig r;
    r.m->memSys().testDropUCopy(0, r.counterLine());
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::UCopyMissing));
    const std::string msg = msgFor(v, InvariantKind::UCopyMissing);
    EXPECT_NE(msg.find("dir-U sharer holds no U copy"),
              std::string::npos) << msg;
}

TEST(Invariants, UCopyOrphan)
{
    Rig r;
    // Dir leaves U while the sharers keep their partial-value copies.
    r.m->memSys().testFlipDirState(r.counterLine(), DirState::S);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::UCopyOrphan));
}

TEST(Invariants, InclusionViolation)
{
    Rig r;
    // L1-only flip: the L1 and inclusive L2 now disagree.
    r.m->memSys().testFlipL1State(0, lineAddr(r.owned), PrivState::S);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::InclusionViolation));
    EXPECT_NE(msgFor(v, InvariantKind::InclusionViolation)
                  .find("disagree"),
              std::string::npos);
}

TEST(Invariants, ReservedWayViolation)
{
    Rig r;
    // The 8 stride lines fill one 8-way set; flipping them all to U
    // leaves no conventional way (paper Sec. III-B4).
    for (int k = 0; k < 8; k++) {
        const Addr line = lineAddr(r.stride(k));
        ASSERT_NE(r.m->memSys().privState(0, line), PrivState::I)
            << "stride line " << k << " was evicted; rig broken";
        r.m->memSys().testFlipPrivState(0, line, PrivState::U);
    }
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::ReservedWayViolation));
    const std::string msg =
        msgFor(v, InvariantKind::ReservedWayViolation);
    EXPECT_NE(msg.find("reserved-way rule"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core=0"), std::string::npos) << msg;
}

TEST(Invariants, SpecBitsOutsideTx)
{
    Rig r;
    // A noted bit surviving past its transaction would poison the
    // next transaction's conflict detection on that core.
    r.m->memSys().testFlipNotedBit(0, lineAddr(r.owned));
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::SpecBitsOutsideTx));
    EXPECT_NE(msgFor(v, InvariantKind::SpecBitsOutsideTx)
                  .find("no live transaction"),
              std::string::npos);
}

TEST(Invariants, SpecStateLeak)
{
    Rig r;
    // Buffered bytes on a core with no live transaction: remoteAbort
    // and abortAttempt must have cleared them.
    const uint64_t bogus = 7;
    r.m->htm().writeBuffer(0).write(r.owned, &bogus, sizeof(bogus));
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::SpecStateLeak));
    EXPECT_NE(msgFor(v, InvariantKind::SpecStateLeak)
                  .find("outlives"),
              std::string::npos);
}

TEST(Invariants, HandlerDepthExceeded)
{
    Rig r;
    r.m->memSys().testSetHandlerDepth(2);
    const auto v = r.sweep();
    EXPECT_TRUE(has(v, InvariantKind::HandlerDepthExceeded));
    EXPECT_NE(msgFor(v, InvariantKind::HandlerDepthExceeded)
                  .find("handlerDepth=2"),
              std::string::npos);
    r.m->memSys().testSetHandlerDepth(0);
}

/** Mid-transaction checks need a live tx: run the corruption and the
 *  sweep inside the transaction body itself. */
TEST(Invariants, WriteBufferNotInSetMidTx)
{
    MachineConfig cfg;
    cfg.numCores = 2;
    Machine m(cfg);
    const Addr a = m.allocator().alloc(64, 64);
    const Addr b = m.allocator().alloc(64, 64);
    InvariantChecker chk(cfg, m.memSys(), m.htm());
    std::vector<InvariantViolation> in_tx, clean;
    m.addThread([&](ThreadContext &ctx) {
        ctx.txRun([&] {
            ctx.write<uint64_t>(a, 1);
            chk.sweep(clean); // live tx, consistent: must be clean
            // Inject a buffered line that no conflict check has seen.
            const uint64_t bogus = 9;
            m.htm().writeBuffer(ctx.id()).write(b, &bogus,
                                                sizeof(bogus));
            chk.sweep(in_tx);
        });
    });
    m.run();
    EXPECT_TRUE(clean.empty());
    EXPECT_TRUE(has(in_tx, InvariantKind::WriteBufferNotInSet));
    EXPECT_NE(msgFor(in_tx, InvariantKind::WriteBufferNotInSet)
                  .find("outside write/labeled sets"),
              std::string::npos);
}

TEST(Invariants, SignatureSetMismatchMidTx)
{
    MachineConfig cfg;
    cfg.numCores = 2;
    Machine m(cfg);
    const Addr a = m.allocator().alloc(64, 64);
    const Addr pre = m.allocator().alloc(64, 64);
    InvariantChecker chk(cfg, m.memSys(), m.htm());
    std::vector<InvariantViolation> v;
    m.addThread([&](ThreadContext &ctx) {
        // Cache `pre` non-speculatively so it has an L1 entry with no
        // noted bits, then forge a notedRead inside a live tx.
        (void)ctx.read<uint64_t>(pre);
        ctx.txRun([&] {
            (void)ctx.read<uint64_t>(a);
            m.memSys().testFlipNotedBit(ctx.id(), lineAddr(pre));
            chk.sweep(v);
            m.memSys().testFlipNotedBit(ctx.id(), lineAddr(pre));
        });
    });
    m.run();
    EXPECT_TRUE(has(v, InvariantKind::SignatureSetMismatch));
    EXPECT_NE(msgFor(v, InvariantKind::SignatureSetMismatch)
                  .find("notedRead line missing from the read set"),
              std::string::npos);
}

/**
 * Sweep counts of a one-thread run with checkInvariants left off in
 * the config: one sample before the first of three commits and one
 * after each. Empty when the machine built no checker.
 */
std::vector<uint64_t>
sweepsAroundCommits()
{
    MachineConfig cfg;
    cfg.numCores = 2;
    Machine m(cfg);
    std::vector<uint64_t> seen;
    const InvariantChecker *chk = m.invariantChecker();
    if (!chk)
        return seen;
    const Addr a = m.allocator().allocLines(1);
    m.addThread([&](ThreadContext &ctx) {
        seen.push_back(chk->sweeps());
        for (uint64_t i = 0; i < 3; i++) {
            ctx.txRun([&] { ctx.write<uint64_t>(a, i); });
            seen.push_back(chk->sweeps());
        }
    });
    m.run();
    return seen;
}

TEST(Invariants, EnvOverrideSelectsSweepDensity)
{
    const char *outer = std::getenv("COMMTM_CHECK_INVARIANTS");
    const std::string saved = outer ? outer : "";
    ASSERT_EQ(unsetenv("COMMTM_CHECK_INVARIANTS"), 0);
    EXPECT_TRUE(sweepsAroundCommits().empty()); // unset: checking off

    // "drain" adds the dense sweeps: the count grows at every commit.
    ASSERT_EQ(setenv("COMMTM_CHECK_INVARIANTS", "drain", 1), 0);
    std::vector<uint64_t> seen = sweepsAroundCommits();
    ASSERT_EQ(seen.size(), 4u);
    for (size_t i = 1; i < seen.size(); i++)
        EXPECT_GT(seen[i], seen[i - 1]) << "commit " << i;

    // Any other value, "commit" included, gives periodic sweeps only:
    // a run this short stays inside the first sweep period.
    for (const char *value : {"1", "commit"}) {
        ASSERT_EQ(setenv("COMMTM_CHECK_INVARIANTS", value, 1), 0);
        seen = sweepsAroundCommits();
        ASSERT_EQ(seen.size(), 4u) << value;
        for (size_t i = 1; i < seen.size(); i++)
            EXPECT_EQ(seen[i], seen[0]) << value << ", commit " << i;
    }
    if (outer)
        setenv("COMMTM_CHECK_INVARIANTS", saved.c_str(), 1);
    else
        unsetenv("COMMTM_CHECK_INVARIANTS");
}

/** The production entry point prints every violation and aborts. */
TEST(InvariantsDeathTest, CheckAbortsWithDiagnostics)
{
    Rig r;
    r.m->memSys().testSetHandlerDepth(2);
    EXPECT_DEATH(
        r.chk->check(InvariantChecker::SyncPoint::Manual),
        "\\[HandlerDepthExceeded\\] handlerDepth=2");
}

} // namespace
} // namespace commtm
